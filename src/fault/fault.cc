#include "fault/fault.hh"

#include "common/parse.hh"

namespace lwsp {
namespace fault {

/*
 * Spec grammar (common/parse.hh): comma-separated `key=value` pairs in
 * the field order below, default-valued keys omitted. `enabled` and
 * `hardenedCkpt` are not spelled — whoever applies a parsed config
 * decides those (the fuzz campaign arms both whenever any axis is set).
 */

namespace {

using spec::Print;

constexpr spec::Field<FaultConfig> faultFields[] = {
    spec::number<&FaultConfig::seed>("seed", Print::UnlessDefault),
    spec::number<&FaultConfig::bcastLossPm>("loss", Print::UnlessDefault),
    spec::number<&FaultConfig::bcastDelayPm>("delay", Print::UnlessDefault),
    spec::number<&FaultConfig::bcastDelayCycles>("delayc",
                                                 Print::UnlessDefault),
    spec::number<&FaultConfig::bcastDupPm>("dup", Print::UnlessDefault),
    spec::number<&FaultConfig::bcastLossPinTick>("losspin",
                                                 Print::UnlessDefault),
    spec::flag<&FaultConfig::wpqBitFlip>("flip"),
    spec::flag<&FaultConfig::wpqTear>("tear"),
    spec::flag<&FaultConfig::ckptEntryDamage>("ckpt"),
    spec::number<&FaultConfig::pmPoisonWords>("poison", Print::UnlessDefault),
    spec::flag<&FaultConfig::silentCkptFlip>("silent"),
    spec::number<&FaultConfig::mcStallIters>("stall", Print::UnlessDefault),
};

bool
validate(const FaultConfig &cfg, std::string &err)
{
    if (cfg.bcastLossPm <= 1000 && cfg.bcastDelayPm <= 1000 &&
        cfg.bcastDupPm <= 1000)
        return true;
    err = "fault permille out of range (max 1000)";
    return false;
}

} // namespace

bool
FaultConfig::anyArmed() const
{
    return bcastLossPm || bcastDelayPm || bcastDupPm ||
           bcastLossPinTick != maxTick || wpqBitFlip || wpqTear ||
           ckptEntryDamage || pmPoisonWords || silentCkptFlip ||
           mcStallIters;
}

std::string
FaultConfig::toString() const
{
    return spec::print(*this, ',', faultFields);
}

bool
FaultConfig::parse(const std::string &s, FaultConfig &out, std::string &err)
{
    return spec::parse(s, ',', "fault", faultFields, validate, out, err);
}

} // namespace fault
} // namespace lwsp
