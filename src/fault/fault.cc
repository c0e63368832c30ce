#include "fault/fault.hh"

#include <cstdio>

#include "common/parse.hh"

namespace lwsp {
namespace fault {

/*
 * Spec grammar: comma-separated `key=value` pairs, canonical key order,
 * default-valued keys omitted. `enabled` and `hardenedCkpt` are not
 * spelled — whoever applies a parsed config decides those (the fuzz
 * campaign arms both whenever any axis is set).
 *
 *   seed=N     injector RNG seed (decimal)
 *   loss=P     broadcast-copy loss permille
 *   delay=P    broadcast-copy delay permille
 *   delayc=N   delay amount in cycles (only emitted when != 120)
 *   dup=P      broadcast-copy duplication permille
 *   losspin=T  drop the first broadcast at/after tick T entirely
 *   flip=1     WPQ bit flip at crash (ECC-detected)
 *   tear=1     torn WPQ entry at crash (ECC-detected)
 *   ckpt=1     pin WPQ damage to a checkpoint-area entry
 *   poison=N   poison N checkpoint-area PM words at crash
 *   silent=1   silent bit flip in a persisted register slot
 *   stall=N    MC stall iterations during the crash drain
 */

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
    std::string s;
    auto add = [&](const char *key, std::uint64_t v) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s%s=%llu", s.empty() ? "" : ",",
                      key, static_cast<unsigned long long>(v));
        s += buf;
    };
    if (seed)
        add("seed", seed);
    if (bcastLossPm)
        add("loss", bcastLossPm);
    if (bcastDelayPm)
        add("delay", bcastDelayPm);
    if (bcastDelayCycles != 120)
        add("delayc", bcastDelayCycles);
    if (bcastDupPm)
        add("dup", bcastDupPm);
    if (bcastLossPinTick != maxTick)
        add("losspin", bcastLossPinTick);
    if (wpqBitFlip)
        add("flip", 1);
    if (wpqTear)
        add("tear", 1);
    if (ckptEntryDamage)
        add("ckpt", 1);
    if (pmPoisonWords)
        add("poison", pmPoisonWords);
    if (silentCkptFlip)
        add("silent", 1);
    if (mcStallIters)
        add("stall", mcStallIters);
    return s;
}

bool
FaultConfig::parse(const std::string &s, FaultConfig &out, std::string &err)
{
    FaultConfig cfg;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        std::string tok = s.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? s.size() : comma + 1;
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            err = "bad fault token '" + tok + "' (want key=value)";
            return false;
        }
        std::string key = tok.substr(0, eq);
        std::string_view val(tok);
        val.remove_prefix(eq + 1);
        std::uint64_t flag = 0;
        bool ok;
        if (key == "seed") {
            ok = parseUnsigned(val, cfg.seed);
        } else if (key == "loss") {
            ok = parseUnsigned(val, cfg.bcastLossPm);
        } else if (key == "delay") {
            ok = parseUnsigned(val, cfg.bcastDelayPm);
        } else if (key == "delayc") {
            ok = parseUnsigned(val, cfg.bcastDelayCycles);
        } else if (key == "dup") {
            ok = parseUnsigned(val, cfg.bcastDupPm);
        } else if (key == "losspin") {
            ok = parseUnsigned(val, cfg.bcastLossPinTick);
        } else if (key == "flip") {
            ok = parseUnsigned(val, flag);
            cfg.wpqBitFlip = flag != 0;
        } else if (key == "tear") {
            ok = parseUnsigned(val, flag);
            cfg.wpqTear = flag != 0;
        } else if (key == "ckpt") {
            ok = parseUnsigned(val, flag);
            cfg.ckptEntryDamage = flag != 0;
        } else if (key == "poison") {
            ok = parseUnsigned(val, cfg.pmPoisonWords);
        } else if (key == "silent") {
            ok = parseUnsigned(val, flag);
            cfg.silentCkptFlip = flag != 0;
        } else if (key == "stall") {
            ok = parseUnsigned(val, cfg.mcStallIters);
        } else {
            err = "unknown fault key '" + key + "'";
            return false;
        }
        if (!ok) {
            err = "bad fault value in '" + tok + "'";
            return false;
        }
        if (cfg.bcastLossPm > 1000 || cfg.bcastDelayPm > 1000 ||
            cfg.bcastDupPm > 1000) {
            err = "fault permille out of range in '" + tok + "'";
            return false;
        }
    }
    out = cfg;
    return true;
}

} // namespace fault
} // namespace lwsp
