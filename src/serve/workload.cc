/**
 * @file
 * ServeSpec canonical form, deterministic samplers (Zipf keys,
 * exponential+burst arrivals), request generation from the profile
 * mixes, and the request compiler lowering requests onto the pds hash
 * tape.
 */

#include "serve/serve.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parse.hh"

namespace lwsp {
namespace serve {

namespace {

constexpr const char *profileNames[] = {"varnish", "horde"};

using spec::Print;

constexpr spec::Field<ServeSpec> serveFields[] = {
    spec::word<&ServeSpec::profile, profileNames>(nullptr),
    spec::number<&ServeSpec::sizeClass>("sz"),
    spec::number<&ServeSpec::numRequests>("reqs"),
    spec::number<&ServeSpec::meanIa>("ia"),
    spec::number<&ServeSpec::burst>("burst"),
    spec::number<&ServeSpec::seed>("sseed"),
    spec::number<&ServeSpec::opsPerTx>("tx", Print::UnlessDefault),
};

bool
validate(const ServeSpec &spec, std::string &err)
{
    if (spec.sizeClass > 2)
        err = "serve sz out of range";
    else if (spec.numRequests < 1 || spec.numRequests > 50000)
        err = "serve reqs out of range";
    else if (spec.meanIa < 1 || spec.meanIa > 10'000'000)
        err = "serve ia out of range";
    else if (spec.burst > 2)
        err = "serve burst out of range";
    else if (spec.opsPerTx == 0 ||
             (spec.opsPerTx & (spec.opsPerTx - 1)) != 0 ||
             spec.opsPerTx > 64)
        err = "serve tx must be a power of two <= 64";
    else
        return true;
    return false;
}

} // namespace

const char *
profileName(Profile p)
{
    return spec::enumName(profileNames, p);
}

const char *
reqTypeName(ReqType t)
{
    switch (t) {
      case ReqType::Get: return "get";
      case ReqType::Put: return "put";
      case ReqType::Del: return "del";
      case ReqType::Scan: return "scan";
      case ReqType::Resize: return "resize";
    }
    return "?";
}

std::string
ServeSpec::toString() const
{
    return spec::print(*this, ',', serveFields);
}

bool
ServeSpec::parse(const std::string &text, ServeSpec &out, std::string &err)
{
    return spec::parse(text, ',', "serve", serveFields, validate, out, err);
}

// ---------------------------------------------------------------------------
// Deterministic samplers.

double
detLog(double x)
{
    LWSP_ASSERT(x > 0.0, "detLog domain");
    int e = 0;
    double m = std::frexp(x, &e);  // m in [0.5, 1), exact
    // ln(m) = 2*atanh(z) with z = (m-1)/(m+1), |z| <= 1/3; a fixed
    // 10-term odd series bounds the truncation error below 1e-11
    // relative, and every operation is a basic IEEE-rounded op.
    double z = (m - 1.0) / (m + 1.0);
    double z2 = z * z;
    double term = z;
    double sum = 0.0;
    for (int k = 1; k <= 19; k += 2) {
        sum += term / k;
        term *= z2;
    }
    constexpr double ln2 = 0.69314718055994530942;
    return 2.0 * sum + static_cast<double>(e) * ln2;
}

ZipfSampler::ZipfSampler(unsigned n)
{
    LWSP_ASSERT(n >= 1, "ZipfSampler over empty universe");
    cdf_.resize(n);
    double h = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        h += 1.0 / static_cast<double>(i + 1);
        cdf_[i] = h;
    }
    for (unsigned i = 0; i < n; ++i)
        cdf_[i] /= h;
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    double u = rng.uniform();  // [0, 1)
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        --it;  // u rounded above cdf_.back() == 1.0
    return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

namespace {

/** Burst-episode presets indexed by ServeSpec::burst. */
struct BurstPreset
{
    double entryP;    ///< per-arrival episode entry probability
    unsigned meanLen; ///< mean episode length (arrivals)
    double mult;      ///< rate multiplier inside an episode
};

constexpr BurstPreset burstTable[3] = {
    {0.0, 1, 1.0},     // 0: plain Poisson
    {0.02, 16, 4.0},   // 1: mild bursts
    {0.05, 32, 8.0},   // 2: heavy bursts
};

} // namespace

std::vector<Tick>
arrivalTimes(const ServeSpec &spec)
{
    // Own stream: the tape (keys/ops) must not depend on rate/burst so
    // one simulation serves every arrival cell.
    Rng rng(spec.seed ^ 0x73727665'2d617272ull);  // "srve-arr"
    const BurstPreset &b = burstTable[spec.burst];

    std::vector<Tick> out;
    out.reserve(spec.numRequests);
    double t = 0.0;
    bool inBurst = false;
    unsigned left = 0;
    for (unsigned i = 0; i < spec.numRequests; ++i) {
        if (!inBurst && b.entryP > 0.0 && rng.chance(b.entryP)) {
            inBurst = true;
            // Geometric-ish episode length via the exponential draw.
            left = 1 + static_cast<unsigned>(
                           -detLog(1.0 - rng.uniform()) *
                           static_cast<double>(b.meanLen));
        }
        double ia = -detLog(1.0 - rng.uniform()) *
                    static_cast<double>(spec.meanIa);
        if (inBurst) {
            ia /= b.mult;
            if (--left == 0)
                inBurst = false;
        }
        t += ia;
        out.push_back(static_cast<Tick>(t));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Request generation + lowering.

namespace {

/** Request-mix percentages: get / put / del / scan-or-resize. */
struct Mix
{
    unsigned get, put, del;
    ReqType tail;  ///< what the remainder is (Scan or Resize)
};

Mix
mixOf(Profile p)
{
    switch (p) {
      case Profile::Varnish:
        return {72, 18, 6, ReqType::Scan};    // cache: GET-heavy + evictions
      case Profile::Horde:
        return {40, 45, 13, ReqType::Resize}; // KV: write-heavy + resizes
    }
    return {100, 0, 0, ReqType::Scan};
}

} // namespace

ServeWorkload
buildWorkload(const ServeSpec &spec)
{
    ServeWorkload wl;
    wl.spec = spec;
    wl.pdsSpec.kind = pds::Kind::Hash;
    wl.pdsSpec.sizeClass = spec.sizeClass;
    wl.pdsSpec.mix = 0;
    wl.pdsSpec.seed = spec.seed;
    wl.pdsSpec.opsPerTx = spec.opsPerTx;
    // numOps is overridden by the lowered tape; set it anyway so
    // toString() of the pds spec is not misleading.

    pds::PdsParams geo = pds::pdsGeometry(wl.pdsSpec);
    const unsigned pool = geo.pool;
    const unsigned universe = 2 * pool;
    ZipfSampler zipf(universe);
    Mix mix = mixOf(spec.profile);

    Rng rng(spec.seed ^ 0x73727665'2d726571ull);  // "srve-req"

    // Live-key tracking mirrors PdsModel's hash semantics so every
    // emitted op is feasible: liveOrder keeps insertion order for the
    // eviction scans (oldest-first, the Varnish ban-walk idiom).
    std::vector<std::uint64_t> liveOrder;
    auto isLive = [&](std::uint64_t k) {
        return std::find(liveOrder.begin(), liveOrder.end(), k) !=
               liveOrder.end();
    };
    auto removeLive = [&](std::uint64_t k) {
        liveOrder.erase(
            std::find(liveOrder.begin(), liveOrder.end(), k));
    };

    for (unsigned i = 0; i < spec.numRequests; ++i) {
        unsigned roll = static_cast<unsigned>(rng.below(100));
        ReqType t = roll < mix.get                       ? ReqType::Get
                    : roll < mix.get + mix.put           ? ReqType::Put
                    : roll < mix.get + mix.put + mix.del ? ReqType::Del
                                                         : mix.tail;
        Request req;
        req.type = t;
        if (t == ReqType::Get || t == ReqType::Put || t == ReqType::Del)
            req.key = zipf.sample(rng);
        if (t == ReqType::Put)
            req.value = rng.next() & 0xffffffffull;
        wl.requests.push_back(req);

        switch (t) {
          case ReqType::Get:
            // Misses are safe: lookup of a non-live key walks the
            // chain, finds nothing, adds 0 to the result accumulator.
            wl.ops.push_back({pds::pdsHashLookup, req.key, 0});
            break;
          case ReqType::Put:
            if (isLive(req.key)) {
                // Overwrite = delete + insert (the pds node stores are
                // immutable once linked).
                wl.ops.push_back({pds::pdsHashDelete, req.key, 0});
                removeLive(req.key);
            } else if (liveOrder.size() >= pool) {
                // Cache full: evict the oldest object first.
                std::uint64_t victim = liveOrder.front();
                wl.ops.push_back({pds::pdsHashDelete, victim, 0});
                removeLive(victim);
            }
            wl.ops.push_back({pds::pdsHashInsert, req.key, req.value});
            liveOrder.push_back(req.key);
            break;
          case ReqType::Del:
            // Delete of a non-live key is a safe no-op chain walk; keep
            // the op so the request still costs one structure op.
            wl.ops.push_back({pds::pdsHashDelete, req.key, 0});
            if (isLive(req.key))
                removeLive(req.key);
            break;
          case ReqType::Scan: {
            // Evict-scan (ban-list sweep): drop the 1..4 oldest
            // objects. An empty cache degenerates to one probe.
            unsigned n = 1 + static_cast<unsigned>(rng.below(4));
            if (liveOrder.empty()) {
                wl.ops.push_back({pds::pdsHashLookup, 1, 0});
            } else {
                n = std::min<unsigned>(
                    n, static_cast<unsigned>(liveOrder.size()));
                for (unsigned j = 0; j < n; ++j) {
                    std::uint64_t victim = liveOrder.front();
                    wl.ops.push_back({pds::pdsHashDelete, victim, 0});
                    removeLive(victim);
                }
            }
            break;
          }
          case ReqType::Resize:
            wl.ops.push_back({pds::pdsHashResize, 0, 0});
            break;
        }
        wl.opEnd.push_back(static_cast<unsigned>(wl.ops.size()));
    }

    wl.pdsSpec.numOps = static_cast<unsigned>(wl.ops.size());
    return wl;
}

} // namespace serve
} // namespace lwsp
