#include "campaign/faults.hh"

#include <atomic>
#include <mutex>

#include "obs/telemetry.hh"
#include "util/parse.hh"
#include "util/rng.hh"

namespace dejavuzz::campaign {

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::BatchThrow: return "batch-throw";
      case Fault::BatchHang: return "batch-hang";
      case Fault::ShortWrite: return "short-write";
      case Fault::TornRename: return "torn-rename";
      case Fault::Enospc: return "enospc";
      case Fault::kCount: break;
    }
    return "?";
}

namespace {

struct FaultPoint
{
    /** Firing probability as a fraction num/kProbDen (exact for the
     *  0/1 endpoints CI uses, and spec round-trips stay stable). */
    uint64_t prob_num = 0;
    /** Remaining firings; UINT64_MAX means uncapped. */
    uint64_t remaining = 0;
};

constexpr uint64_t kProbDen = 1u << 20;

/** Registry state. The armed flag is the hot-path gate: shouldFail()
 *  with nothing armed is one relaxed load, so fault support costs
 *  nothing when off. Everything else is cold and mutex-guarded. */
std::atomic<bool> g_armed{false};
std::mutex g_mu;
FaultPoint g_points[kNumFaults];
Rng g_rng;
uint64_t g_fired = 0;

bool
faultByName(const std::string &name, Fault &out)
{
    for (unsigned i = 0; i < kNumFaults; ++i) {
        if (name == faultName(static_cast<Fault>(i))) {
            out = static_cast<Fault>(i);
            return true;
        }
    }
    return false;
}

} // namespace

bool
armFaults(const std::string &spec, std::string *error)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_armed.store(false, std::memory_order_relaxed);
    for (auto &point : g_points)
        point = FaultPoint{};
    g_fired = 0;

    // The registry is already disarmed and zeroed above, so a parse
    // failure leaves it safely off.
    auto fail = [&](const std::string &msg) {
        for (auto &point : g_points)
            point = FaultPoint{};
        if (error)
            *error = msg;
        return false;
    };

    uint64_t seed = 1;
    bool any = false;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        size_t eq = item.find('=');
        if (eq == std::string::npos)
            return fail("expected KEY=VALUE, got '" + item + "'");
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);

        if (key == "seed") {
            if (!parseUint(value.c_str(), seed))
                return fail("bad seed '" + value + "'");
            continue;
        }

        Fault f;
        if (!faultByName(key, f))
            return fail("unknown failpoint '" + key + "'");

        std::string prob_text = value;
        uint64_t max_fires = UINT64_MAX;
        size_t colon = value.find(':');
        if (colon != std::string::npos) {
            prob_text = value.substr(0, colon);
            if (!parseUint(value.substr(colon + 1).c_str(), max_fires))
                return fail("bad max count in '" + item + "'");
        }
        double prob = 0;
        if (!parseDouble(prob_text.c_str(), prob) || prob < 0.0 ||
            prob > 1.0)
            return fail("probability outside [0,1] in '" + item +
                        "'");

        auto &point = g_points[static_cast<unsigned>(f)];
        point.prob_num =
            static_cast<uint64_t>(prob * static_cast<double>(kProbDen));
        if (prob > 0.0 && point.prob_num == 0)
            point.prob_num = 1; // tiny but non-zero stays armed
        point.remaining = max_fires;
        if (point.prob_num > 0 && point.remaining > 0)
            any = true;
    }

    g_rng.reseed(seed);
    g_armed.store(any, std::memory_order_relaxed);
    return true;
}

void
disarmFaults()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_armed.store(false, std::memory_order_relaxed);
    for (auto &point : g_points)
        point = FaultPoint{};
    g_fired = 0;
}

bool
faultsArmed()
{
    return g_armed.load(std::memory_order_relaxed);
}

bool
shouldFail(Fault f)
{
    if (!faultsArmed())
        return false;
    std::lock_guard<std::mutex> lock(g_mu);
    auto &point = g_points[static_cast<unsigned>(f)];
    if (point.prob_num == 0 || point.remaining == 0)
        return false;
    if (point.prob_num < kProbDen &&
        !g_rng.chance(point.prob_num, kProbDen))
        return false;
    if (point.remaining != UINT64_MAX)
        --point.remaining;
    ++g_fired;
    obs::counterAdd(obs::Ctr::FaultsInjected);
    return true;
}

uint64_t
faultsFired()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_fired;
}

} // namespace dejavuzz::campaign
