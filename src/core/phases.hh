/**
 * @file
 * The three analysis phases of the DejaVuzz pipeline (paper §4).
 *
 * Phase 1 - transient window triggering: simulate (IFT off), check the
 * RoB IO events for the *intended* window (cause, trigger PC and
 * speculative-path PC all matching the generated test case), then run
 * the training reduction loop.
 *
 * Phase 2 - transient execution exploration: differential simulation
 * under diffIFT, taint-propagation check inside the window's cycle
 * range, and taint-coverage measurement to guide mutation.
 *
 * Phase 3 - transient leakage analysis: window constant-time check
 * across the DUT pair, encode sanitization, and tainted-sink liveness
 * analysis.
 */

#ifndef DEJAVUZZ_CORE_PHASES_HH
#define DEJAVUZZ_CORE_PHASES_HH

#include <optional>

#include "core/report.hh"
#include "core/seed.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "ift/coverage.hh"
#include "util/logging.hh"

namespace dejavuzz::core {

/** Result of the Phase-1 trigger evaluation on one trace. */
struct WindowCheck
{
    bool triggered = false;
    uint32_t open_cycle = 0;
    uint32_t close_cycle = 0;
    uint32_t transient_executed = 0;
};

/** Does the trace contain the test case's intended window? */
WindowCheck checkWindow(const uarch::TraceLog &trace,
                        const TestCase &tc);

/** Phase-1 driver: trigger evaluation + training reduction. */
class Phase1
{
  public:
    Phase1(harness::DualSim &sim, const harness::SimOptions &options)
        : sim_(&sim), options_(options)
    {}

    /**
     * Evaluate the test case; on success, run training reduction
     * (paper step 1.2): drop each training packet whose removal does
     * not untrigger the window. Returns the number of simulations
     * spent. @p reduce false is the no-reduction ablation.
     */
    unsigned run(TestCase &tc, bool &triggered, bool reduce = true);

  private:
    harness::DualSim *sim_;
    harness::SimOptions options_;
    /** Pooled result buffer, reused across run() calls. */
    harness::DutResult result_;
};

/** Phase-2 result for one differential run. */
struct Phase2Result
{
    bool window_ok = false;       ///< intended window still triggers
    bool taint_propagated = false;///< taints increased inside window
    uint64_t new_coverage = 0;    ///< fresh (module,count) tuples
    harness::DualResult dual;     ///< full differential results
    WindowCheck window;
};

/** Phase-2 driver: differential run + coverage measurement. */
class Phase2
{
  public:
    /**
     * @p gen builds the sanitized twin of each case with a window
     * payload, which arms the harness's Phase-3 lane fusion: the
     * lockstep run snapshots both lanes at the transient boundary so
     * a following Phase 3 resumes instead of re-simulating the shared
     * prefix.
     */
    Phase2(harness::DualSim &sim, const harness::SimOptions &options,
           ift::TaintCoverage &coverage,
           const std::array<uint16_t, uarch::kModCount> &module_ids,
           const StimGen &gen)
        : sim_(&sim), options_(options), coverage_(&coverage),
          module_ids_(module_ids), gen_(&gen)
    {}

    /** Pointer form of the constructor above; panics on a null
     *  @p gen. */
    Phase2(harness::DualSim &sim, const harness::SimOptions &options,
           ift::TaintCoverage &coverage,
           const std::array<uint16_t, uarch::kModCount> &module_ids,
           const StimGen *gen)
        : Phase2(sim, options, coverage, module_ids, requireGen(gen))
    {}

    /**
     * Evaluate one differential run. The returned reference points at
     * a pooled member (its buffers are reused on the next call); it
     * stays valid until the next run() on this driver.
     */
    const Phase2Result &run(const TestCase &tc);

  private:
    static const StimGen &
    requireGen(const StimGen *gen)
    {
        dv_assert(gen != nullptr);
        return *gen;
    }

    harness::DualSim *sim_;
    harness::SimOptions options_;
    ift::TaintCoverage *coverage_;
    std::array<uint16_t, uarch::kModCount> module_ids_;
    const StimGen *gen_;
    Phase2Result result_;
    /** Pooled sanitized schedule the armed fusion capture resumes
     *  onto; must outlive the following Phase-3 run. */
    swapmem::SwapSchedule sanitized_;
};

/** Phase-3 verdict. */
struct Phase3Result
{
    bool leak = false;
    std::optional<BugReport> report;
    /** Candidate counts for the liveness evaluation benches. */
    size_t encoded_sinks = 0;
    size_t live_encoded_sinks = 0;
    /** Full core simulations the analysis spent (sanitized dual). */
    unsigned simulations = 0;
};

/** Phase-3 driver: constant time + sanitization + liveness. */
class Phase3
{
  public:
    Phase3(harness::DualSim &sim, const harness::SimOptions &options,
           const StimGen &gen)
        : sim_(&sim), options_(options), gen_(&gen)
    {}

    /**
     * Analyze a Phase-2 result. @p use_liveness false is the paper's
     * no-liveness ablation (reachability only).
     */
    Phase3Result run(const TestCase &tc, const Phase2Result &phase2,
                     bool use_liveness = true);

  private:
    harness::DualSim *sim_;
    harness::SimOptions options_;
    const StimGen *gen_;
    /** Pooled sanitized-run buffer, reused across run() calls. */
    harness::DualResult base_;
};

/**
 * Window constant-time check: compare the two DUTs' commit timing and
 * totals; returns the set of contention components that differ.
 */
std::set<std::string>
constantTimeViolations(const harness::DualResult &dual);

/**
 * Encode sanitization + liveness: sinks tainted in @p orig but not in
 * @p sanitized were written by the encoding block; keep those whose
 * entries are architecturally live. Sinks are matched by interned
 * SinkId (positionally in the common case — both snapshots come from
 * the same per-config-stable enumSinks sequence), so the per-call
 * string map of the seed implementation is gone.
 */
void diffSinks(const std::vector<ift::SinkSnapshot> &orig,
               const std::vector<ift::SinkSnapshot> &sanitized,
               bool use_liveness, std::set<std::string> &live_out,
               size_t &encoded, size_t &live_encoded);

} // namespace dejavuzz::core

#endif // DEJAVUZZ_CORE_PHASES_HH
