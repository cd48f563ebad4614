/**
 * @file
 * The differential testbench (paper §3.3, §5).
 *
 * Two identical DUT instances execute the same swap schedule with
 * different secrets. Instance 0 (the original secret) is the one whose
 * taint is analysed; instance 1 (the flipped secret) is its *sibling*.
 * diffIFT gates instance 0's control taint on whether each control
 * signal differs from the sibling's in the same cycle. Taint never
 * feeds back into architectural values, so the control trace an
 * instance records is a function of its value state alone, whatever
 * its gates resolve to. Both instances therefore advance in one
 * interleaved *lockstep* loop: each cycle the sibling ticks first,
 * gates closed, recording its control trace; then instance 0 ticks
 * once, gating against that same-cycle trace, which makes its gates
 * exact on the first try. When the sibling finishes first, instance 0
 * runs on past the sibling's last cycle, where its sibling view is
 * empty, so every gate opens. DiffIFT costs two core simulations.
 *
 * In every mode DualResult::dut1 is the sibling run: its value-domain
 * fields (completion, cycles, contention, trace log, packet starts and
 * the optional hashes) are exact; its taint log and sinks stay empty.
 * CellIFT / FN / Off modes need no sibling information and run in a
 * single pass per instance. All per-run state (cores, memories,
 * trace buffers, result buffers) is pooled inside DualSim, so the
 * steady-state iteration loop performs no allocation.
 *
 * **Transient-boundary resume.** The swap runtime loads the
 * transient packet only after every training packet has run, so a
 * differential run's state at that load depends on the rest of the
 * schedule, never on the transient packet's instructions. A DiffIFT
 * runDual that starts from reset snapshots both lanes at the bottom of
 * the first cycle in which either swap cursor reaches the transient
 * packet (always before any transient instruction is fetched: the
 * load happens at the end of the triggering tick and fetch resumes
 * next tick), together with an exact copy of everything that prefix
 * depends on. The next DiffIFT runDual whose prefix compares equal —
 * a Phase-2 mutation of the same seed, or its Phase-3 sanitized twin
 * — restores the snapshot, reloads the swap region with its own
 * transient packet and runs only the suffix. The result is
 * bit-identical to a run from reset (CI-enforced), so callers never
 * see the difference; simulation counts stay logical (runDual = 2,
 * runSingle = 1).
 */

#ifndef DEJAVUZZ_HARNESS_DUALSIM_HH
#define DEJAVUZZ_HARNESS_DUALSIM_HH

#include <cstdint>
#include <vector>

#include "harness/stimulus.hh"
#include "ift/liveness.hh"
#include "ift/policy.hh"
#include "ift/taintlog.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "uarch/tracelog.hh"

namespace dejavuzz::harness {

/** Per-run limits and switches. */
struct SimOptions
{
    ift::IftMode mode = ift::IftMode::Off;
    bool taint_log = false;
    bool sinks = false;
    /** Compute DutResult::timing_hash and state_hash (SpecDoctor's
     *  oracle); both stay 0 otherwise. */
    bool state_hash = false;
    uint64_t packet_cycle_budget = 1500;
    uint64_t total_cycle_budget = 20000;
};

/** Result of one DUT instance's run. */
struct DutResult
{
    uarch::TraceLog trace;
    ift::TaintLog taint_log;
    bool completed = false;      ///< schedule ran to the end
    bool budget_exceeded = false;
    uint64_t cycles = 0;
    uarch::ContentionCounters contention;
    std::vector<ift::SinkSnapshot> sinks;
    /** Hash of the timing components (only with SimOptions::state_hash). */
    uint64_t timing_hash = 0;
    /** timing_hash folded with cached data (SpecDoctor's oracle; only
     *  with SimOptions::state_hash). */
    uint64_t state_hash = 0;
    /** Cycle at which each packet started executing. */
    std::vector<uint64_t> packet_start;

    /**
     * Clear for reuse, keeping every vector's capacity. `sinks` is
     * deliberately left alone: the sink writer overwrites it in place
     * (or the harness clears it when sinks are disabled).
     */
    void
    reset()
    {
        trace.clear();
        taint_log.clear();
        completed = false;
        budget_exceeded = false;
        cycles = 0;
        contention = uarch::ContentionCounters{};
        timing_hash = 0;
        state_hash = 0;
        packet_start.clear();
    }
};

/** Result of a dual (differential) run. */
struct DualResult
{
    DutResult dut0; ///< original secret: the analysed instance
    /** Flipped secret: the sibling. Value-domain fields only; its
     *  taint_log and sinks are always empty. */
    DutResult dut1;
};

class DualSim
{
  public:
    explicit DualSim(const uarch::CoreConfig &config);

    /**
     * Single-instance run with IFT off: the cheap mode Phase 1 uses
     * for window-trigger evaluation and training reduction. Writes
     * into @p out, reusing its buffers.
     */
    void runSingle(const swapmem::SwapSchedule &schedule,
                   const StimulusData &data, const SimOptions &options,
                   DutResult &out);

    /** By-value convenience wrapper around the pooled overload. */
    DutResult runSingle(const swapmem::SwapSchedule &schedule,
                        const StimulusData &data,
                        const SimOptions &options = {});

    /**
     * Full differential run (both instances). Writes into @p out,
     * reusing its buffers: the hot path for the phase drivers.
     */
    void runDual(const swapmem::SwapSchedule &schedule,
                 const StimulusData &data, const SimOptions &options,
                 DualResult &out);

    /** By-value convenience wrapper around the pooled overload. */
    DualResult runDual(const swapmem::SwapSchedule &schedule,
                       const StimulusData &data,
                       const SimOptions &options);

    /** Logical simulations run so far: 2 per runDual and 1 per
     *  runSingle, whether or not a run resumed from a snapshot. */
    uint64_t simulations() const { return simulations_; }

  private:
    /** Pooled per-instance simulation resources. */
    struct Lane
    {
        explicit Lane(const uarch::CoreConfig &config) : core(config) {}
        uarch::Core core;
        swapmem::Memory mem;
    };

    /** Per-run driver state of one instance. */
    struct LaneRun
    {
        LaneRun(Lane &lane_in, DutResult &result_in,
                const swapmem::SwapSchedule &schedule)
            : lane(lane_in), result(result_in), runtime(schedule)
        {}
        Lane &lane;
        DutResult &result;
        swapmem::SwapRuntime runtime;
        uint64_t packet_cycles = 0;
        /** Core taint-transition count at lane start (nonzero only
         *  for a resumed run), so finishLane reports the transitions
         *  this run actually simulated. */
        uint64_t taint_transitions_base = 0;
        bool started = false; ///< false: schedule was empty at start
        bool done = false;
    };

    /**
     * Snapshot of one lane at the transient boundary (so the lane has
     * started: a packet precedes the transient one). Pooled: the Core
     * and Memory copies reuse their storage across runs.
     */
    struct LaneCapture
    {
        explicit LaneCapture(const uarch::CoreConfig &config)
            : core(config)
        {}
        uarch::Core core;
        swapmem::Memory mem;
        DutResult result;
        uint64_t packet_cycles = 0;
        size_t cursor = 0;
        bool done = false;
    };

    /**
     * Exact copy of what the captured prefix depends on: every
     * schedule field except the transient packet's instructions, the
     * stimulus data, the mode and both cycle budgets, and whether the
     * capture recorded a taint log. Pooled: `schedule.packets` never
     * shrinks, so a warm copy allocates nothing.
     */
    struct PrefixKey
    {
        swapmem::SwapSchedule schedule; ///< first `count` packets live
        size_t count = 0;
        size_t transient = 0;
        StimulusData data;
        SimOptions options;
        bool valid = false; ///< the lane captures hold this prefix

        void assign(const swapmem::SwapSchedule &schedule_in,
                    size_t transient_in, const StimulusData &data_in,
                    const SimOptions &options_in);
        /** Can a run of these inputs resume from the capture? */
        bool resumable(const swapmem::SwapSchedule &schedule_in,
                       size_t transient_in, const StimulusData &data_in,
                       const SimOptions &options_in) const;
    };

    void startLane(LaneRun &lr, const StimulusData &data,
                   const SimOptions &options, bool flipped_secret);
    void laneTick(LaneRun &lr, const SimOptions &options,
                  ift::IftMode mode, ift::ControlTrace *mine,
                  const ift::ControlTrace *other);
    void finishLane(LaneRun &lr, const SimOptions &options);

    void runOne(const swapmem::SwapSchedule &schedule,
                const StimulusData &data, const SimOptions &options,
                bool flipped_secret, ift::IftMode mode, Lane &lane,
                DutResult &out);

    void runDualLockstep(const swapmem::SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out);

    /**
     * The lockstep main loop, solo tails and lane finish, shared by
     * runs from reset and resumed runs. Snapshots both lanes when a
     * swap cursor first reaches packet @p capture_at (SIZE_MAX: never).
     */
    void lockstepLoop(LaneRun &l0, LaneRun &l1,
                      const SimOptions &options, size_t capture_at);

    void captureLane(LaneCapture &cap, const LaneRun &lr);
    void restoreLane(const LaneCapture &cap, LaneRun &lr,
                     const SimOptions &options, size_t transient_index);

    void buildMemory(swapmem::Memory &mem, const StimulusData &data,
                     bool flipped_secret) const;

    uarch::CoreConfig cfg_;
    Lane lane0_;
    Lane lane1_;
    /** Control trace the sibling lane recorded this lockstep cycle;
     *  lane 0 gates against it in the same cycle. */
    ift::ControlTrace sibling_trace_;
    /** Transient-boundary snapshots (lane 0 / lane 1) and the
     *  prefix they were taken on. */
    LaneCapture capture0_;
    LaneCapture capture1_;
    PrefixKey prefix_;
    uint64_t simulations_ = 0;
};

} // namespace dejavuzz::harness

#endif // DEJAVUZZ_HARNESS_DUALSIM_HH
