#include "harness/dualsim.hh"

#include <algorithm>
#include <cstring>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/wallguard.hh"

namespace dejavuzz::harness {

using swapmem::Memory;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapRuntime;
using swapmem::SwapSchedule;
using uarch::Core;
using uarch::TickEvents;

namespace {

const ift::ControlTrace kEmptyTrace;

/**
 * True when every diffIFT gate of a tick that recorded @p mine would
 * resolve closed against @p sibling: the positional prefix of
 * @p sibling matches @p mine exactly. Extra sibling records beyond
 * mine's length are never consulted and cannot open a gate.
 */
bool
gatesAllClosed(const ift::ControlTrace &mine,
               const ift::ControlTrace &sibling)
{
    if (mine.size() > sibling.size())
        return false;
    // Word-wide prefix compare over the parallel sig/value arrays:
    // two memcmps replace the per-record loop on the hottest
    // comparison in the lockstep driver.
    // An empty trace may have null data pointers, which memcmp must
    // not see even for a zero length.
    size_t n = mine.size();
    return n == 0 ||
           (std::memcmp(mine.sigsData(), sibling.sigsData(),
                        n * sizeof(uint32_t)) == 0 &&
            std::memcmp(mine.valuesData(), sibling.valuesData(),
                        n * sizeof(uint64_t)) == 0);
}

/** Checkpoint cadence of the lockstep redo protocol while execution
 *  is convergent, in cycles: a time/space trade-off only, results are
 *  bit-identical for any value >= 1. */
constexpr uint64_t kCheckpointInterval = 32;

/** Cycles after a divergence during which checkpoints are per-cycle
 *  (divergence clusters; per-cycle checkpoints make each further
 *  divergent cycle a single-tick redo instead of a replay). */
constexpr uint64_t kDivergenceHotWindow = 8;

/**
 * Index of the first transient packet that a training prefix precedes,
 * or SIZE_MAX when there is none (nothing to resume past).
 */
size_t
resumePoint(const SwapSchedule &schedule)
{
    for (size_t i = 1; i < schedule.packets.size(); ++i) {
        if (schedule.packets[i].kind == PacketKind::Transient)
            return i;
    }
    return SIZE_MAX;
}

/** Same words in memory: Instr::operator== ignores `raw`, which
 *  encode() emits for an ILLEGAL instruction. */
bool
sameInstrs(const std::vector<isa::Instr> &a,
           const std::vector<isa::Instr> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const isa::Instr &x, const isa::Instr &y) {
                          return x == y && x.raw == y.raw;
                      });
}

} // namespace

DualSim::DualSim(const uarch::CoreConfig &config)
    : cfg_(config), lane0_(config), lane1_(config), ckpt_core_(config),
      capture0_(config), capture1_(config)
{}

void
DualSim::PrefixKey::assign(const SwapSchedule &schedule_in,
                           size_t transient_in,
                           const StimulusData &data_in,
                           const SimOptions &options_in)
{
    count = schedule_in.packets.size();
    if (schedule.packets.size() < count)
        schedule.packets.resize(count);
    for (size_t i = 0; i < count; ++i) {
        const SwapPacket &src = schedule_in.packets[i];
        SwapPacket &dst = schedule.packets[i];
        if (i != transient_in) {
            dst = src; // member-wise: reuses string/vector storage
        } else {
            dst.kind = src.kind;
            dst.entry = src.entry;
        }
    }
    schedule.transient_prot = schedule_in.transient_prot;
    schedule.victim_supervisor = schedule_in.victim_supervisor;
    schedule.double_fetch = schedule_in.double_fetch;
    transient = transient_in;
    data = data_in;
    options = options_in;
    valid = true;
}

bool
DualSim::PrefixKey::resumable(const SwapSchedule &schedule_in,
                              size_t transient_in,
                              const StimulusData &data_in,
                              const SimOptions &options_in) const
{
    if (!valid || transient != transient_in ||
        count != schedule_in.packets.size() ||
        schedule.transient_prot != schedule_in.transient_prot ||
        schedule.victim_supervisor != schedule_in.victim_supervisor ||
        schedule.double_fetch != schedule_in.double_fetch ||
        data.secret != data_in.secret ||
        data.operands != data_in.operands ||
        options.mode != options_in.mode ||
        options.packet_cycle_budget != options_in.packet_cycle_budget ||
        options.total_cycle_budget != options_in.total_cycle_budget ||
        (options_in.taint_log && !options.taint_log))
        return false;
    for (size_t i = 0; i < count; ++i) {
        const SwapPacket &mine = schedule.packets[i];
        const SwapPacket &other = schedule_in.packets[i];
        if (mine.kind != other.kind || mine.entry != other.entry ||
            (i != transient && (mine.label != other.label ||
                                !sameInstrs(mine.instrs, other.instrs))))
            return false;
    }
    return true;
}

void
DualSim::buildMemory(Memory &mem, const StimulusData &data,
                     bool flipped_secret) const
{
    auto secret = flipped_secret ? data.flippedSecret() : data.secret;
    mem.installSecret(secret.data(), secret.size());
    for (size_t i = 0; i < data.operands.size(); ++i)
        mem.setOperand(static_cast<unsigned>(i), data.operands[i]);
}

void
DualSim::startLane(LaneRun &lr, const StimulusData &data,
                   const SimOptions &options, bool flipped_secret)
{
    lr.result.reset();
    lr.lane.core.reset();
    lr.lane.mem.reset();
    buildMemory(lr.lane.mem, data, flipped_secret);
    uint64_t entry = lr.runtime.start(lr.lane.mem);
    if (lr.runtime.done()) {
        // Empty schedule: report only completion (no cycle counts,
        // hashes or sinks), matching the seed harness.
        lr.result.completed = true;
        lr.result.sinks.clear();
        lr.done = true;
        return;
    }
    lr.started = true;
    lr.lane.core.startSequence(entry);
    lr.result.packet_start.push_back(0);
    if (lr.lane.core.cycle() >= options.total_cycle_budget)
        lr.done = true;
}

/**
 * One cycle of one instance: arm the taint context, tick the core,
 * record the taint log and drive the swap runtime. Shared verbatim by
 * the single-pass and lockstep drivers so the per-cycle semantics
 * cannot drift between them.
 */
void
DualSim::laneTick(LaneRun &lr, const SimOptions &options,
                  ift::IftMode mode, ift::ControlTrace *mine,
                  const ift::ControlTrace *other)
{
    // Cooperative batch/replay watchdog probe (one counter decrement
    // when no deadline is armed). Placing it on the per-cycle path
    // bounds even a single pathological simulation.
    util::WallGuard::check();

    ift::TaintCtx ctx;
    ctx.begin(mode, mine, other);
    TickEvents ev = lr.lane.core.tick(lr.lane.mem, ctx,
                                      &lr.result.trace);
    ++lr.packet_cycles;

    if (options.taint_log) {
        obs::SampledSpan taint_span(obs::Hist::ModuleTaintNs);
        lr.lane.core.appendTaintLog(lr.result.taint_log);
    }

    bool force_advance =
        lr.packet_cycles >= options.packet_cycle_budget;
    if (force_advance)
        lr.result.budget_exceeded = true;

    if (ev.swap_next || ev.trapped || force_advance) {
        uint64_t next_entry = lr.runtime.advance(lr.lane.mem);
        if (lr.runtime.done()) {
            lr.result.completed = true;
            lr.done = true;
            return;
        }
        lr.lane.core.flushICache();
        lr.lane.core.startSequence(next_entry);
        lr.result.packet_start.push_back(lr.lane.core.cycle());
        lr.packet_cycles = 0;
    }
    if (lr.lane.core.cycle() >= options.total_cycle_budget)
        lr.done = true;
}

void
DualSim::finishLane(LaneRun &lr, const SimOptions &options)
{
    lr.result.cycles = lr.lane.core.cycle();
    lr.result.contention = lr.lane.core.contention;
    if (options.state_hash) {
        lr.result.timing_hash = lr.lane.core.timingStateHash();
        lr.result.state_hash =
            fnv1a(lr.result.timing_hash,
                  lr.lane.core.cachedDataHash(lr.lane.mem));
    }
    if (options.sinks)
        lr.lane.core.enumSinks(lr.result.sinks);
    else
        lr.result.sinks.clear();
    obs::counterAdd(obs::Ctr::TaintTransitions,
                    lr.lane.core.taintTransitions() -
                        lr.taint_transitions_base);
}

void
DualSim::runOne(const SwapSchedule &schedule, const StimulusData &data,
                const SimOptions &options, bool flipped_secret,
                ift::IftMode mode, Lane &lane, DutResult &out)
{
    LaneRun lr(lane, out, schedule);
    startLane(lr, data, options, flipped_secret);
    while (!lr.done)
        laneTick(lr, options, mode, nullptr, nullptr);
    if (lr.started)
        finishLane(lr, options);
}

void
DualSim::runSingle(const SwapSchedule &schedule,
                   const StimulusData &data, const SimOptions &options,
                   DutResult &out)
{
    runOne(schedule, data, options, false, ift::IftMode::Off, lane0_,
           out);
    simulations_ += 1;
    obs::counterAdd(obs::Ctr::Simulations);
}

DutResult
DualSim::runSingle(const SwapSchedule &schedule, const StimulusData &data,
                   const SimOptions &options)
{
    DutResult out;
    runSingle(schedule, data, options, out);
    return out;
}

/**
 * Lockstep co-simulation: both instances advance through the same
 * cycle in one loop iteration. Lane 0 runs the *record sub-tick*
 * (gates optimistically closed — the correct resolution whenever the
 * two instances' control traces for the cycle match) and lane 1 the
 * *taint sub-tick* (gating against lane 0's just-recorded trace,
 * which is exact because control traces are taint-independent). When
 * the two traces differ positionally, lane 0's closed-gate assumption
 * was wrong: roll lane 0 back to the last checkpoint (pooled Core
 * copy + memory undo log), replay the confirmed-convergent cycles
 * with closed gates, and redo the divergent cycle against lane 1's
 * trace. Divergence clusters inside transient windows, so checkpoints
 * are sparse (every kCheckpointInterval cycles) until a divergence
 * and per-cycle while one is hot.
 *
 * A run whose prefix matches the transient-boundary snapshot resumes
 * from it; any other run starts from reset and, when the schedule has
 * a training prefix, replaces the snapshot.
 */
void
DualSim::runDualLockstep(const SwapSchedule &schedule,
                         const StimulusData &data,
                         const SimOptions &options, DualResult &out)
{
    LaneRun l0(lane0_, out.dut0, schedule);
    LaneRun l1(lane1_, out.dut1, schedule);
    size_t transient = resumePoint(schedule);
    if (prefix_.resumable(schedule, transient, data, options)) {
        restoreLane(capture0_, l0, options, transient);
        restoreLane(capture1_, l1, options, transient);
        // Prefix cycles this resume did not have to re-simulate.
        obs::counterAdd(obs::Ctr::FusedLaneCycles,
                        capture0_.core.cycle() + capture1_.core.cycle());
        lockstepLoop(l0, l1, options, SIZE_MAX);
        return;
    }

    startLane(l0, data, options, false);
    startLane(l1, data, options, true);
    // The captures are overwritten below; a run cut short by the
    // wall-clock watchdog must leave no key pointing at them.
    if (transient != SIZE_MAX)
        prefix_.valid = false;
    lockstepLoop(l0, l1, options, transient);
    if (transient != SIZE_MAX)
        prefix_.assign(schedule, transient, data, options);
}

void
DualSim::lockstepLoop(LaneRun &l0, LaneRun &l1, const SimOptions &options,
                      size_t capture_at)
{
    bool captured = false;
    auto capture = [&]() {
        captureLane(capture0_, l0);
        captureLane(capture1_, l1);
        captured = true;
    };

    LaneMarks marks;
    SwapRuntime ckpt_runtime = l0.runtime;
    bool ckpt_valid = false;
    bool diverged_once = false;
    uint64_t last_divergence = 0;

    auto takeCheckpoint = [&]() {
        ckpt_core_ = l0.lane.core;
        ckpt_runtime = l0.runtime;
        if (ckpt_valid)
            l0.lane.mem.discardUndo();
        l0.lane.mem.beginUndo();
        marks.cycle = l0.lane.core.cycle();
        marks.packet_cycles = l0.packet_cycles;
        marks.completed = l0.result.completed;
        marks.budget_exceeded = l0.result.budget_exceeded;
        marks.done = l0.done;
        marks.commits = l0.result.trace.commits.size();
        marks.squashes = l0.result.trace.squashes.size();
        marks.rob_io = l0.result.trace.rob_io.size();
        marks.taint_cycles = l0.result.taint_log.cycles.size();
        marks.packet_starts = l0.result.packet_start.size();
        ckpt_valid = true;
    };

    auto rollbackToCheckpoint = [&]() {
        l0.lane.core = ckpt_core_;
        l0.runtime = ckpt_runtime;
        l0.lane.mem.rollbackUndo();
        l0.lane.mem.beginUndo();
        l0.packet_cycles = marks.packet_cycles;
        l0.done = marks.done;
        l0.result.completed = marks.completed;
        l0.result.budget_exceeded = marks.budget_exceeded;
        l0.result.trace.commits.resize(marks.commits);
        l0.result.trace.squashes.resize(marks.squashes);
        l0.result.trace.rob_io.resize(marks.rob_io);
        l0.result.trace.cycles = marks.cycle;
        l0.result.taint_log.truncateCycles(marks.taint_cycles);
        l0.result.packet_start.resize(marks.packet_starts);
    };

    while (!l0.done && !l1.done) {
        uint64_t cycle = l0.lane.core.cycle(); // == lane 1's cycle
        bool hot = diverged_once &&
                   cycle - last_divergence <= kDivergenceHotWindow;
        if (hot)
            obs::counterAdd(obs::Ctr::HotCycles);
        if (!ckpt_valid || hot ||
            cycle - marks.cycle >= kCheckpointInterval) {
            takeCheckpoint();
            obs::counterAdd(obs::Ctr::Checkpoints);
        }

        // Record sub-tick: lane 0 with closed gates, trace recorded.
        trace0_.clear();
        laneTick(l0, options, ift::IftMode::DiffIFT, &trace0_, nullptr);

        // Taint sub-tick: lane 1 gates against lane 0's trace for the
        // same cycle (and records its own for lane 0's redo).
        trace1_.clear();
        laneTick(l1, options, ift::IftMode::DiffIFT, &trace1_, &trace0_);

        if (!gatesAllClosed(trace0_, trace1_)) {
            obs::ScopedSpan rollback_span(obs::Hist::RollbackNs);
            obs::counterAdd(obs::Ctr::Rollbacks);
            obs::counterAdd(obs::Ctr::RedoCycles,
                            cycle - marks.cycle + 1);
            diverged_once = true;
            last_divergence = cycle;
            rollbackToCheckpoint();
            // Replay the confirmed-convergent prefix: every replayed
            // cycle compared equal, so closed gates are exact.
            while (l0.lane.core.cycle() < cycle) {
                laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                         nullptr);
            }
            // Redo the divergent cycle against the sibling's trace.
            laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                     &trace1_);
        }

        // Boundary snapshot: both lanes' state at an iteration
        // bottom is confirmed (any divergence this cycle was just
        // redone), and the first time a swap cursor reaches the
        // transient packet it sits exactly at its start — the packet
        // was loaded at the end of this tick and none of its
        // instructions have been fetched yet.
        if (capture_at != SIZE_MAX && !captured &&
            (l0.runtime.cursor() >= capture_at ||
             l1.runtime.cursor() >= capture_at))
            capture();
    }
    if (ckpt_valid)
        l0.lane.mem.discardUndo();

    // The transient packet was never reached (a lane ran out of
    // budget while training): snapshot the exit state, so a resume
    // still skips the whole shared prefix.
    if (capture_at != SIZE_MAX && !captured)
        capture();

    // Solo tails: one instance outlived the other. Both lanes stop at
    // the same cycle, so the survivor is past the sibling's last
    // recorded cycle: an empty view, every gate open.
    while (!l0.done)
        laneTick(l0, options, ift::IftMode::DiffIFT, nullptr, &kEmptyTrace);
    while (!l1.done)
        laneTick(l1, options, ift::IftMode::DiffIFT, nullptr, &kEmptyTrace);

    if (l0.started)
        finishLane(l0, options);
    if (l1.started)
        finishLane(l1, options);
}

void
DualSim::captureLane(LaneCapture &cap, const LaneRun &lr)
{
    cap.core = lr.lane.core;
    cap.mem.copyFrom(lr.lane.mem);
    cap.result = lr.result;
    cap.packet_cycles = lr.packet_cycles;
    cap.cursor = lr.runtime.cursor();
    cap.done = lr.done;
}

void
DualSim::restoreLane(const LaneCapture &cap, LaneRun &lr,
                     const SimOptions &options, size_t transient_index)
{
    lr.lane.core = cap.core;
    lr.lane.mem.copyFrom(cap.mem);
    lr.result = cap.result;
    // The capturing run may have logged taint where this one does
    // not; a run without taint logging must look like a run that
    // never logged.
    if (!options.taint_log)
        lr.result.taint_log.clear();
    lr.runtime.resumeAt(cap.cursor);
    lr.packet_cycles = cap.packet_cycles;
    lr.taint_transitions_base = cap.core.taintTransitions();
    lr.started = true;
    lr.done = cap.done;
    // A lane whose cursor reached the transient packet holds the
    // *capturing* schedule's in its swap region, so reload this
    // schedule's — the same zero-fill + load + secret-protection
    // sequence the original advance performed.
    if (cap.cursor == transient_index)
        lr.runtime.reload(lr.lane.mem);
}

void
DualSim::runDual(const SwapSchedule &schedule, const StimulusData &data,
                 const SimOptions &options, DualResult &out)
{
    switch (options.mode) {
      case ift::IftMode::Off:
      case ift::IftMode::CellIFT:
      case ift::IftMode::DiffIFTFN:
        // No cross-instance information needed: single pass each.
        runOne(schedule, data, options, false, options.mode, lane0_,
               out.dut0);
        runOne(schedule, data, options, true, options.mode, lane1_,
               out.dut1);
        break;
      case ift::IftMode::DiffIFT:
        runDualLockstep(schedule, data, options, out);
        break;
    }
    simulations_ += 2;
    obs::counterAdd(obs::Ctr::Simulations, 2);
}

DualResult
DualSim::runDual(const SwapSchedule &schedule, const StimulusData &data,
                 const SimOptions &options)
{
    DualResult out;
    runDual(schedule, data, options, out);
    return out;
}

} // namespace dejavuzz::harness
