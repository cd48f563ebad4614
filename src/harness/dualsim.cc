#include "harness/dualsim.hh"

#include <algorithm>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/wallguard.hh"

namespace dejavuzz::harness {

using swapmem::Memory;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapSchedule;
using uarch::TickEvents;

namespace {

const ift::ControlTrace kEmptyTrace;

/** The sibling lane's options: nobody reads its taint, so it logs
 *  none and enumerates no sinks. */
SimOptions
siblingOptions(const SimOptions &options)
{
    SimOptions sibling = options;
    sibling.taint_log = false;
    sibling.sinks = false;
    return sibling;
}

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
    : cfg_(config), lane0_(config), lane1_(config), capture0_(config),
      capture1_(config)
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
 * cycle in one loop iteration. The sibling (lane 1) ticks first with
 * its gates closed and records its control trace; lane 0 then ticks
 * once, gating against that trace. Control traces do not depend on
 * taint, so lane 0's gates are exact and nothing is ever re-run.
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
    const SimOptions sibling = siblingOptions(options);
    LaneRun l0(lane0_, out.dut0, schedule);
    LaneRun l1(lane1_, out.dut1, schedule);
    size_t transient = resumePoint(schedule);
    if (prefix_.resumable(schedule, transient, data, options)) {
        restoreLane(capture0_, l0, options, transient);
        restoreLane(capture1_, l1, sibling, transient);
        // Prefix cycles this resume did not have to re-simulate.
        obs::counterAdd(obs::Ctr::FusedLaneCycles,
                        capture0_.core.cycle() + capture1_.core.cycle());
        lockstepLoop(l0, l1, options, SIZE_MAX);
        return;
    }

    startLane(l0, data, options, false);
    startLane(l1, data, sibling, true);
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
    const SimOptions sibling = siblingOptions(options);
    bool captured = false;
    auto capture = [&]() {
        captureLane(capture0_, l0);
        captureLane(capture1_, l1);
        captured = true;
    };

    while (!l0.done && !l1.done) {
        sibling_trace_.clear();
        laneTick(l1, sibling, ift::IftMode::DiffIFT, &sibling_trace_,
                 nullptr);
        laneTick(l0, options, ift::IftMode::DiffIFT, nullptr,
                 &sibling_trace_);

        // Boundary snapshot: the first time a swap cursor reaches the
        // transient packet it sits exactly at its start — the packet
        // was loaded at the end of this tick and none of its
        // instructions have been fetched yet.
        if (capture_at != SIZE_MAX && !captured &&
            (l0.runtime.cursor() >= capture_at ||
             l1.runtime.cursor() >= capture_at))
            capture();
    }

    // The transient packet was never reached (a lane ran out of
    // budget while training): snapshot the exit state, so a resume
    // still skips the whole shared prefix.
    if (capture_at != SIZE_MAX && !captured)
        capture();

    // Solo tails: one instance outlived the other. Both lanes stop at
    // the same cycle, so lane 0 is past the sibling's last recorded
    // cycle: an empty view, every gate open. The sibling's own gates
    // stay closed; only its value state is read.
    while (!l0.done)
        laneTick(l0, options, ift::IftMode::DiffIFT, nullptr, &kEmptyTrace);
    while (!l1.done)
        laneTick(l1, sibling, ift::IftMode::DiffIFT, nullptr, nullptr);

    if (l0.started)
        finishLane(l0, options);
    if (l1.started)
        finishLane(l1, sibling);
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
        runOne(schedule, data, siblingOptions(options), true,
               options.mode, lane1_, out.dut1);
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
