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

/** The sibling's options: nobody reads its taint, so it is a value
 *  lane, with no taint source, no taint log and no sinks. */
SimOptions
siblingOptions(const SimOptions &options)
{
    SimOptions sibling = options;
    sibling.mode = ift::IftMode::Off;
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

/** Same word in memory: Instr::operator== ignores `raw`, which
 *  encode() emits for an ILLEGAL instruction. */
bool
sameWord(const isa::Instr &x, const isa::Instr &y)
{
    return x == y && x.raw == y.raw;
}

bool
sameInstrs(const std::vector<isa::Instr> &a,
           const std::vector<isa::Instr> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), sameWord);
}

/**
 * Can a run under @p wanted resume from a capture taken under
 * @p captured? The mode and both budgets shape the prefix; a run that
 * logs taint needs a capture that logged it.
 */
bool
optionsAllow(const SimOptions &captured, const SimOptions &wanted)
{
    return captured.mode == wanted.mode &&
           captured.packet_cycle_budget == wanted.packet_cycle_budget &&
           captured.total_cycle_budget == wanted.total_cycle_budget &&
           (captured.taint_log || !wanted.taint_log);
}

} // namespace

DualSim::DualSim(const uarch::CoreConfig &config)
    : cfg_(config), lane0_(config), lane1_(config), capture0_(config),
      capture1_(config), divergence0_(config), divergence1_(config)
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
        !optionsAllow(options, options_in))
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

bool
DualSim::DivergenceKey::matches(const SwapSchedule &schedule,
                                size_t transient_in,
                                const SimOptions &options_in,
                                size_t tail_in) const
{
    if (!valid || transient_in + 1 != schedule.packets.size() ||
        tail_in < tail || !optionsAllow(options, options_in))
        return false;
    const std::vector<isa::Instr> &instrs =
        schedule.packets[transient_in].instrs;
    return instrs.size() == transient.size() &&
           std::equal(instrs.begin(), instrs.begin() + tail,
                      transient.begin(), sameWord);
}

void
DualSim::buildMemory(Memory &mem, const StimulusData &data,
                     const SimOptions &options, bool flipped_secret) const
{
    // Taint enters only where it is read: an Off lane's secret is
    // clean, so its shadow state never leaves zero.
    auto secret = flipped_secret ? data.flippedSecret() : data.secret;
    mem.installSecret(secret.data(), secret.size(),
                      options.mode != ift::IftMode::Off);
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
    buildMemory(lr.lane.mem, data, options, flipped_secret);
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
 * One cycle of one instance, in its own options' mode: arm the taint
 * context, tick the core, record the taint log and drive the swap
 * runtime. Shared verbatim by runSingle and the lockstep driver so the
 * per-cycle semantics cannot drift between them.
 */
void
DualSim::laneTick(LaneRun &lr, const SimOptions &options,
                  ift::ControlTrace *mine, const ift::ControlTrace *other)
{
    // Cooperative batch/replay watchdog probe (one counter decrement
    // when no deadline is armed). Placing it on the per-cycle path
    // bounds even a single pathological simulation.
    util::WallGuard::check();

    ift::TaintCtx ctx;
    ctx.begin(options.mode, mine, other);
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
DualSim::runSingle(const SwapSchedule &schedule,
                   const StimulusData &data, const SimOptions &options,
                   DutResult &out)
{
    SimOptions off = options;
    off.mode = ift::IftMode::Off;
    LaneRun lr(lane0_, out, schedule);
    startLane(lr, data, off, false);
    while (!lr.done)
        laneTick(lr, off, nullptr, nullptr);
    if (lr.started)
        finishLane(lr, off);
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
 * Lockstep co-simulation, in every mode: both instances advance
 * through the same cycle in one loop iteration. The sibling (lane 1),
 * a value lane, ticks first and records its control trace; lane 0
 * then ticks once, in the run's mode, and under DiffIFT gates against
 * that trace. Control traces do not depend on taint, so lane 0's gates
 * are exact and nothing is ever re-run.
 *
 * A run resumes from the latest point it provably shares with an
 * earlier run: the divergence-point snapshot when its transient packet
 * equals the capturing run's before the tail, else the
 * transient-boundary snapshot when its prefix matches. Any other run
 * starts from reset and, when the schedule has a training prefix,
 * replaces the boundary snapshot. Only a run that does not resume at
 * the divergence point searches for its own.
 */
void
DualSim::runDual(const SwapSchedule &schedule, const StimulusData &data,
                 const SimOptions &options, DualResult &out, size_t tail)
{
    const SimOptions sibling = siblingOptions(options);
    LaneRun l0(lane0_, out.dut0, schedule);
    LaneRun l1(lane1_, out.dut1, schedule);
    const size_t transient = resumePoint(schedule);

    // The tail is searched for only when the transient packet is the
    // last one, so it stays in the swap region to the end.
    DivergenceSearch search;
    DivergenceSearch *searching = nullptr;
    if (transient != SIZE_MAX && transient + 1 == schedule.packets.size() &&
        tail < schedule.packets[transient].instrs.size()) {
        search.transient = transient;
        search.begin = swapmem::kSwapBase + 4 * tail;
        search.end = swapmem::kSwapBase +
                     4 * schedule.packets[transient].instrs.size();
        searching = &search;
    }

    const bool resumable =
        prefix_.resumable(schedule, transient, data, options);
    const bool diverges =
        resumable && divergence_.matches(schedule, transient, options, tail);
    if (diverges && divergence_.captured) {
        restoreLane(divergence0_, l0, options);
        restoreLane(divergence1_, l1, sibling);
        // Nothing before the snapshot touched the tail, so this
        // schedule's own tail words are all that differs.
        for (LaneRun *lr : {&l0, &l1}) {
            if (lr->runtime.cursor() >= transient)
                swapmem::loadPacketWords(lr->lane.mem,
                                         schedule.packets[transient],
                                         divergence_.tail);
        }
        obs::counterAdd(obs::Ctr::FusedLaneCycles,
                        divergence0_.core.cycle() +
                            divergence1_.core.cycle());
        obs::counterAdd(obs::Ctr::DivergenceResumes);
        lockstepLoop(l0, l1, options, SIZE_MAX, nullptr);
    } else {
        if (resumable) {
            if (diverges)
                obs::counterAdd(obs::Ctr::DivergenceFallbacks);
            restoreLane(capture0_, l0, options);
            restoreLane(capture1_, l1, sibling);
            // A lane whose cursor reached the transient packet holds
            // the *capturing* schedule's in its swap region, so reload
            // this schedule's: the same zero-fill + load +
            // secret-protection sequence the original advance
            // performed.
            for (LaneRun *lr : {&l0, &l1}) {
                if (lr->runtime.cursor() == transient)
                    lr->runtime.reload(lr->lane.mem);
            }
            // Prefix cycles this resume did not have to re-simulate.
            obs::counterAdd(obs::Ctr::FusedLaneCycles,
                            capture0_.core.cycle() +
                                capture1_.core.cycle());
            // The divergence captures are overwritten below; a run cut
            // short by the wall-clock watchdog must leave no key at
            // them.
            if (searching != nullptr)
                divergence_.valid = false;
            lockstepLoop(l0, l1, options, SIZE_MAX, searching);
        } else {
            startLane(l0, data, options, false);
            startLane(l1, data, sibling, true);
            // Both keys describe captures this run overwrites or a
            // prefix it replaces.
            if (transient != SIZE_MAX) {
                prefix_.valid = false;
                divergence_.valid = false;
            }
            lockstepLoop(l0, l1, options, transient, searching);
            if (transient != SIZE_MAX)
                prefix_.assign(schedule, transient, data, options);
        }
        if (searching != nullptr) {
            divergence_.transient = schedule.packets[transient].instrs;
            divergence_.tail = tail;
            divergence_.options = options;
            divergence_.captured = search.captured;
            divergence_.valid = true;
        }
    }
    simulations_ += 2;
    obs::counterAdd(obs::Ctr::Simulations, 2);
}

void
DualSim::searchDivergence(LaneRun &l0, LaneRun &l1,
                          DivergenceSearch &search)
{
    const uint64_t group = 4ULL * cfg_.fetch_width;
    bool near = false;
    bool touched = false;
    for (LaneRun *lr : {&l0, &l1}) {
        // A lane still training holds a training packet where the
        // tail goes, so nothing it does can read it.
        if (lr->runtime.cursor() < search.transient)
            continue;
        if (!lr->watched) {
            lr->lane.mem.watch(search.begin, search.end);
            lr->watched = true;
        }
        touched |= lr->lane.mem.watchHit();
        const uint64_t pc = lr->lane.core.pc.v;
        near |= !lr->done && pc < search.end && pc + group > search.begin;
    }
    if (!near)
        return;
    // This cycle's fetch group may reach a tail word: the point to
    // snapshot, provided no earlier cycle touched one.
    search.pending = false;
    if (touched)
        return;
    captureLane(divergence0_, l0);
    captureLane(divergence1_, l1);
    search.captured = true;
    obs::counterAdd(obs::Ctr::DivergenceCaptures);
}

void
DualSim::lockstepLoop(LaneRun &l0, LaneRun &l1, const SimOptions &options,
                      size_t capture_at, DivergenceSearch *search)
{
    const SimOptions sibling = siblingOptions(options);
    bool captured = false;
    auto capture = [&]() {
        captureLane(capture0_, l0);
        captureLane(capture1_, l1);
        captured = true;
    };
    auto divergence = [&]() {
        if (search != nullptr && search->pending)
            searchDivergence(l0, l1, *search);
    };

    while (!l0.done && !l1.done) {
        divergence();
        sibling_trace_.clear();
        laneTick(l1, sibling, &sibling_trace_, nullptr);
        laneTick(l0, options, nullptr, &sibling_trace_);

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
    // cycle: an empty view, every DiffIFT gate open.
    while (!l0.done) {
        divergence();
        laneTick(l0, options, nullptr, &kEmptyTrace);
    }
    while (!l1.done) {
        divergence();
        laneTick(l1, sibling, nullptr, nullptr);
    }

    if (l0.started)
        finishLane(l0, options);
    if (l1.started)
        finishLane(l1, sibling);
}

void
DualSim::captureLane(LaneCapture &cap, const LaneRun &lr)
{
    cap.core = lr.lane.core;
    lr.lane.mem.save(cap.mem);
    cap.result = lr.result;
    cap.packet_cycles = lr.packet_cycles;
    cap.cursor = lr.runtime.cursor();
    cap.done = lr.done;
}

void
DualSim::restoreLane(const LaneCapture &cap, LaneRun &lr,
                     const SimOptions &options)
{
    lr.lane.core = cap.core;
    lr.lane.mem.restore(cap.mem);
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
