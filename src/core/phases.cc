#include "core/phases.hh"

#include <algorithm>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dejavuzz::core {

using harness::DualResult;
using harness::DutResult;
using uarch::SquashCause;
using uarch::SquashRec;

WindowCheck
checkWindow(const uarch::TraceLog &trace, const TestCase &tc)
{
    WindowCheck check;
    SquashCause want = expectedCause(tc.seed.trigger);
    for (const SquashRec &squash : trace.squashes) {
        if (squash.cause != want)
            continue;
        if (squash.flushed == 0)
            continue;
        // The trigger instruction must be the squash source and the
        // wrong path must start at the generated window.
        bool pc_ok;
        bool spec_ok;
        switch (tc.seed.trigger) {
          case TriggerKind::MemDisambiguation:
            // The squash replays from the speculative load.
            pc_ok = squash.pc == tc.window_addr;
            spec_ok = squash.spec_pc == tc.window_addr;
            break;
          case TriggerKind::IllegalInstr:
          case TriggerKind::LoadAccessFault:
          case TriggerKind::LoadPageFault:
          case TriggerKind::LoadMisalign:
          case TriggerKind::PrivEcall:
          case TriggerKind::PrivReturn:
            pc_ok = squash.pc == tc.trigger_addr;
            spec_ok = true; // fall-through window by construction
            break;
          default:
            pc_ok = squash.pc == tc.trigger_addr;
            spec_ok = squash.spec_pc == tc.window_addr;
            break;
        }
        if (!pc_ok || !spec_ok)
            continue;
        if (squash.transient_executed == 0)
            continue;
        // Exception windows must fault with the requested cause class.
        if (want == SquashCause::Exception) {
            bool match;
            switch (tc.seed.trigger) {
              case TriggerKind::LoadAccessFault:
                match = squash.exc == isa::ExcCause::LoadAccessFault ||
                        squash.exc == isa::ExcCause::StoreAccessFault;
                break;
              case TriggerKind::LoadPageFault:
                match = squash.exc == isa::ExcCause::LoadPageFault ||
                        squash.exc == isa::ExcCause::StorePageFault;
                break;
              case TriggerKind::LoadMisalign:
                match =
                    squash.exc == isa::ExcCause::LoadAddrMisaligned ||
                    squash.exc == isa::ExcCause::StoreAddrMisaligned;
                break;
              case TriggerKind::IllegalInstr:
                match = squash.exc == isa::ExcCause::IllegalInstr;
                break;
              case TriggerKind::PrivEcall:
                match = squash.exc == isa::ExcCause::EcallU ||
                        squash.exc == isa::ExcCause::EcallM;
                break;
              default:
                match = false;
                break;
            }
            if (!match)
                continue;
        }
        check.triggered = true;
        check.open_cycle = squash.open_cycle;
        check.close_cycle = squash.cycle;
        check.transient_executed = squash.transient_executed;
        return check;
    }
    return check;
}

unsigned
Phase1::run(TestCase &tc, bool &triggered, bool reduce)
{
    obs::ScopedSpan span(obs::Hist::Phase1Ns);
    unsigned sims = 0;
    sim_->runSingle(tc.schedule, tc.data, options_, result_);
    ++sims;
    triggered =
        result_.completed && checkWindow(result_.trace, tc).triggered;
    if (!triggered || !reduce)
        return sims;

    // Training reduction: try dropping each training packet in
    // schedule order; keep the drop when the window still triggers.
    bool progress = true;
    while (progress) {
        progress = false;
        for (size_t i = 0; i < tc.schedule.packets.size(); ++i) {
            if (tc.schedule.packets[i].kind ==
                swapmem::PacketKind::Transient)
                continue;
            swapmem::SwapSchedule reduced = tc.schedule.without(i);
            sim_->runSingle(reduced, tc.data, options_, result_);
            ++sims;
            if (result_.completed &&
                checkWindow(result_.trace, tc).triggered) {
                tc.schedule = std::move(reduced);
                progress = true;
                break;
            }
        }
    }
    return sims;
}

const Phase2Result &
Phase2::run(const TestCase &tc)
{
    obs::ScopedSpan span(obs::Hist::Phase2Ns);
    Phase2Result &result = result_;
    result.window_ok = false;
    result.taint_propagated = false;
    result.new_coverage = 0;
    result.window = WindowCheck{};
    harness::SimOptions options = options_;
    options.taint_log = true;
    options.sinks = true;
    // Arm Phase-3 lane fusion when the case has a window payload to
    // sanitize: the differential run below then snapshots both lanes
    // at the transient boundary, and Phase 3 resumes from the
    // snapshot instead of re-simulating the shared prefix.
    if (tc.has_window_payload) {
        sanitized_ = gen_->sanitizedSchedule(tc);
        sim_->armFusion(&sanitized_);
    } else {
        sim_->armFusion(nullptr);
    }
    sim_->runDual(tc.schedule, tc.data, options, result.dual);

    result.window = checkWindow(result.dual.dut0.trace, tc);
    result.window_ok = result.dual.dut0.completed &&
                       result.window.triggered;
    if (!result.window_ok)
        return result;

    // Taint must increase inside the window's cycle range.
    const auto &log = result.dual.dut0.taint_log;
    uint64_t before = 0;
    for (const auto &cyc : log.cycles) {
        if (cyc.cycle < result.window.open_cycle)
            before = cyc.taintSum();
    }
    uint64_t peak = log.maxTaintSumIn(result.window.open_cycle,
                                      result.window.close_cycle + 8);
    result.taint_propagated = peak > before;
    if (!result.taint_propagated)
        return result;

    // Coverage measurement over the window range.
    for (const auto &cyc : log.cycles) {
        if (cyc.cycle < result.window.open_cycle ||
            cyc.cycle > result.window.close_cycle + 8)
            continue;
        for (const auto *sample = log.samplesBegin(cyc);
             sample != log.samplesEnd(cyc); ++sample) {
            coverage_->sample(module_ids_[sample->module_id],
                              sample->tainted_regs);
        }
    }
    result.new_coverage = coverage_->takeNewPoints();
    return result;
}

std::set<std::string>
constantTimeViolations(const DualResult &dual)
{
    std::set<std::string> components;
    const DutResult &a = dual.dut0;
    const DutResult &b = dual.dut1;

    bool timing_differs = a.cycles != b.cycles ||
                          a.trace.commits.size() !=
                              b.trace.commits.size();
    if (!timing_differs) {
        for (size_t i = 0; i < a.trace.commits.size(); ++i) {
            if (a.trace.commits[i].cycle != b.trace.commits[i].cycle) {
                timing_differs = true;
                break;
            }
        }
    }
    if (!timing_differs)
        return components;

    // Attribute the difference to the contended resources.
    const auto &ca = a.contention;
    const auto &cb = b.contention;
    if (ca.fdiv_busy_wait != cb.fdiv_busy_wait)
        components.insert("fpu");
    if (ca.load_wb_conflict != cb.load_wb_conflict)
        components.insert("lsu");
    if (ca.mem_port_wait != cb.mem_port_wait)
        components.insert("lsu");
    if (ca.fetch_refill_wait != cb.fetch_refill_wait)
        components.insert("icache");
    if (ca.div_busy_wait != cb.div_busy_wait)
        components.insert("exec");
    if (components.empty())
        components.insert("dcache"); // residual: memory timing
    return components;
}

void
diffSinks(const std::vector<ift::SinkSnapshot> &orig,
          const std::vector<ift::SinkSnapshot> &sanitized,
          bool use_liveness, std::set<std::string> &live_out,
          size_t &encoded, size_t &live_encoded)
{
    for (size_t si = 0; si < orig.size(); ++si) {
        const ift::SinkSnapshot &sink = orig[si];
        // Both snapshot lists come from the same per-config-stable
        // enumSinks sequence, so the id match is positional in the
        // common case; fall back to a scan over the (≈15-entry) list.
        const ift::SinkSnapshot *base = nullptr;
        if (si < sanitized.size() && sanitized[si].id == sink.id) {
            base = &sanitized[si];
        } else {
            for (const auto &cand : sanitized) {
                if (cand.id == sink.id) {
                    base = &cand;
                    break;
                }
            }
        }
        for (size_t i = 0; i < sink.taint.size(); ++i) {
            bool orig_tainted = sink.taint[i] != 0;
            bool base_tainted = base != nullptr &&
                                i < base->taint.size() &&
                                base->taint[i] != 0;
            if (!orig_tainted || base_tainted)
                continue; // not produced by the encoding block
            ++encoded;
            bool live = !sink.annotated || sink.live[i] != 0;
            if (!use_liveness)
                live = true;
            if (live) {
                ++live_encoded;
                live_out.insert(sink.module());
            }
        }
    }
}

/** Attack classification from the seed's attack model (legacy
 *  same-domain seeds keep the Meltdown/Spectre split). */
static AttackType
attackFor(const TestCase &tc)
{
    switch (tc.seed.model.tmpl) {
      case AttackTemplate::PrivTransition:
        return AttackType::PrivTransition;
      case AttackTemplate::DoubleFetch:
        return AttackType::DoubleFetch;
      case AttackTemplate::MeltdownSupervisor:
        return AttackType::Meltdown;
      case AttackTemplate::SameDomain:
      case AttackTemplate::kCount:
        break;
    }
    return tc.seed.window.meltdown ? AttackType::Meltdown
                                   : AttackType::Spectre;
}

Phase3Result
Phase3::run(const TestCase &tc, const Phase2Result &phase2,
            bool use_liveness)
{
    obs::ScopedSpan span(obs::Hist::Phase3Ns);
    Phase3Result result;

    // Step 3.1: window constant-time execution analysis.
    std::set<std::string> timing = constantTimeViolations(phase2.dual);
    if (!timing.empty()) {
        BugReport report;
        report.attack = attackFor(tc);
        report.window = tc.seed.trigger;
        report.channel = LeakChannel::TimingDifference;
        report.components = timing;
        report.masked_address = tc.seed.window.mask_high_bits;
        report.seed_id = tc.seed.id;
        result.leak = true;
        result.report = report;
        return result;
    }

    // Encode sanitization: re-run with the encoding block nopped and
    // diff the taint footprints.
    harness::SimOptions options = options_;
    options.taint_log = false;
    options.sinks = true;
    if (sim_->fusionCaptured()) {
        // Fused third lane: the Phase-2 run snapshotted both lanes at
        // the transient boundary; resume them onto the sanitized
        // schedule instead of re-simulating the shared prefix.
        sim_->runFusedPhase3(options, base_);
    } else {
        swapmem::SwapSchedule sanitized = gen_->sanitizedSchedule(tc);
        sim_->runDual(sanitized, tc.data, options, base_);
    }
    result.simulations = base_.sim_passes;

    // Step 3.2: tainted-sink liveness analysis.
    std::set<std::string> live_components;
    diffSinks(phase2.dual.dut0.sinks, base_.dut0.sinks, use_liveness,
              live_components, result.encoded_sinks,
              result.live_encoded_sinks);

    if (!live_components.empty()) {
        BugReport report;
        report.attack = attackFor(tc);
        report.window = tc.seed.trigger;
        report.channel = LeakChannel::EncodedState;
        report.components = live_components;
        report.masked_address = tc.seed.window.mask_high_bits;
        report.seed_id = tc.seed.id;
        result.leak = true;
        result.report = report;
    }
    return result;
}

} // namespace dejavuzz::core
