/**
 * @file
 * Differential-harness equivalence and pooling tests.
 *
 * DualSim's lockstep co-simulation must produce bit-identical
 * DutResults to FourPassOracle — an independent 4-pass value/diff
 * reference built here on the public Core/Memory/SwapRuntime/TaintCtx
 * calls — with the same sinks, taint logs, trace logs and
 * timing/state hashes, across the PoC suite, real triggered windows
 * and every IftMode. The fused Phase-3 lane (resume from the Phase-2
 * transient-boundary snapshot) must be bit-identical to a standalone
 * sanitized run. And because DualSim pools its cores/memories/result
 * buffers, a reused instance must be bit-identical to a freshly
 * constructed one.
 */

#include <gtest/gtest.h>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using core::Phase1;
using core::Seed;
using core::StimGen;
using core::TestCase;
using core::TriggerKind;
using harness::DualResult;
using harness::DualSim;
using harness::DutResult;
using harness::SimOptions;

void
expectDutEqual(const DutResult &a, const DutResult &b,
               const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timing_hash, b.timing_hash);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.packet_start, b.packet_start);

    EXPECT_EQ(a.contention.fetch_refill_wait,
              b.contention.fetch_refill_wait);
    EXPECT_EQ(a.contention.load_wb_conflict,
              b.contention.load_wb_conflict);
    EXPECT_EQ(a.contention.fdiv_busy_wait, b.contention.fdiv_busy_wait);
    EXPECT_EQ(a.contention.div_busy_wait, b.contention.div_busy_wait);
    EXPECT_EQ(a.contention.mem_port_wait, b.contention.mem_port_wait);

    // Trace log.
    EXPECT_EQ(a.trace.cycles, b.trace.cycles);
    ASSERT_EQ(a.trace.commits.size(), b.trace.commits.size());
    for (size_t i = 0; i < a.trace.commits.size(); ++i) {
        EXPECT_EQ(a.trace.commits[i].cycle, b.trace.commits[i].cycle);
        EXPECT_EQ(a.trace.commits[i].pc, b.trace.commits[i].pc);
        EXPECT_EQ(a.trace.commits[i].op, b.trace.commits[i].op);
    }
    ASSERT_EQ(a.trace.squashes.size(), b.trace.squashes.size());
    for (size_t i = 0; i < a.trace.squashes.size(); ++i) {
        const auto &sa = a.trace.squashes[i];
        const auto &sb = b.trace.squashes[i];
        EXPECT_EQ(sa.cycle, sb.cycle);
        EXPECT_EQ(sa.open_cycle, sb.open_cycle);
        EXPECT_EQ(sa.cause, sb.cause);
        EXPECT_EQ(sa.exc, sb.exc);
        EXPECT_EQ(sa.pc, sb.pc);
        EXPECT_EQ(sa.spec_pc, sb.spec_pc);
        EXPECT_EQ(sa.flushed, sb.flushed);
        EXPECT_EQ(sa.transient_executed, sb.transient_executed);
    }
    ASSERT_EQ(a.trace.rob_io.size(), b.trace.rob_io.size());
    for (size_t i = 0; i < a.trace.rob_io.size(); ++i) {
        EXPECT_EQ(a.trace.rob_io[i].cycle, b.trace.rob_io[i].cycle);
        EXPECT_EQ(a.trace.rob_io[i].enqueued,
                  b.trace.rob_io[i].enqueued);
        EXPECT_EQ(a.trace.rob_io[i].committed,
                  b.trace.rob_io[i].committed);
    }

    // Taint log — the bit-exact diffIFT shadow state per cycle.
    ASSERT_EQ(a.taint_log.cycles.size(), b.taint_log.cycles.size());
    for (size_t i = 0; i < a.taint_log.cycles.size(); ++i) {
        const auto &ca = a.taint_log.cycles[i];
        const auto &cb = b.taint_log.cycles[i];
        EXPECT_EQ(ca.cycle, cb.cycle);
        ASSERT_EQ(ca.count, cb.count) << "taint-log cycle " << ca.cycle;
        EXPECT_EQ(ca.taintedRegs(), cb.taintedRegs());
        EXPECT_EQ(ca.taintSum(), cb.taintSum());
        const auto *sa = a.taint_log.samplesBegin(ca);
        const auto *sb = b.taint_log.samplesBegin(cb);
        for (uint32_t m = 0; m < ca.count; ++m) {
            EXPECT_EQ(sa[m].module_id, sb[m].module_id);
            EXPECT_EQ(sa[m].tainted_regs, sb[m].tainted_regs)
                << "cycle " << ca.cycle << " module "
                << sa[m].module_id;
            EXPECT_EQ(sa[m].taint_bits, sb[m].taint_bits)
                << "cycle " << ca.cycle << " module "
                << sa[m].module_id;
        }
    }

    // Sink snapshots.
    ASSERT_EQ(a.sinks.size(), b.sinks.size());
    for (size_t i = 0; i < a.sinks.size(); ++i) {
        EXPECT_EQ(a.sinks[i].id, b.sinks[i].id);
        EXPECT_EQ(a.sinks[i].annotated, b.sinks[i].annotated);
        EXPECT_EQ(a.sinks[i].taint, b.sinks[i].taint)
            << "sink " << a.sinks[i].label();
        EXPECT_EQ(a.sinks[i].live, b.sinks[i].live)
            << "sink " << a.sinks[i].label();
    }
}

void
expectDualEqual(const DualResult &a, const DualResult &b)
{
    expectDutEqual(a.dut0, b.dut0, "dut0");
    expectDutEqual(a.dut1, b.dut1, "dut1");
}

SimOptions
fullOptions(ift::IftMode mode)
{
    SimOptions options;
    options.mode = mode;
    options.taint_log = true;
    options.sinks = true;
    return options;
}

/**
 * Reference differential evaluation, independent of DualSim: the
 * seed's 4-pass diffIFT pipeline. A value pass per instance records
 * every cycle's control trace (no sibling trace, so DiffIFT gates stay
 * closed and the pass's results are discarded); a diff pass per
 * instance then gates against the sibling's recorded trace, which is
 * empty (structural divergence => gates open) past the sibling's last
 * cycle. The single-pass modes run one pass per instance.
 */
class FourPassOracle
{
  public:
    explicit FourPassOracle(const uarch::CoreConfig &config)
        : cfg_(config)
    {}

    DualResult
    run(const swapmem::SwapSchedule &schedule,
        const harness::StimulusData &data, const SimOptions &options) const
    {
        DualResult out;
        if (options.mode != ift::IftMode::DiffIFT) {
            pass(schedule, data, options, false, nullptr, nullptr,
                 out.dut0);
            pass(schedule, data, options, true, nullptr, nullptr,
                 out.dut1);
            out.sim_passes = 2;
            return out;
        }
        SimOptions value_options = options;
        value_options.taint_log = false;
        value_options.sinks = false;
        Traces traces0;
        Traces traces1;
        DutResult discarded;
        pass(schedule, data, value_options, false, &traces0, nullptr,
             discarded);
        pass(schedule, data, value_options, true, &traces1, nullptr,
             discarded);
        pass(schedule, data, options, false, nullptr, &traces1, out.dut0);
        pass(schedule, data, options, true, nullptr, &traces0, out.dut1);
        out.sim_passes = 4;
        return out;
    }

  private:
    using Traces = std::vector<ift::ControlTrace>;

    /** One instance, start to finish: records into @p record and/or
     *  gates against @p sibling when given. */
    void
    pass(const swapmem::SwapSchedule &schedule,
         const harness::StimulusData &data, const SimOptions &options,
         bool flipped_secret, Traces *record, const Traces *sibling,
         DutResult &out) const
    {
        static const ift::ControlTrace kEmpty;
        out = DutResult{};
        uarch::Core core(cfg_);
        swapmem::Memory mem;
        auto secret = flipped_secret ? data.flippedSecret() : data.secret;
        mem.installSecret(secret.data(), secret.size());
        for (size_t i = 0; i < data.operands.size(); ++i)
            mem.setOperand(static_cast<unsigned>(i), data.operands[i]);

        swapmem::SwapRuntime runtime(schedule);
        uint64_t entry = runtime.start(mem);
        if (runtime.done()) {
            out.completed = true;
            return;
        }
        core.startSequence(entry);
        out.packet_start.push_back(0);
        uint64_t packet_cycles = 0;
        while (core.cycle() < options.total_cycle_budget) {
            uint64_t cycle = core.cycle();
            ift::ControlTrace *mine = nullptr;
            if (record != nullptr) {
                record->resize(cycle + 1);
                mine = &record->back();
            }
            const ift::ControlTrace *other = nullptr;
            if (sibling != nullptr)
                other = cycle < sibling->size() ? &(*sibling)[cycle]
                                                : &kEmpty;
            ift::TaintCtx ctx;
            ctx.begin(options.mode, mine, other);
            uarch::TickEvents ev = core.tick(mem, ctx, &out.trace);
            if (options.taint_log)
                core.appendTaintLog(out.taint_log);
            bool force_advance =
                ++packet_cycles >= options.packet_cycle_budget;
            if (force_advance)
                out.budget_exceeded = true;
            if (ev.swap_next || ev.trapped || force_advance) {
                uint64_t next_entry = runtime.advance(mem);
                if (runtime.done()) {
                    out.completed = true;
                    break;
                }
                core.flushICache();
                core.startSequence(next_entry);
                out.packet_start.push_back(core.cycle());
                packet_cycles = 0;
            }
        }
        out.cycles = core.cycle();
        out.contention = core.contention;
        out.timing_hash = core.timingStateHash();
        out.state_hash =
            fnv1a(out.timing_hash, core.cachedDataHash(mem));
        if (options.sinks)
            core.enumSinks(out.sinks);
    }

    uarch::CoreConfig cfg_;
};

/** Generate Phase-1-triggered, window-completed test cases. */
std::vector<TestCase>
triggeredCases(const uarch::CoreConfig &cfg, unsigned want)
{
    DualSim sim(cfg);
    StimGen gen(cfg);
    Phase1 phase1(sim, SimOptions{});
    Rng rng(0xd0a1);
    std::vector<TestCase> cases;
    for (unsigned i = 0; i < 64 && cases.size() < want; ++i) {
        Seed seed = gen.newSeed(rng, i);
        TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        gen.completeWindow(tc);
        cases.push_back(std::move(tc));
    }
    return cases;
}

TEST(DualSimEquivalence, LockstepMatchesFourPassOnPocSuite)
{
    auto cfg = uarch::smallBoomConfig();
    DualSim lockstep_sim(cfg);
    FourPassOracle oracle(cfg);
    auto options = fullOptions(ift::IftMode::DiffIFT);
    for (const auto &poc : bench::pocSuite()) {
        SCOPED_TRACE(poc.name);
        auto a = lockstep_sim.runDual(poc.schedule, poc.data, options);
        auto b = oracle.run(poc.schedule, poc.data, options);
        EXPECT_EQ(a.sim_passes, 2u);
        expectDualEqual(a, b);
    }
}

TEST(DualSimEquivalence, LockstepMatchesFourPassOnTriggeredWindows)
{
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        auto cases = triggeredCases(cfg, 6);
        ASSERT_FALSE(cases.empty());
        DualSim lockstep_sim(cfg);
        FourPassOracle oracle(cfg);
        auto options = fullOptions(ift::IftMode::DiffIFT);
        for (size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(i);
            auto a = lockstep_sim.runDual(cases[i].schedule,
                                          cases[i].data, options);
            auto b =
                oracle.run(cases[i].schedule, cases[i].data, options);
            expectDualEqual(a, b);
        }
    }
}

TEST(DualSimEquivalence, SinglePassModesMatchOracle)
{
    auto cfg = uarch::smallBoomConfig();
    auto poc = bench::meltdown();
    DualSim sim(cfg);
    FourPassOracle oracle(cfg);
    for (auto mode : {ift::IftMode::Off, ift::IftMode::CellIFT,
                      ift::IftMode::DiffIFTFN}) {
        SCOPED_TRACE(static_cast<int>(mode));
        auto a = sim.runDual(poc.schedule, poc.data, fullOptions(mode));
        auto b = oracle.run(poc.schedule, poc.data, fullOptions(mode));
        EXPECT_EQ(a.sim_passes, 2u);
        expectDualEqual(a, b);
    }
}

TEST(DualSimEquivalence, FusedPhase3MatchesStandaloneSanitizedRun)
{
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        StimGen gen(cfg);
        auto cases = triggeredCases(cfg, 6);
        ASSERT_FALSE(cases.empty());
        DualSim fused_sim(cfg);
        DualSim standalone_sim(cfg);
        size_t checked = 0;
        for (size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(i);
            const TestCase &tc = cases[i];
            if (!tc.has_window_payload)
                continue;
            ++checked;
            swapmem::SwapSchedule sanitized =
                gen.sanitizedSchedule(tc);
            // Phase 3 runs without taint logging; the true variant
            // exercises the generic prefix-log retention path.
            for (bool taint_log : {false, true}) {
                SCOPED_TRACE(taint_log);
                fused_sim.armFusion(&sanitized);
                DualResult phase2;
                fused_sim.runDual(
                    tc.schedule, tc.data,
                    fullOptions(ift::IftMode::DiffIFT), phase2);
                ASSERT_TRUE(fused_sim.fusionCaptured());

                // The capture hook must leave the Phase-2 run itself
                // unchanged.
                DualResult unarmed;
                standalone_sim.runDual(
                    tc.schedule, tc.data,
                    fullOptions(ift::IftMode::DiffIFT), unarmed);
                expectDualEqual(phase2, unarmed);

                SimOptions p3;
                p3.mode = ift::IftMode::DiffIFT;
                p3.sinks = true;
                p3.taint_log = taint_log;
                DualResult fused;
                fused_sim.runFusedPhase3(p3, fused);
                EXPECT_EQ(fused.sim_passes, 1u);
                EXPECT_FALSE(fused_sim.fusionCaptured());

                DualResult standalone;
                standalone_sim.runDual(sanitized, tc.data, p3,
                                       standalone);
                expectDualEqual(fused, standalone);
            }
        }
        EXPECT_GT(checked, 0u);
    }
}

TEST(DualSimEquivalence, FusionOnOffIsIdentityThroughPhase3)
{
    // End-to-end through the phase drivers: Phase 2 arms the fusion
    // capture, and its differential result must equal an unarmed run
    // of the same case on a second DualSim. Phase 3 on the DualSim
    // that ran Phase 2 resumes the fused third lane; Phase 3 on the
    // second DualSim, which never captured, runs the standalone
    // sanitized simulation. Both must reach the same verdicts, with
    // the fused path spending one simulation pass where the
    // standalone path spends two.
    auto cfg = uarch::smallBoomConfig();
    StimGen gen(cfg);
    auto cases = triggeredCases(cfg, 4);
    ASSERT_FALSE(cases.empty());

    DualSim fused_sim(cfg);
    DualSim plain_sim(cfg);
    ift::TaintCoverage coverage;
    auto ids = uarch::Core::registerModules(coverage, cfg);
    SimOptions base;
    base.mode = ift::IftMode::DiffIFT;
    core::Phase2 phase2(fused_sim, base, coverage, ids, gen);
    core::Phase3 phase3_fused(fused_sim, base, gen);
    core::Phase3 phase3_plain(plain_sim, base, gen);

    size_t captured = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(i);
        const core::Phase2Result &explored = phase2.run(cases[i]);
        if (fused_sim.fusionCaptured())
            ++captured;
        DualResult unarmed;
        plain_sim.runDual(cases[i].schedule, cases[i].data,
                          fullOptions(ift::IftMode::DiffIFT), unarmed);
        expectDualEqual(explored.dual, unarmed);

        core::Phase3Result va = phase3_fused.run(cases[i], explored);
        core::Phase3Result vb = phase3_plain.run(cases[i], explored);

        EXPECT_EQ(va.leak, vb.leak);
        EXPECT_EQ(va.encoded_sinks, vb.encoded_sinks);
        EXPECT_EQ(va.live_encoded_sinks, vb.live_encoded_sinks);
        ASSERT_EQ(va.report.has_value(), vb.report.has_value());
        if (va.report.has_value()) {
            EXPECT_EQ(va.report->channel, vb.report->channel);
            EXPECT_EQ(va.report->components, vb.report->components);
        }
        if (vb.simulations == 2) {
            // The sanitized analysis actually ran: fusion must have
            // collapsed it to a single pass.
            EXPECT_EQ(va.simulations, 1u);
        } else {
            EXPECT_EQ(va.simulations, vb.simulations);
        }
    }
    EXPECT_GT(captured, 0u);
}

TEST(DualSimReuse, PooledRunsMatchFreshInstance)
{
    auto cfg = uarch::smallBoomConfig();
    auto cases = triggeredCases(cfg, 3);
    ASSERT_GE(cases.size(), 2u);
    auto options = fullOptions(ift::IftMode::DiffIFT);

    // Dirty the pooled instance with every other case first, then run
    // the probe case; a fresh instance runs only the probe. Reset
    // must erase all cross-run state.
    for (const auto &probe : cases) {
        DualSim pooled(cfg);
        for (const auto &other : cases)
            (void)pooled.runDual(other.schedule, other.data, options);
        auto reused =
            pooled.runDual(probe.schedule, probe.data, options);
        DualSim fresh(cfg);
        auto baseline =
            fresh.runDual(probe.schedule, probe.data, options);
        expectDualEqual(reused, baseline);
    }
}

TEST(DualSimReuse, PooledRunSingleMatchesFresh)
{
    auto cfg = uarch::xiangshanMinimalConfig();
    auto poc = bench::spectreV4();
    auto other = bench::spectreV1();
    SimOptions options;

    DualSim pooled(cfg);
    (void)pooled.runSingle(other.schedule, other.data, options);
    (void)pooled.runDual(other.schedule, other.data,
                         fullOptions(ift::IftMode::DiffIFT));
    auto reused = pooled.runSingle(poc.schedule, poc.data, options);

    DualSim fresh(cfg);
    auto baseline = fresh.runSingle(poc.schedule, poc.data, options);
    expectDutEqual(reused, baseline, "runSingle");
}

TEST(DualSimReuse, OutParamBuffersAreReusedAcrossRuns)
{
    auto cfg = uarch::smallBoomConfig();
    auto poc = bench::spectreV1();
    auto options = fullOptions(ift::IftMode::DiffIFT);

    DualSim sim(cfg);
    DualResult pooled_result;
    sim.runDual(poc.schedule, poc.data, options, pooled_result);
    // Second fill into the same buffers must yield the same content.
    DualResult second;
    sim.runDual(poc.schedule, poc.data, options, second);
    sim.runDual(poc.schedule, poc.data, options, pooled_result);
    expectDualEqual(pooled_result, second);
}

TEST(DualSimReuse, ShorterRunAfterLongerRunSeesNoStaleTraces)
{
    // The trace stores are sized once and reused; a short schedule
    // after a long one must not observe the long run's recordings.
    auto cfg = uarch::smallBoomConfig();
    auto long_poc = bench::spectreV2();
    auto short_poc = bench::spectreV1();
    auto options = fullOptions(ift::IftMode::DiffIFT);

    DualSim pooled(cfg);
    (void)pooled.runDual(long_poc.schedule, long_poc.data, options);
    auto reused =
        pooled.runDual(short_poc.schedule, short_poc.data, options);
    DualSim fresh(cfg);
    auto baseline =
        fresh.runDual(short_poc.schedule, short_poc.data, options);
    expectDualEqual(reused, baseline);
}

} // namespace
} // namespace dejavuzz
