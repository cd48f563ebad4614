/**
 * @file
 * Differential-harness equivalence and pooling tests.
 *
 * DualSim's lockstep co-simulation must produce bit-identical
 * DutResults to TwoPassOracle — an independent reference built here
 * on the public Core/Memory/SwapRuntime/TaintCtx calls: the sibling's
 * value pass, then instance 0's diff pass against its recorded trace —
 * with the same sinks, taint logs, trace logs and timing/state hashes
 * for instance 0 and the same value state for the sibling, across the
 * PoC suites, real triggered windows and every IftMode. Both rest on
 * one premise, checked directly here: an instance's control trace
 * does not depend on how its taint gates resolve. The same inputs
 * check that diffIFT's whole-core taint stays inside CellIFT's. A run
 * that resumes from the transient-boundary snapshot (a Phase-2
 * mutation, the Phase-3 sanitized twin) must be bit-identical to a run
 * from reset, whatever ran before it. And because DualSim pools its
 * cores/memories/result buffers, a reused instance must be
 * bit-identical to a freshly constructed one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "obs/telemetry.hh"
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

/**
 * Equality of the value-domain fields of two runs made with the same
 * options: everything but the taint log and the sinks. @p hashed says
 * whether those options requested the state hashes: then a run that
 * simulated cycles must carry real ones, otherwise both must stay 0.
 */
void
expectValueEqual(const DutResult &a, const DutResult &b, bool hashed)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timing_hash, b.timing_hash);
    EXPECT_EQ(a.state_hash, b.state_hash);
    if (a.cycles > 0) {
        EXPECT_EQ(a.timing_hash != 0, hashed);
        EXPECT_EQ(a.state_hash != 0, hashed);
    }
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
}

/** Field-by-field equality of two runs made with the same options
 *  (see expectValueEqual for @p hashed). */
void
expectDutEqual(const DutResult &a, const DutResult &b, bool hashed,
               const char *what)
{
    SCOPED_TRACE(what);
    expectValueEqual(a, b, hashed);

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

/** dut0 in full; the sibling dut1 carries value state only. */
void
expectDualEqual(const DualResult &a, const DualResult &b, bool hashed)
{
    expectDutEqual(a.dut0, b.dut0, hashed, "dut0");
    expectDutEqual(a.dut1, b.dut1, hashed, "dut1");
    for (const DualResult *r : {&a, &b}) {
        EXPECT_TRUE(r->dut1.taint_log.cycles.empty());
        EXPECT_TRUE(r->dut1.sinks.empty());
    }
}

SimOptions
fullOptions(ift::IftMode mode)
{
    SimOptions options;
    options.mode = mode;
    options.taint_log = true;
    options.sinks = true;
    options.state_hash = true;
    return options;
}

using Traces = std::vector<ift::ControlTrace>;

/**
 * One instance, start to finish, independent of DualSim: records each
 * cycle's control trace into @p record and/or gates against
 * @p sibling's trace for the same cycle when given. Past the
 * sibling's last cycle the view is empty (structural divergence =>
 * gates open).
 */
void
runLane(const uarch::CoreConfig &cfg,
        const swapmem::SwapSchedule &schedule,
        const harness::StimulusData &data, const SimOptions &options,
        bool flipped_secret, Traces *record, const Traces *sibling,
        DutResult &out)
{
    static const ift::ControlTrace kEmpty;
    out = DutResult{};
    uarch::Core core(cfg);
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
            other = cycle < sibling->size() ? &(*sibling)[cycle] : &kEmpty;
        ift::TaintCtx ctx;
        ctx.begin(options.mode, mine, other);
        uarch::TickEvents ev = core.tick(mem, ctx, &out.trace);
        if (options.taint_log)
            core.appendTaintLog(out.taint_log);
        bool force_advance = ++packet_cycles >= options.packet_cycle_budget;
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
    if (options.state_hash) {
        out.timing_hash = core.timingStateHash();
        out.state_hash = fnv1a(out.timing_hash, core.cachedDataHash(mem));
    }
    if (options.sinks)
        core.enumSinks(out.sinks);
}

/**
 * Reference differential evaluation, independent of DualSim, in two
 * passes: the sibling (flipped secret) runs to the end first, without
 * taint log or sinks, recording every cycle's control trace (no
 * sibling view of its own, so DiffIFT gates stay closed); instance 0
 * then runs against that recorded trace. The single-pass modes record
 * nothing.
 */
DualResult
twoPassOracle(const uarch::CoreConfig &cfg,
              const swapmem::SwapSchedule &schedule,
              const harness::StimulusData &data, const SimOptions &options)
{
    DualResult out;
    SimOptions sibling = options;
    sibling.taint_log = false;
    sibling.sinks = false;
    const bool diff = options.mode == ift::IftMode::DiffIFT;
    Traces traces1;
    runLane(cfg, schedule, data, sibling, true, diff ? &traces1 : nullptr,
            nullptr, out.dut1);
    runLane(cfg, schedule, data, options, false, nullptr,
            diff ? &traces1 : nullptr, out.dut0);
    return out;
}

/** Prefix cycles skipped by resumes so far (process-wide counter). */
uint64_t
resumedCycles()
{
    return obs::snapshot().counter(obs::Ctr::FusedLaneCycles);
}

/** A run from reset: a DualSim that has never captured a snapshot. */
DualResult
freshDual(const uarch::CoreConfig &cfg,
          const swapmem::SwapSchedule &schedule,
          const harness::StimulusData &data, const SimOptions &options)
{
    DualSim fresh(cfg);
    return fresh.runDual(schedule, data, options);
}

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

/**
 * The inputs the oracle, premise and containment tests share: both
 * PoC suites and six Phase-1-triggered windows.
 */
std::vector<bench::Poc>
sharedInputs(const uarch::CoreConfig &cfg)
{
    std::vector<bench::Poc> inputs = bench::pocSuite();
    for (bench::Poc &poc : bench::scenarioPocSuite())
        inputs.push_back(std::move(poc));
    std::vector<TestCase> cases = triggeredCases(cfg, 6);
    EXPECT_FALSE(cases.empty());
    for (size_t i = 0; i < cases.size(); ++i) {
        inputs.push_back(bench::Poc{"triggered " + std::to_string(i),
                                    std::move(cases[i].schedule),
                                    std::move(cases[i].data)});
    }
    return inputs;
}

const uarch::CoreConfig kConfigs[] = {uarch::smallBoomConfig(),
                                      uarch::xiangshanMinimalConfig()};

TEST(DualSimEquivalence, LockstepMatchesTwoPassOracle)
{
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        DualSim lockstep_sim(cfg);
        auto options = fullOptions(ift::IftMode::DiffIFT);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            auto a =
                lockstep_sim.runDual(input.schedule, input.data, options);
            auto b = twoPassOracle(cfg, input.schedule, input.data, options);
            expectDualEqual(a, b, true);
        }
    }
}

TEST(DualSimEquivalence, SinglePassModesMatchOracle)
{
    auto cfg = uarch::smallBoomConfig();
    auto poc = bench::meltdown();
    DualSim sim(cfg);
    for (auto mode : {ift::IftMode::Off, ift::IftMode::CellIFT,
                      ift::IftMode::DiffIFTFN}) {
        SCOPED_TRACE(static_cast<int>(mode));
        auto a = sim.runDual(poc.schedule, poc.data, fullOptions(mode));
        auto b = twoPassOracle(cfg, poc.schedule, poc.data,
                               fullOptions(mode));
        expectDualEqual(a, b, true);
    }
}

TEST(DualSimEquivalence, ControlTraceIsTaintIndependent)
{
    // The premise of the lockstep order and of the oracle: the control
    // trace an instance records each cycle, and with it the value
    // state, is the same whatever its gates resolve to. A gate site
    // whose recorded value read taint would make DualSim and the
    // oracle agree with each other while both are wrong.
    struct Setup
    {
        const char *name;
        ift::IftMode mode;
        bool empty_sibling; ///< DiffIFT against an empty view
    };
    const Setup setups[] = {
        {"Off", ift::IftMode::Off, false},
        {"CellIFT", ift::IftMode::CellIFT, false},
        {"DiffIFTFN", ift::IftMode::DiffIFTFN, false},
        {"DiffIFT, no sibling (gates closed)", ift::IftMode::DiffIFT,
         false},
        {"DiffIFT, empty sibling (gates open)", ift::IftMode::DiffIFT,
         true},
    };
    const Traces kNoTraces;
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            for (bool flipped : {false, true}) {
                SCOPED_TRACE(flipped);
                Traces first_traces;
                DutResult first;
                for (const Setup &setup : setups) {
                    SCOPED_TRACE(setup.name);
                    SimOptions options;
                    options.mode = setup.mode;
                    options.state_hash = true;
                    Traces traces;
                    DutResult run;
                    runLane(cfg, input.schedule, input.data, options,
                            flipped, &traces,
                            setup.empty_sibling ? &kNoTraces : nullptr,
                            run);
                    if (&setup == &setups[0]) {
                        first_traces = std::move(traces);
                        first = std::move(run);
                        continue;
                    }
                    expectValueEqual(run, first, true);
                    ASSERT_EQ(traces.size(), first_traces.size());
                    for (size_t c = 0; c < traces.size(); ++c) {
                        const ift::ControlTrace &x = traces[c];
                        const ift::ControlTrace &y = first_traces[c];
                        ASSERT_EQ(x.size(), y.size()) << "cycle " << c;
                        for (size_t k = 0; k < x.size(); ++k) {
                            ASSERT_TRUE(x.at(k).sig == y.at(k).sig &&
                                        x.at(k).value == y.at(k).value)
                                << "cycle " << c << " record " << k;
                        }
                    }
                }
            }
        }
    }
}

TEST(DiffIFTContainment, WholeCoreTaintWithinCellIFT)
{
    // diffIFT raises a control taint only where CellIFT does and the
    // sibling differs, so instance 0's diffIFT taint is a bitwise
    // subset of its CellIFT taint everywhere: every sink entry, and
    // every module's tainted-bit count in every cycle.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        DualSim sim(cfg);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            const DutResult diff =
                sim.runDual(input.schedule, input.data,
                            fullOptions(ift::IftMode::DiffIFT))
                    .dut0;
            const DutResult cell =
                sim.runDual(input.schedule, input.data,
                            fullOptions(ift::IftMode::CellIFT))
                    .dut0;
            ASSERT_EQ(diff.sinks.size(), cell.sinks.size());
            for (size_t i = 0; i < diff.sinks.size(); ++i) {
                const auto &d = diff.sinks[i];
                const auto &c = cell.sinks[i];
                ASSERT_EQ(d.id, c.id);
                ASSERT_EQ(d.taint.size(), c.taint.size());
                for (size_t e = 0; e < d.taint.size(); ++e) {
                    EXPECT_EQ(d.taint[e] & ~c.taint[e], 0u)
                        << "sink " << d.label() << " entry " << e;
                }
            }
            ASSERT_EQ(diff.taint_log.cycles.size(),
                      cell.taint_log.cycles.size());
            for (size_t i = 0; i < diff.taint_log.cycles.size(); ++i) {
                const auto &d = diff.taint_log.cycles[i];
                const auto &c = cell.taint_log.cycles[i];
                ASSERT_EQ(d.cycle, c.cycle);
                EXPECT_LE(d.taintSum(), c.taintSum()) << "cycle " << d.cycle;
                // Samples list the tainted modules in id order; each
                // module diffIFT taints, CellIFT taints at least as much.
                const auto *sc = cell.taint_log.samplesBegin(c);
                const auto *sc_end = cell.taint_log.samplesEnd(c);
                for (const auto *sd = diff.taint_log.samplesBegin(d);
                     sd != diff.taint_log.samplesEnd(d); ++sd) {
                    while (sc != sc_end && sc->module_id < sd->module_id)
                        ++sc;
                    ASSERT_TRUE(sc != sc_end &&
                                sc->module_id == sd->module_id)
                        << "cycle " << d.cycle << " module "
                        << sd->module_id << " untainted under CellIFT";
                    EXPECT_LE(sd->taint_bits, sc->taint_bits)
                        << "cycle " << d.cycle << " module "
                        << sd->module_id;
                }
            }
        }
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
                DualResult phase2;
                fused_sim.runDual(
                    tc.schedule, tc.data,
                    fullOptions(ift::IftMode::DiffIFT), phase2);

                // Taking (or resuming from) the snapshot must leave
                // the Phase-2 run itself unchanged.
                expectDualEqual(
                    phase2,
                    freshDual(cfg, tc.schedule, tc.data,
                              fullOptions(ift::IftMode::DiffIFT)),
                    true);

                SimOptions p3;
                p3.mode = ift::IftMode::DiffIFT;
                p3.sinks = true;
                p3.taint_log = taint_log;
                // The hashes cover the whole end state the resumed
                // run left behind; they are not part of the resume key.
                p3.state_hash = true;
                const uint64_t before = resumedCycles();
                const uint64_t sims = fused_sim.simulations();
                DualResult fused;
                fused_sim.runDual(sanitized, tc.data, p3, fused);
                // The sanitized twin resumed from the Phase-2
                // snapshot, yet counts as a full dual run.
                EXPECT_GT(resumedCycles(), before);
                EXPECT_EQ(fused_sim.simulations() - sims, 2u);

                expectDualEqual(fused,
                                freshDual(cfg, sanitized, tc.data, p3),
                                true);
            }
        }
        EXPECT_GT(checked, 0u);
    }
}

TEST(DualSimEquivalence, FusionOnOffIsIdentityThroughPhase3)
{
    // End-to-end through the phase drivers: Phase 2 snapshots the
    // transient boundary, and its differential result must equal a
    // run from reset. Phase 3 on the DualSim that ran Phase 2 resumes
    // its sanitized run from the snapshot; Phase 3 on a fresh DualSim
    // runs it from reset. Both must reach the same verdicts and count
    // the same logical simulations.
    auto cfg = uarch::smallBoomConfig();
    StimGen gen(cfg);
    auto cases = triggeredCases(cfg, 4);
    ASSERT_FALSE(cases.empty());

    DualSim fused_sim(cfg);
    ift::TaintCoverage coverage;
    auto ids = uarch::Core::registerModules(coverage, cfg);
    SimOptions base;
    base.mode = ift::IftMode::DiffIFT;
    core::Phase2 phase2(fused_sim, base, coverage, ids);
    core::Phase3 phase3_fused(fused_sim, base, gen);

    // Phase 2's own options: taint log and sinks, no state hashes.
    SimOptions p2 = fullOptions(ift::IftMode::DiffIFT);
    p2.state_hash = false;
    size_t resumed = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(i);
        const core::Phase2Result &explored = phase2.run(cases[i]);
        expectDualEqual(explored.dual,
                        freshDual(cfg, cases[i].schedule, cases[i].data,
                                  p2),
                        false);

        const uint64_t before = resumedCycles();
        const uint64_t fused_sims = fused_sim.simulations();
        core::Phase3Result va = phase3_fused.run(cases[i], explored);
        const uint64_t fused_spent = fused_sim.simulations() - fused_sims;
        const bool fused_resumed = resumedCycles() > before;

        DualSim plain_sim(cfg);
        core::Phase3 phase3_plain(plain_sim, base, gen);
        core::Phase3Result vb = phase3_plain.run(cases[i], explored);

        EXPECT_EQ(va.leak, vb.leak);
        EXPECT_EQ(va.encoded_sinks, vb.encoded_sinks);
        EXPECT_EQ(va.live_encoded_sinks, vb.live_encoded_sinks);
        ASSERT_EQ(va.report.has_value(), vb.report.has_value());
        if (va.report.has_value()) {
            EXPECT_EQ(va.report->channel, vb.report->channel);
            EXPECT_EQ(va.report->components, vb.report->components);
        }
        EXPECT_EQ(fused_spent, plain_sim.simulations());
        // The sanitized analysis ran exactly when Phase 3 spent a
        // dual run, and then it must have resumed.
        EXPECT_EQ(fused_resumed, fused_spent == 2);
        resumed += fused_resumed;
    }
    EXPECT_GT(resumed, 0u);
}

TEST(DualSimResume, InterleavedHistoryMatchesFreshInstance)
{
    // Phase 2 -> mutations -> Phase 3 -> another seed -> back, with
    // single-pass runs mixed in. Every result must equal a fresh
    // DualSim's, and every run that shares the snapshot's prefix must
    // resume from it: a key that never matches fails here.
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        StimGen gen(cfg);
        std::vector<TestCase> seeds;
        for (TestCase &tc : triggeredCases(cfg, 6)) {
            if (tc.has_window_payload)
                seeds.push_back(std::move(tc));
        }
        ASSERT_GE(seeds.size(), 2u);
        DualSim sim(cfg);
        Rng rng(0x1e5a);

        auto run = [&](const char *what,
                       const swapmem::SwapSchedule &schedule,
                       const harness::StimulusData &data,
                       const SimOptions &options,
                       std::optional<bool> expect_resume) {
            SCOPED_TRACE(what);
            const uint64_t before = resumedCycles();
            DualResult got;
            sim.runDual(schedule, data, options, got);
            if (expect_resume.has_value()) {
                EXPECT_EQ(resumedCycles() > before, *expect_resume);
            }
            expectDualEqual(got, freshDual(cfg, schedule, data, options),
                            options.state_hash);
        };

        for (bool p2_log : {true, false}) {
            SCOPED_TRACE(p2_log);
            SimOptions p2 = fullOptions(ift::IftMode::DiffIFT);
            p2.taint_log = p2_log;
            SimOptions p3 = p2;
            p3.taint_log = false;
            TestCase a = seeds[0];
            const TestCase &b = seeds[1];

            run("phase 2", a.schedule, a.data, p2, std::nullopt);
            for (unsigned k = 0; k < 3; ++k) {
                SCOPED_TRACE(k);
                gen.mutateWindow(a, rng.next());
                // Single-pass modes neither take nor consume the
                // snapshot.
                auto mode = k % 2 == 0 ? ift::IftMode::Off
                                       : ift::IftMode::CellIFT;
                run("single-pass dual", a.schedule, a.data,
                    fullOptions(mode), std::nullopt);
                SimOptions hashed;
                hashed.state_hash = true;
                DutResult single =
                    sim.runSingle(a.schedule, a.data, hashed);
                DualSim fresh(cfg);
                expectDutEqual(single,
                               fresh.runSingle(a.schedule, a.data, hashed),
                               true, "runSingle");
                run("mutated phase 2", a.schedule, a.data, p2, true);
            }
            run("phase 3", gen.sanitizedSchedule(a), a.data, p3, true);
            // One flipped secret bit, then one flipped operand bit on
            // top: each alone changes the prefix.
            harness::StimulusData other_secret = a.data;
            other_secret.secret[0] ^= 1;
            run("other secret", a.schedule, other_secret, p2, false);
            harness::StimulusData other_operand = other_secret;
            ASSERT_FALSE(other_operand.operands.empty());
            other_operand.operands[0] ^= 1;
            run("other operand", a.schedule, other_operand, p2, false);
            // The transient packet's entry is part of the prefix too:
            // the boundary tick jumps to it.
            swapmem::SwapSchedule other_entry = a.schedule;
            other_entry.packets[other_entry.transientIndex()].entry += 4;
            run("other entry", other_entry, other_operand, p2, false);
            SimOptions other_budget = p2;
            other_budget.packet_cycle_budget += 1;
            run("other packet budget", other_entry, other_operand,
                other_budget, false);
            other_budget.total_cycle_budget += 1;
            run("other total budget", other_entry, other_operand,
                other_budget, false);
            run("other seed", b.schedule, b.data, p2, false);
            gen.mutateWindow(a, rng.next());
            run("back: phase 2", a.schedule, a.data, p2, false);
            run("back: phase 3", gen.sanitizedSchedule(a), a.data, p3,
                true);
            if (!p2_log) {
                // A run that needs a taint log cannot resume from a
                // capture that recorded none; it takes a new one.
                SimOptions logged = p2;
                logged.taint_log = true;
                run("needs a log", a.schedule, a.data, logged, false);
                gen.mutateWindow(a, rng.next());
                run("logged mutation", a.schedule, a.data, logged,
                    true);
            }
        }
    }
}

TEST(DualSimResume, ExitStateCaptureSurvivesUnrelatedRun)
{
    // The cycle budget runs out during training, so the snapshot is
    // the lanes' exit state. An unrelated lockstep run in between
    // overwrites the lanes and trace buffers; the resumed run with a
    // different transient packet must still equal a run from reset.
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        StimGen gen(cfg);
        auto cases = triggeredCases(cfg, 4);
        ASSERT_GE(cases.size(), 2u);
        TestCase tc = cases[0];
        const size_t t = tc.schedule.transientIndex();
        ASSERT_GT(t, 0u);

        SimOptions options = fullOptions(ift::IftMode::DiffIFT);
        DualResult full =
            freshDual(cfg, tc.schedule, tc.data, options);
        ASSERT_GT(full.dut0.packet_start.size(), t);
        ASSERT_GT(full.dut1.packet_start.size(), t);
        options.total_cycle_budget =
            std::min(full.dut0.packet_start[t],
                     full.dut1.packet_start[t]) / 2;
        ASSERT_GT(options.total_cycle_budget, 0u);

        // Unrelated: another case's transient packet alone. With no
        // training prefix the run takes no snapshot of its own, and
        // it runs far longer than the budget-cut capture.
        const TestCase &other = cases[1];
        swapmem::SwapSchedule bare = other.schedule;
        bare.packets = {
            other.schedule.packets[other.schedule.transientIndex()]};

        DualSim sim(cfg);
        DualResult got;
        sim.runDual(tc.schedule, tc.data, options, got);
        expectDualEqual(got,
                        freshDual(cfg, tc.schedule, tc.data, options),
                        true);
        const SimOptions unrelated = fullOptions(ift::IftMode::DiffIFT);
        sim.runDual(bare, other.data, unrelated, got);
        expectDualEqual(got, freshDual(cfg, bare, other.data, unrelated),
                        true);

        TestCase mutated = tc;
        gen.mutateWindow(mutated, 0x5eed);
        ASSERT_FALSE(mutated.schedule.packets[t].instrs ==
                     tc.schedule.packets[t].instrs);
        const uint64_t before = resumedCycles();
        sim.runDual(mutated.schedule, mutated.data, options, got);
        EXPECT_GT(resumedCycles(), before);
        expectDualEqual(got,
                        freshDual(cfg, mutated.schedule, mutated.data,
                                  options),
                        true);
    }
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
        expectDualEqual(reused, baseline, true);
    }
}

TEST(DualSimReuse, PooledRunSingleMatchesFresh)
{
    auto cfg = uarch::xiangshanMinimalConfig();
    auto poc = bench::spectreV4();
    auto other = bench::spectreV1();
    SimOptions options;
    options.state_hash = true;

    DualSim pooled(cfg);
    (void)pooled.runSingle(other.schedule, other.data, options);
    (void)pooled.runDual(other.schedule, other.data,
                         fullOptions(ift::IftMode::DiffIFT));
    auto reused = pooled.runSingle(poc.schedule, poc.data, options);

    DualSim fresh(cfg);
    auto baseline = fresh.runSingle(poc.schedule, poc.data, options);
    expectDutEqual(reused, baseline, true, "runSingle");
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
    expectDualEqual(pooled_result, second, true);
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
    expectDualEqual(reused, baseline, true);
}

} // namespace
} // namespace dejavuzz
