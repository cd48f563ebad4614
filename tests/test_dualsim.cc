/**
 * @file
 * Differential-harness equivalence and pooling tests.
 *
 * DualSim's lockstep co-simulation must produce bit-identical
 * DutResults to TwoPassOracle — an independent reference built here
 * on the public Core/Memory/SwapRuntime/TaintCtx calls: the sibling's
 * value pass, then instance 0's pass against its recorded trace —
 * with the same sinks, taint logs, trace logs and timing/state hashes
 * for instance 0 and the same value state for the sibling, across the
 * PoC suites, real triggered windows and every IftMode. Both rest on
 * one premise, checked directly here: an instance's control trace
 * does not depend on how its taint gates resolve, nor on whether its
 * secret is tainted at all. Off lanes must carry no taint. The same
 * inputs check that diffIFT's whole-core taint stays inside CellIFT's.
 * A run
 * that resumes from the transient-boundary snapshot (a Phase-2
 * mutation, the Phase-3 sanitized twin) or from the divergence-point
 * snapshot (the twin of a run that named its rewritten words) must be
 * bit-identical to a run from reset, whatever ran before it; a twin
 * whose words were touched before the divergence point must fall
 * back to the boundary. The change-only taint log must hold, at every
 * cycle, exactly the module taint the core reports for that cycle.
 * And because DualSim pools its cores/memories/result buffers, a
 * reused instance must be bit-identical to a freshly constructed one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "isa/builder.hh"
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

    // Taint log — the bit-exact diffIFT shadow state per cycle. Both
    // are change logs of the same per-cycle values, so their records
    // match one for one.
    EXPECT_EQ(a.taint_log.last_cycle, b.taint_log.last_cycle);
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
 * @p sibling's trace for the same cycle when given (DiffIFT needs
 * one). Past the sibling's last cycle the view is empty (structural
 * divergence => gates open). @p tainted_secret says whether the
 * secret is a taint source. @p after_cycle, when given, sees the core
 * and the result after each cycle's taint-log append.
 */
void
runLane(const uarch::CoreConfig &cfg,
        const swapmem::SwapSchedule &schedule,
        const harness::StimulusData &data, const SimOptions &options,
        bool flipped_secret, bool tainted_secret, Traces *record,
        const Traces *sibling, DutResult &out,
        const std::function<void(const uarch::Core &, const DutResult &)>
            &after_cycle = {})
{
    static const ift::ControlTrace kEmpty;
    out = DutResult{};
    uarch::Core core(cfg);
    swapmem::Memory mem;
    auto secret = flipped_secret ? data.flippedSecret() : data.secret;
    mem.installSecret(secret.data(), secret.size(), tainted_secret);
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
        if (after_cycle)
            after_cycle(core, out);
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
 * passes. The sibling (flipped secret) runs to the end first as a
 * value lane: IftMode::Off, a clean secret, no taint log or sinks,
 * recording every cycle's control trace. Instance 0 then runs in the
 * requested mode against that recorded trace (only DiffIFT reads it).
 * Taint enters only where it is read: instance 0's secret is tainted
 * unless the mode is Off.
 */
DualResult
twoPassOracle(const uarch::CoreConfig &cfg,
              const swapmem::SwapSchedule &schedule,
              const harness::StimulusData &data, const SimOptions &options)
{
    DualResult out;
    SimOptions sibling = options;
    sibling.mode = ift::IftMode::Off;
    sibling.taint_log = false;
    sibling.sinks = false;
    Traces traces1;
    runLane(cfg, schedule, data, sibling, true, false, &traces1, nullptr,
            out.dut1);
    runLane(cfg, schedule, data, options, false,
            options.mode != ift::IftMode::Off, nullptr, &traces1,
            out.dut0);
    return out;
}

/** The taint-log record in effect at each logged cycle, in order. */
std::vector<const ift::TaintLogCycle *>
perCycle(const ift::TaintLog &log)
{
    std::vector<const ift::TaintLogCycle *> out;
    log.inEffect(0, UINT64_MAX,
                 [&](const ift::TaintLogCycle &rec, uint64_t from,
                     uint64_t to) { out.insert(out.end(), to - from, &rec); });
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
    // One driver serves every mode, so every mode meets the oracle.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        DualSim lockstep_sim(cfg);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            for (auto mode : {ift::IftMode::DiffIFT, ift::IftMode::CellIFT,
                              ift::IftMode::DiffIFTFN, ift::IftMode::Off}) {
                SCOPED_TRACE(ift::iftModeName(mode));
                auto options = fullOptions(mode);
                auto a = lockstep_sim.runDual(input.schedule, input.data,
                                              options);
                auto b = twoPassOracle(cfg, input.schedule, input.data,
                                       options);
                expectDualEqual(a, b, true);
            }
        }
    }
}

/** No taint reached @p run: every logged cycle has no tainted module
 *  and every sink entry is clean. The log and sinks must be there. */
void
expectTaintFree(const DutResult &run)
{
    EXPECT_FALSE(run.taint_log.cycles.empty());
    for (const auto &cycle : run.taint_log.cycles) {
        ASSERT_EQ(cycle.count, 0u) << "taint-log cycle " << cycle.cycle;
    }
    EXPECT_FALSE(run.sinks.empty());
    for (const auto &sink : run.sinks) {
        for (uint64_t taint : sink.taint)
            ASSERT_EQ(taint, 0u) << "sink " << sink.label();
    }
}

TEST(DualSimValueLanes, OffRunsCarryNoTaint)
{
    // Taint enters only where it is read. An Off runDual's analysed
    // lane and every runSingle are value lanes: with the taint log and
    // sinks on they still log no tainted module and report clean
    // sinks, double-fetch secret swaps included.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        DualSim sim(cfg);
        const SimOptions options = fullOptions(ift::IftMode::Off);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            {
                SCOPED_TRACE("runDual");
                expectTaintFree(
                    sim.runDual(input.schedule, input.data, options).dut0);
            }
            {
                SCOPED_TRACE("runSingle");
                expectTaintFree(
                    sim.runSingle(input.schedule, input.data, options));
            }
        }
    }
}

TEST(DualSimEquivalence, ControlTraceIsTaintIndependent)
{
    // The premise of the lockstep order, of the value lanes and of
    // the oracle: the control trace an instance records each cycle,
    // and with it the value state, is the same whatever its gates
    // resolve to and whether its secret carries taint at all. A gate
    // site whose recorded value read taint would make DualSim and the
    // oracle agree with each other while both are wrong.
    struct Setup
    {
        const char *name;
        ift::IftMode mode;
        bool tainted_secret;
        bool empty_sibling; ///< DiffIFT against an empty view
    };
    const Setup setups[] = {
        {"Off, untainted secret (a value lane)", ift::IftMode::Off, false,
         false},
        {"Off, tainted secret", ift::IftMode::Off, true, false},
        {"CellIFT", ift::IftMode::CellIFT, true, false},
        {"DiffIFTFN (gates closed)", ift::IftMode::DiffIFTFN, true, false},
        {"DiffIFT, empty sibling (gates open)", ift::IftMode::DiffIFT,
         true, true},
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
                            flipped, setup.tainted_secret, &traces,
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
            ASSERT_FALSE(diff.taint_log.cycles.empty());
            ASSERT_EQ(diff.taint_log.cycles.front().cycle,
                      cell.taint_log.cycles.front().cycle);
            const auto diff_cycles = perCycle(diff.taint_log);
            const auto cell_cycles = perCycle(cell.taint_log);
            ASSERT_EQ(diff_cycles.size(), cell_cycles.size());
            const uint64_t first = diff.taint_log.cycles.front().cycle;
            for (size_t i = 0; i < diff_cycles.size(); ++i) {
                const auto &d = *diff_cycles[i];
                const auto &c = *cell_cycles[i];
                const uint64_t cycle = first + i;
                EXPECT_LE(d.taintSum(), c.taintSum()) << "cycle " << cycle;
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
                        << "cycle " << cycle << " module "
                        << sd->module_id << " untainted under CellIFT";
                    EXPECT_LE(sd->taint_bits, sc->taint_bits)
                        << "cycle " << cycle << " module "
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

TEST(TaintChangeLog, ValueInEffectMatchesModuleStatsEveryCycle)
{
    // The change log appends a record only where the module sample
    // changed. Its value in effect at every cycle must still be the
    // core's moduleTaintStats for that cycle, and no record may repeat
    // the one before it (the log is the minimal one).
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        for (const auto &input : sharedInputs(cfg)) {
            SCOPED_TRACE(input.name);
            SimOptions sibling;
            Traces traces;
            DutResult sibling_run;
            runLane(cfg, input.schedule, input.data, sibling, true, false,
                    &traces, nullptr, sibling_run);
            for (auto mode : {ift::IftMode::DiffIFT, ift::IftMode::CellIFT,
                              ift::IftMode::DiffIFTFN, ift::IftMode::Off}) {
                SCOPED_TRACE(ift::iftModeName(mode));
                const SimOptions options = fullOptions(mode);
                uint64_t checked = 0;
                auto check = [&](const uarch::Core &core,
                                 const DutResult &run) {
                    std::array<uarch::ModuleStat, uarch::kModCount> stats;
                    core.moduleTaintStats(stats);
                    const ift::TaintLog &log = run.taint_log;
                    unsigned visits = 0;
                    log.inEffect(
                        core.cycle(), core.cycle() + 1,
                        [&](const ift::TaintLogCycle &rec, uint64_t,
                            uint64_t) {
                            ++visits;
                            const auto *sample = log.samplesBegin(rec);
                            for (unsigned m = 0; m < uarch::kModCount; ++m) {
                                if (stats[m].tainted_regs == 0 &&
                                    stats[m].taint_bits == 0)
                                    continue;
                                ASSERT_TRUE(sample != log.samplesEnd(rec) &&
                                            sample->module_id == m)
                                    << "cycle " << core.cycle()
                                    << " module " << m;
                                EXPECT_EQ(sample->tainted_regs,
                                          stats[m].tainted_regs);
                                EXPECT_EQ(sample->taint_bits,
                                          stats[m].taint_bits);
                                ++sample;
                            }
                            EXPECT_TRUE(sample == log.samplesEnd(rec))
                                << "cycle " << core.cycle();
                        });
                    ASSERT_EQ(visits, 1u) << "cycle " << core.cycle();
                    ++checked;
                };
                DutResult run;
                runLane(cfg, input.schedule, input.data, options, false,
                        mode != ift::IftMode::Off, nullptr, &traces, run,
                        check);
                EXPECT_EQ(checked, run.cycles);
                const ift::TaintLog &log = run.taint_log;
                ASSERT_FALSE(log.cycles.empty());
                EXPECT_EQ(log.last_cycle, run.cycles);
                for (size_t i = 1; i < log.cycles.size(); ++i) {
                    const auto &a = log.cycles[i - 1];
                    const auto &b = log.cycles[i];
                    EXPECT_LT(a.cycle, b.cycle);
                    EXPECT_FALSE(
                        a.count == b.count &&
                        std::equal(log.samplesBegin(a), log.samplesEnd(a),
                                   log.samplesBegin(b),
                                   [](const ift::ModuleTaintSample &x,
                                      const ift::ModuleTaintSample &y) {
                                       return x.module_id == y.module_id &&
                                              x.tainted_regs ==
                                                  y.tainted_regs &&
                                              x.taint_bits == y.taint_bits;
                                   }))
                        << "record at cycle " << b.cycle
                        << " repeats the one before it";
                }
            }
        }
    }
}

TEST(TaintChangeLog, FlushOfATaintedICacheIsLogged)
{
    // A swap flushes the i-cache. When its lines were the only taint
    // left, the flush is the only change a cycle makes, so the change
    // key must see it: TaintAcct::zero counts as a transition.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        uarch::Core core(cfg);
        swapmem::Memory mem;
        core.startSequence(swapmem::kSwapBase);
        // Install one i-cache line fetched down a tainted path.
        ASSERT_TRUE(core.icache_.startRefill(swapmem::kSwapBase + 0x400,
                                             true));
        while (core.icache_.refillBusy())
            core.icache_.tick();
        ASSERT_GT(core.icache_.taintedRegCount(), 0u);

        ift::TaintLog log;
        auto tick = [&]() {
            ift::TaintCtx ctx;
            ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);
            core.tick(mem, ctx, nullptr);
            core.appendTaintLog(log);
        };
        tick();
        core.flushICache();
        tick();
        std::array<uarch::ModuleStat, uarch::kModCount> stats;
        core.moduleTaintStats(stats);
        EXPECT_EQ(stats[uarch::kModICache].tainted_regs, 0u);
        log.inEffect(core.cycle(), core.cycle() + 1,
                     [&](const ift::TaintLogCycle &rec, uint64_t,
                         uint64_t) {
                         EXPECT_EQ(rec.cycle, core.cycle())
                             << "the flush appended no record";
                         EXPECT_EQ(rec.count, 0u);
                     });
    }
}

/** Divergence-point resumes and fallbacks so far (process-wide). */
uint64_t
divergenceResumes()
{
    return obs::snapshot().counter(obs::Ctr::DivergenceResumes);
}

uint64_t
divergenceFallbacks()
{
    return obs::snapshot().counter(obs::Ctr::DivergenceFallbacks);
}

/**
 * A run's tail, and the words inside it that its twin replaces by
 * NOPs, as Phase 3 sanitizes its encode block.
 */
struct Tail
{
    size_t tail;
    size_t nop_begin;
    size_t nop_end;
};

/** @p schedule with the transient packet's words
 *  [@p tail.nop_begin, @p tail.nop_end) replaced by NOPs. */
swapmem::SwapSchedule
nopped(const swapmem::SwapSchedule &schedule, const Tail &tail)
{
    swapmem::SwapSchedule out = schedule;
    auto &instrs = out.packets[out.transientIndex()].instrs;
    isa::Instr nop;
    nop.op = isa::Op::ADDI;
    for (size_t i = tail.nop_begin; i < tail.nop_end && i < instrs.size();
         ++i)
        instrs[i] = nop;
    return out;
}

/** Where a run started, read off the resume counters around it. */
enum class RunStart { Divergence, Fallback, Boundary, Reset };

/** Runs @p run and says where it started. */
template <typename Run>
RunStart
startOf(Run &&run)
{
    const uint64_t resumes = divergenceResumes();
    const uint64_t fallbacks = divergenceFallbacks();
    const uint64_t resumed = resumedCycles();
    run();
    if (divergenceResumes() > resumes)
        return RunStart::Divergence;
    if (divergenceFallbacks() > fallbacks)
        return RunStart::Fallback;
    return resumedCycles() > resumed ? RunStart::Boundary
                                     : RunStart::Reset;
}

/**
 * One divergence round on @p sim: a run that names @p tail, then its
 * twin. Each must equal a run from reset. Returns where the twin
 * started.
 */
RunStart
twinRound(DualSim &sim, const uarch::CoreConfig &cfg,
          const swapmem::SwapSchedule &schedule,
          const harness::StimulusData &data, const SimOptions &capture,
          const SimOptions &twin_options, const Tail &tail)
{
    DualResult got;
    sim.runDual(schedule, data, capture, got, tail.tail);
    {
        SCOPED_TRACE("capturing run");
        expectDualEqual(got, freshDual(cfg, schedule, data, capture),
                        capture.state_hash);
    }
    const swapmem::SwapSchedule other = nopped(schedule, tail);
    const uint64_t sims = sim.simulations();
    const RunStart start = startOf(
        [&] { sim.runDual(other, data, twin_options, got); });
    EXPECT_EQ(sim.simulations() - sims, 2u);
    {
        SCOPED_TRACE("twin");
        expectDualEqual(got, freshDual(cfg, other, data, twin_options),
                        twin_options.state_hash);
    }
    return start;
}

TEST(DualSimDivergence, TwinRunsMatchFreshRuns)
{
    // Both PoC suites and Phase-1-triggered windows, in every mode,
    // with several tails each: the mutable tail of a triggered window
    // (its twin nops the encode block), and for every input a few
    // tails of its transient packet with words inside them nopped. The
    // twin runs without a taint log, as Phase 3 does, and with one.
    // Whichever point it resumes from, it must equal a run from reset;
    // and the divergence point must actually be used.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        struct Input
        {
            bench::Poc poc;
            std::vector<Tail> tails;
        };
        std::vector<Input> inputs;
        for (bench::Poc &poc : bench::pocSuite())
            inputs.push_back({std::move(poc), {}});
        for (bench::Poc &poc : bench::scenarioPocSuite())
            inputs.push_back({std::move(poc), {}});
        for (TestCase &tc : triggeredCases(cfg, 6)) {
            if (!tc.has_window_payload)
                continue;
            const Tail tail{tc.mutableTail(), tc.encode_begin,
                            tc.encode_end};
            inputs.push_back({bench::Poc{"triggered", std::move(tc.schedule),
                                         std::move(tc.data)},
                              {tail}});
        }
        unsigned starts[4] = {};
        DualSim sim(cfg);
        for (Input &input : inputs) {
            SCOPED_TRACE(input.poc.name);
            const swapmem::SwapSchedule &schedule = input.poc.schedule;
            const size_t n =
                schedule.packets[schedule.transientIndex()].instrs.size();
            input.tails.push_back({n / 2, n / 2, n});
            input.tails.push_back({n / 3, n / 3, 2 * n / 3});
            input.tails.push_back({1, n / 2, n / 2 + 1});
            for (auto mode : {ift::IftMode::DiffIFT, ift::IftMode::CellIFT,
                              ift::IftMode::DiffIFTFN, ift::IftMode::Off}) {
                SCOPED_TRACE(ift::iftModeName(mode));
                for (const Tail &tail : input.tails) {
                    SCOPED_TRACE(testing::Message()
                                 << "tail " << tail.tail << ", nops ["
                                 << tail.nop_begin << ", " << tail.nop_end
                                 << ")");
                    for (bool twin_log : {false, true}) {
                        SCOPED_TRACE(twin_log);
                        SimOptions twin_options = fullOptions(mode);
                        twin_options.taint_log = twin_log;
                        ++starts[static_cast<int>(twinRound(
                            sim, cfg, schedule, input.poc.data,
                            fullOptions(mode), twin_options, tail))];
                    }
                }
            }
        }
        // Every twin matched its capturing run's key, and most of
        // them resumed at the divergence point.
        EXPECT_EQ(starts[static_cast<int>(RunStart::Boundary)], 0u);
        EXPECT_EQ(starts[static_cast<int>(RunStart::Reset)], 0u);
        EXPECT_GT(starts[static_cast<int>(RunStart::Divergence)],
                  starts[static_cast<int>(RunStart::Fallback)]);
    }
}

TEST(DualSimDivergence, MutationChainMatchesFreshRuns)
{
    // As the fuzzer runs a seed on one DualSim: its Phase-2 run, then
    // window mutations, each followed by its sanitized twin, every
    // Phase-2 run naming the seed's mutable tail. Every result must
    // equal a fresh DualSim's. The first run captures the divergence
    // point; a mutation redraws only the tail, so most resume there
    // without capturing again. A mutation whose mask_high_bits toggled
    // adds or removes a setup word before the tail, so it must resume
    // at the boundary instead (and capture anew).
    constexpr unsigned kMutations = 10;
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        StimGen gen(cfg);
        std::vector<TestCase> seeds;
        for (TestCase &tc : triggeredCases(cfg, 6)) {
            if (tc.has_window_payload)
                seeds.push_back(std::move(tc));
        }
        ASSERT_GE(seeds.size(), 2u);
        unsigned mutations = 0;
        unsigned resumed = 0;
        unsigned toggled = 0;
        for (auto mode : {ift::IftMode::DiffIFT, ift::IftMode::CellIFT,
                          ift::IftMode::DiffIFTFN, ift::IftMode::Off}) {
            SCOPED_TRACE(ift::iftModeName(mode));
            SimOptions p2 = fullOptions(mode);
            SimOptions p3 = p2;
            p3.taint_log = false;
            DualSim sim(cfg);
            Rng rng(0xc4a1 + static_cast<uint64_t>(mode));
            for (size_t i = 0; i < seeds.size(); ++i) {
                SCOPED_TRACE(testing::Message() << "seed " << i);
                TestCase tc = seeds[i];
                auto run = [&](const char *what,
                               const swapmem::SwapSchedule &schedule,
                               const SimOptions &options, size_t tail) {
                    SCOPED_TRACE(what);
                    DualResult got;
                    const RunStart start = startOf([&] {
                        sim.runDual(schedule, tc.data, options, got, tail);
                    });
                    expectDualEqual(
                        got, freshDual(cfg, schedule, tc.data, options),
                        options.state_hash);
                    return start;
                };
                EXPECT_EQ(run("phase 2", tc.schedule, p2,
                              tc.mutableTail()),
                          RunStart::Reset);
                run("phase 3", gen.sanitizedSchedule(tc), p3, SIZE_MAX);
                for (unsigned k = 0; k < kMutations; ++k) {
                    SCOPED_TRACE(k);
                    const bool masked = tc.seed.window.mask_high_bits;
                    gen.mutateWindow(tc, rng.next());
                    const RunStart start = run("mutation", tc.schedule,
                                                p2, tc.mutableTail());
                    ++mutations;
                    if (tc.seed.window.mask_high_bits != masked) {
                        EXPECT_EQ(start, RunStart::Boundary);
                        ++toggled;
                    } else {
                        resumed += start == RunStart::Divergence;
                    }
                    run("its phase 3", gen.sanitizedSchedule(tc), p3,
                        SIZE_MAX);
                }
            }
        }
        EXPECT_GT(toggled, 0u);
        EXPECT_GT(2 * resumed, mutations);
    }
}

/** How a stimulus touches its own tail before fetching it. */
enum class Touch { None, Load, Store };

/**
 * A training packet, then a transient packet whose tail starts at
 * kTwinBegin, and whose twin nops [kTwinBegin, kTwinEnd): far ahead of
 * the tail, it loads one of those words into a secret-free address
 * computation (Load) or stores an instruction over the first one
 * (Store); Touch::None loads from the scratch area instead. Either
 * touch makes the result depend on the tail long before fetch reaches
 * it.
 */
constexpr size_t kTwinBegin = 160;
constexpr size_t kTwinEnd = 164;

bench::Poc
touchingStimulus(Touch touch)
{
    using namespace isa::reg;
    using isa::Op;
    bench::Poc poc;
    poc.name = touch == Touch::Load    ? "load"
               : touch == Touch::Store ? "store"
                                       : "no touch";
    Rng rng(0x70c4);
    poc.data = harness::StimulusData::random(rng);

    isa::ProgBuilder warm(swapmem::kSwapBase);
    warm.la(t2, swapmem::kLeakArrayAddr);
    warm.ld(t5, t2, 0);
    warm.swapnext();
    swapmem::SwapPacket train;
    train.label = "train";
    train.kind = swapmem::PacketKind::WindowTrain;
    train.instrs = warm.finish();

    isa::ProgBuilder prog(swapmem::kSwapBase);
    const uint64_t twin_addr = swapmem::kSwapBase + 4 * kTwinBegin;
    prog.la(t2, swapmem::kLeakArrayAddr);
    prog.la(t3, swapmem::kLeakArrayAddr + 0x800);
    switch (touch) {
      case Touch::Load:
      case Touch::None:
        // The word's bits pick the probe line: a twin that differs
        // there loads another line.
        prog.la(t0, touch == Touch::Load ? twin_addr
                                         : swapmem::kScratchAddr);
        prog.emit(Op::LW, t1, t0, 0, 0);
        prog.andi(t1, t1, 0x7c0);
        prog.add(t1, t1, t2);
        prog.ld(s3, t1, 0);
        break;
      case Touch::Store: {
        // Overwrite the first twin word with a load: in a twin run,
        // restoring the twin's own word there would undo the store.
        isa::Instr load;
        load.op = Op::LD;
        load.rd = s5;
        load.rs1 = t3;
        prog.la(t0, twin_addr);
        prog.li(t1, isa::encode(load));
        prog.emit(Op::SW, 0, t0, t1, 0);
        break;
      }
    }
    prog.padTo(twin_addr);
    for (size_t i = kTwinBegin; i < kTwinEnd; ++i)
        prog.addi(s4, s4, 1);
    prog.swapnext();
    swapmem::SwapPacket transient;
    transient.label = "transient";
    transient.kind = swapmem::PacketKind::Transient;
    transient.instrs = prog.finish();

    poc.schedule.packets = {train, transient};
    return poc;
}

TEST(DualSimDivergence, TwinWordsTouchedEarlyFallBack)
{
    // A load from, or a store to, a tail word before fetch nears the
    // tail makes everything after depend on it, so the divergence
    // snapshot is not kept and the twin resumes at the boundary; the
    // same program touching another address resumes at the
    // divergence point. Every run must equal a run from reset.
    for (const auto &cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        for (Touch touch : {Touch::None, Touch::Load, Touch::Store}) {
            const bench::Poc poc = touchingStimulus(touch);
            SCOPED_TRACE(poc.name);
            for (auto mode : {ift::IftMode::DiffIFT, ift::IftMode::CellIFT,
                              ift::IftMode::DiffIFTFN, ift::IftMode::Off}) {
                SCOPED_TRACE(ift::iftModeName(mode));
                DualSim sim(cfg);
                SimOptions twin_options = fullOptions(mode);
                twin_options.taint_log = false;
                const RunStart start = twinRound(
                    sim, cfg, poc.schedule, poc.data, fullOptions(mode),
                    twin_options, {kTwinBegin, kTwinBegin, kTwinEnd});
                EXPECT_EQ(start, touch == Touch::None
                                     ? RunStart::Divergence
                                     : RunStart::Fallback);
            }
        }
    }
}

TEST(DualSimResume, InterleavedHistoryMatchesFreshInstance)
{
    // Phase 2 -> mutations -> Phase 3 -> CellIFT and Off runs ->
    // another seed -> back, with runSingle mixed in. Every result must
    // equal a fresh DualSim's, and every run that shares the
    // snapshot's prefix must resume from it: a key that never matches
    // fails here.
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

        // Phase-2 runs name their mutable tail, as Phase 2 does, so
        // the divergence key is taken, kept and dropped along the way.
        auto run = [&](const char *what,
                       const swapmem::SwapSchedule &schedule,
                       const harness::StimulusData &data,
                       const SimOptions &options,
                       std::optional<bool> expect_resume,
                       size_t tail = SIZE_MAX) {
            SCOPED_TRACE(what);
            const uint64_t before = resumedCycles();
            DualResult got;
            sim.runDual(schedule, data, options, got, tail);
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

            run("phase 2", a.schedule, a.data, p2, std::nullopt,
                a.mutableTail());
            for (unsigned k = 0; k < 3; ++k) {
                SCOPED_TRACE(k);
                gen.mutateWindow(a, rng.next());
                // runSingle neither takes nor consumes the snapshot.
                SimOptions hashed;
                hashed.state_hash = true;
                DutResult single =
                    sim.runSingle(a.schedule, a.data, hashed);
                DualSim fresh(cfg);
                expectDutEqual(single,
                               fresh.runSingle(a.schedule, a.data, hashed),
                               true, "runSingle");
                run("mutated phase 2", a.schedule, a.data, p2, true,
                    a.mutableTail());
            }
            run("phase 3", gen.sanitizedSchedule(a), a.data, p3, true);
            // Every mode goes through the same driver. The mode is part
            // of the prefix, so a CellIFT or Off run replaces the
            // DiffIFT snapshot, and its own mutations resume from it.
            for (auto mode : {ift::IftMode::CellIFT, ift::IftMode::Off}) {
                SCOPED_TRACE(ift::iftModeName(mode));
                SimOptions other_mode = fullOptions(mode);
                other_mode.taint_log = p2_log;
                run("other mode", a.schedule, a.data, other_mode, false);
                gen.mutateWindow(a, rng.next());
                run("other mode, mutated", a.schedule, a.data, other_mode,
                    true);
                run("other mode, sanitized", gen.sanitizedSchedule(a),
                    a.data, other_mode, true);
            }
            run("diffIFT again", a.schedule, a.data, p2, false,
                a.mutableTail());
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
            run("back: phase 2", a.schedule, a.data, p2, false,
                a.mutableTail());
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
