/**
 * @file
 * Randomized property test for the incremental taint accounting
 * (src/ift/taintacct.hh).
 *
 * The invariant: after *every* cycle, the O(1) per-module taint
 * population counts assembled from the running accounts
 * (Core::moduleTaintStats) equal a full O(state) re-scan
 * (Core::moduleTaintStatsRescan) — including every scan quirk the
 * rescan oracle preserves (stale-entry counting, valid-gated MSHRs,
 * the RoB's addr-excluded bit count, ...). The default build defines
 * NDEBUG, which compiles out the per-append dv_assert cross-check in
 * Core::appendTaintLog, so this suite calls the always-compiled
 * Core::verifyTaintAccounts() explicitly after each tick.
 *
 * The same per-cycle drive checks the RoB stage masks that issue and
 * execute iterate against a rebuild from the entries
 * (Core::verifyStageMasks()).
 *
 * Stimuli: the PoC suite plus Phase-1-triggered windows on both
 * core configs, under DiffIFTFN (every gate closed) and full CellIFT
 * (the open-gate mode propagates the most taint and stresses the
 * accounting hardest), plus random secrets/operands, plus a store of
 * tainted data to a clean address. The change-only taint log trusts
 * the accounts to flag every change, so none may miss an entry.
 *
 * Value lanes (the sibling, every runSingle and every Off run) carry
 * no taint, so each contribution helper takes its zero exit there:
 * their accounts must stay zero and never move.
 */

#include <gtest/gtest.h>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "harness/stimulus.hh"
#include "ift/policy.hh"
#include "ift/taintlog.hh"
#include "isa/builder.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using core::Phase1;
using core::Seed;
using core::StimGen;
using core::TestCase;
using harness::SimOptions;
using harness::StimulusData;

/** Generate Phase-1-triggered test cases (randomized by @p salt). */
std::vector<TestCase>
triggeredCases(const uarch::CoreConfig &cfg, unsigned want,
               uint64_t salt)
{
    harness::DualSim sim(cfg);
    StimGen gen(cfg);
    Phase1 phase1(sim, SimOptions{});
    Rng rng(0xacc7 ^ salt);
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
 * Drive one core through @p schedule (mirroring the harness's
 * per-cycle protocol) and check the incremental accounts against the
 * rescan oracle after every single tick.
 */
/**
 * Also counts, into @p data_only_stores when given, the cycles that
 * end with a store-queue entry whose data is tainted and whose
 * address is clean.
 */
void
runAndVerify(const uarch::CoreConfig &cfg,
             const swapmem::SwapSchedule &schedule,
             const StimulusData &data, ift::IftMode mode,
             bool flipped_secret, unsigned *data_only_stores = nullptr)
{
    uarch::Core core(cfg);
    swapmem::Memory mem;
    auto secret = flipped_secret ? data.flippedSecret() : data.secret;
    mem.installSecret(secret.data(), secret.size(), true);
    for (size_t i = 0; i < data.operands.size(); ++i)
        mem.setOperand(static_cast<unsigned>(i), data.operands[i]);

    swapmem::SwapRuntime runtime(schedule);
    uint64_t entry = runtime.start(mem);
    if (runtime.done())
        return;
    core.startSequence(entry);

    uarch::TraceLog trace;
    ift::TaintLog log;
    uint64_t packet_cycles = 0;
    uint64_t prev_transitions = 0;
    while (core.cycle() < 4000) {
        ift::TaintCtx ctx;
        ctx.begin(mode, nullptr, nullptr);
        uarch::TickEvents ev = core.tick(mem, ctx, &trace);
        ++packet_cycles;
        if (data_only_stores != nullptr) {
            for (const uarch::SqEntry &entry : core.sq) {
                if (entry.valid && entry.data.t != 0 && entry.addr.t == 0) {
                    ++*data_only_stores;
                    break;
                }
            }
        }
        core.appendTaintLog(log);

        if (!core.verifyTaintAccounts()) {
            std::array<uarch::ModuleStat, uarch::kModCount> fast;
            std::array<uarch::ModuleStat, uarch::kModCount> slow;
            core.moduleTaintStats(fast);
            core.moduleTaintStatsRescan(slow);
            for (size_t m = 0; m < uarch::kModCount; ++m) {
                EXPECT_EQ(fast[m].tainted_regs, slow[m].tainted_regs)
                    << "cycle " << core.cycle() << " module " << m;
                EXPECT_EQ(fast[m].taint_bits, slow[m].taint_bits)
                    << "cycle " << core.cycle() << " module " << m;
            }
            FAIL() << "account/rescan mismatch at cycle "
                   << core.cycle();
        }
        ASSERT_TRUE(core.verifyStageMasks())
            << "stage-mask mismatch at cycle " << core.cycle();
        // Transition counts only ever grow.
        uint64_t transitions = core.taintTransitions();
        ASSERT_GE(transitions, prev_transitions);
        prev_transitions = transitions;

        bool force_advance = packet_cycles >= 1500;
        if (ev.swap_next || ev.trapped || force_advance) {
            uint64_t next_entry = runtime.advance(mem);
            if (runtime.done())
                break;
            core.flushICache();
            core.startSequence(next_entry);
            ASSERT_TRUE(core.verifyStageMasks())
                << "stage masks not cleared by startSequence";
            packet_cycles = 0;
        }
    }
}

TEST(TaintAcctProperty, PocSuiteMatchesRescanEveryCycle)
{
    // A 64-entry RoB fills every stage-mask bit: the widest ring the
    // core accepts.
    uarch::CoreConfig wide_rob = uarch::smallBoomConfig();
    wide_rob.name = "SmallBOOM-rob64";
    wide_rob.rob_entries = 64;
    wide_rob.prf_entries = 160;
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig(), wide_rob}) {
        SCOPED_TRACE(cfg.name);
        for (const auto &poc : bench::pocSuite()) {
            SCOPED_TRACE(poc.name);
            for (auto mode : {ift::IftMode::DiffIFTFN,
                              ift::IftMode::CellIFT}) {
                SCOPED_TRACE(static_cast<int>(mode));
                runAndVerify(cfg, poc.schedule, poc.data, mode, false);
                runAndVerify(cfg, poc.schedule, poc.data, mode, true);
            }
        }
    }
}

TEST(TaintAcctProperty, TriggeredWindowsMatchRescanEveryCycle)
{
    Rng rng(0x7a1e7);
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        auto cases = triggeredCases(cfg, 5, rng.next());
        ASSERT_FALSE(cases.empty());
        for (size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(i);
            for (auto mode : {ift::IftMode::DiffIFTFN,
                              ift::IftMode::CellIFT}) {
                SCOPED_TRACE(static_cast<int>(mode));
                runAndVerify(cfg, cases[i].schedule, cases[i].data,
                             mode, false);
                runAndVerify(cfg, cases[i].schedule, cases[i].data,
                             mode, true);
            }
        }
    }
}

TEST(TaintAcctProperty, RandomSecretsMatchRescanEveryCycle)
{
    // Same schedules, fresh random secrets/operands: the taint
    // footprint (and so the transition pattern) shifts with the data.
    Rng rng(0x5ec4e7);
    auto cfg = uarch::smallBoomConfig();
    for (const auto &poc : bench::pocSuite()) {
        SCOPED_TRACE(poc.name);
        for (int round = 0; round < 2; ++round) {
            StimulusData data = StimulusData::random(rng);
            runAndVerify(cfg, poc.schedule, data,
                         ift::IftMode::CellIFT, false);
        }
    }
}

TEST(TaintAcctProperty, TaintedStoreToCleanAddressMatchesRescan)
{
    // A secret-tainted value stored to a constant (clean) address,
    // held in the store queue behind a slow divide chain: the SQ
    // account must count the entry by its data taint alone.
    using namespace isa::reg;
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(s1, swapmem::kSecretAddr);
    prog.ld(s0, s1, 0);
    prog.la(t4, swapmem::kOperandAddr);
    prog.li(t5, 1);
    prog.ld(a0, t4, 0);
    prog.emit(isa::Op::DIV, a0, a0, t5, 0);
    prog.emit(isa::Op::DIV, a0, a0, t5, 0);
    prog.la(t3, swapmem::kScratchAddr);
    prog.sd(s0, t3, 0);
    prog.sd(a0, t3, 8);
    prog.swapnext();
    swapmem::SwapSchedule schedule;
    schedule.packets.resize(1);
    schedule.packets[0].label = "store";
    schedule.packets[0].instrs = prog.finish();

    Rng rng(0x5d0a);
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        for (auto mode : {ift::IftMode::DiffIFTFN, ift::IftMode::CellIFT}) {
            SCOPED_TRACE(static_cast<int>(mode));
            unsigned data_only = 0;
            StimulusData data = StimulusData::random(rng);
            data.secret[0] |= 1; // a non-zero secret word
            runAndVerify(cfg, schedule, data, mode, false, &data_only);
            EXPECT_GT(data_only, 0u)
                << "no tainted store data ever sat at a clean address";
        }
    }
}

/** @p core's accounts read zero, never moved, and match the rescan. */
void
expectZeroAccounts(const uarch::Core &core)
{
    std::array<uarch::ModuleStat, uarch::kModCount> stats;
    core.moduleTaintStats(stats);
    for (size_t m = 0; m < uarch::kModCount; ++m) {
        EXPECT_EQ(stats[m].tainted_regs, 0u) << "module " << m;
        EXPECT_EQ(stats[m].taint_bits, 0u) << "module " << m;
    }
    EXPECT_EQ(core.taintTransitions(), 0u);
    EXPECT_TRUE(core.verifyTaintAccounts());
}

TEST(TaintAcctValueLanes, AccountsStayZero)
{
    for (const auto &cfg : {uarch::smallBoomConfig(),
                            uarch::xiangshanMinimalConfig()}) {
        SCOPED_TRACE(cfg.name);
        harness::DualSim sim(cfg);
        for (const auto &poc : bench::pocSuite()) {
            SCOPED_TRACE(poc.name);
            SimOptions off;
            off.mode = ift::IftMode::Off;
            SimOptions diff = off;
            diff.mode = ift::IftMode::DiffIFTFN;
            {
                SCOPED_TRACE("Off runSingle");
                sim.runSingle(poc.schedule, poc.data, off);
                expectZeroAccounts(sim.laneCore(0));
            }
            {
                SCOPED_TRACE("Off runDual");
                sim.runDual(poc.schedule, poc.data, off);
                expectZeroAccounts(sim.laneCore(0));
                expectZeroAccounts(sim.laneCore(1));
            }
            {
                SCOPED_TRACE("DiffIFTFN runDual sibling");
                sim.runDual(poc.schedule, poc.data, diff);
                expectZeroAccounts(sim.laneCore(1));
            }
        }
    }
}

} // namespace
} // namespace dejavuzz
