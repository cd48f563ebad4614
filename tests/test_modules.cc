/**
 * @file
 * Module-level unit and property tests: taint policy kernels, the
 * RTL-IR netlist + instrumentation pass (incl. the paper's Fig. 2
 * RoB-entry circuit), predictors, caches, swapMem scheduling and the
 * coverage matrix.
 */

#include <gtest/gtest.h>

#include "ift/coverage.hh"
#include "ift/policy.hh"
#include "ift/taint.hh"
#include "rtl/fig2_rob.hh"
#include "rtl/netlist.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/caches.hh"
#include "uarch/predictors.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using ift::TV;

// --- taint policy properties (parameterized sweeps) ---------------------

class PolicyProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolicyProperty, NoTaintInNoTaintOut)
{
    Rng rng(GetParam() * 31 + 7);
    for (int i = 0; i < 200; ++i) {
        TV a = ift::clean(rng.next());
        TV b = ift::clean(rng.next());
        EXPECT_EQ(ift::andCell(a, b).t, 0u);
        EXPECT_EQ(ift::orCell(a, b).t, 0u);
        EXPECT_EQ(ift::xorCell(a, b).t, 0u);
        EXPECT_EQ(ift::addCell(a, b).t, 0u);
        EXPECT_EQ(ift::subCell(a, b).t, 0u);
        EXPECT_EQ(ift::mulLikeCell(a.v * b.v, a, b).t, 0u);
    }
}

TEST_P(PolicyProperty, AndPolicyMatchesTruthTable)
{
    // Policy 1: a tainted input bit taints the output bit only when
    // the other operand's value admits both outcomes (is 1), or both
    // are tainted.
    Rng rng(GetParam() * 131 + 3);
    for (int i = 0; i < 200; ++i) {
        TV a{rng.next(), rng.next()};
        TV b{rng.next(), rng.next()};
        TV out = ift::andCell(a, b);
        uint64_t expect =
            (a.v & b.t) | (b.v & a.t) | (a.t & b.t);
        EXPECT_EQ(out.t, expect);
        EXPECT_EQ(out.v, a.v & b.v);
    }
}

TEST_P(PolicyProperty, DiffIftIsSubsetOfCellIft)
{
    // For any mux evaluation, diffIFT's output taint is a subset of
    // CellIFT's (the diff gate only ever suppresses).
    Rng rng(GetParam() * 17 + 11);
    for (int i = 0; i < 200; ++i) {
        TV sel{rng.below(2), rng.below(2)};
        TV a{rng.next(), rng.next()};
        TV b{rng.next(), rng.next()};

        ift::TaintCtx cell;
        cell.begin(ift::IftMode::CellIFT, nullptr, nullptr);
        TV cell_out = cell.mux(1, sel, a, b);

        // diffIFT with a sibling trace whose select value randomly
        // matches or differs.
        ift::ControlTrace sibling;
        sibling.record(1, rng.below(2));
        ift::TaintCtx diff;
        diff.begin(ift::IftMode::DiffIFT, nullptr, &sibling);
        TV diff_out = diff.mux(1, sel, a, b);

        EXPECT_EQ(diff_out.v, cell_out.v);
        EXPECT_EQ(diff_out.t & ~cell_out.t, 0u)
            << "diffIFT must never taint more than CellIFT";
    }
}

TEST_P(PolicyProperty, FnModeNeverPropagatesControlTaint)
{
    Rng rng(GetParam() * 97 + 5);
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::DiffIFTFN, nullptr, nullptr);
    for (int i = 0; i < 100; ++i) {
        TV sel{rng.below(2), 1}; // tainted select
        TV a = ift::clean(rng.next());
        TV b = ift::clean(rng.next());
        TV out = ctx.mux(1, sel, a, b);
        EXPECT_EQ(out.t, 0u); // data taints only, and inputs are clean
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolicyProperty,
                         ::testing::Range(0, 8));

TEST(Policies, StructuralDivergenceOpensGate)
{
    // A missing or mismatching sibling record means the pipelines
    // diverged: the gate must open.
    ift::ControlTrace sibling;
    sibling.record(42, 1);
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::DiffIFT, nullptr, &sibling);
    EXPECT_FALSE(ctx.gate(42, 1)); // same sig, same value
    EXPECT_TRUE(ctx.gate(42, 1));  // past the end: divergence
    ift::TaintCtx ctx2;
    ctx2.begin(ift::IftMode::DiffIFT, nullptr, &sibling);
    EXPECT_TRUE(ctx2.gate(7, 1)); // different signal id: divergence
}

// --- RTL IR: Fig. 2 RoB-entry circuit ------------------------------------

TEST(RtlFig2, CellIftTaintsEveryEntryOnTaintedTail)
{
    auto rob = rtl::buildFig2Rob(8);
    rtl::Evaluator eval(rob.netlist);
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);

    // Clean enqueue into entry 3.
    eval.setInput(rob.enq_uopc, TV{0x2a, 0});
    eval.setInput(rob.enq_valid, TV{1, 0});
    eval.setInput(rob.rob_tail_idx, TV{3, 0});
    eval.step(ctx);
    EXPECT_EQ(eval.regState(rob.uopc_regs[3]).v, 0x2au);
    EXPECT_EQ(eval.taintedRegCount(), 0u);

    // Rollback: the tail pointer is tainted -> under CellIFT every
    // entry's update mux has a tainted select and all 8 uopc
    // registers become tainted at once (the paper's taint explosion).
    eval.setInput(rob.enq_uopc, TV{0x15, 0});
    eval.setInput(rob.enq_valid, TV{1, 1});
    eval.setInput(rob.rob_tail_idx, TV{5, 0xff});
    eval.step(ctx);
    EXPECT_EQ(eval.taintedRegCount(), 8u);
}

TEST(RtlFig2, DiffIftSuppressesWhenVariantsAgree)
{
    auto rob = rtl::buildFig2Rob(8);
    rtl::Evaluator eval(rob.netlist);

    // Sibling trace produced by an identical evaluation: every
    // control signal matches, so no control taint propagates.
    ift::ControlTrace sibling;
    {
        rtl::Evaluator twin(rob.netlist);
        ift::TaintCtx rec;
        rec.begin(ift::IftMode::DiffIFTFN, &sibling, nullptr);
        twin.setInput(rob.enq_uopc, TV{0x15, 0});
        twin.setInput(rob.enq_valid, TV{1, 1});
        twin.setInput(rob.rob_tail_idx, TV{5, 0xff});
        twin.step(rec);
    }
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::DiffIFT, nullptr, &sibling);
    eval.setInput(rob.enq_uopc, TV{0x15, 0});
    eval.setInput(rob.enq_valid, TV{1, 1});
    eval.setInput(rob.rob_tail_idx, TV{5, 0xff});
    eval.step(ctx);
    // Data taint reaches only the written entry; no explosion.
    EXPECT_LE(eval.taintedRegCount(), 1u);
}

TEST(RtlInstrument, CellIftFlattensMemoriesAndTimesOut)
{
    rtl::Netlist netlist;
    netlist.memory("big", 4096, 64);
    auto diff = rtl::instrument(netlist, ift::IftMode::DiffIFT,
                                100'000);
    EXPECT_FALSE(diff.timed_out);
    EXPECT_EQ(diff.flattened_bits, 0u);
    auto cell = rtl::instrument(netlist, ift::IftMode::CellIFT,
                                100'000);
    EXPECT_TRUE(cell.timed_out)
        << "4096x64 memory flattens past the cell budget";
    auto cell_big = rtl::instrument(netlist, ift::IftMode::CellIFT,
                                    10'000'000);
    EXPECT_FALSE(cell_big.timed_out);
    EXPECT_EQ(cell_big.flattened_bits, 4096u * 64u);
}

// --- predictors ------------------------------------------------------------

TEST(Predictors, BhtTwoBitCounterConverges)
{
    uarch::Bht bht(64);
    EXPECT_FALSE(bht.predictTaken(0x1000)); // weakly not-taken reset
    bht.update(0x1000, true, false);
    EXPECT_TRUE(bht.predictTaken(0x1000)); // one update crosses
    bht.update(0x1000, false, false);
    bht.update(0x1000, false, false);
    EXPECT_FALSE(bht.predictTaken(0x1000));
    // Aliasing: same index every bht-size stride.
    bht.update(0x1000, true, false);
    bht.update(0x1000, true, false);
    EXPECT_TRUE(bht.predictTaken(0x1000 + 64 * 4));
}

TEST(Predictors, RasPartialVsFullRecovery)
{
    uarch::Ras ras(4);
    ras.commitPush(TV{0x100, 0});
    ras.commitPush(TV{0x200, 0});
    ras.recover(false); // sync spec with committed
    // Transient wrap: 4 pushes overwrite everything incl. below-TOS.
    for (int i = 0; i < 4; ++i)
        ras.push(TV{0xdead, ~0ULL});
    ras.recover(true); // B2: TOS + top entry only
    EXPECT_EQ(ras.entry(1).v, 0x200u); // top restored
    EXPECT_EQ(ras.entry(0).v, 0xdeadu); // below-TOS corrupted
    for (int i = 0; i < 4; ++i)
        ras.push(TV{0xbeef, ~0ULL});
    ras.recover(false); // full restore
    EXPECT_EQ(ras.entry(0).v, 0x100u);
    EXPECT_EQ(ras.entry(1).v, 0x200u);
}

TEST(Predictors, LoopPredictorLearnsTripCount)
{
    uarch::LoopPred loop(8);
    uint64_t pc = 0x2000;
    // Three identical trips of 4 taken + 1 not-taken.
    for (int trip = 0; trip < 3; ++trip) {
        for (int i = 0; i < 4; ++i)
            loop.update(pc, true, false);
        loop.update(pc, false, false);
    }
    bool taken = false;
    ASSERT_TRUE(loop.predict(pc, taken));
}

// --- caches ------------------------------------------------------------------

TEST(Caches, LfbRetainsStaleTaintWithDeadLiveness)
{
    uarch::DCache dcache(16, 2, 2, 2, 4);
    int mshr = dcache.allocMshr(TV{0x1000, ~0ULL}, false);
    ASSERT_GE(mshr, 0);
    swapmem::Memory backing;
    backing.write(0x1000, 8, TV{0xdeadbeef, ~0ULL}); // secret fill data
    for (int i = 0; i < 4; ++i)
        dcache.tick(backing);
    EXPECT_TRUE(dcache.mshrDone(mshr));
    EXPECT_TRUE(dcache.hit(0x1000));
    // The paper's liveness example: LFB data tainted, owner invalid.
    std::vector<ift::SinkSnapshot> sinks;
    ift::SinkWriter writer(sinks);
    dcache.appendSinks(writer);
    writer.finish();
    bool found = false;
    for (const auto &sink : sinks) {
        if (sink.module() != "lfb")
            continue;
        found = true;
        EXPECT_GT(sink.taintedEntries(), 0u);
        EXPECT_EQ(sink.liveTaintedEntries(), 0u)
            << "stale LFB data must be dead";
    }
    EXPECT_TRUE(found);
}

TEST(Caches, ICacheRefillEngineIsExclusive)
{
    uarch::ICache icache(8, 4);
    EXPECT_FALSE(icache.hit(0x4000));
    EXPECT_TRUE(icache.startRefill(0x4000, false));
    EXPECT_FALSE(icache.startRefill(0x8000, false)) << "engine busy";
    for (int i = 0; i < 4; ++i)
        icache.tick();
    EXPECT_TRUE(icache.hit(0x4000));
    EXPECT_FALSE(icache.refillBusy());
}

// --- swapMem -------------------------------------------------------------------

TEST(SwapMem, ScheduleAppliesProtectionAtTransientPacket)
{
    swapmem::SwapSchedule schedule;
    swapmem::SwapPacket train;
    train.kind = swapmem::PacketKind::TriggerTrain;
    isa::Instr nop;
    nop.op = isa::Op::ADDI;
    train.instrs = {nop};
    schedule.packets.push_back(train);
    swapmem::SwapPacket transient;
    transient.kind = swapmem::PacketKind::Transient;
    transient.instrs = {nop};
    schedule.packets.push_back(transient);
    schedule.transient_prot = swapmem::SecretProt::Pmp;

    swapmem::Memory mem;
    swapmem::SwapRuntime runtime(schedule);
    EXPECT_EQ(runtime.start(mem), swapmem::kSwapBase);
    EXPECT_EQ(mem.secretProt(), swapmem::SecretProt::Open);
    runtime.advance(mem);
    EXPECT_EQ(mem.secretProt(), swapmem::SecretProt::Pmp);
    EXPECT_EQ(runtime.advance(mem), 0u);
    EXPECT_TRUE(runtime.done());
}

TEST(SwapMem, ReductionHelperPreservesTransient)
{
    swapmem::SwapSchedule schedule;
    isa::Instr nop;
    nop.op = isa::Op::ADDI;
    for (int i = 0; i < 3; ++i) {
        swapmem::SwapPacket train;
        train.kind = swapmem::PacketKind::TriggerTrain;
        train.instrs = {nop, nop};
        schedule.packets.push_back(train);
    }
    swapmem::SwapPacket transient;
    transient.kind = swapmem::PacketKind::Transient;
    transient.instrs = {nop};
    schedule.packets.push_back(transient);

    EXPECT_EQ(schedule.trainingOverhead(), 6u);
    auto reduced = schedule.without(1);
    EXPECT_EQ(reduced.packets.size(), 3u);
    EXPECT_EQ(reduced.trainingOverhead(), 4u);
    EXPECT_EQ(reduced.transientIndex(), 2u);
}

// --- coverage matrix ------------------------------------------------------------

TEST(Coverage, TuplesArePerModulePerCount)
{
    ift::TaintCoverage coverage;
    uint16_t m0 = coverage.registerModule("a", 16);
    uint16_t m1 = coverage.registerModule("b", 16);
    EXPECT_FALSE(coverage.sample(m0, 0)) << "zero counts are ignored";
    EXPECT_TRUE(coverage.sample(m0, 3));
    EXPECT_FALSE(coverage.sample(m0, 3)) << "repeat: no new point";
    EXPECT_TRUE(coverage.sample(m1, 3)) << "same count, other module";
    EXPECT_TRUE(coverage.sample(m0, 5));
    EXPECT_EQ(coverage.points(), 3u);
    EXPECT_EQ(coverage.takeNewPoints(), 3u);
    EXPECT_EQ(coverage.takeNewPoints(), 0u);
    // Counts past the registered maximum clamp into the last slot.
    EXPECT_TRUE(coverage.sample(m0, 999));
    EXPECT_FALSE(coverage.sample(m0, 1000));
}

} // namespace
} // namespace dejavuzz
