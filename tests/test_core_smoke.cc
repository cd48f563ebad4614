/**
 * @file
 * End-to-end smoke tests of the out-of-order core through the
 * differential harness: programs complete and commit what the golden
 * ISS executes, speculation squashes fire, and a hand-written
 * Spectre-V1 payload taints the data cache under diffIFT.
 */

#include <gtest/gtest.h>

#include "harness/dualsim.hh"
#include "isa/builder.hh"
#include "sim/golden.hh"
#include "swapmem/layout.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using harness::DualSim;
using harness::SimOptions;
using harness::StimulusData;
using isa::Op;
using namespace isa::reg;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapSchedule;

SwapPacket
packetFrom(isa::ProgBuilder &prog, const char *label, PacketKind kind)
{
    SwapPacket packet;
    packet.label = label;
    packet.kind = kind;
    packet.instrs = prog.finish();
    return packet;
}

StimulusData
defaultStim()
{
    Rng rng(99);
    return StimulusData::random(rng);
}

TEST(CoreSmoke, StraightLineProgramCompletes)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 7);
    prog.li(a1, 5);
    prog.add(a2, a0, a1);
    prog.swapnext();

    SwapSchedule schedule;
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));

    DualSim sim(uarch::smallBoomConfig());
    auto result = sim.runSingle(schedule, defaultStim());
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.budget_exceeded);
    EXPECT_GT(result.trace.commits.size(), 3u);
    // The committed PC stream is sequential.
    EXPECT_EQ(result.trace.commits.front().pc, swapmem::kSwapBase);
}

TEST(CoreSmoke, ArchitecturalResultsMatchGolden)
{
    // The OoO core must retire what the golden ISS architecturally
    // executes: the same (pc, op) commit stream, one commit per
    // executed instruction, and the golden register results.
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 1111);
    prog.li(a1, 2222);
    prog.add(a2, a0, a1);
    prog.emit(Op::MUL, a3, a0, a1, 0);
    prog.la(t0, swapmem::kScratchAddr);
    prog.sd(a2, t0, 0);
    prog.sd(a3, t0, 8);
    prog.ld(a4, t0, 0);
    prog.swapnext();

    SwapSchedule schedule;
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));

    DualSim sim(uarch::smallBoomConfig());
    auto result = sim.runSingle(schedule, defaultStim());
    ASSERT_TRUE(result.completed);

    // Golden run of the same program, loaded at the swap base.
    const std::vector<uint32_t> words = prog.words();
    swapmem::Memory mem;
    mem.loadBlock(prog.base(), words.data(), words.size());
    sim::Golden golden;
    golden.pc = prog.base();
    const sim::GoldenRun run = golden.run(mem, 1000, &mem);
    ASSERT_EQ(run.reason, sim::HaltReason::SwapNext);
    EXPECT_EQ(golden.xregs[a2], 3333u);
    EXPECT_EQ(golden.xregs[a3], 2468642u);
    EXPECT_EQ(golden.xregs[a4], 3333u);

    const auto &commits = result.trace.commits;
    ASSERT_EQ(commits.size(), run.trace.size());
    for (size_t i = 0; i < commits.size(); ++i) {
        EXPECT_EQ(commits[i].pc, run.trace[i].pc) << "commit " << i;
        EXPECT_EQ(commits[i].op, run.trace[i].instr.op)
            << "commit " << i;
    }
}

TEST(CoreSmoke, UntrainedTakenBranchMispredicts)
{
    // Default BHT state predicts not-taken; an architecturally taken
    // branch therefore opens a transient window on the fall-through.
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 1);
    isa::Label exit_lbl = prog.newLabel();
    prog.branch(Op::BNE, a0, zero, exit_lbl); // taken, predicted NT
    for (int i = 0; i < 6; ++i)
        prog.nop(); // transient window payload
    prog.bind(exit_lbl);
    prog.swapnext();

    SwapSchedule schedule;
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));

    DualSim sim(uarch::smallBoomConfig());
    auto result = sim.runSingle(schedule, defaultStim());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.trace.windowTriggered());
    const auto *window = result.trace.principalWindow();
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->cause, uarch::SquashCause::BranchMispredict);
    EXPECT_GT(window->flushed, 0u);
}

TEST(CoreSmoke, BhtTrainingFlipsPrediction)
{
    // Train a branch taken twice; a later not-taken run of the same
    // branch then mispredicts.
    uint64_t branch_addr = swapmem::kSwapBase + 0x40;

    auto makeTraining = [&]() {
        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.li(a0, 1);
        prog.padTo(branch_addr);
        isa::Label target = prog.newLabel();
        prog.branch(Op::BNE, a0, zero, target); // taken
        prog.nop();
        prog.bind(target);
        prog.swapnext();
        return prog;
    };

    SwapSchedule schedule;
    for (int i = 0; i < 2; ++i) {
        auto training = makeTraining();
        schedule.packets.push_back(packetFrom(
            training, "trigger_train", PacketKind::TriggerTrain));
    }
    // Transient packet: same branch address, not taken this time.
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 0);
    prog.padTo(branch_addr);
    isa::Label target = prog.newLabel();
    prog.branch(Op::BNE, a0, zero, target); // NOT taken, predicted T
    prog.swapnext();                        // architectural path
    prog.bind(target);
    for (int i = 0; i < 4; ++i)
        prog.nop();
    prog.swapnext();
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));

    DualSim sim(uarch::smallBoomConfig());
    auto result = sim.runSingle(schedule, defaultStim());
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.trace.windowTriggered());
    const auto *window = result.trace.principalWindow();
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->cause, uarch::SquashCause::BranchMispredict);
    EXPECT_EQ(window->pc, branch_addr);
}

TEST(CoreSmoke, ExceptionOpensTransientWindow)
{
    // A faulting load commits late (trap_latency); younger
    // instructions execute transiently and are flushed.
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kUnmappedAddr);
    prog.ld(a0, t0, 0); // page fault
    for (int i = 0; i < 6; ++i)
        prog.addi(a1, a1, 1); // transient
    prog.swapnext();

    SwapSchedule schedule;
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));

    DualSim sim(uarch::smallBoomConfig());
    auto result = sim.runSingle(schedule, defaultStim());
    ASSERT_TRUE(result.completed);
    ASSERT_FALSE(result.trace.squashes.empty());
    const auto &squash = result.trace.squashes.back();
    EXPECT_EQ(squash.cause, uarch::SquashCause::Exception);
    EXPECT_EQ(squash.exc, isa::ExcCause::LoadPageFault);
    EXPECT_GT(squash.flushed, 0u);
    EXPECT_GT(squash.transient_executed, 0u);
}

TEST(CoreSmoke, IllegalWindowOnlyOnXiangShan)
{
    auto makeSchedule = []() {
        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.illegal();
        for (int i = 0; i < 6; ++i)
            prog.addi(a1, a1, 1);
        prog.swapnext();
        SwapSchedule schedule;
        schedule.packets.push_back(
            packetFrom(prog, "transient", PacketKind::Transient));
        return schedule;
    };

    {
        // BOOM stalls illegal instructions at decode: no window.
        DualSim sim(uarch::smallBoomConfig());
        auto schedule = makeSchedule();
        auto result = sim.runSingle(schedule, defaultStim());
        ASSERT_TRUE(result.completed);
        const auto *window = result.trace.principalWindow();
        if (window != nullptr) {
            EXPECT_EQ(window->transient_executed, 0u);
        }
    }
    {
        // XiangShan lets them flow: transient window opens.
        DualSim sim(uarch::xiangshanMinimalConfig());
        auto schedule = makeSchedule();
        auto result = sim.runSingle(schedule, defaultStim());
        ASSERT_TRUE(result.completed);
        ASSERT_FALSE(result.trace.squashes.empty());
        const auto &squash = result.trace.squashes.back();
        EXPECT_EQ(squash.exc, isa::ExcCause::IllegalInstr);
        EXPECT_GT(squash.transient_executed, 0u);
    }
}

/**
 * Build the classic Spectre-V1 transient packet: a branch whose
 * condition operand comes from a cold (cache-missing) load resolves
 * late, opening a wide window on the predicted-not-taken fall-through
 * that loads the secret and encodes bit 0 into a leak-array line.
 */
isa::ProgBuilder
spectreV1Packet()
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kSecretAddr);
    // Probe base offset so the encode lines do not alias the secret's
    // own (direct-mapped) cache line.
    prog.la(t2, swapmem::kLeakArrayAddr + 0x100);
    prog.la(t4, swapmem::kOperandAddr); // cold line: slow condition
    prog.li(a1, 1);
    prog.ld(a0, t4, 0);                 // operand (random non-zero)
    prog.emit(Op::DIV, a0, a0, a1, 0);  // stretch the resolve delay
    isa::Label exit_lbl = prog.newLabel();
    prog.branch(Op::BNE, a0, zero, exit_lbl); // taken, predicted NT
    prog.lb(s0, t0, 0);                       // secret load (warm)
    prog.andi(t1, s0, 1);
    prog.slli(t1, t1, 6); // one cache line per bit value
    prog.add(t2, t2, t1);
    prog.ld(t3, t2, 0); // encode into dcache
    prog.nop();
    prog.bind(exit_lbl);
    prog.swapnext();
    return prog;
}

isa::ProgBuilder
secretWarmPacket()
{
    isa::ProgBuilder warm(swapmem::kSwapBase);
    warm.la(t0, swapmem::kSecretAddr);
    warm.ld(a1, t0, 0);
    warm.swapnext();
    return warm;
}

SwapSchedule
spectreV1Schedule()
{
    SwapSchedule schedule;
    auto warm = secretWarmPacket();
    schedule.packets.push_back(
        packetFrom(warm, "window_train", PacketKind::WindowTrain));
    auto prog = spectreV1Packet();
    schedule.packets.push_back(
        packetFrom(prog, "transient", PacketKind::Transient));
    schedule.transient_prot = swapmem::SecretProt::Open; // Spectre
    return schedule;
}

TEST(CoreSmoke, SpectreV1TaintsDCacheUnderDiffIft)
{
    DualSim sim(uarch::smallBoomConfig());
    SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.taint_log = true;
    options.sinks = true;
    auto schedule = spectreV1Schedule();
    StimulusData stim = defaultStim();
    stim.operands[0] = 1; // branch condition: taken
    auto result = sim.runDual(schedule, stim, options);

    ASSERT_TRUE(result.dut0.completed);
    ASSERT_TRUE(result.dut1.completed);
    ASSERT_TRUE(result.dut0.trace.windowTriggered());
    const auto *window = result.dut0.trace.principalWindow();
    ASSERT_NE(window, nullptr);
    EXPECT_GT(window->transient_executed, 2u)
        << "window payload must have executed transiently";

    // Taint must have propagated during the run.
    EXPECT_GT(result.dut0.taint_log.finalTaintSum(), 0u);

    // The data cache holds live tainted lines: the warmed secret line
    // AND the secret-indexed encode line.
    size_t dcache_live_tainted = 0;
    for (const auto &sink : result.dut0.sinks) {
        if (sink.module() == "dcache")
            dcache_live_tainted = sink.liveTaintedEntries();
    }
    EXPECT_GE(dcache_live_tainted, 2u);
}

TEST(CoreSmoke, DiffIftSuppressesTaintVersusCellIft)
{
    // The same Spectre-V1 run under CellIFT must accumulate strictly
    // more taint than under diffIFT: the rollback of the tainted
    // window state explodes control taints only when the gate is
    // unconditionally open.
    DualSim sim(uarch::smallBoomConfig());
    SimOptions options;
    options.taint_log = true;
    StimulusData stim = defaultStim();
    stim.operands[0] = 1;

    options.mode = ift::IftMode::DiffIFT;
    auto schedule1 = spectreV1Schedule();
    auto diff_result = sim.runDual(schedule1, stim, options);

    options.mode = ift::IftMode::CellIFT;
    auto schedule2 = spectreV1Schedule();
    auto cell_result = sim.runDual(schedule2, stim, options);

    const uint64_t diff_max =
        diff_result.dut0.taint_log.maxTaintSumIn(0, UINT64_MAX);
    const uint64_t cell_max =
        cell_result.dut0.taint_log.maxTaintSumIn(0, UINT64_MAX);

    EXPECT_GT(diff_max, 0u);
    EXPECT_GT(cell_max, diff_max * 4)
        << "CellIFT should over-taint vs diffIFT";

    // diffIFT-FN (identical control signals) must stay at or below
    // plain diffIFT: control taints are fully suppressed.
    options.mode = ift::IftMode::DiffIFTFN;
    auto schedule3 = spectreV1Schedule();
    auto fn_result = sim.runDual(schedule3, stim, options);
    const uint64_t fn_max =
        fn_result.dut0.taint_log.maxTaintSumIn(0, UINT64_MAX);
    EXPECT_LE(fn_max, diff_max);
    EXPECT_GT(fn_max, 0u); // data taints still flow
}

} // namespace
} // namespace dejavuzz
