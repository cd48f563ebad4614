/**
 * @file
 * Planted-bug validation (Table 5): each of B1..B5 plus the Meltdown
 * forwarding behaviour is exercised on a config with the bug enabled
 * and its fixed counterpart, end-to-end through the pipeline
 * machinery the fuzzer uses.
 */

#include <gtest/gtest.h>

#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "isa/builder.hh"
#include "swapmem/layout.hh"
#include "swapmem/packet.hh"
#include "uarch/core.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using core::Seed;
using core::StimGen;
using core::TestCase;
using core::TriggerKind;
using harness::DualSim;
using harness::SimOptions;
using harness::StimulusData;
using isa::Op;
using namespace isa::reg;
using swapmem::PacketKind;
using swapmem::SwapPacket;
using swapmem::SwapSchedule;

SwapPacket
packetOf(isa::ProgBuilder &prog, const char *label, PacketKind kind)
{
    SwapPacket packet;
    packet.label = label;
    packet.kind = kind;
    packet.instrs = prog.finish();
    return packet;
}

StimulusData
stimWith(uint64_t seed)
{
    Rng rng(seed);
    return StimulusData::random(rng);
}

/**
 * B1 Meltdown-Sampling: a masked (out-of-range) secret address faults
 * architecturally but the truncated load-unit wire samples the warm
 * secret line transiently. Present on XiangShan, absent on BOOM.
 */
TEST(PlantedBugs, B1AddressTruncationSamplesSecret)
{
    auto runCase = [](const uarch::CoreConfig &cfg) {
        // Warm the secret, then transiently access it through the
        // masked address inside an access-fault window.
        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.la(t2, swapmem::kLeakArrayAddr + 0x100);
        warm.ld(t5, t2, 0x400); // probe-page TLB
        warm.swapnext();

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.li(t6, 1ULL << 63);
        prog.emit(Op::OR, s2, s1, t6, 0); // masked illegal address
        prog.la(t2, swapmem::kLeakArrayAddr + 0x100);
        prog.li(t5, 1);
        // Older slow chain: delays the fault's commit, widening the
        // window for the dependent encode.
        prog.la(t4, swapmem::kOperandAddr);
        prog.ld(a5, t4, 0);
        prog.emit(Op::DIV, a5, a5, t5, 0);
        prog.ld(s0, s2, 0); // faults; forwards via truncation (B1)
        prog.andi(t1, s0, 1);
        prog.slli(t1, t1, 6);
        prog.add(t2, t2, t1);
        prog.ld(t3, t2, 0); // encode
        for (int i = 0; i < 4; ++i)
            prog.nop();
        prog.swapnext();

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));
        schedule.transient_prot = swapmem::SecretProt::Pmp;

        DualSim sim(cfg);
        SimOptions options;
        options.mode = ift::IftMode::DiffIFT;
        options.taint_log = true;
        options.sinks = true;
        auto result = sim.runDual(schedule, stimWith(42), options);
        // Exploitable when the probe line differs between variants:
        // look for a live tainted d-cache line beyond the secret's own.
        size_t live_tainted = 0;
        for (const auto &sink : result.dut0.sinks) {
            if (sink.module() == "dcache")
                live_tainted = sink.liveTaintedEntries();
        }
        return live_tainted;
    };

    EXPECT_GE(runCase(uarch::xiangshanMinimalConfig()), 2u)
        << "B1 present: masked access samples the secret";
    EXPECT_LE(runCase(uarch::smallBoomConfig()), 1u)
        << "no truncation: only the warmed secret line is tainted";
}

/**
 * B2 Phantom-RSB: transient calls overwrite RAS entries; partial
 * recovery (TOS + top entry only) leaves corrupted tainted entries
 * below the TOS alive. Full recovery cleans them.
 */
TEST(PlantedBugs, B2RasPartialRestoreLeavesCorruption)
{
    auto runCase = [](bool partial_restore) {
        uarch::CoreConfig cfg = uarch::smallBoomConfig();
        cfg.bug_b2_ras_partial_restore = partial_restore;

        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.swapnext();

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.la(t4, swapmem::kOperandAddr);
        prog.li(t5, 1);
        // Architectural calls: committed RAS depth 3 (live entries).
        for (int i = 0; i < 3; ++i) {
            isa::Label cont = prog.newLabel();
            prog.jal(1, cont);
            prog.nop();
            prog.bind(cont);
        }
        // Slow branch condition opens the window.
        prog.ld(a0, t4, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        isa::Label exit_lbl = prog.newLabel();
        prog.branch(Op::BNE, a0, zero, exit_lbl); // taken, pred NT
        // Transient window: secret-dependent call spray wraps the RAS
        // and overwrites the live below-TOS entries.
        prog.lb(s0, s1, 0);
        prog.andi(t1, s0, 1);
        isa::Label skip = prog.newLabel();
        prog.branch(Op::BEQ, t1, zero, skip);
        for (unsigned i = 0; i < cfg.ras_entries; ++i)
            prog.emit(Op::JAL, 1, 0, 0, 4);
        prog.bind(skip);
        for (int i = 0; i < 4; ++i)
            prog.nop();
        prog.bind(exit_lbl);
        prog.swapnext();

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));

        StimulusData data = stimWith(7);
        data.operands[0] = 1;

        DualSim sim(cfg);
        SimOptions options;
        options.mode = ift::IftMode::DiffIFT;
        options.sinks = true;
        auto result = sim.runDual(schedule, data, options);
        size_t live_tainted = 0;
        for (const auto &sink : result.dut0.sinks) {
            if (sink.module() == "ras")
                live_tainted = sink.liveTaintedEntries();
        }
        return live_tainted;
    };

    EXPECT_GT(runCase(true), 0u)
        << "B2: below-TOS corruption survives partial recovery";
    EXPECT_EQ(runCase(false), 0u)
        << "full recovery restores every entry";
}

/**
 * B3 Phantom-BTB: an exception flush racing a staged indirect-jump
 * correction writes the correction into the faulting PC's BTB entry.
 * Discriminator: after the run, the BTB holds an entry *tagged with
 * the faulting load's PC* - something no legitimate update produces.
 */
TEST(PlantedBugs, B3BtbRaceMisdirectsUpdate)
{
    auto runCase = [](bool race_bug, unsigned pad_nops) {
        uarch::CoreConfig cfg = uarch::smallBoomConfig();
        cfg.bug_b3_btb_race = race_bug;

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.la(s2, swapmem::kUnmappedAddr);
        prog.la(s5, swapmem::kSwapBase + 0x2c0); // jump pad
        prog.li(t5, 1);
        uint64_t fault_pc = prog.here();
        prog.ld(t1, s2, 0); // page fault -> trap countdown
        prog.lb(s0, s1, 0); // secret (younger, transient)
        prog.andi(t4, s0, 1);
        prog.slli(t4, t4, 3);
        prog.add(t4, t4, s5);
        // Serial chain extension: each hop delays the jump's
        // resolution by one cycle, sweeping it across the flush.
        for (unsigned i = 0; i < pad_nops; ++i)
            prog.emit(Op::ADDI, t4, t4, 0, 0);
        prog.jalr(0, t4, 0); // indirect jump, secret target
        prog.padTo(swapmem::kSwapBase + 0x2c0);
        prog.padTo(swapmem::kSwapBase + 0x300);
        prog.swapnext();

        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.swapnext();

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));

        // Drive the core directly so the BTB can be inspected.
        uarch::Core core(cfg);
        swapmem::Memory mem;
        StimulusData data = stimWith(21);
        mem.installSecret(data.secret.data(), data.secret.size(), true);
        swapmem::SwapRuntime runtime(schedule);
        core.startSequence(runtime.start(mem));
        ift::TaintCtx ctx;
        ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);
        for (int cycle = 0; cycle < 1000; ++cycle) {
            auto ev = core.tick(mem, ctx, nullptr);
            if (ev.swap_next || ev.trapped) {
                uint64_t entry = runtime.advance(mem);
                if (runtime.done())
                    break;
                core.flushICache();
                core.startSequence(entry);
            }
        }
        ift::TV target;
        return core.btb.lookup(fault_pc, target);
    };

    unsigned buggy_hits = 0;
    unsigned fixed_hits = 0;
    for (unsigned pad = 0; pad < 28; ++pad) {
        buggy_hits += runCase(true, pad) ? 1 : 0;
        fixed_hits += runCase(false, pad) ? 1 : 0;
    }
    EXPECT_GT(buggy_hits, 0u)
        << "B3: some alignment lands the racing BTB update";
    EXPECT_EQ(fixed_hits, 0u)
        << "without the race no load PC ever enters the BTB";
}

/**
 * B4 Spectre-Refetch: a transient fetch at a secret-dependent far
 * line occupies the refill engine past the squash; the first
 * post-window fetch is delayed secret-dependently.
 */
TEST(PlantedBugs, B4FetchRefillPreemption)
{
    auto runCase = [](bool preempt_bug) {
        uarch::CoreConfig cfg = uarch::smallBoomConfig();
        cfg.bug_b4_fetch_refill_preempt = preempt_bug;

        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.swapnext();

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.la(s6, swapmem::kSwapBase + 0x1000); // far line
        prog.la(t4, swapmem::kOperandAddr);
        prog.li(t5, 1);
        prog.ld(a0, t4, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        isa::Label exit_lbl = prog.newLabel();
        prog.branch(Op::BNE, a0, zero, exit_lbl); // taken, pred NT
        // Window: secret-gated, deliberately delayed far fetch so the
        // refill engine is still busy when the squash fires.
        prog.lb(s0, s1, 0);
        prog.andi(t1, s0, 1);
        isa::Label skip = prog.newLabel();
        prog.branch(Op::BEQ, t1, zero, skip);
        prog.emit(Op::DIV, t1, t1, t5, 0); // delay the far fetch
        prog.emit(Op::DIV, t1, t1, t5, 0);
        prog.add(t1, t1, s6);
        prog.jalr(0, t1, 0); // transient far fetch (icache miss)
        prog.bind(skip);
        for (int i = 0; i < 4; ++i)
            prog.nop();
        // Exit lives on a cold line: the post-squash fetch must wait
        // for the preempted refill engine (B4) on one variant only.
        prog.padTo(swapmem::kSwapBase + 0x340);
        prog.bind(exit_lbl);
        prog.swapnext();

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));

        StimulusData data = stimWith(77);
        data.operands[0] = 1;

        DualSim sim(cfg);
        SimOptions options;
        options.mode = ift::IftMode::Off;
        auto result = sim.runDual(schedule, data, options);
        return result.dut0.contention.fetch_refill_wait !=
                   result.dut1.contention.fetch_refill_wait ||
               result.dut0.cycles != result.dut1.cycles;
    };

    EXPECT_TRUE(runCase(true))
        << "B4: post-squash refill delays fetch secret-dependently";
}

/**
 * B5 Spectre-Reload: transient cache-hitting loads steal the load
 * write-back port from an in-flight architectural miss (XiangShan's
 * shared-port arbitration).
 */
TEST(PlantedBugs, B5SharedLoadWritebackPort)
{
    auto runCase = [](bool shared_port) {
        uarch::CoreConfig cfg = uarch::xiangshanMinimalConfig();
        cfg.bug_b5_shared_load_wb = shared_port;

        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.la(t3, swapmem::kScratchAddr + 0x40);
        warm.ld(t5, t3, 0);
        warm.swapnext();

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.la(t3, swapmem::kScratchAddr + 0x40);
        prog.la(t4, swapmem::kOperandAddr);
        prog.li(t5, 1);
        // Architectural cold miss in flight across the window.
        prog.la(t1, swapmem::kScratchAddr + 0x200);
        prog.ld(s7, t1, 0);
        prog.ld(a0, t4, 0);
        prog.emit(Op::DIV, a0, a0, t5, 0);
        isa::Label exit_lbl = prog.newLabel();
        prog.branch(Op::BNE, a0, zero, exit_lbl); // taken, pred NT
        // Window: secret-gated burst of cache-hitting loads.
        prog.lb(s0, s1, 0);
        prog.andi(t1, s0, 1);
        isa::Label skip = prog.newLabel();
        prog.branch(Op::BEQ, t1, zero, skip);
        for (int i = 0; i < 6; ++i)
            prog.ld(s3, t3, 8 * i);
        prog.bind(skip);
        prog.bind(exit_lbl);
        prog.swapnext();
        // Post-window: consume the miss so its completion time shows.
        // (swapnext ends the packet; cycle counts reflect the stall.)

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));

        StimulusData data = stimWith(123);
        data.operands[0] = 1;

        DualSim sim(cfg);
        SimOptions options;
        options.mode = ift::IftMode::Off;
        auto result = sim.runDual(schedule, data, options);
        return result.dut0.contention.load_wb_conflict !=
               result.dut1.contention.load_wb_conflict;
    };

    EXPECT_TRUE(runCase(true)) << "B5: port contention is secret-gated";
    EXPECT_FALSE(runCase(false))
        << "dedicated queue port: no contention";
}

/**
 * Meltdown forwarding switch: with forwarding disabled (a fixed
 * core), a faulting access yields no data and no taint.
 */
TEST(PlantedBugs, MeltdownForwardingSwitch)
{
    auto runCase = [](bool forwarding) {
        uarch::CoreConfig cfg = uarch::smallBoomConfig();
        cfg.meltdown_forwarding = forwarding;

        isa::ProgBuilder warm(swapmem::kSwapBase);
        warm.la(s1, swapmem::kSecretAddr);
        warm.ld(t5, s1, 0);
        warm.la(t2, swapmem::kLeakArrayAddr + 0x100);
        warm.ld(t5, t2, 0x400); // probe-page TLB
        warm.swapnext();

        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.la(s1, swapmem::kSecretAddr);
        prog.la(t2, swapmem::kLeakArrayAddr + 0x100);
        prog.li(t5, 1);
        prog.la(t4, swapmem::kOperandAddr);
        prog.ld(a5, t4, 0);
        prog.emit(Op::DIV, a5, a5, t5, 0);
        prog.ld(s0, s1, 0); // faults (PMP), window follows
        prog.andi(t1, s0, 1);
        prog.slli(t1, t1, 6);
        prog.add(t2, t2, t1);
        prog.ld(t3, t2, 0);
        for (int i = 0; i < 4; ++i)
            prog.nop();
        prog.swapnext();

        SwapSchedule schedule;
        schedule.packets.push_back(
            packetOf(warm, "warm", PacketKind::WindowTrain));
        schedule.packets.push_back(
            packetOf(prog, "transient", PacketKind::Transient));
        schedule.transient_prot = swapmem::SecretProt::Pmp;

        DualSim sim(cfg);
        SimOptions options;
        options.mode = ift::IftMode::DiffIFT;
        options.sinks = true;
        auto result = sim.runDual(schedule, stimWith(5), options);
        size_t live_tainted = 0;
        for (const auto &sink : result.dut0.sinks) {
            if (sink.module() == "dcache")
                live_tainted = sink.liveTaintedEntries();
        }
        return live_tainted;
    };

    EXPECT_GE(runCase(true), 2u)
        << "forwarding: secret line + encode line tainted";
    EXPECT_LE(runCase(false), 1u)
        << "fixed: only the warmed secret line carries taint";
}

} // namespace
} // namespace dejavuzz
