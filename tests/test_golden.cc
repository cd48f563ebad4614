/**
 * @file
 * Golden architectural simulator tests: instruction semantics,
 * exception behaviour, li expansion correctness and swapMem
 * interaction.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "sim/golden.hh"
#include "swapmem/layout.hh"
#include "swapmem/memory.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using isa::Op;
using namespace isa::reg;
using sim::Golden;
using sim::HaltReason;
using swapmem::Memory;

/** Load a builder program at the swap base and run it. */
sim::GoldenRun
runProgram(isa::ProgBuilder &prog, Golden &golden, Memory &mem,
           uint64_t max_steps = 1000)
{
    auto words = prog.words();
    mem.loadBlock(prog.base(), words.data(), words.size());
    golden.reset();
    golden.pc = prog.base();
    return golden.run(mem, max_steps, &mem);
}

TEST(Golden, ArithmeticBasics)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 7);
    prog.li(a1, 5);
    prog.add(a2, a0, a1);
    prog.sub(a3, a0, a1);
    prog.emit(Op::MUL, a4, a0, a1, 0);
    prog.emit(Op::DIV, a5, a0, a1, 0);
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::SwapNext);
    EXPECT_EQ(golden.xregs[a2], 12u);
    EXPECT_EQ(golden.xregs[a3], 2u);
    EXPECT_EQ(golden.xregs[a4], 35u);
    EXPECT_EQ(golden.xregs[a5], 1u);
}

TEST(Golden, LiExpansionMatchesValue)
{
    Rng rng(42);
    std::vector<uint64_t> values = {
        0, 1, 2047, 2048, -1ULL, 0x7fffffffULL, 0x80000000ULL,
        0xffffffffULL, 0x100000000ULL, 0x8000000000000000ULL,
        0x8000000080004000ULL, swapmem::kSecretAddr,
        swapmem::kLeakArrayAddr,
    };
    for (int i = 0; i < 40; ++i)
        values.push_back(rng.next());

    for (uint64_t value : values) {
        isa::ProgBuilder prog(swapmem::kSwapBase);
        prog.li(a0, value);
        prog.swapnext();
        Golden golden;
        Memory mem;
        auto run = runProgram(prog, golden, mem);
        ASSERT_EQ(run.reason, HaltReason::SwapNext);
        EXPECT_EQ(golden.xregs[a0], value)
            << "li 0x" << std::hex << value;
    }
}

TEST(Golden, BranchAndCall)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.li(a0, 1);
    isa::Label skip = prog.newLabel();
    prog.branch(Op::BNE, a0, zero, skip);
    prog.li(a1, 99); // skipped
    prog.bind(skip);
    prog.li(a2, 3);
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::SwapNext);
    EXPECT_EQ(golden.xregs[a1], 0u);
    EXPECT_EQ(golden.xregs[a2], 3u);
}

TEST(Golden, LoadStoreRoundTrip)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kScratchAddr);
    prog.li(a0, 0x1122334455667788ULL);
    prog.sd(a0, t0, 0);
    prog.ld(a1, t0, 0);
    prog.emit(Op::LW, a2, t0, 0, 0);
    prog.emit(Op::LBU, a3, t0, 0, 7);
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::SwapNext);
    EXPECT_EQ(golden.xregs[a1], 0x1122334455667788ULL);
    EXPECT_EQ(golden.xregs[a2], 0x55667788ULL);
    EXPECT_EQ(golden.xregs[a3], 0x11ULL);
}

TEST(Golden, MisalignedLoadFaults)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kScratchAddr + 1);
    prog.ld(a0, t0, 0);
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::Exception);
    EXPECT_EQ(run.exc, isa::ExcCause::LoadAddrMisaligned);
}

TEST(Golden, SecretProtectionFaults)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kSecretAddr);
    prog.ld(a0, t0, 0);
    prog.swapnext();

    {
        Golden golden;
        Memory mem;
        mem.setSecretProt(swapmem::SecretProt::Open);
        auto run = runProgram(prog, golden, mem);
        EXPECT_EQ(run.reason, HaltReason::SwapNext);
    }
    {
        Golden golden;
        Memory mem;
        mem.setSecretProt(swapmem::SecretProt::Pmp);
        auto run = runProgram(prog, golden, mem);
        EXPECT_EQ(run.reason, HaltReason::Exception);
        EXPECT_EQ(run.exc, isa::ExcCause::LoadAccessFault);
    }
    {
        Golden golden;
        Memory mem;
        mem.setSecretProt(swapmem::SecretProt::Pte);
        auto run = runProgram(prog, golden, mem);
        EXPECT_EQ(run.reason, HaltReason::Exception);
        EXPECT_EQ(run.exc, isa::ExcCause::LoadPageFault);
    }
}

TEST(Golden, UnmappedHolePageFaults)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.la(t0, swapmem::kUnmappedAddr);
    prog.ld(a0, t0, 0);
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::Exception);
    EXPECT_EQ(run.exc, isa::ExcCause::LoadPageFault);
}

TEST(Golden, IllegalInstructionFaults)
{
    isa::ProgBuilder prog(swapmem::kSwapBase);
    prog.illegal();
    prog.swapnext();

    Golden golden;
    Memory mem;
    auto run = runProgram(prog, golden, mem);
    EXPECT_EQ(run.reason, HaltReason::Exception);
    EXPECT_EQ(run.exc, isa::ExcCause::IllegalInstr);
}

TEST(Golden, SecretBytesAreTainted)
{
    Memory mem;
    std::array<uint8_t, 8> secret{1, 2, 3, 4, 5, 6, 7, 8};
    mem.installSecret(secret.data(), secret.size(), true);
    auto tv = mem.read(swapmem::kSecretAddr, 8);
    EXPECT_EQ(tv.v, 0x0807060504030201ULL);
    EXPECT_EQ(tv.t, ~0ULL);
    // Non-secret data is clean.
    auto clean_tv = mem.read(swapmem::kScratchAddr, 8);
    EXPECT_EQ(clean_tv.t, 0ULL);
    // A value lane's secret: same bytes, no taint.
    Memory value_lane;
    value_lane.installSecret(secret.data(), secret.size(), false);
    EXPECT_EQ(value_lane.read(swapmem::kSecretAddr, 8).v, tv.v);
    EXPECT_EQ(value_lane.read(swapmem::kSecretAddr, 8).t, 0ULL);
}

TEST(Golden, RandomProgramsAgreeOnTermination)
{
    // Property: programs of random straight-line arithmetic always
    // reach the trailing SWAPNEXT.
    Rng rng(1234);
    for (int trial = 0; trial < 25; ++trial) {
        isa::ProgBuilder prog(swapmem::kSwapBase);
        for (int i = 0; i < 30; ++i) {
            auto rd = static_cast<uint8_t>(rng.range(5, 15));
            auto rs1 = static_cast<uint8_t>(rng.range(5, 15));
            auto rs2 = static_cast<uint8_t>(rng.range(5, 15));
            switch (rng.below(5)) {
              case 0: prog.add(rd, rs1, rs2); break;
              case 1: prog.sub(rd, rs1, rs2); break;
              case 2: prog.emit(Op::MUL, rd, rs1, rs2, 0); break;
              case 3: prog.emit(Op::XOR, rd, rs1, rs2, 0); break;
              default:
                prog.addi(rd, rs1,
                          static_cast<int64_t>(rng.below(100)));
                break;
            }
        }
        prog.swapnext();
        Golden golden;
        Memory mem;
        auto run = runProgram(prog, golden, mem);
        EXPECT_EQ(run.reason, HaltReason::SwapNext);
    }
}

} // namespace
} // namespace dejavuzz
