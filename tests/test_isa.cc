/**
 * @file
 * ISA layer tests: encode/decode round trips, instruction metadata,
 * builder label fixups and li expansion.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/encoding.hh"
#include "isa/instr.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace dejavuzz::isa {
namespace {

Instr
make(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm)
{
    Instr instr;
    instr.op = op;
    instr.rd = rd;
    instr.rs1 = rs1;
    instr.rs2 = rs2;
    instr.imm = imm;
    return instr;
}

TEST(IsaEncoding, NopIsCanonical)
{
    Instr nop = make(Op::ADDI, 0, 0, 0, 0);
    EXPECT_EQ(encode(nop), kNopWord);
    Instr decoded = decode(kNopWord);
    EXPECT_EQ(decoded.op, Op::ADDI);
    EXPECT_EQ(decoded.rd, 0);
    EXPECT_EQ(decoded.imm, 0);
}

TEST(IsaEncoding, IllegalWordDecodesAsIllegal)
{
    EXPECT_EQ(decode(kIllegalWord).op, Op::ILLEGAL);
    EXPECT_EQ(decode(0x00000000u).op, Op::ILLEGAL);
    EXPECT_EQ(decode(0xffffffffu).op, Op::ILLEGAL);
}

TEST(IsaEncoding, KnownEncodings)
{
    // Cross-checked against the RISC-V spec / binutils.
    EXPECT_EQ(encode(make(Op::ADDI, 5, 6, 0, -1)), 0xfff30293u);
    EXPECT_EQ(encode(make(Op::LUI, 10, 0, 0, 0x12345)), 0x12345537u);
    EXPECT_EQ(encode(make(Op::JAL, 1, 0, 0, 16)), 0x010000efu);
    EXPECT_EQ(encode(make(Op::JALR, 0, 1, 0, 0)), 0x00008067u);
    EXPECT_EQ(encode(make(Op::ECALL, 0, 0, 0, 0)), 0x00000073u);
    EXPECT_EQ(encode(make(Op::MRET, 0, 0, 0, 0)), 0x30200073u);
    EXPECT_EQ(encode(make(Op::LD, 8, 5, 0, 8)), 0x0082b403u);
    EXPECT_EQ(encode(make(Op::SD, 0, 2, 8, 16)), 0x00813823u);
    EXPECT_EQ(encode(make(Op::BEQ, 0, 10, 10, 8)), 0x00a50463u);
}

/** Round-trip sweep over every op with randomized fields. */
class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, EncodeDecodeIdentity)
{
    Op op = static_cast<Op>(GetParam());
    if (op == Op::ILLEGAL)
        GTEST_SKIP() << "illegal has no canonical encoding";
    dejavuzz::Rng rng(GetParam() * 7919 + 13);
    for (int trial = 0; trial < 50; ++trial) {
        Instr instr;
        instr.op = op;
        instr.rd = static_cast<uint8_t>(rng.below(32));
        instr.rs1 = static_cast<uint8_t>(rng.below(32));
        instr.rs2 = static_cast<uint8_t>(rng.below(32));
        switch (opClass(op)) {
          case OpClass::Branch:
            instr.imm = (static_cast<int64_t>(rng.below(2048)) - 1024)
                        * 2;
            break;
          case OpClass::Jal:
            instr.imm =
                (static_cast<int64_t>(rng.below(1 << 19)) - (1 << 18)) *
                2;
            break;
          case OpClass::System:
            if (op == Op::ECALL || op == Op::EBREAK || op == Op::MRET ||
                op == Op::SRET) {
                instr.rd = instr.rs1 = instr.rs2 = 0;
                instr.imm = 0;
            } else {
                instr.imm = static_cast<int64_t>(rng.below(4096));
            }
            break;
          case OpClass::Fence:
          case OpClass::FpMove:
            instr.imm = 0;
            if (opClass(op) == OpClass::Fence)
                instr.rd = instr.rs1 = instr.rs2 = 0;
            else
                instr.rs2 = 0;
            break;
          default:
            switch (op) {
              case Op::SLLI: case Op::SRLI: case Op::SRAI:
                instr.imm = static_cast<int64_t>(rng.below(64));
                break;
              case Op::SLLIW: case Op::SRLIW: case Op::SRAIW:
                instr.imm = static_cast<int64_t>(rng.below(32));
                break;
              default:
                instr.imm =
                    static_cast<int64_t>(rng.below(4096)) - 2048;
                break;
            }
            break;
        }
        // Zero the fields the op does not use (decode normalizes
        // unused fields to zero).
        if (!readsIntRs1(op) && !fpRs1(op))
            instr.rs1 = 0;
        if (!readsIntRs2(op) && !fpRs2(op))
            instr.rs2 = 0;
        if (!writesIntRd(op) && !fpRd(op))
            instr.rd = 0;
        if (opClass(op) == OpClass::IntAlu ||
            opClass(op) == OpClass::MulDiv ||
            opClass(op) == OpClass::FpAlu ||
            opClass(op) == OpClass::FpDiv) {
            bool has_imm =
                !readsIntRs2(op) && opClass(op) == OpClass::IntAlu &&
                op != Op::LUI && op != Op::AUIPC;
            if (!has_imm && op != Op::LUI && op != Op::AUIPC)
                instr.imm = readsIntRs2(op) || fpRs2(op) ? 0 : instr.imm;
        }
        if (op == Op::LUI || op == Op::AUIPC)
            instr.imm = static_cast<int64_t>(rng.below(1 << 20));
        if (opClass(op) == OpClass::MulDiv ||
            opClass(op) == OpClass::FpAlu ||
            opClass(op) == OpClass::FpDiv ||
            (opClass(op) == OpClass::IntAlu && readsIntRs2(op)))
            instr.imm = 0;

        Instr decoded = decode(encode(instr));
        EXPECT_EQ(decoded.op, instr.op) << mnemonic(op);
        EXPECT_EQ(decoded.rd, instr.rd) << mnemonic(op);
        EXPECT_EQ(decoded.rs1, instr.rs1) << mnemonic(op);
        EXPECT_EQ(decoded.rs2, instr.rs2) << mnemonic(op);
        EXPECT_EQ(decoded.imm, instr.imm) << mnemonic(op);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, RoundTrip,
    ::testing::Range(0, static_cast<int>(Op::NumOps) - 1),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string name = mnemonic(static_cast<Op>(info.param));
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

TEST(IsaMeta, CallRetIdioms)
{
    EXPECT_TRUE(isCall(make(Op::JAL, 1, 0, 0, 64)));
    EXPECT_TRUE(isCall(make(Op::JALR, 1, 10, 0, 0)));
    EXPECT_FALSE(isCall(make(Op::JAL, 0, 0, 0, 64)));
    EXPECT_TRUE(isRet(make(Op::JALR, 0, 1, 0, 0)));
    EXPECT_FALSE(isRet(make(Op::JALR, 0, 1, 0, 4)));
    EXPECT_FALSE(isRet(make(Op::JALR, 1, 1, 0, 0)));
}

TEST(IsaMeta, AccessBytes)
{
    EXPECT_EQ(accessBytes(Op::LB), 1u);
    EXPECT_EQ(accessBytes(Op::LHU), 2u);
    EXPECT_EQ(accessBytes(Op::LW), 4u);
    EXPECT_EQ(accessBytes(Op::FLD), 8u);
    EXPECT_EQ(accessBytes(Op::SD), 8u);
    EXPECT_EQ(accessBytes(Op::ADD), 0u);
}

/** Set bits of @p value, one bit at a time. */
int
popcountReference(uint64_t value)
{
    int n = 0;
    for (unsigned bit = 0; bit < 64; ++bit)
        n += static_cast<int>((value >> bit) & 1);
    return n;
}

static_assert(popcount64(0) == 0 && popcount64(~0ULL) == 64 &&
                  popcount64(0x8000000000000001ULL) == 2,
              "popcount64 is usable in constant expressions");

TEST(Bits, Popcount64MatchesBitLoop)
{
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(~0ULL), 64);
    for (unsigned bit = 0; bit < 64; ++bit)
        EXPECT_EQ(popcount64(1ULL << bit), 1) << "bit " << bit;
    Rng rng(0x9097c0);
    for (int i = 0; i < 10000; ++i) {
        uint64_t value = rng.next();
        ASSERT_EQ(popcount64(value), popcountReference(value))
            << std::hex << value;
    }
}

TEST(Builder, LabelsResolveForwardAndBackward)
{
    ProgBuilder prog(0x1000);
    Label fwd = prog.newLabel();
    Label back = prog.newLabel();
    prog.bind(back);
    prog.nop();
    prog.branch(Op::BEQ, 0, 0, fwd);
    prog.jal(0, back);
    prog.bind(fwd);
    prog.nop();
    const auto &instrs = prog.finish();
    // beq at 0x1004 -> fwd at 0x100c: offset 8.
    EXPECT_EQ(instrs[1].imm, 8);
    // jal at 0x1008 -> back at 0x1000: offset -8.
    EXPECT_EQ(instrs[2].imm, -8);
}

TEST(Builder, PadToAligns)
{
    ProgBuilder prog(0x2000);
    prog.nop();
    prog.padTo(0x2100);
    EXPECT_EQ(prog.here(), 0x2100u);
    EXPECT_EQ(prog.size(), 0x100u / 4);
}

TEST(Builder, DisasmSmoke)
{
    EXPECT_EQ(disasm(make(Op::ADDI, 5, 6, 0, -1)), "addi t0, t1, -1");
    EXPECT_EQ(disasm(make(Op::LD, 8, 5, 0, 8)), "ld s0, 8(t0)");
    EXPECT_EQ(disasm(make(Op::JALR, 0, 1, 0, 0)), "jalr zero, 0(ra)");
}

} // namespace
} // namespace dejavuzz::isa
