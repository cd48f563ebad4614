/**
 * @file
 * Property and round-trip tests for the swappable-memory substrate:
 * instruction encode/decode (randomized round trips and
 * decode-stability over arbitrary words), address-space layout
 * invariants, swap-packet/schedule accounting, and the SwapRuntime's
 * packet loads + secret-permission transitions observed through the
 * backing memory.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "isa/encoding.hh"
#include "isa/instr.hh"
#include "swapmem/layout.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using isa::Instr;
using isa::Op;

// --- instruction encode/decode ------------------------------------------

/** Immediate shape of an operation (mirrors the RISC-V formats). */
enum class ImmKind {
    None,     ///< R-type / fixed encodings: imm must be 0
    I12,      ///< 12-bit signed
    S12,      ///< 12-bit signed (store split encoding)
    B13,      ///< 13-bit signed, even
    U20,      ///< 20-bit unsigned (LUI/AUIPC upper immediate)
    J21,      ///< 21-bit signed, even
    Shift64,  ///< [0, 63]
    Shift32,  ///< [0, 31]
    Csr12,    ///< 12-bit unsigned CSR number
};

struct OpSpec
{
    Op op;
    ImmKind imm;
};

/** Every encodable op with its immediate shape (ILLEGAL excluded —
 *  its encoding round-trips through `raw`, tested separately). */
const std::vector<OpSpec> &
opSpecs()
{
    static const std::vector<OpSpec> specs = {
        {Op::LUI, ImmKind::U20},      {Op::AUIPC, ImmKind::U20},
        {Op::JAL, ImmKind::J21},      {Op::JALR, ImmKind::I12},
        {Op::BEQ, ImmKind::B13},      {Op::BNE, ImmKind::B13},
        {Op::BLT, ImmKind::B13},      {Op::BGE, ImmKind::B13},
        {Op::BLTU, ImmKind::B13},     {Op::BGEU, ImmKind::B13},
        {Op::LB, ImmKind::I12},       {Op::LH, ImmKind::I12},
        {Op::LW, ImmKind::I12},       {Op::LD, ImmKind::I12},
        {Op::LBU, ImmKind::I12},      {Op::LHU, ImmKind::I12},
        {Op::LWU, ImmKind::I12},      {Op::SB, ImmKind::S12},
        {Op::SH, ImmKind::S12},       {Op::SW, ImmKind::S12},
        {Op::SD, ImmKind::S12},       {Op::ADDI, ImmKind::I12},
        {Op::SLTI, ImmKind::I12},     {Op::SLTIU, ImmKind::I12},
        {Op::XORI, ImmKind::I12},     {Op::ORI, ImmKind::I12},
        {Op::ANDI, ImmKind::I12},     {Op::SLLI, ImmKind::Shift64},
        {Op::SRLI, ImmKind::Shift64}, {Op::SRAI, ImmKind::Shift64},
        {Op::ADD, ImmKind::None},     {Op::SUB, ImmKind::None},
        {Op::SLL, ImmKind::None},     {Op::SLT, ImmKind::None},
        {Op::SLTU, ImmKind::None},    {Op::XOR, ImmKind::None},
        {Op::SRL, ImmKind::None},     {Op::SRA, ImmKind::None},
        {Op::OR, ImmKind::None},      {Op::AND, ImmKind::None},
        {Op::ADDIW, ImmKind::I12},    {Op::SLLIW, ImmKind::Shift32},
        {Op::SRLIW, ImmKind::Shift32},
        {Op::SRAIW, ImmKind::Shift32},
        {Op::ADDW, ImmKind::None},    {Op::SUBW, ImmKind::None},
        {Op::SLLW, ImmKind::None},    {Op::SRLW, ImmKind::None},
        {Op::SRAW, ImmKind::None},    {Op::MUL, ImmKind::None},
        {Op::MULH, ImmKind::None},    {Op::MULHU, ImmKind::None},
        {Op::DIV, ImmKind::None},     {Op::DIVU, ImmKind::None},
        {Op::REM, ImmKind::None},     {Op::REMU, ImmKind::None},
        {Op::MULW, ImmKind::None},    {Op::DIVW, ImmKind::None},
        {Op::REMW, ImmKind::None},    {Op::FENCE, ImmKind::None},
        {Op::FENCE_I, ImmKind::None}, {Op::ECALL, ImmKind::None},
        {Op::EBREAK, ImmKind::None},  {Op::MRET, ImmKind::None},
        {Op::SRET, ImmKind::None},    {Op::CSRRW, ImmKind::Csr12},
        {Op::CSRRS, ImmKind::Csr12},  {Op::CSRRC, ImmKind::Csr12},
        {Op::FLD, ImmKind::I12},      {Op::FSD, ImmKind::S12},
        {Op::FADD_D, ImmKind::None},  {Op::FSUB_D, ImmKind::None},
        {Op::FMUL_D, ImmKind::None},  {Op::FDIV_D, ImmKind::None},
        {Op::FMV_X_D, ImmKind::None}, {Op::FMV_D_X, ImmKind::None},
        {Op::SWAPNEXT, ImmKind::I12},
    };
    return specs;
}

int64_t
randomImm(Rng &rng, ImmKind kind)
{
    switch (kind) {
      case ImmKind::None:
        return 0;
      case ImmKind::I12:
      case ImmKind::S12:
        return static_cast<int64_t>(rng.below(1u << 12)) - 2048;
      case ImmKind::B13:
        return (static_cast<int64_t>(rng.below(1u << 13)) - 4096) &
               ~int64_t{1};
      case ImmKind::U20:
        return static_cast<int64_t>(rng.below(1u << 20));
      case ImmKind::J21:
        return (static_cast<int64_t>(rng.below(1u << 21)) -
                (1 << 20)) &
               ~int64_t{1};
      case ImmKind::Shift64:
        return static_cast<int64_t>(rng.below(64));
      case ImmKind::Shift32:
        return static_cast<int64_t>(rng.below(32));
      case ImmKind::Csr12:
        return static_cast<int64_t>(rng.below(1u << 12));
    }
    return 0;
}

/** A random instruction whose field population matches what the
 *  decoder's normalization produces (unused registers zero). */
Instr
randomInstr(Rng &rng, const OpSpec &spec)
{
    Instr instr;
    instr.op = spec.op;
    const bool uses_rd =
        isa::writesIntRd(spec.op) || isa::fpRd(spec.op);
    const bool uses_rs1 =
        isa::readsIntRs1(spec.op) || isa::fpRs1(spec.op);
    const bool uses_rs2 =
        isa::readsIntRs2(spec.op) || isa::fpRs2(spec.op);
    instr.rd = uses_rd ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.rs1 = uses_rs1 ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.rs2 = uses_rs2 ? static_cast<uint8_t>(rng.below(32)) : 0;
    instr.imm = randomImm(rng, spec.imm);
    return instr;
}

TEST(IsaEncoding, RandomizedEncodeDecodeRoundTrip)
{
    Rng rng(0xe9c0de);
    const auto &specs = opSpecs();
    for (int trial = 0; trial < 4000; ++trial) {
        const OpSpec &spec = rng.pick(specs);
        const Instr instr = randomInstr(rng, spec);
        const uint32_t word = isa::encode(instr);
        const Instr decoded = isa::decode(word);
        EXPECT_TRUE(decoded == instr)
            << "op " << isa::mnemonic(spec.op) << ": "
            << isa::disasm(instr) << " decoded as "
            << isa::disasm(decoded);
        EXPECT_EQ(decoded.raw, word);
    }
}

TEST(IsaEncoding, DecodeIsStableOverArbitraryWords)
{
    // decode() is total: any 32-bit word yields an instruction, and
    // one re-encode reaches a fixed point — decode(encode(i)) == i
    // and encode(decode(encode(i))) == encode(i).
    Rng rng(0xdec0de5);
    unsigned legal = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const auto word = static_cast<uint32_t>(rng.next());
        const Instr first = isa::decode(word);
        const uint32_t reencoded = isa::encode(first);
        const Instr second = isa::decode(reencoded);
        EXPECT_TRUE(second == first)
            << "word " << word << " decode not stable";
        EXPECT_EQ(isa::encode(second), reencoded);
        legal += first.op != Op::ILLEGAL;
    }
    // The property must not hold vacuously on an all-illegal sample.
    EXPECT_GT(legal, 100u);
}

TEST(IsaEncoding, IllegalWordsRoundTripThroughRaw)
{
    const Instr illegal = isa::decode(isa::kIllegalWord);
    EXPECT_EQ(illegal.op, Op::ILLEGAL);
    EXPECT_EQ(isa::encode(illegal), isa::kIllegalWord);

    // Any undecodable word is preserved bit-exactly via `raw`.
    Rng rng(0x111e9a1);
    for (int trial = 0; trial < 5000; ++trial) {
        const auto word = static_cast<uint32_t>(rng.next());
        const Instr decoded = isa::decode(word);
        if (decoded.op == Op::ILLEGAL)
            EXPECT_EQ(isa::encode(decoded), word);
    }
}

TEST(IsaEncoding, CanonicalNop)
{
    const Instr nop = isa::decode(isa::kNopWord);
    EXPECT_EQ(nop.op, Op::ADDI);
    EXPECT_EQ(nop.rd, 0);
    EXPECT_EQ(nop.rs1, 0);
    EXPECT_EQ(nop.imm, 0);
    EXPECT_EQ(isa::encode(nop), isa::kNopWord);
}

// --- address-space layout invariants ------------------------------------

TEST(SwapLayout, RegionsArePageAlignedDisjointAndInRange)
{
    using namespace swapmem;
    struct Region
    {
        const char *name;
        uint64_t base;
        uint64_t size;
    };
    const Region regions[] = {
        {"shared", kSharedBase, kSharedSize},
        {"swappable", kSwapBase, kSwapSize},
        {"dedicated", kDedicatedBase, kDedicatedSize},
        {"data", kDataBase, kDataSize},
    };
    for (const Region &region : regions) {
        EXPECT_EQ(region.base % kPageBytes, 0u)
            << region.name << " base not page-aligned";
        EXPECT_EQ(region.size % kPageBytes, 0u)
            << region.name << " size not page-granular";
        EXPECT_LE(region.base + region.size, kMemBytes)
            << region.name << " exceeds the physical image";
        EXPECT_GT(region.size, 0u);
    }
    for (const Region &a : regions) {
        for (const Region &b : regions) {
            if (a.base == b.base)
                continue;
            const bool disjoint = a.base + a.size <= b.base ||
                                  b.base + b.size <= a.base;
            EXPECT_TRUE(disjoint)
                << a.name << " overlaps " << b.name;
        }
    }
}

TEST(SwapLayout, BlocksSitInsideTheirRegions)
{
    using namespace swapmem;
    EXPECT_GE(kSecretAddr, kDedicatedBase);
    EXPECT_LE(kSecretAddr + kSecretBytes,
              kDedicatedBase + kDedicatedSize);
    EXPECT_GE(kOperandAddr, kDedicatedBase);
    EXPECT_LE(kOperandAddr + kOperandBytes,
              kDedicatedBase + kDedicatedSize);
    // Secret and operand blocks must not overlap.
    EXPECT_LE(kSecretAddr + kSecretBytes, kOperandAddr);

    EXPECT_GE(kLeakArrayAddr, kDataBase);
    EXPECT_LE(kLeakArrayAddr + kLeakArrayBytes, kDataBase + kDataSize);
    EXPECT_GE(kScratchAddr, kDataBase);
    EXPECT_LE(kScratchAddr + kScratchBytes, kDataBase + kDataSize);
    EXPECT_LE(kLeakArrayAddr + kLeakArrayBytes, kScratchAddr);

    EXPECT_GE(kTrapVector, kSharedBase);
    EXPECT_LT(kTrapVector, kSharedBase + kSharedSize);
    EXPECT_GE(kResetVector, kSharedBase);
    EXPECT_LT(kResetVector, kSharedBase + kSharedSize);

    // The unmapped hole really is outside every mapped region but
    // inside the physical image.
    EXPECT_EQ(kUnmappedAddr, kDataBase + kDataSize);
    EXPECT_LT(kUnmappedAddr, kMemBytes);
}

// --- swap packets and schedules -----------------------------------------

swapmem::SwapPacket
makePacket(swapmem::PacketKind kind, std::vector<Instr> instrs,
           const char *label)
{
    swapmem::SwapPacket packet;
    packet.label = label;
    packet.kind = kind;
    packet.instrs = std::move(instrs);
    return packet;
}

Instr
nop()
{
    return isa::decode(isa::kNopWord);
}

TEST(SwapSchedule, OverheadAccountingAndReduction)
{
    using swapmem::PacketKind;
    swapmem::SwapSchedule schedule;
    schedule.packets = {
        makePacket(PacketKind::TriggerTrain,
                   {Instr{Op::ADDI, 5, 6, 0, 1, 0}, nop(), nop()},
                   "t0"),
        makePacket(PacketKind::WindowTrain,
                   {Instr{Op::LD, 10, 11, 0, 8, 0}, nop()}, "w0"),
        makePacket(PacketKind::Transient,
                   {Instr{Op::LD, 12, 13, 0, 0, 0},
                    Instr{Op::SWAPNEXT, 0, 0, 0, 0, 0}},
                   "x"),
    };

    EXPECT_EQ(schedule.transientIndex(), 2u);
    // TO counts every training instruction, ETO only non-nops; the
    // transient packet never counts toward either.
    EXPECT_EQ(schedule.trainingOverhead(), 5u);
    EXPECT_EQ(schedule.effectiveTrainingOverhead(), 2u);

    const swapmem::SwapSchedule reduced = schedule.without(1);
    ASSERT_EQ(reduced.packets.size(), 2u);
    EXPECT_EQ(reduced.packets[0].label, "t0");
    EXPECT_EQ(reduced.packets[1].label, "x");
    EXPECT_EQ(reduced.transientIndex(), 1u);
    EXPECT_EQ(reduced.transient_prot, schedule.transient_prot);
    EXPECT_EQ(reduced.trainingOverhead(), 3u);
    // The original schedule is untouched.
    EXPECT_EQ(schedule.packets.size(), 3u);
}

TEST(SwapRuntime, PacketLoadsRoundTripThroughMemory)
{
    using swapmem::PacketKind;
    Rng rng(0x5aa9);
    const auto &specs = opSpecs();

    swapmem::SwapSchedule schedule;
    schedule.transient_prot = swapmem::SecretProt::Pmp;
    std::vector<std::vector<Instr>> expected;
    const PacketKind kinds[] = {PacketKind::TriggerTrain,
                                PacketKind::WindowTrain,
                                PacketKind::Transient};
    for (PacketKind kind : kinds) {
        std::vector<Instr> instrs;
        const size_t count = 1 + rng.below(16);
        for (size_t i = 0; i < count; ++i)
            instrs.push_back(randomInstr(rng, rng.pick(specs)));
        expected.push_back(instrs);
        schedule.packets.push_back(
            makePacket(kind, std::move(instrs), "pkt"));
    }

    swapmem::Memory mem;
    swapmem::SwapRuntime runtime(schedule);
    uint64_t entry = runtime.start(mem);
    EXPECT_EQ(entry, swapmem::kSwapBase);

    for (size_t p = 0; p < schedule.packets.size(); ++p) {
        ASSERT_FALSE(runtime.done());
        EXPECT_EQ(runtime.cursor(), p);
        // The loaded region holds the genuine RISC-V encodings:
        // fetching and decoding them recovers the packet bit-exactly.
        for (size_t i = 0; i < expected[p].size(); ++i) {
            const uint32_t word =
                mem.fetchWord(swapmem::kSwapBase + 4 * i);
            EXPECT_TRUE(isa::decode(word) == expected[p][i])
                << "packet " << p << " instr " << i;
        }
        // Words past the packet are zeroed by the reload.
        const uint32_t after = mem.fetchWord(
            swapmem::kSwapBase + 4 * expected[p].size());
        EXPECT_EQ(after, 0u);

        // The secret opens up for training and locks down exactly
        // when the transient packet is entered.
        const bool transient = schedule.packets[p].kind ==
                               PacketKind::Transient;
        EXPECT_EQ(mem.secretProt(),
                  transient ? swapmem::SecretProt::Pmp
                            : swapmem::SecretProt::Open)
            << "packet " << p;
        entry = runtime.advance(mem);
    }
    EXPECT_TRUE(runtime.done());
    EXPECT_EQ(entry, 0u);
}

// --- memory undo log ----------------------------------------------------

/** Everything a Memory exposes: bytes, per-byte taint, the flags. */
struct MemState
{
    std::vector<uint8_t> bytes;
    std::vector<uint8_t> taint;
    swapmem::SecretProt prot;
    bool victim_supervisor;
    bool secret_swapped;

    bool operator==(const MemState &) const = default;
};

MemState
observe(const swapmem::Memory &mem)
{
    MemState state;
    state.bytes.resize(swapmem::kMemBytes);
    state.taint.resize(swapmem::kMemBytes);
    for (uint64_t addr = 0; addr < swapmem::kMemBytes; ++addr) {
        state.bytes[addr] = mem.byte(addr);
        state.taint[addr] = mem.read(addr, 1).t != 0;
    }
    state.prot = mem.secretProt();
    state.victim_supervisor = mem.victimSupervisor();
    state.secret_swapped = mem.secretSwapped();
    return state;
}

/** An address biased toward the secret block, occasionally out of
 *  the image (stores there are dropped). */
uint64_t
randomAddr(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return swapmem::kSecretAddr + rng.below(swapmem::kSecretBytes);
      case 1:
        return swapmem::kMemBytes - 8 + rng.below(16);
      default:
        return rng.below(swapmem::kMemBytes);
    }
}

/** One random Memory mutation: a byte-level store or a flag flip. */
void
mutate(swapmem::Memory &mem, Rng &rng)
{
    switch (rng.below(7)) {
      case 0:
        mem.setByte(randomAddr(rng), static_cast<uint8_t>(rng.next()),
                    rng.chance(1, 2));
        break;
      case 1: {
        const unsigned widths[] = {1, 2, 4, 8};
        mem.write(randomAddr(rng), widths[rng.below(4)],
                  ift::TV{rng.next(), rng.chance(1, 2) ? rng.next() : 0});
        break;
      }
      case 2: {
        std::vector<uint32_t> words(1 + rng.below(32));
        for (uint32_t &word : words)
            word = static_cast<uint32_t>(rng.next());
        mem.loadBlock(randomAddr(rng), words.data(), words.size());
        break;
      }
      case 3:
        mem.zeroRange(randomAddr(rng), rng.below(256));
        break;
      case 4:
        mem.setSecretProt(
            static_cast<swapmem::SecretProt>(rng.below(3)));
        break;
      case 5:
        mem.setVictimSupervisor(rng.chance(1, 2));
        break;
      default:
        mem.applySecretSwap();
        break;
    }
}

TEST(MemoryUndo, RollbackRestoresBytesTaintAndFlags)
{
    // Property: whatever happens inside an undo window — stores,
    // packet-style block loads and zero fills, secret-protection,
    // victim-placement and secret-swap flips — rollbackUndo restores
    // the exact state at beginUndo, flags included; discardUndo keeps
    // the window's changes.
    Rng rng(0x0d0109);
    swapmem::Memory mem;
    unsigned flag_flips = 0;
    for (int trial = 0; trial < 60; ++trial) {
        mem.reset();
        uint8_t secret[swapmem::kSecretBytes];
        for (uint8_t &byte : secret)
            byte = static_cast<uint8_t>(rng.next());
        mem.installSecret(secret, sizeof(secret));
        for (unsigned i = rng.below(8); i > 0; --i)
            mutate(mem, rng);
        const MemState before = observe(mem);

        mem.beginUndo();
        for (unsigned i = 1 + rng.below(24); i > 0; --i)
            mutate(mem, rng);
        const MemState after = observe(mem);
        flag_flips += after.prot != before.prot ||
                      after.victim_supervisor != before.victim_supervisor ||
                      after.secret_swapped != before.secret_swapped;
        if (rng.chance(1, 4)) {
            mem.discardUndo();
            EXPECT_TRUE(observe(mem) == after) << "trial " << trial;
            continue;
        }
        mem.rollbackUndo();
        EXPECT_TRUE(observe(mem) == before) << "trial " << trial;
    }
    // The flags must actually have moved inside some windows.
    EXPECT_GT(flag_flips, 10u);
}

} // namespace
} // namespace dejavuzz
