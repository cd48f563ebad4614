/**
 * @file
 * Property and round-trip tests for the swappable-memory substrate:
 * instruction encode/decode (randomized round trips and
 * decode-stability over arbitrary words), address-space layout
 * invariants, swap-packet/schedule accounting, the SwapRuntime's
 * packet loads + secret-permission transitions observed through the
 * backing memory (residue clearing, no allocation once warm), and the
 * Memory store/read paths against a byte-at-a-time reference.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "isa/encoding.hh"
#include "isa/instr.hh"
#include "swapmem/layout.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "util/rng.hh"

namespace {

/** Calls of the global operator new in this test binary. */
uint64_t g_heap_allocs = 0;

} // namespace

// The replacements pair malloc with free. They stay out of line: once
// inlined into a `delete` expression, GCC sees free() applied to an
// operator-new result and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    ++g_heap_allocs;
    if (void *ptr = std::malloc(bytes == 0 ? 1 : bytes))
        return ptr;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

[[gnu::noinline]] void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

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
        if (decoded.op == Op::ILLEGAL) {
            EXPECT_EQ(isa::encode(decoded), word);
        }
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

/** A schedule of one packet per kind, each of 1..@p max_instrs random
 *  instructions; @p expected receives every packet's instructions. */
swapmem::SwapSchedule
randomSchedule(Rng &rng, size_t max_instrs,
               std::vector<std::vector<Instr>> &expected)
{
    using swapmem::PacketKind;
    const auto &specs = opSpecs();
    swapmem::SwapSchedule schedule;
    schedule.transient_prot = swapmem::SecretProt::Pmp;
    const PacketKind kinds[] = {PacketKind::TriggerTrain,
                                PacketKind::WindowTrain,
                                PacketKind::Transient};
    for (PacketKind kind : kinds) {
        std::vector<Instr> instrs;
        const size_t count = 1 + rng.below(max_instrs);
        for (size_t i = 0; i < count; ++i)
            instrs.push_back(randomInstr(rng, rng.pick(specs)));
        expected.push_back(instrs);
        schedule.packets.push_back(
            makePacket(kind, std::move(instrs), "pkt"));
    }
    return schedule;
}

TEST(SwapRuntime, PacketLoadsRoundTripThroughMemory)
{
    using swapmem::PacketKind;
    Rng rng(0x5aa9);
    std::vector<std::vector<Instr>> expected;
    const swapmem::SwapSchedule schedule =
        randomSchedule(rng, 16, expected);

    // Addresses of residue planted before the next load.
    std::vector<uint64_t> residue;

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
            EXPECT_EQ(mem.read(swapmem::kSwapBase + 4 * i, 4).t, 0u)
                << "packet " << p << " instr " << i;
        }
        // Words past the packet are zeroed by the reload.
        const uint32_t after = mem.fetchWord(
            swapmem::kSwapBase + 4 * expected[p].size());
        EXPECT_EQ(after, 0u);
        // So is the residue planted before this load, wherever the
        // new packet does not cover it.
        const uint64_t end = swapmem::kSwapBase + 4 * expected[p].size();
        for (uint64_t addr : residue) {
            EXPECT_EQ(mem.read(addr, 1).t, 0u)
                << "packet " << p << " residue at " << addr;
            if (addr >= end) {
                EXPECT_EQ(mem.byte(addr), 0u)
                    << "packet " << p << " residue at " << addr;
            }
        }

        // The secret opens up for training and locks down exactly
        // when the transient packet is entered.
        const bool transient = schedule.packets[p].kind ==
                               PacketKind::Transient;
        EXPECT_EQ(mem.secretProt(),
                  transient ? swapmem::SecretProt::Pmp
                            : swapmem::SecretProt::Open)
            << "packet " << p;

        // Plant residue the next load must clear: tainted non-zero
        // bytes just past this packet's end (U-mode stores may write
        // the swappable region) and in the region's last word.
        residue.clear();
        for (unsigned i = 0; i < 8; ++i)
            residue.push_back(end + rng.below(96));
        for (uint64_t i = 1; i <= 4; ++i)
            residue.push_back(swapmem::kSwapBase + swapmem::kSwapSize - i);
        for (uint64_t addr : residue)
            mem.setByte(addr, static_cast<uint8_t>(1 + rng.below(255)),
                        true);
        // A tainted zero byte too: zero data alone is not clean.
        residue.push_back(end + 96 + rng.below(32));
        mem.setByte(residue.back(), 0, true);
        entry = runtime.advance(mem);
    }
    EXPECT_TRUE(runtime.done());
    EXPECT_EQ(entry, 0u);
}

TEST(SwapRuntime, WarmPacketLoadsDoNotAllocate)
{
    // The allocation-free steady state covers packet loads: once one
    // run over a schedule has warmed the memory, start and every
    // advance allocate nothing.
    Rng rng(0xa110c);
    std::vector<std::vector<Instr>> expected;
    const swapmem::SwapSchedule schedule =
        randomSchedule(rng, 256, expected);
    swapmem::Memory mem;
    swapmem::SwapRuntime warm(schedule);
    warm.start(mem);
    while (!warm.done())
        warm.advance(mem);

    swapmem::SwapRuntime runtime(schedule);
    uint64_t before = g_heap_allocs;
    runtime.start(mem);
    EXPECT_EQ(g_heap_allocs - before, 0u) << "start";
    while (!runtime.done()) {
        const size_t cursor = runtime.cursor();
        before = g_heap_allocs;
        runtime.advance(mem);
        EXPECT_EQ(g_heap_allocs - before, 0u) << "advance from " << cursor;
    }
}

TEST(SwapRuntime, WarmDualRunsDoNotAllocate)
{
    // The allocation-free steady state covers the whole lockstep
    // diffIFT run, not only packet loads: once one pass over the PoC
    // suite has sized every pooled buffer, a runDual with the taint
    // log and sinks on allocates nothing — per tick, per checkpoint
    // or per result.
    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.taint_log = true;
    options.sinks = true;
    const std::vector<bench::Poc> suite = bench::pocSuite();
    for (const uarch::CoreConfig &config :
         {uarch::smallBoomConfig(), uarch::xiangshanMinimalConfig()}) {
        harness::DualSim sim(config);
        harness::DualResult result;
        for (const bench::Poc &poc : suite)
            sim.runDual(poc.schedule, poc.data, options, result);
        for (const bench::Poc &poc : suite) {
            const uint64_t before = g_heap_allocs;
            sim.runDual(poc.schedule, poc.data, options, result);
            EXPECT_EQ(g_heap_allocs - before, 0u)
                << config.name << " " << poc.name;
        }
    }
}

// --- memory stores against a reference ------------------------------------

/**
 * Everything a Memory exposes: bytes, per-byte taint, the flags. Also
 * the byte-at-a-time reference the store tests apply each mutation to.
 */
struct MemState
{
    std::vector<uint8_t> bytes;
    std::vector<uint8_t> taint;
    swapmem::SecretProt prot = swapmem::SecretProt::Open;
    bool victim_supervisor = false;
    bool secret_swapped = false;

    bool operator==(const MemState &) const = default;

    /** Reference store of one byte; dropped outside the image. */
    void
    store(uint64_t addr, uint8_t value, bool tainted)
    {
        if (addr >= swapmem::kMemBytes)
            return;
        bytes[addr] = value;
        taint[addr] = tainted;
    }

    /** Reference little-endian store; a byte is tainted when any bit
     *  of its taint byte is set. */
    void
    storeTV(uint64_t addr, unsigned width, ift::TV tv)
    {
        for (unsigned i = 0; i < width; ++i) {
            store(addr + i, static_cast<uint8_t>(tv.v >> (8 * i)),
                  ((tv.t >> (8 * i)) & 0xff) != 0);
        }
    }
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

/** An address biased toward the secret block, page boundaries and
 *  the image end, occasionally out of the image (stores there are
 *  dropped). */
uint64_t
randomAddr(Rng &rng)
{
    constexpr uint64_t kPages = swapmem::kMemBytes / swapmem::kPageBytes;
    switch (rng.below(5)) {
      case 0:
        return swapmem::kSecretAddr + rng.below(swapmem::kSecretBytes);
      case 1:
        return swapmem::kMemBytes - 8 + rng.below(16);
      case 2:
        // Just below a page boundary, so wide stores straddle it.
        return (1 + rng.below(kPages - 1)) * swapmem::kPageBytes - 1 -
               rng.below(8);
      default:
        return rng.below(swapmem::kMemBytes);
    }
}

/** The TV a width-@p width store of @p tv leaves behind: value bytes
 *  as given, each taint byte widened to 0x00/0xff. */
ift::TV
storedView(ift::TV tv, unsigned width)
{
    ift::TV view;
    for (unsigned i = 0; i < width; ++i) {
        view.v |= ((tv.v >> (8 * i)) & 0xff) << (8 * i);
        if ((tv.t >> (8 * i)) & 0xff)
            view.t |= 0xffULL << (8 * i);
    }
    return view;
}

/**
 * One random Memory mutation, applied to @p model as well: a store, a
 * block load or zero fill (sometimes spanning pages or running past
 * the image end), a no-op store of the bytes already there, or a flag
 * flip. Each store is read back. Returns the address it stored at (a
 * random one for flag flips).
 */
uint64_t
mutate(swapmem::Memory &mem, MemState &model, Rng &rng)
{
    const unsigned widths[] = {1, 2, 4, 8};
    const unsigned width = widths[rng.below(4)];
    const uint64_t addr = randomAddr(rng);
    const bool in_image = addr + width <= swapmem::kMemBytes;
    const size_t words = rng.chance(1, 4) ? 1 + rng.below(2048)
                                          : 1 + rng.below(32);
    std::vector<uint32_t> block(words);
    const ift::TV old = mem.read(addr, 8);
    const uint64_t kind = rng.below(11);
    switch (kind) {
      case 0: {
        const ift::TV tv{rng.next(), rng.chance(1, 2) ? rng.next() : 0};
        mem.setByte(addr, static_cast<uint8_t>(tv.v), tv.t & 1);
        model.store(addr, static_cast<uint8_t>(tv.v), tv.t & 1);
        if (in_image) {
            EXPECT_EQ(mem.read(addr, 1), storedView({tv.v, tv.t & 1}, 1))
                << "setByte(" << addr << ")";
        }
        break;
      }
      case 1:
      case 2: {
        // Case 2 keeps the value and often sets one taint bit only,
        // so any bit of a taint byte must count.
        uint64_t taint = rng.chance(1, 2) ? rng.next() : 0;
        if (kind == 2 && rng.chance(1, 2))
            taint = 1ULL << rng.below(8 * width);
        const ift::TV tv{kind == 1 ? rng.next() : mem.read(addr, width).v,
                         taint};
        mem.write(addr, width, tv);
        model.storeTV(addr, width, tv);
        if (in_image) {
            EXPECT_EQ(mem.read(addr, width), storedView(tv, width))
                << "write(" << addr << ", " << width << ")";
        }
        break;
      }
      case 3:
      case 4:
        // Case 4 writes the current words back: a no-op wherever the
        // bytes are untainted, a taint clear elsewhere.
        for (size_t i = 0; i < block.size(); ++i) {
            block[i] = kind == 3 ? static_cast<uint32_t>(rng.next())
                                 : mem.fetchWord(addr + 4 * i);
        }
        mem.loadBlock(addr, block.data(), block.size());
        for (size_t i = 0; i < block.size(); ++i)
            model.storeTV(addr + 4 * i, 4, ift::TV{block[i], 0});
        for (size_t i = 0; i < block.size(); ++i) {
            const uint64_t a = addr + 4 * i;
            if (a + 4 <= swapmem::kMemBytes) {
                EXPECT_EQ(mem.read(a, 4), (ift::TV{block[i], 0}))
                    << "loadBlock word at " << a;
            }
        }
        break;
      case 5:
        mem.zeroRange(addr, 4 * words);
        for (uint64_t a = addr; a < addr + 4 * words; ++a)
            model.store(a, 0, false);
        for (uint64_t a = addr;
             a < addr + 4 * words && a < swapmem::kMemBytes; ++a) {
            EXPECT_EQ(mem.read(a, 1), (ift::TV{0, 0}))
                << "zeroRange byte at " << a;
        }
        break;
      case 6:
        mem.setByte(addr, mem.byte(addr), mem.read(addr, 1).t != 0);
        EXPECT_EQ(mem.read(addr, 8), old) << "no-op setByte(" << addr << ")";
        break;
      case 7:
        mem.write(addr, width, mem.read(addr, width));
        EXPECT_EQ(mem.read(addr, 8), old)
            << "no-op write(" << addr << ", " << width << ")";
        break;
      case 8:
        model.prot = static_cast<swapmem::SecretProt>(rng.below(3));
        mem.setSecretProt(model.prot);
        break;
      case 9:
        model.victim_supervisor = rng.chance(1, 2);
        mem.setVictimSupervisor(model.victim_supervisor);
        break;
      default:
        mem.applySecretSwap();
        if (!model.secret_swapped) {
            for (uint64_t i = 0; i < swapmem::kSecretBytes; ++i) {
                const uint64_t a = swapmem::kSecretAddr + i;
                model.store(a, model.bytes[a] ^ 0x5a, true);
            }
            model.secret_swapped = true;
        }
        break;
    }
    return addr;
}

/** read() at widths 2/4/8 and fetchWord() at @p addr agree with the
 *  view assembled byte by byte from byte() and read(·, 1). */
void
expectWideReadsMatchBytes(const swapmem::Memory &mem, uint64_t addr)
{
    for (unsigned width : {2u, 4u, 8u}) {
        ift::TV view;
        for (unsigned i = 0; i < width; ++i) {
            view.v |= uint64_t{mem.byte(addr + i)} << (8 * i);
            view.t |= (mem.read(addr + i, 1).t & 0xff) << (8 * i);
        }
        const ift::TV tv = mem.read(addr, width);
        EXPECT_EQ(tv.v, view.v) << "read(" << addr << ", " << width << ")";
        EXPECT_EQ(tv.t, view.t) << "read(" << addr << ", " << width << ")";
        if (width == 4) {
            EXPECT_EQ(mem.fetchWord(addr), view.v)
                << "fetchWord(" << addr << ")";
        }
    }
}

/** Mutate, then check wide reads at the stored address, unaligned
 *  just below it, and at a random (often edge) address. */
void
mutateAndCheckReads(swapmem::Memory &mem, MemState &model, Rng &rng)
{
    const uint64_t addr = mutate(mem, model, rng);
    expectWideReadsMatchBytes(mem, addr);
    expectWideReadsMatchBytes(mem, addr - 1 - rng.below(7));
    expectWideReadsMatchBytes(mem, randomAddr(rng));
}

TEST(MemoryStore, StoresMatchByteReferenceThroughResetAndCopy)
{
    // Property: after any sequence of stores, no-op stores,
    // packet-style block loads and zero fills across pages and the
    // image end, and secret-protection, victim-placement and
    // secret-swap flips, the Memory holds exactly what a
    // byte-at-a-time reference holds, flags included. Each store reads
    // back, wide reads agree with the byte view throughout, and
    // reset() and copyFrom() see every page a store wrote.
    Rng rng(0x0d0109);
    swapmem::Memory mem;
    swapmem::Memory copy;
    const MemState pristine = observe(mem);
    unsigned flag_changes = 0;
    for (int trial = 0; trial < 60; ++trial) {
        // reset() and copyFrom() touch only dirty pages, so these
        // checks also catch a store that failed to mark a page.
        mem.reset();
        EXPECT_TRUE(observe(mem) == pristine) << "trial " << trial;
        MemState model = pristine;
        uint8_t secret[swapmem::kSecretBytes];
        for (uint8_t &byte : secret)
            byte = static_cast<uint8_t>(rng.next());
        mem.installSecret(secret, sizeof(secret));
        for (uint64_t i = 0; i < swapmem::kSecretBytes; ++i)
            model.store(swapmem::kSecretAddr + i, secret[i], true);

        for (unsigned i = 1 + rng.below(32); i > 0; --i)
            mutateAndCheckReads(mem, model, rng);
        EXPECT_TRUE(observe(mem) == model) << "trial " << trial;
        // A copy over a differently dirtied image (the previous
        // trial's) must clear what only that image wrote.
        copy.copyFrom(mem);
        EXPECT_TRUE(observe(copy) == model) << "trial " << trial;
        flag_changes += model.prot != pristine.prot ||
                        model.victim_supervisor !=
                            pristine.victim_supervisor ||
                        model.secret_swapped != pristine.secret_swapped;
    }
    // The flags must actually have moved in some trials, so reset()
    // and copyFrom() are seen to carry them.
    EXPECT_GT(flag_changes, 10u);
}

} // namespace
} // namespace dejavuzz
