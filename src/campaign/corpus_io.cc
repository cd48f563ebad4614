/**
 * @file
 * Campaign binary-IO primitives (io_util.hh) and corpus persistence
 * (SharedCorpus::saveTo / loadFrom).
 *
 * The corpus on-disk layout is the versioned little-endian binary
 * format specified in docs/campaign-format.md: an 8-byte magic +
 * version header carrying the saving campaign's master seed, followed
 * by the retained entries in canonical (gain desc, worker, seq)
 * order. Each entry serializes its full admission metadata (gain,
 * author worker, author-local sequence number, core config name) and
 * the complete test case, so a resumed campaign can both re-admit and
 * re-execute every saved seed. Loading is strict: any truncation,
 * size bound violation, or out-of-range enum value fails the whole
 * load — and no count field is trusted to size an allocation before
 * the bytes it promises have actually been read.
 */

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "campaign/corpus.hh"
#include "campaign/io_util.hh"

namespace dejavuzz::campaign::bio {

// --- little-endian primitives ---------------------------------------------

void
putU8(std::ostream &os, uint8_t value)
{
    os.put(static_cast<char>(value));
}

void
putU32(std::ostream &os, uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        os.put(static_cast<char>((value >> shift) & 0xff));
}

void
putU64(std::ostream &os, uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        os.put(static_cast<char>((value >> shift) & 0xff));
}

void
putI64(std::ostream &os, int64_t value)
{
    putU64(os, static_cast<uint64_t>(value));
}

void
putString(std::ostream &os, const std::string &text)
{
    putU32(os, static_cast<uint32_t>(text.size()));
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// --- Reader ----------------------------------------------------------------

bool
Reader::fail(const std::string &what)
{
    if (error.empty())
        error = what;
    return false;
}

bool
Reader::bytes(void *out, size_t count, const char *what)
{
    if (!error.empty())
        return false;
    is.read(static_cast<char *>(out),
            static_cast<std::streamsize>(count));
    if (static_cast<size_t>(is.gcount()) != count)
        return fail(std::string("truncated ") + what);
    return true;
}

bool
Reader::u8(uint8_t &out, const char *what)
{
    return bytes(&out, 1, what);
}

bool
Reader::u32(uint32_t &out, const char *what)
{
    uint8_t raw[4];
    if (!bytes(raw, sizeof(raw), what))
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= static_cast<uint32_t>(raw[i]) << (8 * i);
    return true;
}

bool
Reader::u64(uint64_t &out, const char *what)
{
    uint8_t raw[8];
    if (!bytes(raw, sizeof(raw), what))
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<uint64_t>(raw[i]) << (8 * i);
    return true;
}

bool
Reader::i64(int64_t &out, const char *what)
{
    uint64_t raw = 0;
    if (!u64(raw, what))
        return false;
    out = static_cast<int64_t>(raw);
    return true;
}

bool
Reader::str(std::string &out, const char *what)
{
    uint32_t length = 0;
    if (!u32(length, what))
        return false;
    if (length > kMaxStringBytes)
        return fail(std::string("oversized string in ") + what);
    out.resize(length);
    return length == 0 || bytes(out.data(), length, what);
}

bool
Reader::count(uint32_t &out, uint32_t limit, const char *what)
{
    if (!u32(out, what))
        return false;
    if (out > limit)
        return fail(std::string("oversized count in ") + what);
    return true;
}

bool
readBool(Reader &in, bool &out, const char *what)
{
    uint8_t raw = 0;
    if (!in.u8(raw, what))
        return false;
    if (raw > 1)
        return in.fail(std::string("non-boolean ") + what);
    out = raw != 0;
    return true;
}

bool
readIndex(Reader &in, size_t &out, const char *what)
{
    uint64_t raw = 0;
    if (!in.u64(raw, what))
        return false;
    if (raw > std::numeric_limits<size_t>::max())
        return in.fail(std::string("oversized ") + what);
    out = static_cast<size_t>(raw);
    return true;
}

// --- test-case payload ------------------------------------------------------

namespace {

void
writeInstr(std::ostream &os, const isa::Instr &instr)
{
    putU8(os, static_cast<uint8_t>(instr.op));
    putU8(os, instr.rd);
    putU8(os, instr.rs1);
    putU8(os, instr.rs2);
    putI64(os, instr.imm);
    putU32(os, instr.raw);
}

bool
readInstr(Reader &in, isa::Instr &instr)
{
    return in.enumByte(instr.op,
                       static_cast<unsigned>(isa::Op::NumOps),
                       "instr.op") &&
           in.u8(instr.rd, "instr.rd") &&
           in.u8(instr.rs1, "instr.rs1") &&
           in.u8(instr.rs2, "instr.rs2") &&
           in.i64(instr.imm, "instr.imm") &&
           in.u32(instr.raw, "instr.raw");
}

} // namespace

void
writeTestCase(std::ostream &os, const core::TestCase &tc)
{
    putU64(os, tc.seed.id);
    putU8(os, static_cast<uint8_t>(tc.seed.trigger));
    putU64(os, tc.seed.entropy);
    putU8(os, tc.seed.window.meltdown ? 1 : 0);
    putU8(os, static_cast<uint8_t>(tc.seed.window.prot));
    putU8(os, tc.seed.window.mask_high_bits ? 1 : 0);
    putU32(os, tc.seed.window.encode_ops);
    putU64(os, tc.seed.window.encode_entropy);

    putU8(os, static_cast<uint8_t>(tc.schedule.transient_prot));
    putU32(os, static_cast<uint32_t>(tc.schedule.packets.size()));
    for (const auto &packet : tc.schedule.packets) {
        putString(os, packet.label);
        putU8(os, static_cast<uint8_t>(packet.kind));
        putU64(os, packet.entry);
        putU32(os, static_cast<uint32_t>(packet.instrs.size()));
        for (const auto &instr : packet.instrs)
            writeInstr(os, instr);
    }

    putU32(os, static_cast<uint32_t>(tc.data.secret.size()));
    os.write(reinterpret_cast<const char *>(tc.data.secret.data()),
             static_cast<std::streamsize>(tc.data.secret.size()));
    putU32(os, static_cast<uint32_t>(tc.data.operands.size()));
    for (uint64_t operand : tc.data.operands)
        putU64(os, operand);

    putU64(os, tc.trigger_addr);
    putU64(os, tc.window_addr);
    putU64(os, tc.window_begin);
    putU64(os, tc.window_end);
    putU64(os, tc.encode_begin);
    putU64(os, tc.encode_end);
    putU8(os, tc.has_window_payload ? 1 : 0);

    // The attack model and its schedule projections.
    putU8(os, static_cast<uint8_t>(tc.seed.model.tmpl));
    putU8(os, static_cast<uint8_t>(tc.seed.model.attacker));
    putU8(os, static_cast<uint8_t>(tc.seed.model.victim));
    putU8(os, tc.seed.model.supervisor_victim ? 1 : 0);
    putU8(os, tc.schedule.victim_supervisor ? 1 : 0);
    putU8(os, tc.schedule.double_fetch ? 1 : 0);
}

bool
readTestCase(Reader &in, core::TestCase &tc)
{
    if (!in.u64(tc.seed.id, "seed.id") ||
        !in.enumByte(tc.seed.trigger, core::kTriggerKinds,
                     "seed.trigger") ||
        !in.u64(tc.seed.entropy, "seed.entropy") ||
        !readBool(in, tc.seed.window.meltdown, "window.meltdown") ||
        !in.enumByte(tc.seed.window.prot,
                     static_cast<unsigned>(swapmem::SecretProt::Pte) +
                         1,
                     "window.prot") ||
        !readBool(in, tc.seed.window.mask_high_bits,
                  "window.mask_high_bits") ||
        !in.u32(tc.seed.window.encode_ops, "window.encode_ops") ||
        !in.u64(tc.seed.window.encode_entropy,
                "window.encode_entropy")) {
        return false;
    }

    if (!in.enumByte(tc.schedule.transient_prot,
                     static_cast<unsigned>(swapmem::SecretProt::Pte) +
                         1,
                     "schedule.transient_prot")) {
        return false;
    }
    uint32_t packet_count = 0;
    if (!in.count(packet_count, kMaxPackets, "schedule.packets"))
        return false;
    tc.schedule.packets.clear();
    tc.schedule.packets.reserve(
        std::min(packet_count, kMaxReserveItems));
    for (uint32_t p = 0; p < packet_count; ++p) {
        swapmem::SwapPacket packet;
        if (!in.str(packet.label, "packet.label") ||
            !in.enumByte(packet.kind,
                         static_cast<unsigned>(
                             swapmem::PacketKind::Transient) +
                             1,
                         "packet.kind") ||
            !in.u64(packet.entry, "packet.entry")) {
            return false;
        }
        uint32_t instr_count = 0;
        if (!in.count(instr_count, kMaxInstrs, "packet.instrs"))
            return false;
        packet.instrs.clear();
        packet.instrs.reserve(
            std::min(instr_count, kMaxReserveItems));
        for (uint32_t i = 0; i < instr_count; ++i) {
            isa::Instr instr;
            if (!readInstr(in, instr))
                return false;
            packet.instrs.push_back(instr);
        }
        tc.schedule.packets.push_back(std::move(packet));
    }

    uint32_t secret_bytes = 0;
    if (!in.u32(secret_bytes, "data.secret"))
        return false;
    if (secret_bytes != tc.data.secret.size())
        return in.fail("secret block size mismatch");
    if (!in.bytes(tc.data.secret.data(), tc.data.secret.size(),
                  "data.secret")) {
        return false;
    }
    uint32_t operand_count = 0;
    if (!in.count(operand_count, kMaxVectorItems, "data.operands"))
        return false;
    tc.data.operands.clear();
    tc.data.operands.reserve(
        std::min(operand_count, kMaxReserveItems));
    for (uint32_t i = 0; i < operand_count; ++i) {
        uint64_t operand = 0;
        if (!in.u64(operand, "data.operand"))
            return false;
        tc.data.operands.push_back(operand);
    }

    if (!in.u64(tc.trigger_addr, "trigger_addr") ||
        !in.u64(tc.window_addr, "window_addr") ||
        !readIndex(in, tc.window_begin, "window_begin") ||
        !readIndex(in, tc.window_end, "window_end") ||
        !readIndex(in, tc.encode_begin, "encode_begin") ||
        !readIndex(in, tc.encode_end, "encode_end") ||
        !readBool(in, tc.has_window_payload, "has_window_payload")) {
        return false;
    }

    // isa::Priv is {U=0, S=1, M=3}; 2 is architecturally reserved.
    auto priv_ok = [](isa::Priv p) {
        return p == isa::Priv::U || p == isa::Priv::S ||
               p == isa::Priv::M;
    };
    if (!in.enumByte(tc.seed.model.tmpl,
                     static_cast<unsigned>(
                         core::AttackTemplate::kCount),
                     "model.tmpl") ||
        !in.enumByte(tc.seed.model.attacker, 4, "model.attacker") ||
        !in.enumByte(tc.seed.model.victim, 4, "model.victim") ||
        !readBool(in, tc.seed.model.supervisor_victim,
                  "model.supervisor_victim") ||
        !readBool(in, tc.schedule.victim_supervisor,
                  "schedule.victim_supervisor") ||
        !readBool(in, tc.schedule.double_fetch,
                  "schedule.double_fetch")) {
        return false;
    }
    if (!priv_ok(tc.seed.model.attacker) ||
        !priv_ok(tc.seed.model.victim)) {
        return in.fail("reserved privilege level in attack model");
    }
    return true;
}

} // namespace dejavuzz::campaign::bio

namespace dejavuzz::campaign {

namespace {

constexpr char kMagic[8] = {'D', 'V', 'Z', 'C', 'O', 'R', 'P', 'S'};

} // namespace

uint64_t
hashTestCase(const core::TestCase &tc)
{
    std::ostringstream blob(std::ios::binary);
    bio::writeTestCase(blob, tc);
    const std::string bytes = blob.str();
    // FNV-1a 64: cheap, deterministic across platforms, and applied
    // to the canonical serialization so equality is semantic.
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

bool
SharedCorpus::saveTo(std::ostream &os, uint64_t master_seed) const
{
    std::vector<CorpusEntry> entries = snapshotSorted();

    os.write(kMagic, sizeof(kMagic));
    bio::putU32(os, kFormatVersion);
    bio::putU64(os, master_seed);
    bio::putU64(os, entries.size());
    for (const auto &entry : entries) {
        bio::putU64(os, entry.gain);
        bio::putU32(os, entry.worker);
        bio::putU64(os, entry.seq);
        bio::putString(os, entry.config);
        bio::writeTestCase(os, entry.tc);
    }
    os.flush();
    return os.good();
}

bool
SharedCorpus::loadFrom(std::istream &is, CorpusFile &out,
                       std::string *error)
{
    bio::Reader in{is, {}};
    auto report = [&](bool ok) {
        if (!ok && error)
            *error = in.error.empty() ? "corpus load failed"
                                      : in.error;
        return ok;
    };

    char magic[sizeof(kMagic)] = {};
    if (!in.bytes(magic, sizeof(magic), "magic"))
        return report(false);
    if (!std::equal(std::begin(magic), std::end(magic),
                    std::begin(kMagic))) {
        in.fail("bad corpus magic");
        return report(false);
    }
    uint32_t version = 0;
    if (!in.u32(version, "version"))
        return report(false);
    if (version != kFormatVersion) {
        in.fail("unsupported corpus version " +
                std::to_string(version));
        return report(false);
    }
    if (!in.u64(out.master_seed, "master_seed"))
        return report(false);

    uint64_t entry_count = 0;
    if (!in.u64(entry_count, "entry count"))
        return report(false);
    if (entry_count > bio::kMaxVectorItems) {
        in.fail("oversized entry count");
        return report(false);
    }

    out.entries.clear();
    out.entries.reserve(std::min<uint64_t>(entry_count,
                                           bio::kMaxReserveItems));
    for (uint64_t i = 0; i < entry_count; ++i) {
        CorpusEntry entry;
        uint32_t worker = 0;
        if (!in.u64(entry.gain, "entry.gain") ||
            !in.u32(worker, "entry.worker") ||
            !in.u64(entry.seq, "entry.seq") ||
            !in.str(entry.config, "entry.config") ||
            !bio::readTestCase(in, entry.tc)) {
            return report(false);
        }
        entry.worker = worker;
        out.entries.push_back(std::move(entry));
    }

    // Trailing garbage means the file is not what saveTo() wrote.
    if (is.peek() != std::istream::traits_type::eof()) {
        in.fail("trailing bytes after final corpus entry");
        return report(false);
    }
    return report(true);
}

} // namespace dejavuzz::campaign
