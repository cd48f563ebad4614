#include "uarch/caches.hh"

#include "swapmem/memory.hh"
#include "util/logging.hh"

namespace dejavuzz::uarch {

namespace {

/** Population contribution of one TV-carrying entry. */
inline ift::TaintContrib
tvContrib(const TV &tv)
{
    if (tv.t == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(tv.t))};
}

inline ift::TaintContrib
maskContrib(uint64_t taint)
{
    if (taint == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(taint))};
}

} // namespace

// --- ICache ------------------------------------------------------------

ICache::ICache(unsigned lines, unsigned miss_latency)
    : miss_latency_(miss_latency)
{
    dv_assert(isPow2(lines));
    tags_.resize(lines);
}

void
ICache::reset()
{
    tags_.assign(tags_.size(), Line{});
    acct_.reset();
    refill_remaining_ = 0;
    refill_line_ = 0;
    refill_taint_ = false;
    busy_cycles = 0;
}

size_t
ICache::indexOf(uint64_t line) const
{
    return line & (tags_.size() - 1);
}

bool
ICache::hit(uint64_t addr) const
{
    uint64_t line = lineOf(addr);
    const Line &slot = tags_[indexOf(line)];
    return slot.valid && slot.tag == line;
}

bool
ICache::startRefill(uint64_t addr, bool addr_tainted)
{
    if (refillBusy())
        return false;
    refill_line_ = lineOf(addr);
    refill_remaining_ = miss_latency_;
    refill_taint_ = addr_tainted;
    return true;
}

void
ICache::tick()
{
    if (refill_remaining_ == 0)
        return;
    ++busy_cycles;
    if (--refill_remaining_ == 0) {
        Line &slot = tags_[indexOf(refill_line_)];
        ift::TaintContrib before{slot.taint != 0 ? 1u : 0u,
                                 slot.taint != 0 ? 8u : 0u};
        slot.valid = true;
        slot.tag = refill_line_;
        slot.taint = refill_taint_ ? 1 : 0;
        acct_.apply(before, {slot.taint != 0 ? 1u : 0u,
                             slot.taint != 0 ? 8u : 0u});
    }
}

void
ICache::flush()
{
    for (Line &slot : tags_)
        slot = Line{};
    acct_.zero();
    refill_remaining_ = 0;
}

uint64_t
ICache::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Line &slot : tags_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.tag);
    }
    return hash;
}

uint32_t
ICache::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Line &slot : tags_)
        n += slot.taint != 0;
    return n;
}

uint64_t
ICache::taintBitsRescan() const
{
    // A tainted line tag stands for a whole line of secret-steered
    // fetch state.
    return static_cast<uint64_t>(taintedRegCountRescan()) * 8;
}

void
ICache::appendSinks(ift::SinkWriter &out) const
{
    static const ift::SinkId kId = ift::internSink("icache", "tags");
    ift::SinkSnapshot &sink = out.next(kId, true);
    sink.taint.resize(tags_.size());
    sink.live.resize(tags_.size());
    for (size_t i = 0; i < tags_.size(); ++i) {
        sink.taint[i] = tags_[i].taint;
        sink.live[i] = tags_[i].valid ? 1 : 0;
    }
}

// --- DCache ------------------------------------------------------------

DCache::DCache(unsigned lines, unsigned mshrs, unsigned lfbs,
               unsigned hit_latency, unsigned miss_latency)
    : hit_latency_(hit_latency), miss_latency_(miss_latency)
{
    dv_assert(isPow2(lines));
    dv_assert(lfbs >= mshrs);
    tags_.resize(lines);
    mshrs_.resize(mshrs);
    lfbs_.resize(lfbs);
    lfb_owner_valid_.assign(lfbs, 0);
}

void
DCache::reset()
{
    tags_.assign(tags_.size(), Line{});
    mshrs_.assign(mshrs_.size(), MshrEntry{});
    lfbs_.assign(lfbs_.size(), LfbEntry{});
    std::fill(lfb_owner_valid_.begin(), lfb_owner_valid_.end(), 0);
    line_acct_.reset();
    mshr_acct_.reset();
    lfb_acct_.reset();
    busy_cycles = 0;
}

size_t
DCache::indexOf(uint64_t line) const
{
    return line & (tags_.size() - 1);
}

bool
DCache::hit(uint64_t addr) const
{
    uint64_t line = lineOf(addr);
    const Line &slot = tags_[indexOf(line)];
    return slot.valid && slot.tag == line;
}

uint64_t
DCache::lineTaint(uint64_t addr) const
{
    uint64_t line = lineOf(addr);
    const Line &slot = tags_[indexOf(line)];
    return (slot.valid && slot.tag == line) ? slot.taint : 0;
}

int
DCache::allocMshr(TV addr, bool addr_ctl)
{
    uint64_t line = lineOf(addr.v);
    // Already pending?
    int existing = findMshr(addr.v);
    if (existing >= 0)
        return existing;
    for (size_t i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid)
            continue;
        MshrEntry &entry = mshrs_[i];
        // Invalid entries contribute nothing, so "before" is zero.
        entry.valid = true;
        entry.line = line;
        entry.remaining = miss_latency_;
        entry.addr = addr;
        entry.lfb_index = static_cast<int>(i); // 1:1 MSHR->LFB pairing
        entry.faulting = false;
        entry.addr_ctl = addr_ctl;
        lfb_owner_valid_[i] = 1;
        mshr_acct_.apply({}, tvContrib(entry.addr));
        return static_cast<int>(i);
    }
    return -1;
}

int
DCache::findMshr(uint64_t addr) const
{
    uint64_t line = lineOf(addr);
    for (size_t i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid && mshrs_[i].line == line)
            return static_cast<int>(i);
    }
    return -1;
}

bool
DCache::mshrDone(int index) const
{
    return !mshrs_[index].valid;
}

void
DCache::tick(const swapmem::Memory &backing)
{
    bool any_busy = false;
    for (size_t i = 0; i < mshrs_.size(); ++i) {
        MshrEntry &entry = mshrs_[i];
        if (!entry.valid)
            continue;
        any_busy = true;
        if (--entry.remaining != 0)
            continue;
        // Refill complete: install the line and park the data in the
        // LFB. The MSHR then invalidates itself - its valid bit is the
        // LFB entry's liveness signal, so the (possibly secret-
        // tainted) LFB data is now dead but still present.
        TV data = backing.read(entry.addr.v & ~7ULL, 8);
        if (!entry.faulting) {
            Line &slot = tags_[indexOf(entry.line)];
            ift::TaintContrib before = maskContrib(slot.taint);
            slot.valid = true;
            slot.tag = entry.line;
            slot.taint = data.t | (entry.addr_ctl ? ~0ULL : 0);
            line_acct_.apply(before, maskContrib(slot.taint));
        }
        LfbEntry &lfb = lfbs_[entry.lfb_index];
        ift::TaintContrib lfb_before = tvContrib(lfb.data);
        lfb.line = entry.line;
        lfb.data = data;
        lfb_acct_.apply(lfb_before, tvContrib(lfb.data));
        lfb_owner_valid_[entry.lfb_index] = 0;
        // Retiring the valid-gated MSHR drops its contribution.
        mshr_acct_.apply(tvContrib(entry.addr), {});
        entry.valid = false;
    }
    if (any_busy)
        ++busy_cycles;
}

void
DCache::storeUpdate(uint64_t addr, TV data)
{
    uint64_t line = lineOf(addr);
    Line &slot = tags_[indexOf(line)];
    if (slot.valid && slot.tag == line) {
        ift::TaintContrib before = maskContrib(slot.taint);
        slot.taint |= data.t;
        line_acct_.apply(before, maskContrib(slot.taint));
    }
}

uint64_t
DCache::dataHash(const swapmem::Memory &backing) const
{
    uint64_t hash = kFnvOffset;
    for (const Line &slot : tags_) {
        if (!slot.valid)
            continue;
        const uint64_t base = slot.tag * kLineBytes;
        for (unsigned off = 0; off < kLineBytes; off += 8)
            hash = fnv1a(hash, backing.read(base + off, 8).v);
    }
    uint64_t lfb_hash = kFnvOffset;
    for (const LfbEntry &entry : lfbs_) {
        lfb_hash = fnv1a(lfb_hash, entry.line);
        lfb_hash = fnv1a(lfb_hash, entry.data.v);
    }
    return fnv1a(hash, lfb_hash);
}

void
DCache::flush()
{
    for (Line &slot : tags_)
        slot = Line{};
    for (MshrEntry &entry : mshrs_)
        entry = MshrEntry{};
    for (LfbEntry &entry : lfbs_)
        entry = LfbEntry{};
    std::fill(lfb_owner_valid_.begin(), lfb_owner_valid_.end(), 0);
    line_acct_.zero();
    mshr_acct_.zero();
    lfb_acct_.zero();
}

uint64_t
DCache::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Line &slot : tags_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.tag);
    }
    return hash;
}

uint32_t
DCache::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Line &slot : tags_)
        n += slot.taint != 0;
    return n;
}

uint64_t
DCache::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const Line &slot : tags_)
        n += popcount64(slot.taint);
    return n;
}

uint32_t
DCache::mshrTaintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const MshrEntry &entry : mshrs_)
        n += entry.valid && entry.addr.t != 0;
    return n;
}

uint64_t
DCache::mshrTaintBitsRescan() const
{
    uint64_t n = 0;
    for (const MshrEntry &entry : mshrs_) {
        if (entry.valid)
            n += popcount64(entry.addr.t);
    }
    return n;
}

uint32_t
DCache::lfbTaintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const LfbEntry &entry : lfbs_)
        n += entry.data.t != 0;
    return n;
}

uint64_t
DCache::lfbTaintBitsRescan() const
{
    uint64_t n = 0;
    for (const LfbEntry &entry : lfbs_)
        n += popcount64(entry.data.t);
    return n;
}

void
DCache::appendSinks(ift::SinkWriter &out) const
{
    {
        static const ift::SinkId kId =
            ift::internSink("dcache", "lines");
        ift::SinkSnapshot &sink = out.next(kId, true);
        sink.taint.resize(tags_.size());
        sink.live.resize(tags_.size());
        for (size_t i = 0; i < tags_.size(); ++i) {
            sink.taint[i] = tags_[i].taint;
            sink.live[i] = tags_[i].valid ? 1 : 0;
        }
    }
    {
        // (* liveness_mask = "mshr_valid_vec" *) reg lb [..] - the
        // paper's own example annotation.
        static const ift::SinkId kId = ift::internSink("lfb", "lb");
        ift::SinkSnapshot &sink = out.next(kId, true);
        sink.taint.resize(lfbs_.size());
        sink.live.resize(lfbs_.size());
        for (size_t i = 0; i < lfbs_.size(); ++i) {
            sink.taint[i] = lfbs_[i].data.t;
            sink.live[i] = lfb_owner_valid_[i];
        }
    }
}

// --- Tlb ---------------------------------------------------------------

Tlb::Tlb(unsigned entries, const char *name) : name_(name)
{
    slots_.resize(entries);
}

void
Tlb::reset()
{
    slots_.assign(slots_.size(), Slot{});
    acct_.reset();
    next_victim_ = 0;
}

bool
Tlb::hit(uint64_t vpn) const
{
    for (const Slot &slot : slots_) {
        if (slot.valid && slot.vpn.v == vpn)
            return true;
    }
    return false;
}

void
Tlb::insert(TV vpn)
{
    for (Slot &slot : slots_) {
        if (slot.valid && slot.vpn.v == vpn.v) {
            ift::TaintContrib before = tvContrib(slot.vpn);
            slot.vpn.t |= vpn.t;
            acct_.apply(before, tvContrib(slot.vpn));
            return;
        }
    }
    Slot &victim = slots_[next_victim_];
    next_victim_ = (next_victim_ + 1) % slots_.size();
    ift::TaintContrib before = tvContrib(victim.vpn);
    victim.valid = true;
    victim.vpn = vpn;
    acct_.apply(before, tvContrib(victim.vpn));
}

void
Tlb::flush()
{
    for (Slot &slot : slots_)
        slot = Slot{};
    acct_.zero();
    next_victim_ = 0;
}

uint64_t
Tlb::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Slot &slot : slots_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.vpn.v);
    }
    return hash;
}

uint32_t
Tlb::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.vpn.t != 0;
    return n;
}

uint64_t
Tlb::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const Slot &slot : slots_)
        n += popcount64(slot.vpn.t);
    return n;
}

void
Tlb::appendSinks(ift::SinkWriter &out) const
{
    if (sink_id_ == ift::kInvalidSinkId)
        sink_id_ = ift::internSink(name_, "entries");
    ift::SinkSnapshot &sink = out.next(sink_id_, true);
    sink.taint.resize(slots_.size());
    sink.live.resize(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
        sink.taint[i] = slots_[i].vpn.t;
        sink.live[i] = slots_[i].valid ? 1 : 0;
    }
}

} // namespace dejavuzz::uarch
