#include "uarch/predictors.hh"

#include "util/logging.hh"

namespace dejavuzz::uarch {

namespace {

uint64_t
hashTv(uint64_t hash, const TV &tv)
{
    return fnv1a(hash, tv.v);
}

ift::SinkSnapshot &
nextSink(ift::SinkWriter &out, ift::SinkId id, size_t entries)
{
    ift::SinkSnapshot &sink = out.next(id, true);
    sink.taint.assign(entries, 0);
    sink.live.assign(entries, 1);
    return sink;
}

/** Population contribution of one TV entry. */
inline ift::TaintContrib
tvContrib(const TV &tv)
{
    if (tv.t == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(tv.t))};
}

} // namespace

// --- Bht ---------------------------------------------------------------

Bht::Bht(unsigned entries)
{
    dv_assert(isPow2(entries));
    counters_.resize(entries);
    reset();
}

void
Bht::reset()
{
    counters_.assign(counters_.size(), TV{1, 0}); // weakly not-taken
    acct_.reset();
}

size_t
Bht::indexOf(uint64_t pc) const
{
    return (pc >> 2) & (counters_.size() - 1);
}

bool
Bht::predictTaken(uint64_t pc) const
{
    return counters_[indexOf(pc)].v >= 2;
}

void
Bht::update(uint64_t pc, bool taken, bool taint)
{
    TV &counter = counters_[indexOf(pc)];
    if (taken && counter.v < 3)
        counter.v += 1;
    else if (!taken && counter.v > 0)
        counter.v -= 1;
    if (taint) {
        ift::TaintContrib before = tvContrib(counter);
        counter.t |= 3;
        acct_.apply(before, tvContrib(counter));
    }
}

uint64_t
Bht::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const TV &counter : counters_)
        hash = hashTv(hash, counter);
    return hash;
}

uint32_t
Bht::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const TV &counter : counters_)
        n += counter.t != 0;
    return n;
}

uint64_t
Bht::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const TV &counter : counters_)
        n += popcount64(counter.t);
    return n;
}

void
Bht::appendSinks(ift::SinkWriter &out) const
{
    static const ift::SinkId kId = ift::internSink("bht", "counters");
    auto &sink = nextSink(out, kId, counters_.size());
    for (size_t i = 0; i < counters_.size(); ++i)
        sink.taint[i] = counters_[i].t;
}

// --- Btb ---------------------------------------------------------------

Btb::Btb(unsigned entries)
{
    dv_assert(entries == 0 || isPow2(entries));
    slots_.resize(entries);
}

void
Btb::reset()
{
    slots_.assign(slots_.size(), Slot{});
    acct_.reset();
}

size_t
Btb::indexOf(uint64_t pc) const
{
    return (pc >> 2) & (slots_.size() - 1);
}

bool
Btb::lookup(uint64_t pc, TV &target) const
{
    if (slots_.empty())
        return false;
    const Slot &slot = slots_[indexOf(pc)];
    if (!slot.valid || slot.tag != pc)
        return false;
    target = slot.target;
    return true;
}

void
Btb::update(uint64_t pc, TV target)
{
    if (slots_.empty())
        return;
    Slot &slot = slots_[indexOf(pc)];
    ift::TaintContrib before = tvContrib(slot.target);
    slot.valid = true;
    slot.tag = pc;
    slot.target = target;
    acct_.apply(before, tvContrib(slot.target));
}

void
Btb::invalidate(uint64_t pc)
{
    if (slots_.empty())
        return;
    Slot &slot = slots_[indexOf(pc)];
    if (slot.valid && slot.tag == pc)
        slot.valid = false;
}

uint64_t
Btb::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Slot &slot : slots_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.tag);
        hash = fnv1a(hash, slot.target.v);
    }
    return hash;
}

uint32_t
Btb::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.target.t != 0;
    return n;
}

uint64_t
Btb::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const Slot &slot : slots_)
        n += popcount64(slot.target.t);
    return n;
}

void
Btb::appendSinks(ift::SinkWriter &out, const char *name) const
{
    if (sink_id_ == ift::kInvalidSinkId)
        sink_id_ = ift::internSink(name, "targets");
    auto &sink = nextSink(out, sink_id_, slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
        sink.taint[i] = slots_[i].target.t;
        sink.live[i] = slots_[i].valid ? 1 : 0;
    }
}

// --- Ras ---------------------------------------------------------------

Ras::Ras(unsigned entries)
{
    spec_.resize(entries);
    committed_.resize(entries);
    reset();
}

void
Ras::reset()
{
    spec_.assign(spec_.size(), TV{});
    committed_.assign(committed_.size(), TV{});
    spec_tos_ = -1;
    committed_tos_ = -1;
    spec_acct_.reset();
    committed_acct_.reset();
}

void
Ras::push(TV ret_addr)
{
    if (spec_.empty())
        return;
    spec_tos_ = (spec_tos_ + 1) % static_cast<int>(spec_.size());
    ift::TaintContrib before = tvContrib(spec_[spec_tos_]);
    spec_[spec_tos_] = ret_addr;
    spec_acct_.apply(before, tvContrib(ret_addr));
}

TV
Ras::pop()
{
    if (spec_.empty() || spec_tos_ < 0)
        return TV{};
    TV top = spec_[spec_tos_];
    spec_tos_ -= 1;
    return top;
}

void
Ras::commitPush(TV ret_addr)
{
    if (committed_.empty())
        return;
    committed_tos_ =
        (committed_tos_ + 1) % static_cast<int>(committed_.size());
    ift::TaintContrib before = tvContrib(committed_[committed_tos_]);
    committed_[committed_tos_] = ret_addr;
    committed_acct_.apply(before, tvContrib(ret_addr));
}

void
Ras::commitPop()
{
    if (committed_.empty() || committed_tos_ < 0)
        return;
    committed_tos_ -= 1;
}

void
Ras::recover(bool partial_restore_bug)
{
    if (spec_.empty())
        return;
    spec_tos_ = committed_tos_;
    if (partial_restore_bug) {
        // B2 Phantom-RSB: only the top entry comes back; everything
        // the transient calls overwrote below the TOS stays corrupted.
        if (spec_tos_ >= 0) {
            ift::TaintContrib before = tvContrib(spec_[spec_tos_]);
            spec_[spec_tos_] = committed_[spec_tos_];
            spec_acct_.apply(before, tvContrib(spec_[spec_tos_]));
        }
    } else {
        spec_ = committed_;
        // Bulk restore: adopt the committed copy's sums wholesale.
        if (spec_acct_.regs != committed_acct_.regs ||
            spec_acct_.bits != committed_acct_.bits)
            ++spec_acct_.transitions;
        spec_acct_.regs = committed_acct_.regs;
        spec_acct_.bits = committed_acct_.bits;
    }
}

uint64_t
Ras::stateHash() const
{
    uint64_t hash = kFnvOffset;
    hash = fnv1a(hash, static_cast<uint64_t>(spec_tos_ + 1));
    for (const TV &entry : spec_)
        hash = hashTv(hash, entry);
    return hash;
}

uint32_t
Ras::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const TV &entry : spec_)
        n += entry.t != 0;
    return n;
}

uint64_t
Ras::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const TV &entry : spec_)
        n += popcount64(entry.t);
    return n;
}

void
Ras::appendSinks(ift::SinkWriter &out) const
{
    static const ift::SinkId kId = ift::internSink("ras", "stack");
    auto &sink = nextSink(out, kId, spec_.size());
    for (size_t i = 0; i < spec_.size(); ++i) {
        sink.taint[i] = spec_[i].t;
        // Entries at or below the TOS will be consumed by future
        // returns => live; entries above the TOS are dead.
        sink.live[i] = (static_cast<int>(i) <= spec_tos_) ? 1 : 0;
    }
}

// --- LoopPred ----------------------------------------------------------

LoopPred::LoopPred(unsigned entries)
{
    dv_assert(entries == 0 || isPow2(entries));
    slots_.resize(entries);
}

void
LoopPred::reset()
{
    slots_.assign(slots_.size(), Slot{});
    acct_.reset();
}

size_t
LoopPred::indexOf(uint64_t pc) const
{
    return (pc >> 2) & (slots_.size() - 1);
}

bool
LoopPred::predict(uint64_t pc, bool &taken) const
{
    if (slots_.empty())
        return false;
    const Slot &slot = slots_[indexOf(pc)];
    if (!slot.valid || slot.tag != pc || slot.confidence < 2)
        return false;
    taken = slot.count + 1 < slot.trip;
    return true;
}

void
LoopPred::update(uint64_t pc, bool taken, bool taint)
{
    if (slots_.empty())
        return;
    Slot &slot = slots_[indexOf(pc)];
    ift::TaintContrib before{slot.taint != 0 ? 1u : 0u,
                             slot.taint != 0 ? 16u : 0u};
    if (!slot.valid || slot.tag != pc) {
        slot = Slot{};
        slot.valid = true;
        slot.tag = pc;
    }
    if (taint)
        slot.taint = 1;
    acct_.apply(before, {slot.taint != 0 ? 1u : 0u,
                         slot.taint != 0 ? 16u : 0u});
    if (taken) {
        slot.count += 1;
        return;
    }
    // Loop exit: learn/confirm the trip count.
    uint16_t trip = slot.count + 1;
    if (slot.trip == trip && slot.confidence < 3)
        slot.confidence += 1;
    else if (slot.trip != trip)
        slot.confidence = 0;
    slot.trip = trip;
    slot.count = 0;
}

uint64_t
LoopPred::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Slot &slot : slots_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.tag);
        hash = fnv1a(hash, (static_cast<uint64_t>(slot.trip) << 32) |
                               (static_cast<uint64_t>(slot.count) << 8) |
                               slot.confidence);
    }
    return hash;
}

uint32_t
LoopPred::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.taint != 0;
    return n;
}

uint64_t
LoopPred::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.taint != 0 ? 16 : 0;
    return n;
}

void
LoopPred::appendSinks(ift::SinkWriter &out) const
{
    if (slots_.empty())
        return;
    static const ift::SinkId kId = ift::internSink("loop", "slots");
    auto &sink = nextSink(out, kId, slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
        sink.taint[i] = slots_[i].taint ? 1 : 0;
        sink.live[i] = slots_[i].valid ? 1 : 0;
    }
}

// --- IndPred -----------------------------------------------------------

IndPred::IndPred(unsigned entries)
{
    dv_assert(entries == 0 || isPow2(entries));
    slots_.resize(entries);
}

void
IndPred::reset()
{
    slots_.assign(slots_.size(), Slot{});
    acct_.reset();
}

size_t
IndPred::indexOf(uint64_t pc) const
{
    return (pc >> 2) & (slots_.size() - 1);
}

bool
IndPred::lookup(uint64_t pc, TV &target) const
{
    if (slots_.empty())
        return false;
    const Slot &slot = slots_[indexOf(pc)];
    if (!slot.valid || slot.tag != pc)
        return false;
    target = slot.target;
    return true;
}

void
IndPred::update(uint64_t pc, TV target)
{
    if (slots_.empty())
        return;
    Slot &slot = slots_[indexOf(pc)];
    ift::TaintContrib before = tvContrib(slot.target);
    slot.valid = true;
    slot.tag = pc;
    slot.target = target;
    acct_.apply(before, tvContrib(slot.target));
}

uint64_t
IndPred::stateHash() const
{
    uint64_t hash = kFnvOffset;
    for (const Slot &slot : slots_) {
        hash = fnv1a(hash, slot.valid);
        hash = fnv1a(hash, slot.tag);
        hash = fnv1a(hash, slot.target.v);
    }
    return hash;
}

uint32_t
IndPred::taintedRegCountRescan() const
{
    uint32_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.target.t != 0;
    return n;
}

uint64_t
IndPred::taintBitsRescan() const
{
    uint64_t n = 0;
    for (const Slot &slot : slots_)
        n += popcount64(slot.target.t);
    return n;
}

void
IndPred::appendSinks(ift::SinkWriter &out) const
{
    static const ift::SinkId kId = ift::internSink("indpred", "targets");
    auto &sink = nextSink(out, kId, slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
        sink.taint[i] = slots_[i].target.t;
        sink.live[i] = slots_[i].valid ? 1 : 0;
    }
}

} // namespace dejavuzz::uarch
