#include "swapmem/packet.hh"

#include "util/logging.hh"

namespace dejavuzz::swapmem {

const char *
packetKindName(PacketKind kind)
{
    switch (kind) {
      case PacketKind::TriggerTrain:
        return "trigger-train";
      case PacketKind::WindowTrain:
        return "window-train";
      case PacketKind::Transient:
        return "transient";
    }
    return "?";
}

size_t
SwapSchedule::transientIndex() const
{
    size_t found = packets.size();
    for (size_t i = 0; i < packets.size(); ++i) {
        if (packets[i].kind == PacketKind::Transient) {
            dv_assert(found == packets.size());
            found = i;
        }
    }
    dv_assert(found < packets.size());
    return found;
}

size_t
SwapSchedule::trainingOverhead() const
{
    size_t n = 0;
    for (const auto &packet : packets) {
        if (packet.kind != PacketKind::Transient)
            n += packet.size();
    }
    return n;
}

size_t
SwapSchedule::effectiveTrainingOverhead() const
{
    size_t n = 0;
    for (const auto &packet : packets) {
        if (packet.kind != PacketKind::Transient)
            n += packet.effectiveSize();
    }
    return n;
}

SwapSchedule
SwapSchedule::without(size_t packet_index) const
{
    dv_assert(packet_index < packets.size());
    dv_assert(packets[packet_index].kind != PacketKind::Transient);
    SwapSchedule reduced;
    reduced.transient_prot = transient_prot;
    reduced.victim_supervisor = victim_supervisor;
    reduced.double_fetch = double_fetch;
    for (size_t i = 0; i < packets.size(); ++i) {
        if (i != packet_index)
            reduced.packets.push_back(packets[i]);
    }
    return reduced;
}

uint64_t
SwapRuntime::start(Memory &mem)
{
    dv_assert(!started_);
    started_ = true;
    cursor_ = 0;
    if (done())
        return 0;
    loadCurrent(mem);
    return current().entry;
}

const SwapPacket &
SwapRuntime::current() const
{
    dv_assert(!done());
    return schedule_->packets[cursor_];
}

uint64_t
SwapRuntime::advance(Memory &mem)
{
    dv_assert(started_ && !done());
    ++cursor_;
    if (done())
        return 0;
    loadCurrent(mem);
    return current().entry;
}

void
loadPacketWords(Memory &mem, const SwapPacket &packet, size_t begin)
{
    const size_t end = packet.instrs.size();
    if (begin >= end)
        return;
    // Encode into a stack buffer and store it in one block.
    uint32_t words[kSwapSize / 4];
    dv_assert(end - begin <= kSwapSize / 4);
    for (size_t i = begin; i < end; ++i)
        words[i - begin] = isa::encode(packet.instrs[i]);
    mem.loadBlock(kSwapBase + 4 * begin, words, end - begin);
}

void
SwapRuntime::loadCurrent(Memory &mem)
{
    const SwapPacket &packet = current();
    dv_assert(packet.instrs.size() * 4 <= kSwapSize);
    // Load the packet into the swappable region in one block, then
    // clear whatever is left past it (the previous packet's tail and
    // any U-mode stores). Unchanged bytes are not stored at all.
    loadPacketWords(mem, packet, 0);
    const uint64_t end = kSwapBase + 4 * packet.instrs.size();
    mem.zeroRange(end, kSwapBase + kSwapSize - end);

    // Update the secret's protection when entering the transient
    // packet (the paper updates permissions after all training).
    if (packet.kind == PacketKind::Transient) {
        mem.setSecretProt(schedule_->transient_prot);
        mem.setVictimSupervisor(schedule_->victim_supervisor);
        // Double-fetch: mutate the secret under the transient packet
        // while the training packets' cached copy stays stale (the
        // d-cache is deliberately not flushed across swaps).
        if (schedule_->double_fetch)
            mem.applySecretSwap();
    } else {
        mem.setSecretProt(SecretProt::Open);
        mem.setVictimSupervisor(false);
    }
}

} // namespace dejavuzz::swapmem
