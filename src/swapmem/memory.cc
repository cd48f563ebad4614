#include "swapmem/memory.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace dejavuzz::swapmem {

using ift::TV;

Memory::Memory()
{
    data_.assign(kMemBytes, 0);
    taint_.assign(kMemBytes, 0);
}

void
Memory::reset()
{
    uint64_t dirty = dirty_pages_;
    while (dirty != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(dirty));
        dirty &= dirty - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memset(&data_[base], 0, kPageBytes);
        std::memset(&taint_[base], 0, kPageBytes);
    }
    dirty_pages_ = 0;
    flags_ = Flags{};
    undo_active_ = false;
    undo_.clear();
}

void
Memory::copyFrom(const Memory &other)
{
    uint64_t stale = dirty_pages_ & ~other.dirty_pages_;
    while (stale != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(stale));
        stale &= stale - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memset(&data_[base], 0, kPageBytes);
        std::memset(&taint_[base], 0, kPageBytes);
    }
    uint64_t live = other.dirty_pages_;
    while (live != 0) {
        unsigned page = static_cast<unsigned>(std::countr_zero(live));
        live &= live - 1;
        uint64_t base = static_cast<uint64_t>(page) * kPageBytes;
        std::memcpy(&data_[base], &other.data_[base], kPageBytes);
        std::memcpy(&taint_[base], &other.taint_[base], kPageBytes);
    }
    dirty_pages_ = other.dirty_pages_;
    flags_ = other.flags_;
    undo_active_ = false;
    undo_.clear();
}

uint8_t
Memory::byte(uint64_t addr) const
{
    return addr < kMemBytes ? data_[addr] : 0;
}

void
Memory::setByte(uint64_t addr, uint8_t value, bool tainted)
{
    if (addr >= kMemBytes)
        return;
    if (undo_active_) {
        undo_.push_back(UndoRec{static_cast<uint32_t>(addr),
                                data_[addr], taint_[addr]});
    }
    dirty_pages_ |= 1ULL << (addr / kPageBytes);
    data_[addr] = value;
    taint_[addr] = tainted ? 1 : 0;
}

TV
Memory::read(uint64_t addr, unsigned bytes) const
{
    TV tv;
    for (unsigned i = 0; i < bytes; ++i) {
        uint64_t a = addr + i;
        if (a >= kMemBytes)
            continue;
        tv.v |= static_cast<uint64_t>(data_[a]) << (8 * i);
        if (taint_[a])
            tv.t |= 0xffULL << (8 * i);
    }
    return tv;
}

void
Memory::write(uint64_t addr, unsigned bytes, TV tv)
{
    for (unsigned i = 0; i < bytes; ++i) {
        uint64_t a = addr + i;
        if (a >= kMemBytes)
            continue;
        bool byte_tainted = ((tv.t >> (8 * i)) & 0xff) != 0;
        setByte(a, static_cast<uint8_t>(tv.v >> (8 * i)), byte_tainted);
    }
}

uint32_t
Memory::fetchWord(uint64_t addr) const
{
    uint32_t word = 0;
    for (unsigned i = 0; i < 4; ++i) {
        uint64_t a = addr + i;
        if (a < kMemBytes)
            word |= static_cast<uint32_t>(data_[a]) << (8 * i);
    }
    return word;
}

void
Memory::loadBlock(uint64_t addr, const uint32_t *words, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        uint32_t word = words[i];
        for (unsigned b = 0; b < 4; ++b) {
            setByte(addr + 4 * i + b,
                    static_cast<uint8_t>(word >> (8 * b)), false);
        }
    }
}

void
Memory::zeroRange(uint64_t addr, uint64_t bytes)
{
    for (uint64_t i = 0; i < bytes; ++i)
        setByte(addr + i, 0, false);
}

isa::ExcCause
Memory::check(uint64_t addr, unsigned bytes, AccessKind kind,
              isa::Priv priv) const
{
    using isa::ExcCause;

    // Alignment first (both evaluated cores trap on misalignment).
    if (bytes > 1 && (addr % bytes) != 0) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAddrMisaligned;
          case AccessKind::Store:
            return ExcCause::StoreAddrMisaligned;
          case AccessKind::Fetch:
            return ExcCause::InstrAddrMisaligned;
        }
    }

    // Secret-block protection (checked before the generic map so the
    // two protection flavours produce distinct causes).
    uint64_t end = addr + bytes;
    bool hits_secret =
        addr < kSecretAddr + kSecretBytes && end > kSecretAddr;
    if (hits_secret && priv != isa::Priv::M) {
        // Supervisor victim placement dominates the PMP-style secret
        // protection: the page walk fails before any PMP check.
        if (flags_.victim_supervisor) {
            return kind == AccessKind::Store
                       ? ExcCause::StorePageFault
                       : ExcCause::LoadPageFault;
        }
        if (flags_.secret_prot == SecretProt::Pmp) {
            return kind == AccessKind::Store
                       ? ExcCause::StoreAccessFault
                       : ExcCause::LoadAccessFault;
        }
        if (flags_.secret_prot == SecretProt::Pte) {
            return kind == AccessKind::Store
                       ? ExcCause::StorePageFault
                       : ExcCause::LoadPageFault;
        }
    }

    // PMP guard block: denied below M mode regardless of the secret
    // protection state.
    bool hits_guard =
        addr < kPmpGuardAddr + kPmpGuardBytes && end > kPmpGuardAddr;
    if (hits_guard && priv != isa::Priv::M) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAccessFault;
          case AccessKind::Store:
            return ExcCause::StoreAccessFault;
          case AccessKind::Fetch:
            return ExcCause::InstrAccessFault;
        }
    }

    // Out of the physical image => access fault.
    if (end > kMemBytes || end < addr) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadAccessFault;
          case AccessKind::Store:
            return ExcCause::StoreAccessFault;
          case AccessKind::Fetch:
            return ExcCause::InstrAccessFault;
        }
    }

    // Mapped-region check: everything below kMemBytes is mapped except
    // the deliberate holes used to generate page faults (the null page
    // below the shared region and the tail hole above the data region).
    bool in_hole = addr >= kUnmappedAddr || addr < kSharedBase;
    if (in_hole) {
        switch (kind) {
          case AccessKind::Load:
            return ExcCause::LoadPageFault;
          case AccessKind::Store:
            return ExcCause::StorePageFault;
          case AccessKind::Fetch:
            return ExcCause::InstrPageFault;
        }
    }

    // The shared (firmware) region is not writable from U mode.
    if (kind == AccessKind::Store && priv == isa::Priv::U &&
        addr >= kSharedBase && addr < kSharedBase + kSharedSize) {
        return ExcCause::StoreAccessFault;
    }

    return ExcCause::None;
}

void
Memory::applySecretSwap()
{
    if (flags_.secret_swapped)
        return;
    for (uint64_t i = 0; i < kSecretBytes; ++i) {
        uint64_t addr = kSecretAddr + i;
        setByte(addr, static_cast<uint8_t>(data_[addr] ^ 0x5a), true);
    }
    flags_.secret_swapped = true;
}

void
Memory::installSecret(const uint8_t *data, size_t bytes)
{
    dv_assert(bytes <= kSecretBytes);
    for (size_t i = 0; i < kSecretBytes; ++i) {
        uint8_t value = i < bytes ? data[i] : 0;
        setByte(kSecretAddr + i, value, true);
    }
}

void
Memory::setOperand(unsigned slot, uint64_t value)
{
    uint64_t addr = operandAddr(slot);
    dv_assert(addr + 8 <= kOperandAddr + kOperandBytes);
    write(addr, 8, TV{value, 0});
}

uint64_t
Memory::operandAddr(unsigned slot) const
{
    return kOperandAddr + 8ULL * slot;
}

void
Memory::beginUndo()
{
    dv_assert(!undo_active_);
    undo_active_ = true;
    undo_.clear();
    undo_flags_ = flags_;
}

void
Memory::rollbackUndo()
{
    dv_assert(undo_active_);
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        data_[it->addr] = it->value;
        taint_[it->addr] = it->taint;
    }
    flags_ = undo_flags_;
    undo_.clear();
    undo_active_ = false;
}

void
Memory::discardUndo()
{
    dv_assert(undo_active_);
    undo_.clear();
    undo_active_ = false;
}

} // namespace dejavuzz::swapmem
