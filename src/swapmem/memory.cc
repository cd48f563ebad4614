#include "swapmem/memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include <sys/mman.h>

#include "util/logging.hh"

namespace dejavuzz::swapmem {

using ift::TV;

Memory::Memory()
{
    // Anonymous pages read as zero until written. calloc would not
    // do: glibc hands back recycled heap memory, which it must clear.
    void *image = mmap(nullptr, 2 * kMemBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (image == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint8_t *>(image);
    taint_ = data_ + kMemBytes;
}

Memory::~Memory()
{
    munmap(data_, 2 * kMemBytes);
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
    watch(0, 0);
}

void
Memory::save(Snapshot &out) const
{
    out.pages_ = dirty_pages_;
    out.flags_ = flags_;
    out.bytes_.resize(2 * kPageBytes *
                      static_cast<size_t>(std::popcount(dirty_pages_)));
    uint8_t *dst = out.bytes_.data();
    for (uint64_t live = dirty_pages_; live != 0; live &= live - 1) {
        uint64_t base =
            static_cast<uint64_t>(std::countr_zero(live)) * kPageBytes;
        std::memcpy(dst, &data_[base], kPageBytes);
        std::memcpy(dst + kPageBytes, &taint_[base], kPageBytes);
        dst += 2 * kPageBytes;
    }
}

void
Memory::restore(const Snapshot &snap)
{
    for (uint64_t stale = dirty_pages_ & ~snap.pages_; stale != 0;
         stale &= stale - 1) {
        uint64_t base =
            static_cast<uint64_t>(std::countr_zero(stale)) * kPageBytes;
        std::memset(&data_[base], 0, kPageBytes);
        std::memset(&taint_[base], 0, kPageBytes);
    }
    const uint8_t *src = snap.bytes_.data();
    for (uint64_t live = snap.pages_; live != 0; live &= live - 1) {
        uint64_t base =
            static_cast<uint64_t>(std::countr_zero(live)) * kPageBytes;
        std::memcpy(&data_[base], src, kPageBytes);
        std::memcpy(&taint_[base], src + kPageBytes, kPageBytes);
        src += 2 * kPageBytes;
    }
    dirty_pages_ = snap.pages_;
    flags_ = snap.flags_;
}

uint8_t
Memory::byte(uint64_t addr) const
{
    noteAccess(addr, 1);
    return addr < kMemBytes ? data_[addr] : 0;
}

void
Memory::setByte(uint64_t addr, uint8_t value, bool tainted)
{
    if (addr >= kMemBytes)
        return;
    const uint8_t taint = tainted ? 1 : 0;
    // A store that changes nothing is dropped: no dirty bit. Exact,
    // because a clean page holds only zero bytes.
    if (data_[addr] == value && taint_[addr] == taint)
        return;
    dirty_pages_ |= 1ULL << (addr / kPageBytes);
    data_[addr] = value;
    taint_[addr] = taint;
}

namespace {

static_assert(std::endian::native == std::endian::little,
              "word-wide accesses assume a little-endian host");

/** True when [addr, addr + bytes) lies inside the image (no overflow). */
bool
inImage(uint64_t addr, uint64_t bytes)
{
    return addr < kMemBytes && bytes <= kMemBytes - addr;
}

/** Unaligned load/store of one trivially copyable value. */
template <typename T>
T
loadAs(const uint8_t *p)
{
    T value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

template <typename T>
void
storeAs(uint8_t *p, T value)
{
    std::memcpy(p, &value, sizeof(value));
}

/**
 * Little-endian value of the @p bytes (at most 8) bytes at @p p. The
 * access widths go through a type of that width: a narrower copy into
 * a zeroed uint64_t would stall store-to-load forwarding. Declared
 * inline so that RelWithDebInfo (-O2) builds inline it, like storeLE.
 */
inline uint64_t
loadLE(const uint8_t *p, unsigned bytes)
{
    switch (bytes) {
      case 1:
        return p[0];
      case 2:
        return loadAs<uint16_t>(p);
      case 4:
        return loadAs<uint32_t>(p);
      case 8:
        return loadAs<uint64_t>(p);
    }
    uint64_t value = 0;
    std::memcpy(&value, p, bytes);
    return value;
}

/** Store the low @p bytes (at most 8) bytes of @p value at @p p. */
inline void
storeLE(uint8_t *p, uint64_t value, unsigned bytes)
{
    switch (bytes) {
      case 1:
        p[0] = static_cast<uint8_t>(value);
        return;
      case 2:
        storeAs(p, static_cast<uint16_t>(value));
        return;
      case 4:
        storeAs(p, static_cast<uint32_t>(value));
        return;
      case 8:
        storeAs(p, value);
        return;
    }
    std::memcpy(p, &value, bytes);
}

/** One 0/1 byte per byte of @p t: 1 where that byte is non-zero. */
uint64_t
nonZeroBytes(uint64_t t)
{
    // Fold each byte's bits into its bit 0. Bits shifted in from the
    // next byte only land above bit 3, so they never reach bit 0.
    t |= t >> 4;
    t |= t >> 2;
    t |= t >> 1;
    return t & 0x0101010101010101ULL;
}

/** OR of the 64 bytes at @p p, folded into one word. */
uint64_t
orBlock64(const uint8_t *p)
{
    uint64_t acc = 0;
    for (unsigned i = 0; i < 64; i += 8)
        acc |= loadAs<uint64_t>(p + i);
    return acc;
}

} // namespace

TV
Memory::read(uint64_t addr, unsigned bytes) const
{
    noteAccess(addr, bytes);
    if (inImage(addr, bytes)) {
        // Taint bytes are 0/1, so * 0xff widens them to the TV mask.
        return TV{loadLE(&data_[addr], bytes),
                  loadLE(&taint_[addr], bytes) * 0xff};
    }
    // Past or across the image end: those bytes read as clean zeros.
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
    noteAccess(addr, bytes);
    if (!inImage(addr, bytes)) {
        // Past or across the image end: those bytes are dropped.
        for (unsigned i = 0; i < bytes; ++i) {
            bool byte_tainted = ((tv.t >> (8 * i)) & 0xff) != 0;
            setByte(addr + i, static_cast<uint8_t>(tv.v >> (8 * i)),
                    byte_tainted);
        }
        return;
    }
    const uint64_t mask = bytes >= 8 ? ~0ULL : (1ULL << (8 * bytes)) - 1;
    const uint64_t value = tv.v & mask;
    const uint64_t taint = nonZeroBytes(tv.t) & mask;
    const uint64_t old_value = loadLE(&data_[addr], bytes);
    const uint64_t old_taint = loadLE(&taint_[addr], bytes);
    const uint64_t changed = (value ^ old_value) | (taint ^ old_taint);
    if (changed == 0)
        return;
    dirty_pages_ |= 1ULL << (addr / kPageBytes);
    dirty_pages_ |= 1ULL << ((addr + bytes - 1) / kPageBytes);
    storeLE(&data_[addr], value, bytes);
    storeLE(&taint_[addr], taint, bytes);
}

uint32_t
Memory::fetchWord(uint64_t addr) const
{
    noteAccess(addr, 4);
    if (inImage(addr, 4))
        return static_cast<uint32_t>(loadLE(&data_[addr], 4));
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
    if (addr % 4 != 0 || !inImage(addr, 4 * static_cast<uint64_t>(count))) {
        for (size_t i = 0; i < count; ++i)
            write(addr + 4 * i, 4, TV{words[i], 0});
        return;
    }
    // write()'s rules, one word at a time in one loop: an unchanged
    // clean word is skipped, and a stored word dirties its page (an
    // aligned word never straddles one).
    uint8_t *data = &data_[addr];
    uint8_t *taint = &taint_[addr];
    for (size_t i = 0; i < count; ++i, data += 4, taint += 4) {
        if (((loadAs<uint32_t>(data) ^ words[i]) |
             loadAs<uint32_t>(taint)) == 0)
            continue;
        dirty_pages_ |= 1ULL << ((addr + 4 * i) / kPageBytes);
        storeAs(data, words[i]);
        storeAs(taint, uint32_t{0});
    }
}

void
Memory::zeroRange(uint64_t addr, uint64_t bytes)
{
    if (addr >= kMemBytes)
        return;
    const uint64_t end = addr + std::min(bytes, kMemBytes - addr);
    uint64_t a = addr;
    while (a < end) {
        // Clean pages and whole 64-byte blocks whose data and taint
        // are all zero are skipped; elsewhere only the non-zero bytes
        // are stored.
        if ((dirty_pages_ & (1ULL << (a / kPageBytes))) == 0) {
            a = std::min((a | (kPageBytes - 1)) + 1, end);
            continue;
        }
        const uint64_t block_end = std::min((a | 63) + 1, end);
        if (block_end - a == 64 &&
            (orBlock64(&data_[a]) | orBlock64(&taint_[a])) == 0) {
            a = block_end;
            continue;
        }
        for (; a < block_end; ++a) {
            if (data_[a] | taint_[a])
                setByte(a, 0, false);
        }
    }
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
        setByte(addr, static_cast<uint8_t>(data_[addr] ^ 0x5a),
                flags_.secret_tainted);
    }
    flags_.secret_swapped = true;
}

void
Memory::installSecret(const uint8_t *data, size_t bytes, bool tainted)
{
    dv_assert(bytes <= kSecretBytes);
    for (size_t i = 0; i < kSecretBytes; ++i) {
        uint8_t value = i < bytes ? data[i] : 0;
        setByte(kSecretAddr + i, value, tainted);
    }
    flags_.secret_tainted = tainted;
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

} // namespace dejavuzz::swapmem
