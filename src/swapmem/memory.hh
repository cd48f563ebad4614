/**
 * @file
 * Byte-addressable backing memory with per-byte taint, page
 * permissions and PMP-style secret protection.
 *
 * Each DUT instance owns one Memory (the dedicated region differs
 * between instances; everything else is identical). Writes mark the
 * pages they dirty, so resetting or copying an image costs in
 * proportion to what a run wrote, not to the image size.
 */

#ifndef DEJAVUZZ_SWAPMEM_MEMORY_HH
#define DEJAVUZZ_SWAPMEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ift/taint.hh"
#include "isa/exceptions.hh"
#include "swapmem/layout.hh"

namespace dejavuzz::swapmem {

/** How the secret block is architecturally protected right now. */
enum class SecretProt : uint8_t {
    Open,   ///< readable by U-mode (training phase / Spectre payloads)
    Pmp,    ///< PMP-denied => load access fault
    Pte,    ///< PTE-denied => load page fault
};

/** Kind of access being permission-checked. */
enum class AccessKind : uint8_t { Load, Store, Fetch };

class Memory
{
  public:
    Memory();

    /**
     * Restore the pristine all-zero image, reusing the allocation.
     * Only pages dirtied since construction (or the previous reset)
     * are cleared, so a pooled Memory resets in proportion to the
     * previous run's write footprint rather than the image size.
     * Bit-identical to a freshly constructed Memory.
     */
    void reset();

    /**
     * Make this Memory bit-identical to @p other, reusing the
     * allocation. Cost is proportional to the union of the two dirty
     * footprints, not the image size: pages dirty here but clean in
     * @p other are zeroed; pages dirty in @p other are copied.
     */
    void copyFrom(const Memory &other);

    // --- raw byte access (no permission checks) ------------------------
    // Bytes outside the image read as clean zeros; stores to them are
    // dropped. A store that leaves a byte's value and taint as they
    // were is dropped too: it dirties no page, so every store path
    // costs in proportion to the bytes it changes.
    uint8_t byte(uint64_t addr) const;
    void setByte(uint64_t addr, uint8_t value, bool tainted);

    /** Little-endian load of @p bytes (1/2/4/8) with taint. */
    ift::TV read(uint64_t addr, unsigned bytes) const;
    /** Little-endian store with per-byte taint derived from tv.t. */
    void write(uint64_t addr, unsigned bytes, ift::TV tv);

    /** 32-bit instruction fetch word. */
    uint32_t fetchWord(uint64_t addr) const;

    /** Store @p count little-endian, untainted words from @p addr. */
    void loadBlock(uint64_t addr, const uint32_t *words, size_t count);
    /**
     * Zero-fill [addr, addr + bytes) clamped to the image, clearing
     * taint as well. Skips clean pages and scans the rest in 64-byte
     * blocks word-wide, so only the non-zero bytes are stored.
     */
    void zeroRange(uint64_t addr, uint64_t bytes);

    // --- permissions ----------------------------------------------------
    /**
     * Architectural permission check. Returns ExcCause::None when the
     * access is allowed for @p priv.
     */
    isa::ExcCause check(uint64_t addr, unsigned bytes, AccessKind kind,
                        isa::Priv priv) const;

    void setSecretProt(SecretProt prot) { flags_.secret_prot = prot; }
    SecretProt secretProt() const { return flags_.secret_prot; }

    /**
     * Victim placement: when set, the secret block lives in a
     * supervisor page - any U-mode access page-faults independent of
     * the PMP-style secret protection (MeltdownSupervisor template).
     */
    void setVictimSupervisor(bool on) { flags_.victim_supervisor = on; }
    bool victimSupervisor() const { return flags_.victim_supervisor; }

    /**
     * Double-fetch swap: XOR-mutate the secret bytes in place.
     * Idempotent per swap generation - the flag makes the packet
     * reload after a transient-boundary resume apply the swap exactly
     * once.
     */
    void applySecretSwap();
    bool secretSwapped() const { return flags_.secret_swapped; }

    /** Install the secret block (tainted bytes). */
    void installSecret(const uint8_t *data, size_t bytes);
    /** Write a mutable operand slot (untainted). */
    void setOperand(unsigned slot, uint64_t value);
    uint64_t operandAddr(unsigned slot) const;

    bool inRange(uint64_t addr) const { return addr < kMemBytes; }

  private:
    std::vector<uint8_t> data_;
    std::vector<uint8_t> taint_;
    /** Protection state outside the byte image; packet loads flip it. */
    struct Flags
    {
        SecretProt secret_prot = SecretProt::Open;
        bool victim_supervisor = false;
        bool secret_swapped = false;
    };

    Flags flags_;
    /** One bit per page with any write since the last reset. */
    uint64_t dirty_pages_ = 0;
    static_assert(kMemBytes / kPageBytes <= 64,
                  "dirty-page mask is a single 64-bit word");
};

} // namespace dejavuzz::swapmem

#endif // DEJAVUZZ_SWAPMEM_MEMORY_HH
