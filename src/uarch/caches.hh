/**
 * @file
 * Cache hierarchy models: ICache (tags + one refill engine), DCache
 * (tags + per-line taint), MSHRs and the Line Fill Buffer, and the
 * two-level TLB.
 *
 * The LFB is the paper's flagship liveness example (§3.1 C2-2): after
 * a refill completes, the MSHR flips its state register to invalid
 * but the LFB data - possibly carrying secret taint - is not cleared.
 * The LFB sink is annotated with the MSHR valid vector, so liveness
 * analysis filters those stale taints.
 */

#ifndef DEJAVUZZ_UARCH_CACHES_HH
#define DEJAVUZZ_UARCH_CACHES_HH

#include <cstdint>
#include <vector>

#include "ift/liveness.hh"
#include "ift/taint.hh"
#include "ift/taintacct.hh"
#include "util/bits.hh"

namespace dejavuzz::swapmem {
class Memory;
} // namespace dejavuzz::swapmem

namespace dejavuzz::uarch {

using ift::TV;

// Each cache structure keeps ift::TaintAcct running sums next to its
// storage; taintedRegCount()/taintBits() are O(1) reads and the
// *Rescan() variants keep the original scan bodies as the cross-check
// oracle (see ift/taintacct.hh).

constexpr uint64_t kLineBytes = 64;

inline uint64_t
lineOf(uint64_t addr)
{
    return addr / kLineBytes;
}

/** Direct-mapped instruction cache with a single refill engine. */
class ICache
{
  public:
    explicit ICache(unsigned lines, unsigned miss_latency);

    /** Restore the freshly-constructed state, keeping the storage. */
    void reset();

    /** Tag lookup only (contents come from backing memory). */
    bool hit(uint64_t addr) const;

    /** True when the refill engine is busy (B4 contention point). */
    bool refillBusy() const { return refill_remaining_ > 0; }
    uint64_t refillLine() const { return refill_line_; }

    /** Start a refill for @p addr; returns false if the engine is busy. */
    bool startRefill(uint64_t addr, bool addr_tainted);

    /** Advance one cycle; installs the line when the refill finishes. */
    void tick();

    /** Abandon an in-flight refill (fixed-B4 behaviour on squash). */
    void cancelRefill() { refill_remaining_ = 0; }

    /** fence.i / swap-runtime flush. */
    void flush();

    uint64_t stateHash() const;
    uint32_t taintedRegCount() const { return acct_.regs; }
    uint64_t taintBits() const { return acct_.bits; }
    uint32_t taintedRegCountRescan() const;
    uint64_t taintBitsRescan() const;
    uint64_t taintTransitions() const { return acct_.transitions; }
    size_t lines() const { return tags_.size(); }

    void appendSinks(ift::SinkWriter &out) const;

    /** Cycles the refill engine was busy (timing attribution). */
    uint64_t busy_cycles = 0;

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint8_t taint = 0; ///< line installed by a tainted fetch path
    };
    size_t indexOf(uint64_t line) const;

    std::vector<Line> tags_;
    /// Contribution per tainted line: {1 reg, 8 bits} — the derived
    /// bits=regs*8 semantics of the original scan.
    ift::TaintAcct acct_;
    unsigned miss_latency_;
    unsigned refill_remaining_ = 0;
    uint64_t refill_line_ = 0;
    bool refill_taint_ = false;
};

/** One miss status holding register. */
struct MshrEntry
{
    bool valid = false;
    uint64_t line = 0;
    unsigned remaining = 0;
    TV addr;               ///< full (possibly tainted) request address
    int lfb_index = -1;
    bool faulting = false; ///< refill raced a fault; do not install
    bool addr_ctl = false; ///< tainted-address control gate was open
};

/** One line fill buffer entry; data persists after the MSHR dies. */
struct LfbEntry
{
    uint64_t line = 0;
    TV data;               ///< representative refilled data (+taint)
    // No valid bit of its own: liveness comes from the owning MSHR,
    // exactly the paper's mshr_valid_vec annotation.
};

/**
 * Direct-mapped write-through data cache with MSHRs and an LFB.
 * Line data lives in backing memory; the cache tracks tags, per-line
 * taint and timing.
 */
class DCache
{
  public:
    DCache(unsigned lines, unsigned mshrs, unsigned lfbs,
           unsigned hit_latency, unsigned miss_latency);

    /** Restore the freshly-constructed state, keeping the storage. */
    void reset();

    bool hit(uint64_t addr) const;
    unsigned hitLatency() const { return hit_latency_; }

    /** Taint summary of the line containing @p addr (0 on miss). */
    uint64_t lineTaint(uint64_t addr) const;

    /**
     * Allocate an MSHR+LFB pair for a missing @p addr. @p addr_ctl is
     * the Table-1 memory-write control gate: when true, the installed
     * line is fully tainted by the (diverging) tainted address.
     * Returns the MSHR index or -1 when none is free.
     */
    int allocMshr(TV addr, bool addr_ctl);

    /** MSHR holding @p addr's line, or -1. */
    int findMshr(uint64_t addr) const;
    bool mshrDone(int index) const;

    /**
     * Advance refills one cycle. Completed refills read their data
     * from @p backing, install the line (tag + taint), write the data
     * into the LFB, and retire the MSHR - leaving the (possibly
     * tainted) LFB data dead.
     */
    void tick(const swapmem::Memory &backing);

    /** Store hit update: merge taint into the line (write-through). */
    void storeUpdate(uint64_t addr, TV data);

    /**
     * Hash of the cached data state: every valid line's bytes read
     * from @p backing, then the raw LFB data (stale data included).
     */
    uint64_t dataHash(const swapmem::Memory &backing) const;

    /** Invalidate everything (not used by swaps; test hook). */
    void flush();

    uint64_t stateHash() const;
    /// cache lines with taint (O(1) running sum)
    uint32_t taintedRegCount() const { return line_acct_.regs; }
    uint64_t taintBits() const { return line_acct_.bits; }
    uint32_t taintedRegCountRescan() const;
    uint64_t taintBitsRescan() const;
    size_t lines() const { return tags_.size(); }

    /** mshr/lfb module stats (reported as separate modules). */
    uint32_t mshrTaintedRegCount() const { return mshr_acct_.regs; }
    uint64_t mshrTaintBits() const { return mshr_acct_.bits; }
    uint32_t mshrTaintedRegCountRescan() const;
    uint64_t mshrTaintBitsRescan() const;
    uint32_t lfbTaintedRegCount() const { return lfb_acct_.regs; }
    uint64_t lfbTaintBits() const { return lfb_acct_.bits; }
    uint32_t lfbTaintedRegCountRescan() const;
    uint64_t lfbTaintBitsRescan() const;
    uint64_t
    taintTransitions() const
    {
        return line_acct_.transitions + mshr_acct_.transitions +
               lfb_acct_.transitions;
    }

    void appendSinks(ift::SinkWriter &out) const;

    uint64_t busy_cycles = 0;

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t taint = 0; ///< OR of taints stored into the line
    };
    size_t indexOf(uint64_t line) const;

    std::vector<Line> tags_;
    std::vector<MshrEntry> mshrs_;
    std::vector<LfbEntry> lfbs_;
    std::vector<uint8_t> lfb_owner_valid_; ///< mshr_valid_vec analog
    ift::TaintAcct line_acct_;
    /// Valid-gated (a retired MSHR stops counting) — unlike the LFB
    /// account, which keeps counting stale data by design (C2-2).
    ift::TaintAcct mshr_acct_;
    ift::TaintAcct lfb_acct_;
    unsigned hit_latency_;
    unsigned miss_latency_;
};

/** Fully-associative TLB level. */
class Tlb
{
  public:
    Tlb(unsigned entries, const char *name);

    /** Restore the freshly-constructed state, keeping the storage. */
    void reset();

    bool hit(uint64_t vpn) const;
    void insert(TV vpn);
    void flush();

    uint64_t stateHash() const;
    uint32_t taintedRegCount() const { return acct_.regs; }
    uint64_t taintBits() const { return acct_.bits; }
    uint32_t taintedRegCountRescan() const;
    uint64_t taintBitsRescan() const;
    uint64_t taintTransitions() const { return acct_.transitions; }
    size_t entries() const { return slots_.size(); }

    void appendSinks(ift::SinkWriter &out) const;

  private:
    struct Slot
    {
        bool valid = false;
        TV vpn;
    };
    std::vector<Slot> slots_;
    /// Counts vpn taint regardless of validity (scan quirk kept).
    ift::TaintAcct acct_;
    const char *name_;
    size_t next_victim_ = 0;
    /** Interned sink id, cached on first appendSinks. */
    mutable ift::SinkId sink_id_ = ift::kInvalidSinkId;
};

} // namespace dejavuzz::uarch

#endif // DEJAVUZZ_UARCH_CACHES_HH
