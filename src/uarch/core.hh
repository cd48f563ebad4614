/**
 * @file
 * The out-of-order core model.
 *
 * A cycle-level RV64 out-of-order pipeline with speculative fetch
 * (BHT/BTB/FauBTB/RAS/loop/indirect predictors), register renaming
 * onto a unified physical register file, a reorder buffer with
 * delayed exception flush (the Meltdown transient window), a
 * load/store unit with memory-dependence speculation, store-to-load
 * forwarding, non-blocking D-cache with MSHR/LFB, two-level TLB, and
 * contention-prone functional units (unpipelined divide / FP divide,
 * shared fetch refill and load write-back ports).
 *
 * Every stateful structure carries taint shadows updated through the
 * CellIFT/diffIFT policy kernels, and the core is a value type: the
 * differential harness snapshots and restores it by copy-assignment
 * at the transient boundary. No member may point into the core
 * itself.
 */

#ifndef DEJAVUZZ_UARCH_CORE_HH
#define DEJAVUZZ_UARCH_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ift/coverage.hh"
#include "ift/liveness.hh"
#include "ift/policy.hh"
#include "ift/taint.hh"
#include "ift/taintacct.hh"
#include "ift/taintlog.hh"
#include "isa/exceptions.hh"
#include "isa/instr.hh"
#include "swapmem/memory.hh"
#include "uarch/caches.hh"
#include "uarch/config.hh"
#include "uarch/exec.hh"
#include "uarch/predictors.hh"
#include "uarch/tracelog.hh"

namespace dejavuzz::uarch {

/** Events a single tick reports to the harness. */
struct TickEvents
{
    bool swap_next = false;        ///< SWAPNEXT committed
    bool trapped = false;          ///< architectural trap flushed
    isa::ExcCause exc = isa::ExcCause::None;
    uint64_t trap_pc = 0;
};

/** One fetch-buffer slot. */
struct FetchSlot
{
    bool valid = false;
    uint64_t pc = 0;
    isa::Instr instr;
    bool pred_taken = false;
    TV pred_target;
    bool ras_pushed = false;
    bool ras_popped = false;
    isa::ExcCause fetch_exc = isa::ExcCause::None;
    uint8_t pc_taint = 0;   ///< fetched down a tainted path
};

/** Load-execution phases. */
enum class LoadPhase : uint8_t { None, Tlb, Cache, Mshr, Wb };

/** Reorder buffer entry. */
struct RobEntry
{
    bool valid = false;
    uint64_t seq = 0;
    uint64_t pc = 0;
    isa::Instr instr;

    uint8_t stage = 0;          ///< 0 waiting, 1 executing, 2 done
    LoadPhase load_phase = LoadPhase::None;
    unsigned remaining = 0;
    int mshr_idx = -1;

    TV result;
    bool has_rd = false;
    uint8_t rd_slot = 0;        ///< arch reg (fp regs at +32)
    uint16_t prf_idx = 0;
    uint16_t prf_old = 0;
    bool src1_valid = false;
    bool src2_valid = false;
    uint16_t src1_prf = 0;
    uint16_t src2_prf = 0;

    int lq = -1;
    int sq = -1;

    bool is_ctrl = false;
    bool pred_taken = false;
    TV pred_target;
    bool ras_pushed = false;
    bool ras_popped = false;
    bool actual_taken = false;
    TV actual_target;
    bool resolved = false;

    isa::ExcCause exc = isa::ExcCause::None;
    TV badaddr;

    TV addr;                    ///< memory effective address
    unsigned bytes = 0;
    bool forwarded = false;

    /**
     * Taint of the entry's field registers (the Fig. 2 uopc analog).
     * Only the taint is modelled: nothing reads the bundle's value,
     * and the instruction itself is in @c instr.
     */
    uint64_t meta = 0;

    uint32_t dispatch_cycle = 0;
};

/** Load queue entry. */
struct LqEntry
{
    bool valid = false;
    int rob_slot = -1;
    uint64_t seq = 0;
    TV addr;
    unsigned bytes = 0;
    bool addr_ready = false;
    bool done = false;
    bool speculative = false; ///< issued past an unresolved older store
};

/** Store queue entry. */
struct SqEntry
{
    bool valid = false;
    int rob_slot = -1;
    uint64_t seq = 0;
    TV addr;
    TV data;
    unsigned bytes = 0;
    bool addr_ready = false;
};

/** Per-module taint statistics sampled each cycle. */
struct ModuleStat
{
    uint32_t tainted_regs = 0;
    uint64_t taint_bits = 0;
};

/** Contention/event counters for timing attribution (Table 5). */
struct ContentionCounters
{
    uint64_t fetch_refill_wait = 0; ///< B4: fetch blocked by refill
    uint64_t load_wb_conflict = 0;  ///< B5: wb port steal
    uint64_t fdiv_busy_wait = 0;    ///< Spectre-Rewind style
    uint64_t div_busy_wait = 0;
    uint64_t mem_port_wait = 0;
};

class Core
{
  public:
    explicit Core(const CoreConfig &config);

    /**
     * Restore the freshly-constructed state while keeping every
     * vector's storage: a pooled Core resets without allocating and
     * is bit-identical to a newly constructed one (asserted by the
     * reset-reuse tests). The differential harness reuses two pooled
     * cores across all of a campaign's iterations.
     */
    void reset();

    /** Flush the pipeline and begin fetching at @p entry. */
    void startSequence(uint64_t entry);
    /** Swap-runtime icache flush (fence.i analog). */
    void flushICache() { icache_.flush(); }

    /** Advance one cycle. */
    TickEvents tick(swapmem::Memory &mem, ift::TaintCtx &ctx,
                    TraceLog *trace);

    uint64_t cycle() const { return cycle_; }

    // --- observability --------------------------------------------------
    /**
     * Per-module taint statistics (coverage + taint log). O(kModCount)
     * assembly from the incremental accounts — no state scan.
     */
    void moduleTaintStats(
        std::array<ModuleStat, kModCount> &stats) const;

    /**
     * The original O(state) full re-scan, kept as the cross-check
     * oracle for the incremental accounts (ift/taintacct.hh).
     */
    void moduleTaintStatsRescan(
        std::array<ModuleStat, kModCount> &stats) const;

    /**
     * Cross-check the incremental accounts against a full re-scan;
     * true when every module matches. Always compiled (the default
     * build defines NDEBUG, so the randomized property test calls
     * this explicitly). Counts obs::Ctr::TaintRescanChecks.
     */
    bool verifyTaintAccounts() const;

    /**
     * Rebuild the waiting (stage 0) and executing (stage 1) sets from
     * the live RoB window and compare them with the stage masks that
     * issue and execute iterate, both by slot and in the oldest-first
     * order they are visited in; true when all match. Always
     * compiled, like verifyTaintAccounts().
     */
    bool verifyStageMasks() const;

    /** Lifetime taint-contribution transitions across all accounts. */
    uint64_t taintTransitions() const;

    /**
     * Log this cycle's module taint into the change log @p log: a new
     * record only when the sample differs from the last record's,
     * else the last record just extends to this cycle. A cycle on
     * which no account and no scalar that moduleTaintStats reads has
     * changed does not even assemble the sample.
     */
    void appendTaintLog(ift::TaintLog &log) const;

    /** Register this core's modules with a coverage matrix. */
    static std::array<uint16_t, kModCount>
    registerModules(ift::TaintCoverage &coverage,
                    const CoreConfig &config);

    /** Hash of the timing components (SpecDoctor's oracle). */
    uint64_t timingStateHash() const;

    /**
     * Hash of the *data* held by the timing components: the backing
     * bytes of every valid d-cache line plus the (possibly stale) LFB
     * contents. SpecDoctor's oracle sees secret values resting in
     * these arrays even when they were never encoded - its false
     * positive source (paper §6.3).
     */
    uint64_t cachedDataHash(const swapmem::Memory &mem) const;

    /** Snapshot all sink arrays for liveness analysis. */
    void enumSinks(std::vector<ift::SinkSnapshot> &out) const;

    /** Structural inventory (Table 2). */
    struct Inventory
    {
        unsigned modules = 0;
        unsigned state_regs = 0;
        uint64_t state_bits = 0;
        unsigned annotated_sinks = 0;
    };
    Inventory inventory() const;

    /** Configuration (stable after construction; non-const so the
     *  harness can snapshot a Core by copy-assignment). */
    CoreConfig cfg;
    ContentionCounters contention;

    // --- architectural state (exposed for tests/harness) ----------------
    TV pc;
    isa::Priv priv = isa::Priv::U;

    /** Architectural view of a register (through the rename map). */
    TV archReg(unsigned index) const;

    // Pipeline structures (public: internal microarchitecture the
    // tests and the paper's analyses reach into, gem5-style).
    /** Fetch buffer: a ring of cfg.fetch_buffer slots, oldest at
     *  fetchq_head, fetchq_count of them live. */
    std::vector<FetchSlot> fetchq;
    unsigned fetchq_head = 0;
    unsigned fetchq_count = 0;
    std::vector<RobEntry> rob;
    unsigned rob_head = 0;
    unsigned rob_count = 0;
    std::array<uint16_t, 64> rename_map{};
    std::array<uint8_t, 64> rename_taint{};
    std::vector<TV> prf;
    std::vector<uint8_t> prf_busy;
    std::vector<uint8_t> prf_alloc;
    std::vector<uint16_t> prf_free;
    std::vector<LqEntry> lq;
    std::vector<SqEntry> sq;

    Bht bht;
    Btb btb;
    Btb faubtb;
    Ras ras;
    LoopPred loop;
    IndPred indpred;
    ICache icache_;
    DCache dcache;
    Tlb dtlb;
    Tlb l2tlb;

    /** Load-wait table for memory-dependence prediction. */
    std::vector<uint8_t> load_wait;

    /** FP-divide / integer-divide unit busy-until cycles. */
    uint64_t fdiv_busy_until = 0;
    uint64_t div_busy_until = 0;
    /** Operand latch of the FP divider (a taintable latch). */
    TV fdiv_latch;
    /**
     * RoB tail-pointer taint. Once a rollback with tainted flushed
     * state fires under an open control-taint gate, the pointer stays
     * tainted and every subsequent enqueue inherits a tainted enable
     * (the CellIFT explosion is monotone, Fig. 6).
     */
    TV rob_tail_taint_;

  private:
    friend class CoreTester;

    struct BtbCorrection
    {
        bool valid = false;
        uint64_t pc = 0;
        TV target;
    };

    // --- tick phases ----------------------------------------------------
    TickEvents phaseCommit(swapmem::Memory &mem, ift::TaintCtx &ctx,
                           TraceLog *trace);
    void phaseExecute(swapmem::Memory &mem, ift::TaintCtx &ctx,
                      TraceLog *trace);
    void phaseIssue(swapmem::Memory &mem, ift::TaintCtx &ctx,
                    TraceLog *trace);
    void phaseDispatch(ift::TaintCtx &ctx, TraceLog *trace);
    void phaseFetch(swapmem::Memory &mem, ift::TaintCtx &ctx);

    // --- helpers ----------------------------------------------------------
    /** RoB slot @p offset places behind the head (offset <= entries). */
    unsigned
    robSlot(unsigned offset) const
    {
        unsigned slot = rob_head + offset;
        return slot >= cfg.rob_entries ? slot - cfg.rob_entries : slot;
    }
    /** Fetch-buffer slot @p offset places behind the oldest. */
    unsigned
    fetchSlot(unsigned offset) const
    {
        unsigned slot = fetchq_head + offset;
        return slot >= cfg.fetch_buffer ? slot - cfg.fetch_buffer : slot;
    }
    RobEntry *robHeadEntry();
    bool robFull() const { return rob_count >= cfg.rob_entries; }
    uint64_t nextSeq() { return seq_counter_++; }

    void squashYounger(uint64_t from_seq, bool inclusive, TV redirect,
                       TV squash_taint, SquashCause cause,
                       isa::ExcCause exc, uint64_t squash_pc,
                       uint64_t spec_pc, uint32_t open_cycle,
                       ift::TaintCtx &ctx, TraceLog *trace);
    void flushAll(TV redirect, TV squash_taint, SquashCause cause,
                  isa::ExcCause exc, uint64_t squash_pc,
                  ift::TaintCtx &ctx, TraceLog *trace);
    void rollbackEntry(RobEntry &entry);
    /** Stage-mask bit of the RoB slot holding @p entry. */
    uint64_t
    slotBit(const RobEntry &entry) const
    {
        return 1ULL << (&entry - rob.data());
    }
    /** Move @p entry to @p stage, keeping the stage masks exact. */
    void setStage(RobEntry &entry, uint8_t stage);
    /** @p mask re-indexed by age: bit n is the slot robSlot(n). */
    uint64_t byAge(uint64_t mask) const;
    void applyRollbackTaint(TV squash_taint, ift::TaintCtx &ctx);

    void resolveControl(RobEntry &entry, ift::TaintCtx &ctx,
                        TraceLog *trace);
    void commitPredictorUpdate(RobEntry &entry);
    void finishLoad(RobEntry &entry, swapmem::Memory &mem,
                    ift::TaintCtx &ctx);
    bool issueLoad(RobEntry &entry, swapmem::Memory &mem,
                   ift::TaintCtx &ctx);
    void predictAtFetch(FetchSlot &slot, ift::TaintCtx &ctx);

    uint64_t cycle_ = 0;
    uint64_t seq_counter_ = 1;

    // One bit per RoB slot: the live entries waiting to issue (stage
    // 0) and executing (stage 1). Issue and execute visit only these
    // instead of scanning the whole window. Plain values, so the
    // transient-boundary snapshot copy carries them.
    uint64_t rob_waiting_ = 0;
    uint64_t rob_executing_ = 0;

    // Incremental taint accounts for the container state the old
    // per-cycle scan walked (prf/rob/lq/sq plus the fetchq pc-taint
    // and rename-map taint populations). Plain values: the
    // transient-boundary snapshot copies them for free, and a resume
    // restores them together with the state they describe.
    ift::TaintAcct prf_acct_;
    ift::TaintAcct rob_acct_;
    ift::TaintAcct lq_acct_;
    ift::TaintAcct sq_acct_;
    uint32_t fetchq_taint_slots_ = 0;
    uint32_t rename_taint_regs_ = 0;

    // Per-cycle port accounting.
    unsigned alu_used_ = 0;
    unsigned mem_used_ = 0;
    unsigned wb_used_ = 0;
    bool wb_pipeline_claimed_ = false;

    // Trap machinery.
    bool trap_pending_ = false;
    unsigned trap_countdown_ = 0;
    isa::ExcCause trap_cause_ = isa::ExcCause::None;
    uint64_t trap_pc_ = 0;
    TV trap_taint_;
    uint32_t trap_open_cycle_ = 0;

    // Decode-stage illegal stall (BOOM behaviour).
    bool decode_blocked_ = false;

    // B3 race: deferred BTB correction from an indirect mispredict.
    BtbCorrection btb_correction_;

    // Statistics for trace log.
    uint8_t enq_this_cycle_ = 0;
    uint8_t commit_this_cycle_ = 0;
};

} // namespace dejavuzz::uarch

#endif // DEJAVUZZ_UARCH_CORE_HH
