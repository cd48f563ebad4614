#include "uarch/core.hh"

#include "isa/encoding.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dejavuzz::uarch {

using ift::TV;
using isa::ExcCause;
using isa::Instr;
using isa::Op;
using isa::OpClass;
using swapmem::AccessKind;
using swapmem::Memory;

namespace {

/** Effective physical address width of the load unit (B1 truncation). */
constexpr unsigned kLoadUnitAddrBits = 18;

bool
rangesOverlap(uint64_t a, unsigned a_bytes, uint64_t b, unsigned b_bytes)
{
    return a < b + b_bytes && b < a + a_bytes;
}

// Taint contributions of the scanned containers, matching the legacy
// moduleTaintStats scan exactly (see ift/taintacct.hh): every write to
// a counted field is wrapped in a before/after pair at the write site.
// Each returns at once when its taint is zero, as it always is on a
// value lane, so an untainted entry costs one test and no popcount.
// They are marked inline because GCC would otherwise call them out of
// line, now that popcount64 is an inline sum.

inline ift::TaintContrib
robContrib(const RobEntry &entry)
{
    // regs counts any-field taint (meta|result|addr); bits counts only
    // meta+result, mirroring the original scan's asymmetry.
    uint64_t any = entry.meta | entry.result.t | entry.addr.t;
    if (any == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(entry.meta)) +
                    static_cast<uint64_t>(popcount64(entry.result.t))};
}

inline ift::TaintContrib
lqContrib(const LqEntry &entry)
{
    // Counted regardless of entry.valid (scan quirk kept).
    if (entry.addr.t == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(entry.addr.t))};
}

inline ift::TaintContrib
sqContrib(const SqEntry &entry)
{
    if ((entry.addr.t | entry.data.t) == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(entry.addr.t)) +
                    static_cast<uint64_t>(popcount64(entry.data.t))};
}

inline ift::TaintContrib
prfContrib(const TV &value)
{
    if (value.t == 0)
        return {};
    return {1u, static_cast<uint64_t>(popcount64(value.t))};
}

/** Defaults the per-cycle slot resets copy from (see phaseDispatch). */
const RobEntry kEmptyRobEntry{};
const LqEntry kEmptyLqEntry{};
const SqEntry kEmptySqEntry{};
const FetchSlot kEmptyFetchSlot{};

/**
 * isa::decode of a fetched word through a per-thread direct-mapped
 * memo keyed by the raw word: exact, because decode is a pure
 * function of the word. Per thread rather than per Core, so the
 * harness's captures and restores never copy it.
 */
const isa::Instr &
decodeFetched(uint32_t word)
{
    struct Entry
    {
        bool valid = false;
        uint32_t word = 0;
        isa::Instr instr;
    };
    static thread_local std::array<Entry, 512> memo{};
    Entry &entry = memo[(word * 0x9e3779b1u) >> 23];
    if (!entry.valid || entry.word != word) {
        entry.valid = true;
        entry.word = word;
        entry.instr = isa::decode(word);
    }
    return entry.instr;
}

/** Bulk adoption after a wholesale recompute (RoB-rollback taint). */
void
adoptBulk(ift::TaintAcct &acct, uint32_t regs, uint64_t bits)
{
    if (acct.regs != regs || acct.bits != bits)
        ++acct.transitions;
    acct.regs = regs;
    acct.bits = bits;
}

} // namespace

const char *
squashCauseName(SquashCause cause)
{
    switch (cause) {
      case SquashCause::None: return "none";
      case SquashCause::BranchMispredict: return "branch-mispredict";
      case SquashCause::JumpMispredict: return "jump-mispredict";
      case SquashCause::ReturnMispredict: return "return-mispredict";
      case SquashCause::MemDisambiguation: return "mem-disambiguation";
      case SquashCause::Exception: return "exception";
      case SquashCause::PrivReturn: return "priv-return";
    }
    return "?";
}

Core::Core(const CoreConfig &config)
    : cfg(config),
      bht(config.bht_entries),
      btb(config.btb_entries),
      faubtb(config.faubtb_entries),
      ras(config.ras_entries),
      loop(config.loop_entries),
      indpred(config.ind_entries),
      icache_(config.icache_lines, config.icache_miss_latency),
      dcache(config.dcache_lines, config.mshr_entries,
             config.lfb_entries, config.dcache_hit_latency,
             config.dcache_miss_latency),
      dtlb(config.dtlb_entries, "dtlb"),
      l2tlb(config.l2tlb_entries, "l2tlb")
{
    dv_assert(cfg.prf_entries > 64);
    // One stage-mask bit per RoB slot.
    dv_assert(cfg.rob_entries <= 64);
    reset();
}

void
Core::reset()
{
    priv = isa::Priv::U;
    contention = ContentionCounters{};

    fetchq.assign(cfg.fetch_buffer, FetchSlot{});
    fetchq_head = 0;
    fetchq_count = 0;
    rob.assign(cfg.rob_entries, RobEntry{});
    rob_head = 0;
    rob_count = 0;
    rob_waiting_ = 0;
    rob_executing_ = 0;
    rename_taint.fill(0);
    prf.assign(cfg.prf_entries, TV{});
    prf_busy.assign(cfg.prf_entries, 0);
    prf_alloc.assign(cfg.prf_entries, 0);
    prf_free.clear();
    lq.assign(cfg.lq_entries, LqEntry{});
    sq.assign(cfg.sq_entries, SqEntry{});
    load_wait.assign(256, 0);
    // Identity-map the 64 architectural registers (32 int + 32 fp)
    // onto the first physical registers; the rest go to the free list.
    for (unsigned i = 0; i < 64; ++i) {
        rename_map[i] = static_cast<uint16_t>(i);
        prf_alloc[i] = 1;
    }
    for (unsigned i = cfg.prf_entries; i-- > 64;)
        prf_free.push_back(static_cast<uint16_t>(i));
    pc = ift::clean(swapmem::kSwapBase);

    bht.reset();
    btb.reset();
    faubtb.reset();
    ras.reset();
    loop.reset();
    indpred.reset();
    icache_.reset();
    dcache.reset();
    dtlb.reset();
    l2tlb.reset();

    fdiv_busy_until = 0;
    div_busy_until = 0;
    fdiv_latch = TV{};
    rob_tail_taint_ = TV{};

    cycle_ = 0;
    seq_counter_ = 1;
    alu_used_ = 0;
    mem_used_ = 0;
    wb_used_ = 0;
    wb_pipeline_claimed_ = false;
    trap_pending_ = false;
    trap_countdown_ = 0;
    trap_cause_ = isa::ExcCause::None;
    trap_pc_ = 0;
    trap_taint_ = TV{};
    trap_open_cycle_ = 0;
    decode_blocked_ = false;
    btb_correction_ = BtbCorrection{};
    enq_this_cycle_ = 0;
    commit_this_cycle_ = 0;

    // All counted containers were just reassigned to clean defaults.
    prf_acct_.reset();
    rob_acct_.reset();
    lq_acct_.reset();
    sq_acct_.reset();
    fetchq_taint_slots_ = 0;
    rename_taint_regs_ = 0;
}

RobEntry *
Core::robHeadEntry()
{
    return rob_count > 0 ? &rob[rob_head] : nullptr;
}

TV
Core::archReg(unsigned index) const
{
    return prf[rename_map[index & 63]];
}

void
Core::startSequence(uint64_t entry)
{
    // Architectural redirect from the swap runtime: hard flush, no
    // taint (the runtime is outside the DUT).
    for (auto &e : rob) {
        if (e.valid)
            rollbackEntry(e);
    }
    // The rollbacks above cleared every stage-mask bit.
    rob_head = 0;
    rob_count = 0;
    fetchq_count = 0;
    fetchq_taint_slots_ = 0;
    for (auto &e : lq)
        e.valid = false;
    for (auto &e : sq)
        e.valid = false;
    decode_blocked_ = false;
    trap_pending_ = false;
    btb_correction_.valid = false;
    ras.recover(false);
    pc = ift::clean(entry);
}

// --- squash machinery ----------------------------------------------------

void
Core::rollbackEntry(RobEntry &entry)
{
    if (entry.has_rd) {
        rename_map[entry.rd_slot] = entry.prf_old;
        // The freed physical register keeps its value and taint: the
        // residue a liveness analysis must recognise as dead.
        prf_busy[entry.prf_idx] = 0;
        prf_alloc[entry.prf_idx] = 0;
        prf_free.push_back(entry.prf_idx);
    }
    if (entry.lq >= 0)
        lq[entry.lq].valid = false;
    if (entry.sq >= 0)
        sq[entry.sq].valid = false;
    entry.valid = false;
    rob_waiting_ &= ~slotBit(entry);
    rob_executing_ &= ~slotBit(entry);
}

void
Core::setStage(RobEntry &entry, uint8_t stage)
{
    uint64_t bit = slotBit(entry);
    rob_waiting_ &= ~bit;
    rob_executing_ &= ~bit;
    if (stage == 0)
        rob_waiting_ |= bit;
    else if (stage == 1)
        rob_executing_ |= bit;
    entry.stage = stage;
}

uint64_t
Core::byAge(uint64_t mask) const
{
    // Rotate right by rob_head within a rob_entries-bit ring (any
    // size up to 64, not only powers of two).
    if (rob_head == 0)
        return mask;
    return ((mask >> rob_head) | (mask << (cfg.rob_entries - rob_head))) &
           maskLow(cfg.rob_entries);
}

void
Core::applyRollbackTaint(TV squash_taint, ift::TaintCtx &ctx)
{
    // The Fig. 2 RoB-rollback policy: the moving tail pointer is a
    // tainted enable on every entry's field registers. Under CellIFT
    // the gate is unconditionally open; under diffIFT it only opens
    // when the squash actually diverges between the secret variants.
    bool gate = ctx.gate(ift::sigId(kModRob, 1), 1);
    if (squash_taint.t == 0 || !gate)
        return;
    // The tail pointer register is now tainted and - since the policy
    // never clears taints - stays tainted: every later enqueue has a
    // tainted enable (the CellIFT taint-explosion mechanism).
    rob_tail_taint_.t = ~0ULL;
    for (auto &entry : rob)
        entry.meta = ~0ULL;
    for (auto &taint : rename_taint)
        taint = 1;
    for (auto &e : lq)
        e.addr.t = ~0ULL;
    for (auto &e : sq) {
        e.addr.t = ~0ULL;
        e.data.t = ~0ULL;
    }
    for (unsigned n = 0; n < fetchq_count; ++n)
        fetchq[fetchSlot(n)].pc_taint = 1;
    pc.t = ~0ULL;

    // Bulk adoption: the rollback just rewrote whole containers, so
    // recompute their populations in closed form instead of wrapping
    // each element write. This path only runs on an actually-diverging
    // squash, never in the steady state.
    {
        uint64_t rob_bits = 0;
        for (const auto &entry : rob) {
            rob_bits +=
                64 + static_cast<uint64_t>(popcount64(entry.result.t));
        }
        adoptBulk(rob_acct_, static_cast<uint32_t>(rob.size()),
                  rob_bits);
    }
    rename_taint_regs_ = 64;
    adoptBulk(lq_acct_, static_cast<uint32_t>(lq.size()),
              64 * static_cast<uint64_t>(lq.size()));
    adoptBulk(sq_acct_, static_cast<uint32_t>(sq.size()),
              128 * static_cast<uint64_t>(sq.size()));
    fetchq_taint_slots_ = fetchq_count;
}

void
Core::squashYounger(uint64_t from_seq, bool inclusive, TV redirect,
                    TV squash_taint, SquashCause cause, ExcCause exc,
                    uint64_t squash_pc, uint64_t spec_pc,
                    uint32_t open_cycle, ift::TaintCtx &ctx,
                    TraceLog *trace)
{
    SquashRec rec;
    rec.cycle = static_cast<uint32_t>(cycle_);
    rec.open_cycle = open_cycle;
    rec.cause = cause;
    rec.exc = exc;
    rec.pc = squash_pc;
    rec.spec_pc = spec_pc;

    // Tainted state flushed by the rollback taints the tail-pointer
    // movement itself (the paper's §2.2 RoB example): record it so the
    // rollback control-taint policy sees a tainted enable.
    uint64_t flushed_taint = 0;
    while (rob_count > 0) {
        unsigned idx = robSlot(rob_count - 1);
        RobEntry &entry = rob[idx];
        bool victim = entry.seq > from_seq ||
                      (inclusive && entry.seq == from_seq);
        if (!victim)
            break;
        ++rec.flushed;
        if (entry.stage >= 1)
            ++rec.transient_executed;
        flushed_taint |= entry.result.t | entry.addr.t | entry.meta;
        rollbackEntry(entry);
        --rob_count;
    }
    if (flushed_taint != 0)
        squash_taint.t |= 1;
    fetchq_count = 0;
    fetchq_taint_slots_ = 0;
    decode_blocked_ = false;

    // RAS recovery (B2: only TOS + top entry restored).
    ras.recover(cfg.bug_b2_ras_partial_restore);

    // Fixed-B4 cores abandon speculative fetch refills on squash.
    if (!cfg.bug_b4_fetch_refill_preempt)
        icache_.cancelRefill();

    applyRollbackTaint(squash_taint, ctx);

    pc = redirect;
    bool gate = ctx.gate(ift::sigId(kModFrontend, 1), 1);
    if (squash_taint.t != 0 && gate)
        pc.t |= ~0ULL;

    if (trace != nullptr)
        trace->squashes.push_back(rec);
}

void
Core::flushAll(TV redirect, TV squash_taint, SquashCause cause,
               ExcCause exc, uint64_t squash_pc, ift::TaintCtx &ctx,
               TraceLog *trace)
{
    squashYounger(0, true, redirect, squash_taint, cause, exc,
                  squash_pc, squash_pc + 4, trap_open_cycle_, ctx,
                  trace);
}

// --- commit ---------------------------------------------------------------

void
Core::commitPredictorUpdate(RobEntry &entry)
{
    const Instr &instr = entry.instr;
    bool cond_taint = entry.actual_target.t != 0;

    if (isa::isBranch(instr.op)) {
        bht.update(entry.pc, entry.actual_taken, cond_taint);
        if (!cfg.speculative_predictor_update) {
            if (loop.enabled())
                loop.update(entry.pc, entry.actual_taken, cond_taint);
            if (entry.actual_taken)
                btb.update(entry.pc, entry.actual_target);
        }
    } else if (instr.op == Op::JALR) {
        if (!cfg.speculative_predictor_update) {
            indpred.update(entry.pc, entry.actual_target);
            btb.update(entry.pc, entry.actual_target);
        }
    }

    // Committed RAS mirror.
    if (isa::isCall(instr))
        ras.commitPush(ift::clean(entry.pc + 4));
    else if (isa::isRet(instr))
        ras.commitPop();
}

TickEvents
Core::phaseCommit(Memory &mem, ift::TaintCtx &ctx, TraceLog *trace)
{
    TickEvents ev;
    for (unsigned n = 0; n < cfg.commit_width; ++n) {
        if (rob_count == 0 || trap_pending_)
            break;
        RobEntry &head = rob[rob_head];
        if (!head.valid || head.stage != 2)
            break;

        if (head.exc != ExcCause::None) {
            // Exception reaches the head: the flush is not instant -
            // the RoB unwind takes trap_latency cycles during which
            // younger instructions keep executing transiently.
            trap_pending_ = true;
            trap_countdown_ = cfg.trap_latency;
            trap_cause_ = head.exc;
            trap_pc_ = head.pc;
            trap_taint_ = TV{1, (head.badaddr.t | head.result.t) != 0
                                    ? 1ULL : 0ULL};
            trap_open_cycle_ = head.dispatch_cycle;
            break;
        }

        if (head.instr.op == Op::SWAPNEXT) {
            ev.swap_next = true;
        }

        // A privileged return commits: everything younger in the RoB
        // was fetched and (partially) executed under the stale M
        // privilege, so it must be flushed - that flush is the
        // privilege-transition transient window.
        bool priv_return =
            (head.instr.op == Op::MRET || head.instr.op == Op::SRET) &&
            priv == isa::Priv::M;
        uint64_t ret_pc = head.pc;
        uint64_t ret_seq = head.seq;
        uint32_t ret_open = head.dispatch_cycle;

        commitPredictorUpdate(head);

        if (head.sq >= 0 && sq[head.sq].valid) {
            // Write-through store commit.
            SqEntry &store = sq[head.sq];
            mem.write(store.addr.v, store.bytes, store.data);
            dcache.storeUpdate(store.addr.v, store.data);
            store.valid = false;
        }
        if (head.lq >= 0)
            lq[head.lq].valid = false;

        if (head.has_rd) {
            prf_alloc[head.prf_old] = 0;
            prf_free.push_back(head.prf_old);
        }

        if (trace != nullptr) {
            trace->commits.push_back(CommitRec{
                static_cast<uint32_t>(cycle_), head.pc, head.instr.op});
        }
        ++commit_this_cycle_;

        // A committing entry is done (stage 2): neither stage mask
        // holds its slot.
        head.valid = false;
        if (++rob_head == cfg.rob_entries)
            rob_head = 0;
        --rob_count;

        if (priv_return) {
            priv = isa::Priv::U;
            squashYounger(ret_seq, false, ift::clean(ret_pc + 4),
                          TV{1, 0}, SquashCause::PrivReturn,
                          isa::ExcCause::None, ret_pc, ret_pc + 4,
                          ret_open, ctx, trace);
            break;
        }

        if (ev.swap_next)
            break;
    }
    return ev;
}

// --- execute ----------------------------------------------------------------

void
Core::resolveControl(RobEntry &entry, ift::TaintCtx &ctx,
                     TraceLog *trace)
{
    entry.resolved = true;
    const Instr &instr = entry.instr;
    bool mispredict = false;
    SquashCause cause = SquashCause::BranchMispredict;

    if (isa::isBranch(instr.op)) {
        mispredict = entry.pred_taken != entry.actual_taken;
        cause = SquashCause::BranchMispredict;
        if (cfg.speculative_predictor_update) {
            if (loop.enabled()) {
                loop.update(entry.pc, entry.actual_taken,
                            entry.actual_target.t != 0);
            }
            if (entry.actual_taken && faubtb.entries() > 0)
                faubtb.update(entry.pc, entry.actual_target);
        }
    } else if (instr.op == Op::JALR) {
        mispredict = entry.pred_target.v != entry.actual_target.v;
        cause = isa::isRet(instr) ? SquashCause::ReturnMispredict
                                  : SquashCause::JumpMispredict;
        if (cfg.speculative_predictor_update) {
            indpred.update(entry.pc, entry.actual_target);
            // The BTB write is staged one cycle; if an exception flush
            // lands in that cycle the B3 race misdirects it.
            btb_correction_.valid = true;
            btb_correction_.pc = entry.pc;
            btb_correction_.target = entry.actual_target;
        }
    } else {
        return; // jal: target known at fetch, never mispredicts
    }

    if (!mispredict)
        return;

    TV squash_taint{1, entry.actual_target.t != 0 ? 1ULL : 0ULL};
    uint64_t spec_pc =
        entry.pred_taken ? entry.pred_target.v : entry.pc + 4;
    squashYounger(entry.seq, false, entry.actual_target, squash_taint,
                  cause, ExcCause::None, entry.pc, spec_pc,
                  entry.dispatch_cycle, ctx, trace);
}

void
Core::finishLoad(RobEntry &entry, Memory &mem, ift::TaintCtx &ctx)
{
    unsigned bytes = entry.bytes;
    TV data;
    if (entry.forwarded) {
        data = entry.result; // captured from the store queue at issue
    } else if (entry.exc != ExcCause::None) {
        // Faulting load: transient forwarding path (Meltdown family).
        data = ift::clean(0);
        if (cfg.meltdown_forwarding) {
            uint64_t eff = entry.addr.v;
            if (cfg.bug_b1_addr_truncation) {
                // B1: the load-unit address wire silently truncates
                // the high (masked) bits, sampling a valid address.
                eff = entry.addr.v & maskLow(kLoadUnitAddrBits);
            }
            if (mem.inRange(eff) && dcache.hit(eff))
                data = mem.read(eff, bytes);
        }
    } else {
        data = mem.read(entry.addr.v, bytes);
    }

    if (entry.exc == ExcCause::None && isa::loadSigned(entry.instr.op))
        data = ift::sextCell(data, bytes * 8);
    else if (entry.exc == ExcCause::None && entry.instr.op != Op::FLD)
        data = ift::truncCell(data, bytes * 8);

    // Table 1 memory-read policy: a tainted (and diverging) address
    // taints the whole loaded value.
    if (ctx.memReadGate(ift::sigId(kModLsu, 2), entry.addr))
        data.t = ~0ULL;

    {
        ift::TaintContrib before = robContrib(entry);
        entry.result = data;
        rob_acct_.apply(before, robContrib(entry));
    }
    if (entry.has_rd) {
        ift::TaintContrib before = prfContrib(prf[entry.prf_idx]);
        prf[entry.prf_idx] = data;
        prf_acct_.apply(before, prfContrib(prf[entry.prf_idx]));
        prf_busy[entry.prf_idx] = 0;
    }
    if (entry.lq >= 0)
        lq[entry.lq].done = true;
    setStage(entry, 2);
}

void
Core::phaseExecute(Memory &mem, ift::TaintCtx &ctx, TraceLog *trace)
{
    // Oldest first over the executing entries only.
    uint64_t pending = byAge(rob_executing_);
    while (pending != 0) {
        unsigned n = static_cast<unsigned>(ctz64(pending));
        pending &= pending - 1;
        RobEntry &entry = rob[robSlot(n)];
        // A squash must have taken its entries out of `pending`.
        dv_assert(entry.valid && entry.stage == 1);

        if (entry.load_phase != LoadPhase::None) {
            switch (entry.load_phase) {
              case LoadPhase::Tlb:
                if (entry.remaining > 0) {
                    --entry.remaining;
                    break;
                }
                // Address translated: hit/miss decision.
                if (entry.forwarded || entry.exc != ExcCause::None ||
                    dcache.hit(entry.addr.v)) {
                    entry.load_phase = LoadPhase::Cache;
                    entry.remaining = dcache.hitLatency();
                } else {
                    bool addr_ctl = ctx.memReadGate(
                        ift::sigId(kModMshr, 1), entry.addr);
                    int mshr = dcache.allocMshr(entry.addr, addr_ctl);
                    if (mshr >= 0) {
                        entry.mshr_idx = mshr;
                        entry.load_phase = LoadPhase::Mshr;
                    } else {
                        contention.mem_port_wait += 1; // retry
                    }
                }
                break;
              case LoadPhase::Cache:
                if (entry.remaining > 0) {
                    --entry.remaining;
                    break;
                }
                entry.load_phase = LoadPhase::Wb;
                [[fallthrough]];
              case LoadPhase::Wb: {
                bool via_mshr = entry.mshr_idx >= 0;
                bool port_free;
                if (!via_mshr) {
                    port_free = wb_used_ < cfg.load_wb_ports;
                    if (port_free)
                        wb_pipeline_claimed_ = true;
                } else if (cfg.bug_b5_shared_load_wb) {
                    // B5: queue completions share the pipeline port
                    // and lose to it.
                    port_free = wb_used_ < cfg.load_wb_ports &&
                                !wb_pipeline_claimed_;
                } else {
                    port_free = true; // dedicated queue port
                }
                if (!port_free) {
                    contention.load_wb_conflict += 1;
                    break;
                }
                if (!via_mshr || cfg.bug_b5_shared_load_wb)
                    ++wb_used_;
                finishLoad(entry, mem, ctx);
                entry.load_phase = LoadPhase::None;
                break;
              }
              case LoadPhase::Mshr:
                if (dcache.mshrDone(entry.mshr_idx))
                    entry.load_phase = LoadPhase::Wb;
                break;
              default:
                break;
            }
            continue;
        }

        if (entry.remaining > 0) {
            --entry.remaining;
            continue;
        }

        // Writeback.
        if (entry.has_rd) {
            ift::TaintContrib before = prfContrib(prf[entry.prf_idx]);
            prf[entry.prf_idx] = entry.result;
            prf_acct_.apply(before, prfContrib(prf[entry.prf_idx]));
            prf_busy[entry.prf_idx] = 0;
        }
        setStage(entry, 2);
        if (entry.is_ctrl) {
            resolveControl(entry, ctx, trace);
            // A mispredict squashed every younger entry.
            pending &= byAge(rob_executing_);
        }
        if (!entry.valid)
            break; // resolveControl squashed from this entry onward
    }
}

// --- issue -------------------------------------------------------------------

bool
Core::issueLoad(RobEntry &entry, Memory &mem, ift::TaintCtx &ctx)
{
    (void)ctx; // address-taint gating happens at completion
    LqEntry &lqe = lq[entry.lq];
    TV rs1 = entry.src1_valid ? prf[entry.src1_prf] : ift::clean(0);
    TV addr = execEffAddr(entry.instr, rs1);
    unsigned bytes = entry.bytes;

    // Memory-dependence scan over older stores: find the youngest
    // known-address match for forwarding, and note any older store
    // whose address is still unresolved (speculation point).
    bool speculative = false;
    const SqEntry *youngest_match = nullptr;
    for (const SqEntry &store : sq) {
        if (!store.valid || store.seq >= entry.seq)
            continue;
        if (!store.addr_ready) {
            bool predicted_wait =
                load_wait[(entry.pc >> 2) & 255] != 0 ||
                !cfg.mem_disambiguation_speculation;
            if (predicted_wait)
                return false; // hold the load back
            speculative = true;
            continue;
        }
        if (!rangesOverlap(store.addr.v, store.bytes, addr.v, bytes))
            continue;
        bool contains = store.addr.v <= addr.v &&
                        store.addr.v + store.bytes >= addr.v + bytes;
        if (!contains)
            return false; // partial overlap: wait for the store
        if (youngest_match == nullptr ||
            store.seq > youngest_match->seq)
            youngest_match = &store;
    }
    ift::TaintContrib rob_before = robContrib(entry);
    if (youngest_match != nullptr) {
        // Store-to-load forwarding (speculative when an unresolved
        // older store might still alias).
        unsigned shift = static_cast<unsigned>(
                             addr.v - youngest_match->addr.v) * 8;
        TV data = ift::shrConst(youngest_match->data, shift);
        entry.result = ift::truncCell(data, bytes * 8);
        entry.forwarded = true;
    }

    entry.addr = addr;
    rob_acct_.apply(rob_before, robContrib(entry));
    {
        ift::TaintContrib before = lqContrib(lqe);
        lqe.addr = addr;
        lq_acct_.apply(before, lqContrib(lqe));
    }
    lqe.bytes = bytes;
    lqe.addr_ready = true;
    lqe.speculative = speculative;

    // Architectural permission check on the full address.
    ExcCause exc = mem.check(addr.v, bytes, AccessKind::Load, priv);
    entry.exc = exc;
    if (exc != ExcCause::None)
        entry.badaddr = addr;

    // Translation timing (skipped for forwards and faults).
    unsigned tlb_cycles = 0;
    if (!entry.forwarded && exc == ExcCause::None) {
        uint64_t vpn = addr.v >> 12;
        if (!dtlb.hit(vpn)) {
            if (l2tlb.hit(vpn)) {
                tlb_cycles = cfg.tlb_miss_latency / 2;
            } else {
                tlb_cycles = cfg.tlb_miss_latency;
                l2tlb.insert(TV{vpn, addr.t});
            }
            dtlb.insert(TV{vpn, addr.t});
        }
    }

    entry.load_phase = LoadPhase::Tlb;
    entry.remaining = tlb_cycles;
    setStage(entry, 1);
    ++mem_used_;
    return true;
}

void
Core::phaseIssue(Memory &mem, ift::TaintCtx &ctx, TraceLog *trace)
{
    // Oldest first over the waiting entries only; each one visited
    // counts against the issue_scan window.
    unsigned scanned = 0;
    uint64_t pending = byAge(rob_waiting_);
    while (pending != 0 && scanned < cfg.issue_scan) {
        unsigned n = static_cast<unsigned>(ctz64(pending));
        pending &= pending - 1;
        RobEntry &entry = rob[robSlot(n)];
        dv_assert(entry.valid && entry.stage == 0);
        ++scanned;

        // Operand readiness.
        if (entry.src1_valid && prf_busy[entry.src1_prf])
            continue;
        if (entry.src2_valid && prf_busy[entry.src2_prf])
            continue;

        const Instr &instr = entry.instr;
        OpClass cls = isa::opClass(instr.op);

        // Renamed-map taint gating: reading a source through a tainted
        // rename entry is a tainted mux select. The gate call must be
        // unconditional so control traces stay aligned across passes
        // and instances regardless of local taint state.
        auto readSrc = [&](bool valid, uint16_t prf_idx,
                           uint8_t arch_slot) {
            if (!valid)
                return ift::clean(0);
            TV value = prf[prf_idx];
            bool gate =
                ctx.gate(ift::sigId(kModRename, arch_slot), prf_idx);
            if (rename_taint[arch_slot] && gate)
                value.t = ~0ULL;
            return value;
        };

        switch (cls) {
          case OpClass::Load: {
            if (mem_used_ >= cfg.mem_ports) {
                contention.mem_port_wait += 1;
                continue;
            }
            TV dummy = readSrc(entry.src1_valid, entry.src1_prf,
                               instr.rs1);
            (void)dummy;
            issueLoad(entry, mem, ctx);
            continue;
          }
          case OpClass::Store: {
            if (mem_used_ >= cfg.mem_ports) {
                contention.mem_port_wait += 1;
                continue;
            }
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf,
                             instr.rs1);
            TV data = readSrc(entry.src2_valid, entry.src2_prf,
                              isa::fpRs2(instr.op)
                                  ? static_cast<uint8_t>(32 + instr.rs2)
                                  : instr.rs2);
            TV addr = execEffAddr(instr, rs1);
            {
                ift::TaintContrib before = robContrib(entry);
                entry.addr = addr;
                rob_acct_.apply(before, robContrib(entry));
            }
            SqEntry &store = sq[entry.sq];
            {
                ift::TaintContrib before = sqContrib(store);
                store.addr = addr;
                store.data = data;
                sq_acct_.apply(before, sqContrib(store));
            }
            store.addr_ready = true;
            entry.exc =
                mem.check(addr.v, entry.bytes, AccessKind::Store, priv);
            if (entry.exc != ExcCause::None)
                entry.badaddr = addr;
            entry.remaining = 1;
            setStage(entry, 1);
            ++mem_used_;

            // Disambiguation violation: a younger load already ran.
            const LqEntry *violator = nullptr;
            const RobEntry *violator_rob = nullptr;
            for (unsigned m = 0; m < rob_count; ++m) {
                const RobEntry &cand = rob[robSlot(m)];
                if (!cand.valid || cand.lq < 0 || cand.seq <= entry.seq)
                    continue;
                const LqEntry &cl = lq[cand.lq];
                if (!cl.valid || !cl.addr_ready || !cl.speculative)
                    continue;
                if (cand.stage == 0)
                    continue;
                if (!rangesOverlap(addr.v, entry.bytes, cl.addr.v,
                                   cl.bytes))
                    continue;
                if (violator == nullptr || cand.seq < violator->seq) {
                    violator = &cl;
                    violator_rob = &cand;
                }
            }
            if (violator_rob != nullptr) {
                load_wait[(violator_rob->pc >> 2) & 255] = 1;
                TV squash_taint{
                    1, (addr.t | violator->addr.t) != 0 ? 1ULL : 0ULL};
                uint64_t v_seq = violator_rob->seq;
                uint64_t v_pc = violator_rob->pc;
                uint32_t v_open = violator_rob->dispatch_cycle;
                squashYounger(v_seq, true, ift::clean(v_pc),
                              squash_taint,
                              SquashCause::MemDisambiguation,
                              ExcCause::None, v_pc, v_pc, v_open, ctx,
                              trace);
                return; // pipeline state changed; end issue phase
            }
            continue;
          }
          case OpClass::Branch: {
            if (alu_used_ >= cfg.alu_ports)
                continue;
            ++alu_used_;
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf,
                             instr.rs1);
            TV rs2 = readSrc(entry.src2_valid, entry.src2_prf,
                             instr.rs2);
            TV cond = execBranchCond(
                instr, rs1, rs2, ctx,
                ift::sigId(kModExec, static_cast<uint16_t>(
                                         entry.pc & 0xffff)));
            entry.actual_taken = (cond.v & 1) != 0;
            uint64_t target =
                entry.actual_taken
                    ? entry.pc + static_cast<uint64_t>(instr.imm)
                    : entry.pc + 4;
            entry.actual_target =
                TV{target, (cond.t & 1) ? ~0ULL : 0ULL};
            // Clean result over a dispatch-wiped clean result: no
            // account delta (also jal/jalr below). actual_target is
            // not a counted field.
            entry.result = ift::clean(0);
            entry.remaining = 1;
            setStage(entry, 1);
            continue;
          }
          case OpClass::Jal: {
            if (alu_used_ >= cfg.alu_ports)
                continue;
            ++alu_used_;
            entry.actual_taken = true;
            entry.actual_target = ift::clean(
                entry.pc + static_cast<uint64_t>(instr.imm));
            entry.result = ift::clean(entry.pc + 4);
            entry.remaining = 1;
            setStage(entry, 1);
            continue;
          }
          case OpClass::Jalr: {
            if (alu_used_ >= cfg.alu_ports)
                continue;
            ++alu_used_;
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf,
                             instr.rs1);
            entry.actual_taken = true;
            entry.actual_target = execJalrTarget(instr, rs1);
            entry.result = ift::clean(entry.pc + 4);
            entry.remaining = 1;
            setStage(entry, 1);
            continue;
          }
          case OpClass::MulDiv: {
            bool is_div = instr.op == Op::DIV || instr.op == Op::DIVU ||
                          instr.op == Op::REM || instr.op == Op::REMU ||
                          instr.op == Op::DIVW || instr.op == Op::REMW;
            if (alu_used_ >= cfg.alu_ports)
                continue;
            if (is_div && cycle_ < div_busy_until) {
                contention.div_busy_wait += 1;
                continue;
            }
            ++alu_used_;
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf,
                             instr.rs1);
            TV rs2 = readSrc(entry.src2_valid, entry.src2_prf,
                             instr.rs2);
            {
                ift::TaintContrib before = robContrib(entry);
                entry.result = execArith(
                    instr, rs1, rs2, entry.pc, ctx,
                    ift::sigId(kModExec, static_cast<uint16_t>(
                                             entry.pc & 0xffff)));
                rob_acct_.apply(before, robContrib(entry));
            }
            entry.remaining =
                execLatency(instr, cfg.mul_latency, cfg.div_latency,
                            cfg.fpalu_latency, cfg.fdiv_latency);
            if (is_div)
                div_busy_until = cycle_ + entry.remaining;
            setStage(entry, 1);
            continue;
          }
          case OpClass::FpDiv: {
            if (alu_used_ >= cfg.alu_ports)
                continue;
            if (cycle_ < fdiv_busy_until) {
                contention.fdiv_busy_wait += 1;
                continue;
            }
            ++alu_used_;
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf,
                             static_cast<uint8_t>(32 + instr.rs1));
            TV rs2 = readSrc(entry.src2_valid, entry.src2_prf,
                             static_cast<uint8_t>(32 + instr.rs2));
            {
                ift::TaintContrib before = robContrib(entry);
                entry.result =
                    execArith(instr, rs1, rs2, entry.pc, ctx,
                              ift::sigId(kModExec, 0x7fff));
                rob_acct_.apply(before, robContrib(entry));
            }
            entry.remaining = cfg.fdiv_latency;
            fdiv_busy_until = cycle_ + cfg.fdiv_latency;
            fdiv_latch = rs1;
            setStage(entry, 1);
            continue;
          }
          default: {
            if (alu_used_ >= cfg.alu_ports)
                continue;
            ++alu_used_;
            uint8_t s1_slot = isa::fpRs1(instr.op)
                                  ? static_cast<uint8_t>(32 + instr.rs1)
                                  : instr.rs1;
            uint8_t s2_slot = isa::fpRs2(instr.op)
                                  ? static_cast<uint8_t>(32 + instr.rs2)
                                  : instr.rs2;
            TV rs1 = readSrc(entry.src1_valid, entry.src1_prf, s1_slot);
            TV rs2 = readSrc(entry.src2_valid, entry.src2_prf, s2_slot);
            switch (instr.op) {
              case Op::ECALL:
                entry.exc = priv == isa::Priv::M ? ExcCause::EcallM
                                                 : ExcCause::EcallU;
                break;
              case Op::EBREAK:
                entry.exc = ExcCause::Breakpoint;
                break;
              case Op::MRET:
              case Op::SRET:
                if (priv != isa::Priv::M)
                    entry.exc = ExcCause::IllegalInstr;
                break;
              case Op::ILLEGAL:
                entry.exc = ExcCause::IllegalInstr;
                break;
              default: {
                ift::TaintContrib before = robContrib(entry);
                entry.result = execArith(
                    instr, rs1, rs2, entry.pc, ctx,
                    ift::sigId(kModExec, static_cast<uint16_t>(
                                             entry.pc & 0xffff)));
                rob_acct_.apply(before, robContrib(entry));
                break;
              }
            }
            entry.remaining =
                execLatency(instr, cfg.mul_latency, cfg.div_latency,
                            cfg.fpalu_latency, cfg.fdiv_latency);
            setStage(entry, 1);
            continue;
          }
        }
    }
}

// --- dispatch -----------------------------------------------------------------

void
Core::phaseDispatch(ift::TaintCtx &ctx, TraceLog *trace)
{
    (void)trace;
    for (unsigned n = 0; n < cfg.dispatch_width; ++n) {
        if (fetchq_count == 0 || robFull() || decode_blocked_)
            break;
        // Read in place: fetch refills the slot only after dispatch.
        const FetchSlot &slot = fetchq[fetchq_head];
        const Instr &instr = slot.instr;

        bool is_load = isa::isLoad(instr.op);
        bool is_store = isa::isStore(instr.op);

        // Resource checks.
        int lq_slot = -1;
        int sq_slot = -1;
        if (is_load) {
            for (size_t i = 0; i < lq.size(); ++i) {
                if (!lq[i].valid) {
                    lq_slot = static_cast<int>(i);
                    break;
                }
            }
            if (lq_slot < 0)
                break;
        }
        if (is_store) {
            for (size_t i = 0; i < sq.size(); ++i) {
                if (!sq[i].valid) {
                    sq_slot = static_cast<int>(i);
                    break;
                }
            }
            if (sq_slot < 0)
                break;
        }

        bool wants_rd = isa::writesIntRd(instr.op) || isa::fpRd(instr.op);
        bool has_rd =
            wants_rd && !(instr.rd == 0 && !isa::fpRd(instr.op));
        if (has_rd && prf_free.empty())
            break;

        if (++fetchq_head == cfg.fetch_buffer)
            fetchq_head = 0;
        --fetchq_count;
        fetchq_taint_slots_ -= slot.pc_taint ? 1u : 0u;

        unsigned tail = robSlot(rob_count);
        ++rob_count;
        RobEntry &entry = rob[tail];
        // The wipe clears the stale occupant's (counted) taint and the
        // meta assignment below writes the new entry's: one account
        // delta spans both. Every reset copies a static default: a
        // `T{}` temporary is built with narrow stores and read back
        // with wide loads, a store-forwarding stall per slot.
        ift::TaintContrib rob_before = robContrib(entry);
        entry = kEmptyRobEntry;
        entry.valid = true;
        setStage(entry, 0);
        entry.seq = nextSeq();
        entry.pc = slot.pc;
        entry.instr = instr;
        entry.dispatch_cycle = static_cast<uint32_t>(cycle_);
        entry.pred_taken = slot.pred_taken;
        entry.pred_target = slot.pred_target;
        entry.ras_pushed = slot.ras_pushed;
        entry.ras_popped = slot.ras_popped;
        entry.is_ctrl = isa::isBranch(instr.op) ||
                        instr.op == Op::JALR || instr.op == Op::JAL;
        entry.bytes = isa::accessBytes(instr.op);
        // The tainted tail pointer is the enqueue enable: its control
        // taint reaches the new entry only through an open gate (under
        // diffIFT that needs an actual cross-instance divergence).
        bool enq_gate = ctx.gate(ift::sigId(kModRob, 2), slot.pc);
        entry.meta = (slot.pc_taint ? ~0ULL : 0ULL) |
                     (enq_gate ? rob_tail_taint_.t : 0);
        rob_acct_.apply(rob_before, robContrib(entry));

        // Fetch faults dispatch as immediately-done faulting entries.
        if (slot.fetch_exc != ExcCause::None) {
            entry.exc = slot.fetch_exc;
            entry.badaddr = ift::clean(slot.pc);
            setStage(entry, 2);
            ++enq_this_cycle_;
            continue;
        }

        // Rename sources.
        if (isa::readsIntRs1(instr.op) || isa::fpRs1(instr.op)) {
            uint8_t s1 = isa::fpRs1(instr.op)
                             ? static_cast<uint8_t>(32 + instr.rs1)
                             : instr.rs1;
            entry.src1_valid = true;
            entry.src1_prf = rename_map[s1];
        }
        if (isa::readsIntRs2(instr.op) || isa::fpRs2(instr.op)) {
            uint8_t s2 = isa::fpRs2(instr.op)
                             ? static_cast<uint8_t>(32 + instr.rs2)
                             : instr.rs2;
            entry.src2_valid = true;
            entry.src2_prf = rename_map[s2];
        }

        // Rename destination.
        if (has_rd) {
            uint8_t rd_slot = isa::fpRd(instr.op)
                                  ? static_cast<uint8_t>(32 + instr.rd)
                                  : instr.rd;
            entry.has_rd = true;
            entry.rd_slot = rd_slot;
            entry.prf_idx = prf_free.back();
            prf_free.pop_back();
            entry.prf_old = rename_map[rd_slot];
            rename_map[rd_slot] = entry.prf_idx;
            prf_busy[entry.prf_idx] = 1;
            prf_alloc[entry.prf_idx] = 1;
        }

        if (is_load) {
            entry.lq = lq_slot;
            LqEntry &lqe = lq[lq_slot];
            ift::TaintContrib before = lqContrib(lqe);
            lqe = kEmptyLqEntry;
            lq_acct_.apply(before, lqContrib(lqe));
            lqe.valid = true;
            lqe.rob_slot = static_cast<int>(tail);
            lqe.seq = entry.seq;
        }
        if (is_store) {
            entry.sq = sq_slot;
            SqEntry &sqe = sq[sq_slot];
            ift::TaintContrib before = sqContrib(sqe);
            sqe = kEmptySqEntry;
            sq_acct_.apply(before, sqContrib(sqe));
            sqe.valid = true;
            sqe.rob_slot = static_cast<int>(tail);
            sqe.seq = entry.seq;
            sqe.bytes = entry.bytes;
        }

        // Instantly-complete ops (no execution semantics).
        if (instr.op == Op::SWAPNEXT || instr.op == Op::FENCE ||
            instr.op == Op::FENCE_I) {
            setStage(entry, 2);
        }

        // BOOM stalls decode on illegal instructions: nothing younger
        // enters the backend, so no illegal-trigger transient window.
        if (instr.op == Op::ILLEGAL && cfg.illegal_stalls_decode)
            decode_blocked_ = true;

        ++enq_this_cycle_;
    }
}

// --- fetch --------------------------------------------------------------------

/** Fetch-time branch and RAS prediction for one fetched slot. */
void
Core::predictAtFetch(FetchSlot &slot, ift::TaintCtx &ctx)
{
    const Instr &instr = slot.instr;
    slot.pred_taken = false;
    slot.pred_target = ift::clean(slot.pc + 4);

    if (isa::isBranch(instr.op)) {
        bool taken = bht.predictTaken(slot.pc);
        bool loop_taken = false;
        if (loop.enabled() && loop.predict(slot.pc, loop_taken))
            taken = loop_taken;
        slot.pred_taken = taken;
        if (taken) {
            slot.pred_target = ift::clean(
                slot.pc + static_cast<uint64_t>(instr.imm));
        }
        return;
    }
    if (instr.op == Op::JAL) {
        slot.pred_taken = true;
        slot.pred_target =
            ift::clean(slot.pc + static_cast<uint64_t>(instr.imm));
        if (isa::isCall(instr)) {
            // A push whose occurrence diverges across the secret
            // variants writes a tainted entry (Table-1 memory-write
            // semantics on the RAS array).
            bool g = ctx.gate(ift::sigId(kModRas, 1), slot.pc);
            TV ret{slot.pc + 4,
                   (slot.pc_taint || g) ? ~0ULL : 0ULL};
            ras.push(ret);
            slot.ras_pushed = true;
        }
        return;
    }
    if (instr.op == Op::JALR) {
        slot.pred_taken = true;
        if (isa::isRet(instr)) {
            bool g = ctx.gate(ift::sigId(kModRas, 2), slot.pc);
            slot.pred_target = ras.pop();
            if (g)
                slot.pred_target.t |= ~0ULL;
            slot.ras_popped = true;
        } else {
            TV target;
            if (indpred.lookup(slot.pc, target) ||
                btb.lookup(slot.pc, target) ||
                (faubtb.entries() > 0 && faubtb.lookup(slot.pc, target))) {
                slot.pred_target = target;
            } else {
                slot.pred_target = ift::clean(slot.pc + 4);
            }
        }
        if (isa::isCall(instr)) {
            bool g = ctx.gate(ift::sigId(kModRas, 1), slot.pc);
            TV ret{slot.pc + 4,
                   (slot.pc_taint || g) ? ~0ULL : 0ULL};
            ras.push(ret);
            slot.ras_pushed = true;
        }
        return;
    }
}

void
Core::phaseFetch(Memory &mem, ift::TaintCtx &ctx)
{
    unsigned budget = cfg.fetch_width;
    while (budget > 0) {
        if (fetchq_count >= cfg.fetch_buffer)
            return;

        // ICache access.
        if (!icache_.hit(pc.v)) {
            if (icache_.refillBusy()) {
                // Refill engine busy - possibly on a transient line
                // (B4: the squash did not reclaim the port).
                if (icache_.refillLine() != lineOf(pc.v))
                    contention.fetch_refill_wait += 1;
                return;
            }
            bool pc_ctl =
                ctx.memReadGate(ift::sigId(kModICache, 1), pc);
            icache_.startRefill(pc.v, pc_ctl);
            return;
        }

        ExcCause exc = mem.check(pc.v, 4, AccessKind::Fetch, priv);
        FetchSlot &slot = fetchq[fetchSlot(fetchq_count)];
        slot = kEmptyFetchSlot;
        slot.valid = true;
        slot.pc = pc.v;
        slot.pc_taint = pc.t != 0 ? 1 : 0;
        ++fetchq_count;
        fetchq_taint_slots_ += slot.pc_taint ? 1u : 0u;
        if (exc != ExcCause::None) {
            slot.fetch_exc = exc;
            slot.instr = decodeFetched(isa::kNopWord);
            return; // fetch stalls behind a faulting fetch
        }

        slot.instr = decodeFetched(mem.fetchWord(pc.v));
        predictAtFetch(slot, ctx);

        if (slot.pred_taken) {
            TV target = slot.pred_target;
            target.t |= pc.t; // staying on a tainted path
            pc = target;
            return; // taken prediction ends the fetch group
        }
        pc = TV{pc.v + 4, pc.t};
        --budget;
    }
}

// --- top-level tick --------------------------------------------------------

TickEvents
Core::tick(Memory &mem, ift::TaintCtx &ctx, TraceLog *trace)
{
    alu_used_ = 0;
    mem_used_ = 0;
    wb_used_ = 0;
    wb_pipeline_claimed_ = false;
    enq_this_cycle_ = 0;
    commit_this_cycle_ = 0;

    TickEvents ev;

    // Trap flush resolution (start of cycle) and the B3 BTB race: a
    // staged indirect-jump correction from the previous cycle collides
    // with the exception flush and is written to the faulting PC.
    bool trap_fires = trap_pending_ && trap_countdown_ == 0;
    if (btb_correction_.valid) {
        if (trap_fires && cfg.bug_b3_btb_race) {
            btb.update(trap_pc_, btb_correction_.target);
        } else if (cfg.speculative_predictor_update) {
            btb.update(btb_correction_.pc, btb_correction_.target);
        }
        btb_correction_.valid = false;
    }
    if (trap_fires) {
        trap_pending_ = false;
        // Taking a trap enters machine mode: the handler (and, when
        // the swap runtime advances on the trap, the next packet)
        // executes privileged until an mret/sret commits.
        priv = isa::Priv::M;
        // The faulting instruction itself architecturally "commits
        // with exception": drop it before flushing so it is not
        // counted among the transient (flushed) instructions.
        if (rob_count > 0 && rob[rob_head].exc != isa::ExcCause::None) {
            rollbackEntry(rob[rob_head]);
            if (++rob_head == cfg.rob_entries)
                rob_head = 0;
            --rob_count;
        }
        flushAll(ift::clean(swapmem::kTrapVector), trap_taint_,
                 SquashCause::Exception, trap_cause_, trap_pc_, ctx,
                 trace);
        ev.trapped = true;
        ev.exc = trap_cause_;
        ev.trap_pc = trap_pc_;
    } else if (trap_pending_) {
        --trap_countdown_;
    }

    if (!ev.trapped) {
        TickEvents commit_ev = phaseCommit(mem, ctx, trace);
        ev.swap_next |= commit_ev.swap_next;
    }
    phaseExecute(mem, ctx, trace);
    phaseIssue(mem, ctx, trace);
    phaseDispatch(ctx, trace);
    if (!ev.trapped)
        phaseFetch(mem, ctx);

    // Cache engines.
    icache_.tick();
    dcache.tick(mem);

    if (trace != nullptr) {
        if (enq_this_cycle_ != 0 || commit_this_cycle_ != 0) {
            trace->rob_io.push_back(
                RobIoRec{static_cast<uint32_t>(cycle_), enq_this_cycle_,
                         commit_this_cycle_});
        }
        trace->cycles = cycle_ + 1;
    }

    ++cycle_;
    return ev;
}

// --- observability ------------------------------------------------------------

void
Core::moduleTaintStats(std::array<ModuleStat, kModCount> &stats) const
{
    // Every module is put below, so nothing is wiped first.
    auto put = [&](ModuleId id, uint32_t regs, uint64_t bits) {
        stats[id].tainted_regs = regs;
        stats[id].taint_bits = bits;
    };

    // O(kModCount) assembly of the incremental running sums: the only
    // per-call work is reading scalars (pc, fdiv_latch, trap state,
    // the RoB tail pointer taint) that are not containers.
    put(kModFrontend,
        (pc.t != 0 ? 1u : 0u) + fetchq_taint_slots_,
        static_cast<uint64_t>(popcount64(pc.t)) +
            static_cast<uint64_t>(fetchq_taint_slots_) * 32);
    put(kModICache, icache_.taintedRegCount(), icache_.taintBits());
    put(kModBht, bht.taintedRegCount(), bht.taintBits());
    put(kModBtb, btb.taintedRegCount(), btb.taintBits());
    put(kModFauBtb, faubtb.taintedRegCount(), faubtb.taintBits());
    put(kModRas, ras.taintedRegCount(), ras.taintBits());
    put(kModLoopPred, loop.taintedRegCount(), loop.taintBits());
    put(kModIndPred, indpred.taintedRegCount(), indpred.taintBits());
    put(kModRename, rename_taint_regs_,
        static_cast<uint64_t>(rename_taint_regs_) * 8);
    put(kModPrf, prf_acct_.regs, prf_acct_.bits);
    put(kModRob,
        (rob_tail_taint_.t != 0 ? 1u : 0u) + rob_acct_.regs,
        static_cast<uint64_t>(popcount64(rob_tail_taint_.t)) +
            rob_acct_.bits);
    {
        uint32_t regs = fdiv_latch.t != 0 ? 1 : 0;
        put(kModLsu, regs, popcount64(fdiv_latch.t));
    }
    put(kModLq, lq_acct_.regs, lq_acct_.bits);
    put(kModSq, sq_acct_.regs, sq_acct_.bits);
    put(kModDCache, dcache.taintedRegCount(), dcache.taintBits());
    put(kModMshr, dcache.mshrTaintedRegCount(), dcache.mshrTaintBits());
    put(kModLfb, dcache.lfbTaintedRegCount(), dcache.lfbTaintBits());
    put(kModDtlb, dtlb.taintedRegCount(), dtlb.taintBits());
    put(kModL2Tlb, l2tlb.taintedRegCount(), l2tlb.taintBits());
    {
        uint32_t regs = fdiv_latch.t != 0 ? 1 : 0;
        put(kModExec, regs, popcount64(fdiv_latch.t));
    }
    put(kModCsr, trap_taint_.t != 0 ? 1 : 0, trap_taint_.t != 0 ? 1 : 0);
}

void
Core::moduleTaintStatsRescan(
    std::array<ModuleStat, kModCount> &stats) const
{
    for (auto &stat : stats)
        stat = ModuleStat{};

    auto put = [&](ModuleId id, uint32_t regs, uint64_t bits) {
        stats[id].tainted_regs = regs;
        stats[id].taint_bits = bits;
    };

    // Frontend: PC + fetch buffer slots.
    {
        uint32_t regs = pc.t != 0 ? 1 : 0;
        uint64_t bits = popcount64(pc.t);
        for (unsigned n = 0; n < fetchq_count; ++n) {
            if (fetchq[fetchSlot(n)].pc_taint) {
                regs += 1;
                bits += 32;
            }
        }
        put(kModFrontend, regs, bits);
    }
    put(kModICache, icache_.taintedRegCountRescan(),
        icache_.taintBitsRescan());
    put(kModBht, bht.taintedRegCountRescan(), bht.taintBitsRescan());
    put(kModBtb, btb.taintedRegCountRescan(), btb.taintBitsRescan());
    put(kModFauBtb, faubtb.taintedRegCountRescan(),
        faubtb.taintBitsRescan());
    put(kModRas, ras.taintedRegCountRescan(), ras.taintBitsRescan());
    put(kModLoopPred, loop.taintedRegCountRescan(),
        loop.taintBitsRescan());
    put(kModIndPred, indpred.taintedRegCountRescan(),
        indpred.taintBitsRescan());
    {
        uint32_t regs = 0;
        for (uint8_t taint : rename_taint)
            regs += taint != 0;
        put(kModRename, regs, static_cast<uint64_t>(regs) * 8);
    }
    {
        uint32_t regs = 0;
        uint64_t bits = 0;
        for (const TV &value : prf) {
            regs += value.t != 0;
            bits += popcount64(value.t);
        }
        put(kModPrf, regs, bits);
    }
    {
        uint32_t regs = rob_tail_taint_.t != 0 ? 1 : 0;
        uint64_t bits = popcount64(rob_tail_taint_.t);
        for (const auto &entry : rob) {
            uint64_t taint = entry.meta | entry.result.t |
                             entry.addr.t;
            regs += taint != 0;
            bits += popcount64(entry.meta) +
                    popcount64(entry.result.t);
        }
        put(kModRob, regs, bits);
    }
    {
        uint32_t regs = fdiv_latch.t != 0 ? 1 : 0;
        put(kModLsu, regs, popcount64(fdiv_latch.t));
    }
    {
        uint32_t regs = 0;
        uint64_t bits = 0;
        for (const auto &entry : lq) {
            regs += entry.addr.t != 0;
            bits += popcount64(entry.addr.t);
        }
        put(kModLq, regs, bits);
    }
    {
        uint32_t regs = 0;
        uint64_t bits = 0;
        for (const auto &entry : sq) {
            uint64_t taint = entry.addr.t | entry.data.t;
            regs += taint != 0;
            bits += popcount64(entry.addr.t) + popcount64(entry.data.t);
        }
        put(kModSq, regs, bits);
    }
    put(kModDCache, dcache.taintedRegCountRescan(),
        dcache.taintBitsRescan());
    put(kModMshr, dcache.mshrTaintedRegCountRescan(),
        dcache.mshrTaintBitsRescan());
    put(kModLfb, dcache.lfbTaintedRegCountRescan(),
        dcache.lfbTaintBitsRescan());
    put(kModDtlb, dtlb.taintedRegCountRescan(),
        dtlb.taintBitsRescan());
    put(kModL2Tlb, l2tlb.taintedRegCountRescan(),
        l2tlb.taintBitsRescan());
    {
        uint32_t regs = fdiv_latch.t != 0 ? 1 : 0;
        put(kModExec, regs, popcount64(fdiv_latch.t));
    }
    put(kModCsr, trap_taint_.t != 0 ? 1 : 0, trap_taint_.t != 0 ? 1 : 0);
}

bool
Core::verifyTaintAccounts() const
{
    obs::counterAdd(obs::Ctr::TaintRescanChecks);
    std::array<ModuleStat, kModCount> fast;
    std::array<ModuleStat, kModCount> slow;
    moduleTaintStats(fast);
    moduleTaintStatsRescan(slow);
    for (unsigned m = 0; m < kModCount; ++m) {
        if (fast[m].tainted_regs != slow[m].tainted_regs ||
            fast[m].taint_bits != slow[m].taint_bits) {
            return false;
        }
    }
    return true;
}

bool
Core::verifyStageMasks() const
{
    // The live window is exactly what the issue and execute scans of
    // the whole RoB used to visit, in this order.
    uint64_t waiting = 0;
    uint64_t executing = 0;
    uint64_t waiting_by_age = 0;
    uint64_t executing_by_age = 0;
    for (unsigned n = 0; n < rob_count; ++n) {
        unsigned slot = robSlot(n);
        const RobEntry &entry = rob[slot];
        if (!entry.valid)
            continue;
        if (entry.stage == 0) {
            waiting |= 1ULL << slot;
            waiting_by_age |= 1ULL << n;
        } else if (entry.stage == 1) {
            executing |= 1ULL << slot;
            executing_by_age |= 1ULL << n;
        }
    }
    return waiting == rob_waiting_ && executing == rob_executing_ &&
           byAge(rob_waiting_) == waiting_by_age &&
           byAge(rob_executing_) == executing_by_age;
}

uint64_t
Core::taintTransitions() const
{
    return icache_.taintTransitions() + dcache.taintTransitions() +
           dtlb.taintTransitions() + l2tlb.taintTransitions() +
           bht.taintTransitions() + btb.taintTransitions() +
           faubtb.taintTransitions() + ras.taintTransitions() +
           loop.taintTransitions() + indpred.taintTransitions() +
           prf_acct_.transitions + rob_acct_.transitions +
           lq_acct_.transitions + sq_acct_.transitions;
}

void
Core::appendTaintLog(ift::TaintLog &log) const
{
#ifndef NDEBUG
    // Debug builds cross-check the incremental accounts every logged
    // cycle; release builds rely on the explicit property test.
    dv_assert(verifyTaintAccounts());
#endif
    log.last_cycle = cycle_;
    // Everything moduleTaintStats reads: the accounts, whose summed
    // transition count moves on every change of their sums, and the
    // scalars outside them. The last record holds while none moved.
    const std::array<uint64_t, 6> key = {
        taintTransitions(),
        pc.t,
        fetchq_taint_slots_ | uint64_t{rename_taint_regs_} << 32,
        rob_tail_taint_.t,
        fdiv_latch.t,
        trap_taint_.t};
    if (!log.cycles.empty() && key == log.key)
        return;
    log.key = key;
    std::array<ModuleStat, kModCount> stats;
    moduleTaintStats(stats);
    if (!log.cycles.empty()) {
        // Changes can cancel within a cycle: the last record still
        // holds if every module's sample equals it (its samples list
        // the tainted modules in id order).
        const ift::TaintLogCycle &last = log.cycles.back();
        const ift::ModuleTaintSample *sample = log.samplesBegin(last);
        const ift::ModuleTaintSample *end = log.samplesEnd(last);
        bool same = true;
        for (unsigned m = 0; m < kModCount && same; ++m) {
            if (stats[m].tainted_regs == 0 && stats[m].taint_bits == 0)
                continue;
            same = sample != end && sample->module_id == m &&
                   sample->tainted_regs == stats[m].tainted_regs &&
                   sample->taint_bits == stats[m].taint_bits;
            ++sample;
        }
        if (same && sample == end)
            return;
    }
    ift::TaintLogCycle &rec = log.beginCycle(cycle_);
    for (unsigned m = 0; m < kModCount; ++m) {
        if (stats[m].tainted_regs == 0 && stats[m].taint_bits == 0)
            continue;
        log.addSample(rec, ift::ModuleTaintSample{
                               static_cast<uint16_t>(m),
                               stats[m].tainted_regs,
                               stats[m].taint_bits});
    }
}

std::array<uint16_t, kModCount>
Core::registerModules(ift::TaintCoverage &coverage,
                      const CoreConfig &config)
{
    std::array<uint16_t, kModCount> ids{};
    auto reg = [&](ModuleId id, uint32_t max_regs) {
        ids[id] = coverage.registerModule(moduleName(id), max_regs);
    };
    reg(kModFrontend, config.fetch_buffer + 1);
    reg(kModICache, config.icache_lines);
    reg(kModBht, config.bht_entries);
    reg(kModBtb, config.btb_entries);
    reg(kModFauBtb, config.faubtb_entries);
    reg(kModRas, config.ras_entries);
    reg(kModLoopPred, config.loop_entries);
    reg(kModIndPred, config.ind_entries);
    reg(kModRename, 64);
    reg(kModPrf, config.prf_entries);
    reg(kModRob, config.rob_entries);
    reg(kModLsu, 2);
    reg(kModLq, config.lq_entries);
    reg(kModSq, config.sq_entries);
    reg(kModDCache, config.dcache_lines);
    reg(kModMshr, config.mshr_entries);
    reg(kModLfb, config.lfb_entries);
    reg(kModDtlb, config.dtlb_entries);
    reg(kModL2Tlb, config.l2tlb_entries);
    reg(kModExec, 2);
    reg(kModCsr, 2);
    return ids;
}

uint64_t
Core::timingStateHash() const
{
    uint64_t hash = kFnvOffset;
    hash = fnv1a(hash, icache_.stateHash());
    hash = fnv1a(hash, dcache.stateHash());
    hash = fnv1a(hash, btb.stateHash());
    hash = fnv1a(hash, faubtb.stateHash());
    hash = fnv1a(hash, ras.stateHash());
    hash = fnv1a(hash, loop.stateHash());
    hash = fnv1a(hash, indpred.stateHash());
    hash = fnv1a(hash, dtlb.stateHash());
    hash = fnv1a(hash, l2tlb.stateHash());
    hash = fnv1a(hash, bht.stateHash());
    return hash;
}

uint64_t
Core::cachedDataHash(const swapmem::Memory &mem) const
{
    return dcache.dataHash(mem);
}

void
Core::enumSinks(std::vector<ift::SinkSnapshot> &out) const
{
    // The writer overwrites the buffer in place: a pooled DutResult's
    // sink vectors are reused across iterations without reallocating.
    ift::SinkWriter writer(out);

    // Physical register file: liveness = currently allocated.
    {
        static const ift::SinkId kId = ift::internSink("prf", "regs");
        ift::SinkSnapshot &sink = writer.next(kId, true);
        sink.taint.resize(prf.size());
        sink.live.resize(prf.size());
        for (size_t i = 0; i < prf.size(); ++i) {
            sink.taint[i] = prf[i].t;
            sink.live[i] = prf_alloc[i];
        }
    }
    // RoB entry metadata: liveness = entry valid.
    {
        static const ift::SinkId kId =
            ift::internSink("rob", "entries");
        ift::SinkSnapshot &sink = writer.next(kId, true);
        sink.taint.resize(rob.size());
        sink.live.resize(rob.size());
        for (size_t i = 0; i < rob.size(); ++i) {
            sink.taint[i] =
                rob[i].meta | rob[i].result.t | rob[i].addr.t;
            sink.live[i] = rob[i].valid ? 1 : 0;
        }
    }
    // Load/store queues.
    {
        static const ift::SinkId kId = ift::internSink("lq", "entries");
        ift::SinkSnapshot &sink = writer.next(kId, true);
        sink.taint.resize(lq.size());
        sink.live.resize(lq.size());
        for (size_t i = 0; i < lq.size(); ++i) {
            sink.taint[i] = lq[i].addr.t;
            sink.live[i] = lq[i].valid ? 1 : 0;
        }
    }
    {
        static const ift::SinkId kId = ift::internSink("sq", "entries");
        ift::SinkSnapshot &sink = writer.next(kId, true);
        sink.taint.resize(sq.size());
        sink.live.resize(sq.size());
        for (size_t i = 0; i < sq.size(); ++i) {
            sink.taint[i] = sq[i].addr.t | sq[i].data.t;
            sink.live[i] = sq[i].valid ? 1 : 0;
        }
    }
    // FP divide operand latch: live while the divider is busy.
    {
        static const ift::SinkId kId =
            ift::internSink("fpu", "fdiv_latch");
        ift::SinkSnapshot &sink = writer.next(kId, true);
        sink.taint.assign(1, fdiv_latch.t);
        sink.live.assign(1, cycle_ < fdiv_busy_until ? 1 : 0);
    }
    bht.appendSinks(writer);
    btb.appendSinks(writer, "btb");
    if (faubtb.entries() > 0)
        faubtb.appendSinks(writer, "faubtb");
    ras.appendSinks(writer);
    loop.appendSinks(writer);
    indpred.appendSinks(writer);
    icache_.appendSinks(writer);
    dcache.appendSinks(writer);
    dtlb.appendSinks(writer);
    l2tlb.appendSinks(writer);
    writer.finish();
}

Core::Inventory
Core::inventory() const
{
    Inventory inv;
    inv.modules = kModCount - (faubtb.entries() == 0 ? 1 : 0) -
                  (loop.entries() == 0 ? 1 : 0);
    inv.state_regs =
        static_cast<unsigned>(prf.size() + rob.size() + lq.size() +
                              sq.size() + bht.entries() + btb.entries() +
                              faubtb.entries() + ras.entries() +
                              loop.entries() + indpred.entries() +
                              icache_.lines() + dcache.lines() +
                              dtlb.entries() + l2tlb.entries()) +
        64 /* rename */ + 8 /* misc latches */;
    inv.state_bits =
        static_cast<uint64_t>(prf.size()) * 64 + rob.size() * 96 +
        lq.size() * 72 + sq.size() * 136 + bht.entries() * 2 +
        (btb.entries() + faubtb.entries() + indpred.entries()) * 96 +
        ras.entries() * 64 + loop.entries() * 40 +
        icache_.lines() * 40 + dcache.lines() * 104 +
        (dtlb.entries() + l2tlb.entries()) * 52 + 64 * 8 + 512;
    std::vector<ift::SinkSnapshot> sinks;
    enumSinks(sinks);
    for (const auto &sink : sinks)
        inv.annotated_sinks += sink.annotated;
    return inv;
}

} // namespace dejavuzz::uarch
