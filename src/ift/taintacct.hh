/**
 * @file
 * Incremental taint accounting: per-structure running sums of the
 * taint population, updated only on taint-bit transitions.
 *
 * Every stateful uarch structure keeps a TaintAcct next to its
 * storage.  A write site wraps its mutation in a before/after
 * TaintContrib pair; TaintAcct::apply() folds the delta into the
 * running sums.  moduleTaintStats then assembles the per-module
 * (tainted_regs, taint_bits) snapshot as an O(kModCount) read of
 * these sums instead of the old O(state) per-cycle re-scan — the
 * transition-driven principle (only touch what the cycle perturbed)
 * applied to taint observation.
 *
 * Invariants the accounts rely on:
 *
 * - **Transition-count == rescan equality.** After any sequence of
 *   wrapped mutations, the running (regs, bits) sums equal a full
 *   re-scan of the structure with the pre-existing scan body (kept
 *   as the *Rescan methods).  Core::verifyTaintAccounts() checks
 *   this exhaustively and is exercised by the randomized property
 *   test in tests/test_taint_acct.cc; debug builds additionally
 *   cross-check on every taint-log append.
 * - **Every taint-visible mutation is wrapped.**  A mutation that
 *   can change a counted taint bit (or a counted-population
 *   membership bit such as Mshr validity) must go through a
 *   before/after pair.  Mutations that provably cannot change the
 *   contribution (cursor moves, valid-flag flips on structures that
 *   count stale entries, value-only writes on untainted slots still
 *   count as "no transition" via the equality early-out) may skip
 *   the wrap only when the counted contribution is unaffected.
 * - **Quirk preservation.**  The accounts reproduce the original
 *   scan semantics bit-for-bit, including its quirks: structures
 *   that count stale/invalid entries (BTB, RAS, LFB, TLB, ROB)
 *   keep counting them; the MSHR is valid-gated; the loop
 *   predictor charges a flat 16 bits per tainted slot; the icache
 *   derives bits as regs*8.  The observable taint log is unchanged.
 *
 * Soundness context: taint never feeds back into architectural
 * values (see docs/architecture.md), so the accounts are pure
 * observers — they cannot perturb simulation results, only report
 * them faster.
 */

#ifndef DEJAVUZZ_IFT_TAINTACCT_HH
#define DEJAVUZZ_IFT_TAINTACCT_HH

#include <cstdint>

namespace dejavuzz::ift {

/**
 * One entry's contribution to a structure's taint population:
 * @p regs is 1 when the entry counts as "tainted register" under the
 * owning structure's policy, @p bits is its tainted-bit count.
 */
struct TaintContrib
{
    uint32_t regs = 0;
    uint64_t bits = 0;

    constexpr bool operator==(const TaintContrib &o) const
    {
        return regs == o.regs && bits == o.bits;
    }
};

/**
 * Running taint population of one structure.  regs/bits are exact
 * sums over the structure's current entries (per the invariants
 * above); transitions counts the updates that actually changed the
 * sums — the telemetry counter behind obs::Ctr::TaintTransitions.
 * Every change of regs or bits bumps it, so an unchanged count
 * proves unchanged sums: the change-only taint log relies on that.
 */
struct TaintAcct
{
    uint32_t regs = 0;
    uint64_t bits = 0;
    uint64_t transitions = 0;

    /**
     * Fold one entry's before/after contribution delta into the
     * running sums.  Unsigned wraparound makes the subtraction safe
     * for clear transitions (before > after).
     */
    void
    apply(const TaintContrib &before, const TaintContrib &after)
    {
        if (before == after)
            return;
        regs += after.regs - before.regs;
        bits += after.bits - before.bits;
        ++transitions;
    }

    /** Zero the sums (a structure flush); a change when they were
     *  not zero. */
    void
    zero()
    {
        if (regs == 0 && bits == 0)
            return;
        regs = 0;
        bits = 0;
        ++transitions;
    }

    /** Full reset (structure reset / reuse across runs). */
    void
    reset()
    {
        regs = 0;
        bits = 0;
        transitions = 0;
    }
};

} // namespace dejavuzz::ift

#endif // DEJAVUZZ_IFT_TAINTACCT_HH
