/**
 * @file
 * Per-cycle taint observation log emitted by the differential
 * testbench, consumed by coverage measurement (Phase 2), the Fig. 6
 * taint-sum series and the taint-increase check.
 *
 * A change log: a record is appended only on a cycle whose module
 * samples differ from the previous record's, and holds for every
 * cycle until the next record (the first logged cycle always gets
 * one). Readers see the per-cycle value in effect through inEffect().
 *
 * Storage layout: records index into one shared sample arena instead
 * of owning a vector each, so appending a record in the steady state
 * is two vector pushes with no allocation. The per-record taint sums
 * are precomputed at append time, so the Phase-2 taint-increase walk
 * never touches the arena at all.
 */

#ifndef DEJAVUZZ_IFT_TAINTLOG_HH
#define DEJAVUZZ_IFT_TAINTLOG_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace dejavuzz::ift {

/** Snapshot of one module's taint state in one cycle. */
struct ModuleTaintSample
{
    uint16_t module_id;
    uint32_t tainted_regs;  ///< state registers with any tainted bit
    uint64_t taint_bits;    ///< total tainted bits in the module
};

/**
 * One record's module samples: a [begin, begin+count) slice of the
 * owning TaintLog's sample arena plus the cached totals. It holds from
 * @c cycle until the next record's cycle.
 */
struct TaintLogCycle
{
    uint64_t cycle = 0;        ///< first cycle the record holds for
    uint32_t begin = 0;        ///< first sample index in the arena
    uint32_t count = 0;        ///< number of samples in this record
    uint32_t tainted_regs = 0; ///< cached sum over the slice
    uint64_t taint_sum = 0;    ///< cached taint_bits sum over the slice

    uint64_t taintSum() const { return taint_sum; }
    uint32_t taintedRegs() const { return tainted_regs; }
};

/** Whole-simulation taint change log (arena-backed). */
struct TaintLog
{
    /** Change records in cycle order. */
    std::vector<TaintLogCycle> cycles;
    std::vector<ModuleTaintSample> samples; ///< shared sample arena
    /** Last cycle the log covers (meaningful when a record exists). */
    uint64_t last_cycle = 0;
    /**
     * The producer's change key at the last cycle it logged
     * (uarch::Core::appendTaintLog): equal keys promise equal samples,
     * so a cycle with an unchanged key appends nothing.
     */
    std::array<uint64_t, 6> key{};

    void
    clear()
    {
        cycles.clear();
        samples.clear();
        last_cycle = 0;
        key = {};
    }

    /**
     * Call @p visit(record, from, to) for each record in effect during
     * cycles [@p begin, @p end), clipped to the cycles the log covers,
     * in cycle order; [from, to) is the part of the range it holds
     * for. The one way to read the log per cycle.
     */
    template <typename Visit>
    void
    inEffect(uint64_t begin, uint64_t end, Visit &&visit) const
    {
        if (cycles.empty())
            return;
        begin = std::max(begin, cycles.front().cycle);
        end = std::min(end, last_cycle + 1);
        if (begin >= end)
            return;
        // The record in effect at `begin`: the last one not after it.
        auto rec = std::upper_bound(
            cycles.begin(), cycles.end(), begin,
            [](uint64_t cycle, const TaintLogCycle &r) {
                return cycle < r.cycle;
            });
        for (--rec; rec != cycles.end() && rec->cycle < end; ++rec) {
            const uint64_t to =
                rec + 1 != cycles.end() ? std::min(rec[1].cycle, end) : end;
            visit(*rec, std::max(rec->cycle, begin), to);
        }
    }

    /** Start a record; follow with addSample(). */
    TaintLogCycle &
    beginCycle(uint64_t cycle)
    {
        cycles.push_back(TaintLogCycle{
            cycle, static_cast<uint32_t>(samples.size()), 0, 0, 0});
        return cycles.back();
    }

    void
    addSample(TaintLogCycle &rec, const ModuleTaintSample &sample)
    {
        samples.push_back(sample);
        ++rec.count;
        rec.tainted_regs += sample.tainted_regs;
        rec.taint_sum += sample.taint_bits;
    }

    const ModuleTaintSample *
    samplesBegin(const TaintLogCycle &rec) const
    {
        return samples.data() + rec.begin;
    }

    const ModuleTaintSample *
    samplesEnd(const TaintLogCycle &rec) const
    {
        return samples.data() + rec.begin + rec.count;
    }

    /** Total tainted bits at the final logged cycle. */
    uint64_t
    finalTaintSum() const
    {
        return cycles.empty() ? 0 : cycles.back().taintSum();
    }

    /**
     * Maximum per-cycle taint sum inside the half-open cycle range
     * [begin, end); used to check whether sensitive data propagated
     * during the transient window.
     */
    uint64_t
    maxTaintSumIn(uint64_t begin, uint64_t end) const
    {
        uint64_t best = 0;
        inEffect(begin, end,
                 [&](const TaintLogCycle &rec, uint64_t, uint64_t) {
                     best = std::max(best, rec.taintSum());
                 });
        return best;
    }
};

} // namespace dejavuzz::ift

#endif // DEJAVUZZ_IFT_TAINTLOG_HH
