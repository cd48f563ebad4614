/**
 * @file
 * Per-cycle taint observation log emitted by the differential
 * testbench, consumed by coverage measurement (Phase 2), the Fig. 6
 * taint-sum series, and encode sanitization (Phase 3 step 3.1).
 *
 * Storage layout: per-cycle records index into one shared sample
 * arena instead of owning a vector each. Appending a cycle in the
 * steady state is then two vector pushes with no per-cycle
 * allocation. The per-cycle taint sums are precomputed at
 * append time, so the Phase-2 taint-increase walk never touches the
 * arena at all.
 */

#ifndef DEJAVUZZ_IFT_TAINTLOG_HH
#define DEJAVUZZ_IFT_TAINTLOG_HH

#include <algorithm>
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
 * One cycle worth of module samples: a [begin, begin+count) slice of
 * the owning TaintLog's sample arena plus the cached cycle totals.
 */
struct TaintLogCycle
{
    uint64_t cycle = 0;
    uint32_t begin = 0;        ///< first sample index in the arena
    uint32_t count = 0;        ///< number of samples in this cycle
    uint32_t tainted_regs = 0; ///< cached sum over the slice
    uint64_t taint_sum = 0;    ///< cached taint_bits sum over the slice

    uint64_t taintSum() const { return taint_sum; }
    uint32_t taintedRegs() const { return tainted_regs; }
};

/** Whole-simulation taint log (arena-backed). */
struct TaintLog
{
    std::vector<TaintLogCycle> cycles;
    std::vector<ModuleTaintSample> samples; ///< shared sample arena

    void
    clear()
    {
        cycles.clear();
        samples.clear();
    }

    /** Start a cycle record; follow with addSample(), then finish. */
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
        for (const auto &cyc : cycles) {
            if (cyc.cycle >= begin && cyc.cycle < end)
                best = std::max(best, cyc.taintSum());
        }
        return best;
    }
};

} // namespace dejavuzz::ift

#endif // DEJAVUZZ_IFT_TAINTLOG_HH
