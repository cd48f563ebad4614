/**
 * @file
 * Work-stealing batch scheduler for the campaign orchestrator.
 *
 * Every epoch's iteration budget is split into small batches held in
 * per-executor deques. Executor t < shards is pushed shard t's
 * batches; the executors past the shard count (one per spare CPU) own
 * deques that stay empty, so they only steal. An executor thread
 * drains its own deque from the front; when it runs dry it steals a
 * batch from the *back* of the most-loaded compatible peer
 * (Chase–Lev's owner-front/thief-back discipline, mutex-backed —
 * contention is one brief lock per batch, negligible next to a
 * batch's simulation cost). The epoch barrier is therefore reached
 * when global work is exhausted, not when the slowest shard finishes
 * its private quota.
 *
 * Batches are self-contained deterministic work units (see
 * core::Fuzzer::BatchSpec): stealing changes which thread executes a
 * batch and when, never what the batch computes, so two runs with
 * the same master seed produce identical corpora and bug ledgers
 * however their threads happen to interleave.
 *
 * Compatibility: a thief may only execute batches whose shard shares
 * its (core config, ablation variant) — the executor reuses its own
 * simulation resources, which are only interchangeable within a
 * kind. Executor kinds are fixed at construction.
 */

#ifndef DEJAVUZZ_CAMPAIGN_SCHEDULER_HH
#define DEJAVUZZ_CAMPAIGN_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "core/seed.hh"

namespace dejavuzz::campaign {

/** One schedulable unit: a contiguous slice of a shard's iteration
 *  stream plus the corpus seeds assigned to it. */
struct BatchTask
{
    unsigned shard = 0;      ///< shard whose logical stream this is
    uint64_t index = 0;      ///< shard-global batch index (monotonic)
    uint64_t iterations = 0;
    size_t slot = 0;         ///< result slot within the epoch plan
    std::vector<core::TestCase> inject;
};

class WorkStealingScheduler
{
  public:
    /**
     * @p kinds maps each executor to its compatibility class id;
     * stealing never crosses classes. Size fixes the executor count.
     */
    explicit WorkStealingScheduler(const std::vector<unsigned> &kinds);

    WorkStealingScheduler(const WorkStealingScheduler &) = delete;
    WorkStealingScheduler &
    operator=(const WorkStealingScheduler &) = delete;

    /** Enqueue a batch at the back of @p worker's deque (planning
     *  phase; also safe while executors run). */
    void push(unsigned worker, BatchTask task);

    /** Pop the front of @p worker's own deque. */
    bool popOwn(unsigned worker, BatchTask &out);

    /**
     * Steal one batch from the back of the most-loaded deque that is
     * compatible with @p thief (ties break toward the lowest worker
     * index). Returns false when every compatible deque is empty —
     * deques are only refilled between epochs, so a false return
     * means the thief's epoch work is done.
     */
    bool steal(unsigned thief, BatchTask &out);

    /** Entries currently queued for @p worker. */
    size_t load(unsigned worker) const;

    /** Batches executed by a non-owner thread so far. */
    uint64_t stolen() const
    {
        return stolen_.load(std::memory_order_relaxed);
    }

    unsigned workers() const
    {
        return static_cast<unsigned>(deques_.size());
    }

  private:
    struct Deque
    {
        mutable std::mutex mu;
        std::deque<BatchTask> tasks;
        /** Lock-free load hint for victim selection; the deque mutex
         *  still arbitrates the actual pop. */
        std::atomic<size_t> size{0};
    };

    std::vector<unsigned> kinds_;
    std::vector<Deque> deques_;
    std::atomic<uint64_t> stolen_{0};
};

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_SCHEDULER_HH
