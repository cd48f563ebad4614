/**
 * @file
 * Campaign-level statistics: per-worker FuzzerStats rollups
 * (Table-2-style totals per worker/config, Table-3-style per-trigger
 * training-overhead aggregates), the per-epoch coverage-growth curve
 * (Fig-7 axes), and the JSONL campaign log.
 *
 * The JSONL schema (record types `worker`, `trigger`, `epoch`, `bug`,
 * `summary`) is specified authoritatively in docs/campaign-format.md;
 * writeCampaignJsonl() is its only producer and src/report/ its
 * reference consumer.
 */

#ifndef DEJAVUZZ_CAMPAIGN_STATS_HH
#define DEJAVUZZ_CAMPAIGN_STATS_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/ledger.hh"
#include "core/fuzzer.hh"

namespace dejavuzz::campaign {

/** Rollup of one worker's campaign contribution. */
struct WorkerSummary
{
    unsigned worker = 0;
    std::string config;   ///< core config name
    std::string variant;  ///< ablation variant name ("full", ...)
    uint64_t iterations = 0;
    uint64_t simulations = 0;
    uint64_t windows_triggered = 0;
    uint64_t coverage_points = 0;
    uint64_t seeds_imported = 0;
    uint64_t bug_reports = 0;
    double active_seconds = 0.0;
};

/** Per-trigger-kind aggregate across all workers (Table 3 axes). */
struct TriggerSummary
{
    uint64_t windows = 0;
    uint64_t training_overhead = 0;
    uint64_t effective_overhead = 0;
};

/** Fleet-global state at one epoch barrier (Fig 7 axes). */
struct EpochSample
{
    uint64_t epoch = 0;
    uint64_t iterations = 0;      ///< cumulative fleet iterations
    uint64_t coverage_points = 0; ///< fleet-global, summed over groups
    uint64_t distinct_bugs = 0;
    uint64_t corpus_size = 0;
    /** Batches executed by a non-owner thread this epoch
     *  (machine-dependent, like wall_seconds). */
    uint64_t batches_stolen = 0;
    /** Σ per-thread (epoch wall − busy) this epoch, in ns — the
     *  barrier idle the scheduler could not convert into work. */
    uint64_t steal_idle_ns = 0;
    double wall_seconds = 0.0;    ///< since campaign start
};

struct CampaignStats
{
    std::vector<WorkerSummary> workers;
    std::array<TriggerSummary, core::kTriggerKinds> triggers{};
    std::vector<EpochSample> epoch_curve;

    uint64_t iterations = 0;
    uint64_t simulations = 0;
    uint64_t windows_triggered = 0;
    uint64_t coverage_points = 0; ///< summed over coverage groups
    uint64_t seeds_imported = 0;
    uint64_t epochs = 0;
    uint64_t steals = 0;          ///< cross-worker injections
    uint64_t corpus_size = 0;
    uint64_t corpus_preloaded = 0; ///< entries admitted via preload
    uint64_t corpus_minimized = 0; ///< entries dropped by --minimize
    /** Checkpoint-resume provenance (0 on fresh campaigns). */
    uint64_t coverage_preloaded = 0; ///< points restored from snapshot
    uint64_t bugs_restored = 0;      ///< distinct ledger records restored
    uint64_t reports_restored = 0;   ///< bug hits restored with them
    uint64_t batch_iterations = 0; ///< scheduler grain (--batch)
    uint64_t batches = 0;          ///< batches planned and executed
    /** Robustness accounting (watchdogs/retries/quarantine). All of
     *  it is barrier state folded in (shard, slot) order, so the
     *  counts are deterministic whenever the fault sequence is
     *  (single-threaded fault injection, or none). */
    uint64_t batch_retries = 0;       ///< re-executions after a failure
    uint64_t batch_deadline_kills = 0;///< watchdog cut-offs (real+injected)
    uint64_t batches_failed = 0;      ///< batches that exhausted retries
    uint64_t quarantined_seeds = 0;   ///< seeds moved to quarantine.jsonl
    uint64_t kinds_disabled = 0;      ///< (config,variant) kinds disabled
    uint64_t batches_stolen = 0;   ///< executed by a non-owner thread
    uint64_t steal_idle_ns = 0;    ///< Σ per-thread barrier idle
    double wall_seconds = 0.0;
    double iters_per_sec = 0.0;

    /** Fold one worker's FuzzerStats + trigger stats into the rollup. */
    void addWorker(const WorkerSummary &summary,
                   const std::array<core::Fuzzer::TriggerStats,
                                    core::kTriggerKinds> &trigger_stats);
};

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(const std::string &text);

/** Emit the full campaign log in the schema documented above.
 *  @p templates is the summary's attack-template echo: the
 *  comma-joined template names every worker draws from, or
 *  "per-head" under the heads policy. */
void writeCampaignJsonl(std::ostream &os, const CampaignStats &stats,
                        const BugLedger &ledger,
                        const std::string &policy_name,
                        uint64_t master_seed,
                        const std::string &templates);

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_STATS_HH
