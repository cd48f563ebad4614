/**
 * @file
 * Typed ingestion of DejaVuzz campaign JSONL logs.
 *
 * parseCampaignLog() reads one log emitted by `dejavuzz` (schema:
 * docs/campaign-format.md) into a CampaignLog, rejecting unknown
 * record types, missing or mistyped fields, and negative counters.
 * Every field the writer emits is required; only the `trailer`
 * record is optional, because plain `--out` logs carry none.
 * validateCampaignLog() then cross-checks the invariants that make a
 * log internally consistent — per-worker sums matching summary
 * totals, bug hit counts matching report totals, epoch records
 * matching the summary epoch count — so downstream reporting never
 * aggregates a half-written or hand-edited log.
 */

#ifndef DEJAVUZZ_REPORT_CAMPAIGN_LOG_HH
#define DEJAVUZZ_REPORT_CAMPAIGN_LOG_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

namespace dejavuzz::report {

/** `type:"worker"` — one worker's rollup. */
struct WorkerRow
{
    uint64_t worker = 0;
    std::string config;
    std::string variant;
    uint64_t iterations = 0;
    uint64_t simulations = 0;
    uint64_t windows = 0;
    uint64_t coverage_points = 0;
    uint64_t seeds_imported = 0;
    uint64_t bugs = 0;
    double active_seconds = 0.0;
};

/** `type:"trigger"` — fleet aggregate for one window kind. */
struct TriggerRow
{
    std::string kind;
    uint64_t windows = 0;
    uint64_t training_overhead = 0;
    uint64_t effective_overhead = 0;
};

/** `type:"epoch"` — fleet-global state at one epoch barrier. */
struct EpochRow
{
    uint64_t epoch = 0;
    uint64_t iterations = 0;
    uint64_t coverage_points = 0;
    uint64_t distinct_bugs = 0;
    uint64_t corpus_size = 0;
    uint64_t batches_stolen = 0;
    uint64_t steal_idle_ns = 0;
    double wall_seconds = 0.0;
};

/** `type:"bug"` — one deduplicated finding. */
struct BugRow
{
    std::string key;
    std::string description;
    uint64_t worker = 0;
    uint64_t epoch = 0;
    uint64_t iteration = 0;
    std::string config;
    std::string variant;
    uint64_t hits = 0;
};

/**
 * `type:"heartbeat"` — a periodic telemetry snapshot streamed while
 * the campaign ran (docs/campaign-format.md). Field sets are keyed
 * by the obs registry enums so the parser stays in lockstep with the
 * writer. seq, wall_seconds, every counter and every histogram
 * count/sum are cumulative: the validator rejects logs where any of
 * them decreases across consecutive heartbeats. Gauges are
 * last-value samples and may fluctuate.
 */
struct HeartbeatRow
{
    uint64_t seq = 0;
    double wall_seconds = 0.0;
    std::array<uint64_t, obs::kNumCtrs> counters{};
    std::array<uint64_t, obs::kNumGauges> gauges{};
    std::array<uint64_t, obs::kNumHists> hist_count{};
    std::array<uint64_t, obs::kNumHists> hist_sum{};
    uint64_t batch_p50_ns = 0;
    uint64_t batch_p99_ns = 0;

    uint64_t counter(obs::Ctr c) const
    {
        return counters[static_cast<unsigned>(c)];
    }
    uint64_t histCount(obs::Hist h) const
    {
        return hist_count[static_cast<unsigned>(h)];
    }
    uint64_t histSum(obs::Hist h) const
    {
        return hist_sum[static_cast<unsigned>(h)];
    }
};

/** `type:"summary"` — campaign totals (exactly one per log). */
struct SummaryRow
{
    uint64_t workers = 0;
    std::string policy;
    uint64_t master_seed = 0;
    std::string templates;
    uint64_t iterations = 0;
    uint64_t simulations = 0;
    uint64_t windows = 0;
    uint64_t coverage_points = 0;
    uint64_t distinct_bugs = 0;
    uint64_t total_reports = 0;
    uint64_t epochs = 0;
    uint64_t corpus_size = 0;
    uint64_t corpus_preloaded = 0;
    /** Campaign-directory fields. */
    uint64_t corpus_minimized = 0;   ///< entries dropped by --minimize
    uint64_t coverage_preloaded = 0; ///< points restored from snapshot
    uint64_t bugs_restored = 0;      ///< distinct records restored
    uint64_t reports_restored = 0;   ///< restored bug hits (excluded
                                     ///< from per-worker sums)
    uint64_t steals = 0;
    /** Scheduler fields. */
    uint64_t batch = 0;            ///< iterations per batch
    uint64_t batches = 0;          ///< batches executed
    uint64_t batches_stolen = 0;   ///< executed by a non-owner
    uint64_t steal_idle_ns = 0;    ///< Σ per-thread barrier idle
    /** Robustness fields. */
    uint64_t batch_retries = 0;       ///< extra attempts after failure
    uint64_t batch_deadline_kills = 0;///< attempts killed by watchdog
    uint64_t batches_failed = 0;      ///< batches that exhausted retries
    uint64_t quarantined_seeds = 0;   ///< poison seeds pulled from corpus
    uint64_t kinds_disabled = 0;      ///< (config,variant) shut down
    double wall_seconds = 0.0;
    double iters_per_sec = 0.0;
};

/**
 * `type:"trailer"` — the crash-safety record a checkpointed log ends
 * with. Its CRC-32 covers every byte of the log that precedes it;
 * the parser re-computes the checksum as it reads and rejects the log
 * on mismatch, so a torn or bit-flipped checkpoint can never feed
 * the reporting pipeline. Live (non-checkpoint) logs carry none.
 */
struct TrailerRow
{
    uint64_t generation = 0; ///< save generation that wrote the log
    uint64_t bytes = 0;      ///< payload length the CRC covers
    uint32_t crc32 = 0;      ///< CRC-32 of those bytes
};

/** One parsed campaign log. */
struct CampaignLog
{
    std::string name;  ///< display label (normally the file stem)
    std::vector<WorkerRow> workers;
    std::vector<TriggerRow> triggers;
    std::vector<EpochRow> epochs;
    std::vector<BugRow> bugs;
    std::vector<HeartbeatRow> heartbeats;
    SummaryRow summary;
    bool has_trailer = false; ///< log ended with a verified trailer
    TrailerRow trailer;       ///< valid only when has_trailer

    /** Wall seconds of the first epoch whose distinct_bugs > 0, or
     *  a negative value when the campaign found no bug. */
    double timeToFirstBug() const;

    /** Wall seconds of the first epoch whose coverage reached
     *  @p target points, or a negative value when it never did. */
    double timeToCoverage(uint64_t target) const;
};

/**
 * Parse @p is as a campaign JSONL log. Strict: any malformed line,
 * unknown record type, missing/mistyped/negative field, or a log
 * without exactly one summary record fails the parse (diagnostic in
 * @p error when non-null, with a 1-based line number).
 */
bool parseCampaignLog(std::istream &is, const std::string &name,
                      CampaignLog &out, std::string *error = nullptr);

/**
 * Cross-record consistency checks over a parsed log. Returns the
 * list of violated invariants, empty when the log is coherent.
 */
std::vector<std::string> validateCampaignLog(const CampaignLog &log);

} // namespace dejavuzz::report

#endif // DEJAVUZZ_REPORT_CAMPAIGN_LOG_HH
