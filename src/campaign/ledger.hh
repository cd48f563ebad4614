/**
 * @file
 * Campaign-wide bug deduplication.
 *
 * Eight workers hammering the same buggy core rediscover the same
 * Spectre variant over and over; the ledger collapses every report
 * onto its dedup signature — (attack type + masked-address flag,
 * transient window kind, sorted taint-sink/timing component set) —
 * and keeps one record per signature with discovery provenance and a
 * hit count. Entries are stored in signature order, so the ledger
 * serializes identically across runs regardless of which thread
 * reported first (the orchestrator drains worker reports at epoch
 * barriers in worker order, making provenance deterministic too).
 */

#ifndef DEJAVUZZ_CAMPAIGN_LEDGER_HH
#define DEJAVUZZ_CAMPAIGN_LEDGER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/report.hh"

namespace dejavuzz::campaign {

/** One deduplicated finding. */
struct BugRecord
{
    core::BugReport report;   ///< first report seen for this key
    unsigned worker = 0;      ///< worker that reported it first
    uint64_t epoch = 0;       ///< epoch of the first report
    uint64_t hits = 1;        ///< total reports collapsed onto this key
    /** The first reporter's exact test case — replaying it through
     *  core::Fuzzer::replayCase re-derives the same signature
     *  (the dejavuzz-replay regression contract). */
    core::TestCase repro;
    std::string config;       ///< first reporter's core config name
    std::string variant;      ///< first reporter's ablation variant

    /** Triage annotations (filled in the copy triage::triageLedger
     *  returns as TriageResult::ledger; empty on a recorded ledger).
     *  They are derived data — persisted in triage.jsonl, not in the
     *  binary snapshot, so the checkpoint format is unchanged. */
    std::string cluster;      ///< cluster id this signature belongs to
    /** Registered core configs the bug replays on (portability
     *  matrix row), in registry order. */
    std::vector<std::string> reproduces_on;
};

class BugLedger
{
  public:
    /**
     * Record @p report from @p worker during @p epoch. Thread-safe.
     * Returns true when the report's signature was new; only then
     * are @p repro / @p config / @p variant retained (first reporter
     * wins, so provenance stays deterministic).
     */
    bool record(const core::BugReport &report, unsigned worker,
                uint64_t epoch,
                const core::TestCase &repro = {},
                const std::string &config = {},
                const std::string &variant = {});

    /**
     * Reinstall previously persisted records (checkpoint resume).
     * Replaces the current contents; the total report count becomes
     * the restored hit sum, so counters continue where the saved
     * campaign stopped. Must not race record().
     */
    void restore(std::vector<BugRecord> records);

    /** Number of distinct signatures. */
    size_t distinct() const;

    /** Total reports seen, including duplicates. */
    uint64_t totalReports() const;

    /** All records in signature order. */
    std::vector<BugRecord> entries() const;

    /** The sorted signature set (for equivalence checks). */
    std::vector<std::string> keys() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, BugRecord> records_;
    uint64_t total_ = 0;
};

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_LEDGER_HH
