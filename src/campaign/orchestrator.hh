/**
 * @file
 * The parallel campaign orchestrator.
 *
 * Work proceeds in epochs. At each epoch boundary the orchestrator
 * plans every shard's iteration quota as a sequence of small
 * *batches* (see scheduler.hh) and freezes one coverage snapshot per
 * core-config group. N executor threads then drain the batch deques:
 * each thread prefers its own shard's deque and, when that runs dry,
 * steals batches from the most-loaded compatible peer — so the epoch
 * barrier is reached when global work is exhausted, not when the
 * slowest shard finishes a fixed quota.
 *
 * Determinism: a batch is a pure function of (master seed, shard,
 * batch index, epoch snapshot, assigned corpus seeds) — the executor
 * resets its fuzzer from that spec before running it
 * (core::Fuzzer::runBatch). Coverage merging is commutative, corpus
 * retention is arrival-order independent, bug reports are drained at
 * the barrier in (shard, batch) order, and all cross-shard coupling
 * (one corpus seed stolen per shard per barrier) happens at the
 * barriers with an epoch-deterministic Rng stream. An
 * iteration-budgeted campaign with a fixed (master seed, worker
 * count, policy, batch size, budget) is therefore bit-reproducible
 * regardless of thread timing: stealing changes only which thread
 * executes a batch and when, never what the batch computes.
 * Wall-clock-budgeted campaigns stop at a machine-speed-dependent
 * epoch and are not reproducible; the batches_stolen /
 * steal_idle_ns counters are wall-clock artifacts in every run.
 */

#ifndef DEJAVUZZ_CAMPAIGN_ORCHESTRATOR_HH
#define DEJAVUZZ_CAMPAIGN_ORCHESTRATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/corpus.hh"
#include "campaign/coverage_map.hh"
#include "campaign/ledger.hh"
#include "campaign/quarantine.hh"
#include "campaign/scheduler.hh"
#include "campaign/snapshot.hh"
#include "campaign/stats.hh"
#include "core/fuzzer.hh"
#include "uarch/config.hh"
#include "util/rng.hh"

namespace dejavuzz::campaign {

/** How the worker fleet is diversified. */
enum class ShardPolicy : uint8_t {
    Replicas,       ///< same config everywhere, distinct Rng streams
    ConfigSweep,    ///< alternate between the two paper cores
    AblationMatrix, ///< cycle the paper's ablation variants
    Heads,          ///< disjoint uarch-subspace heads (kHeadMatrix)
};

const char *shardPolicyName(ShardPolicy policy);

/**
 * One multi-head campaign head: a disjoint uarch-component subspace
 * (trigger kinds) plus the attack templates that target it. Workers
 * under ShardPolicy::Heads cycle this matrix; each head keeps its own
 * coverage group and corpus/steal domain, so novelty and seed
 * exchange never leak across subspaces.
 */
struct HeadSpec
{
    const char *name;
    uint32_t trigger_mask;
    uint32_t model_mask;
};

/** The head matrix Heads cycles (predictors / caches / tlb /
 *  exceptions). Trigger masks are pairwise disjoint and cover every
 *  TriggerKind. */
const std::vector<HeadSpec> &headMatrix();

/**
 * Apply the named shard variant to @p fopts: an ablation variant's
 * switches ("full", "dejavuzz-star", "dejavuzz-minus", "no-liveness",
 * "no-reduction") — the table the AblationMatrix policy cycles — or a
 * Heads shard's trigger/model masks ("head-<name>" from headMatrix()).
 * Returns false (leaving @p fopts untouched) for unknown names, so
 * replay tooling can rebuild a bug's exact fuzzer configuration from
 * its recorded variant string.
 */
bool applyAblationVariant(const std::string &name,
                          core::FuzzerOptions &fopts);

struct CampaignOptions
{
    unsigned workers = 4;
    ShardPolicy policy = ShardPolicy::Replicas;
    uint64_t master_seed = 1;

    /** Total iteration budget across all workers (0 = unbounded;
     *  then wall_seconds must be set). */
    uint64_t total_iterations = 4000;
    /** Wall-clock budget in seconds (0 = unbounded). */
    double wall_seconds = 0.0;
    /** Per-worker iterations between sync barriers. */
    uint64_t epoch_iterations = 200;

    /** Iterations per scheduler batch (the work-stealing grain). */
    uint64_t batch_iterations = 32;

    /** Base core config (shard policies derive per-worker configs). */
    uarch::CoreConfig base_config;
    /** Base fuzzer options; per-worker seed/ablation fields are
     *  overridden by the shard policy. */
    core::FuzzerOptions fuzzer;

    /**
     * Batch watchdog/retry policy. A batch that throws or blows
     * batch_deadline_sec is re-executed up to batch_retries times
     * with the identical BatchSpec (same Rng seed, baseline and
     * inject set), so a retry that succeeds is bit-identical to a
     * first-try success and determinism survives transient faults.
     * A batch that exhausts its retries is skipped: its planned
     * iterations still count against the budget, and any corpus
     * seeds riding it are quarantined (quarantine.jsonl) and pulled
     * from the corpus.
     */
    unsigned batch_retries = 2;
    /** Per-batch wall deadline in seconds (0 = no watchdog). A
     *  deadline-killed attempt's partial result is discarded —
     *  machine-speed-dependent state never folds into the campaign. */
    double batch_deadline_sec = 0.0;
    /**
     * Fleet-wide graceful degradation: when one (config, variant)
     * kind accumulates this many *consecutive* failed batches across
     * its shards, the kind is disabled for the rest of the campaign
     * (its shards plan zero-iteration epochs and receive no stolen
     * seeds) with a logged reason.
     * 0 = never disable. A campaign whose every kind is disabled
     * terminates instead of spinning.
     */
    unsigned kind_disable_failures = 8;
    /**
     * Autosave interval in seconds (0 = off). When positive and an
     * autosave hook is installed (setAutosaveHook), run() invokes the
     * hook at the first epoch barrier after each interval elapses —
     * so a SIGKILL loses at most one interval plus the epoch in
     * flight. Autosaves are observational: they never perturb
     * campaign outcomes.
     */
    double autosave_sec = 0.0;

    /**
     * Heartbeat interval in seconds (0 = no heartbeats). When
     * positive, run() snapshots the telemetry registry every
     * heartbeat_sec seconds (plus once at campaign end), streams
     * each record to @ref heartbeat_out, and retains the lines for
     * writeJsonlWithHeartbeats(). Heartbeats are observational: they
     * never perturb campaign outcomes.
     */
    double heartbeat_sec = 0.0;
    /** Live sink for heartbeat lines (flushed per record; may be
     *  null: lines are still retained for the final log). */
    std::ostream *heartbeat_out = nullptr;
};

class CampaignOrchestrator
{
  public:
    explicit CampaignOrchestrator(const CampaignOptions &options);

    /** Execute the campaign; call at most once per instance. */
    CampaignStats run();

    /**
     * Admit previously persisted corpus entries (see
     * SharedCorpus::loadFrom) before run(). Each shard's batch
     * counter is advanced past every loaded (worker, seq) identity,
     * so the resumed campaign never re-issues an identity already
     * present — no duplicate seeds. Entries without a completed
     * window payload are skipped (they cannot be resumed in Phase-2
     * mutation mode). Returns the number admitted.
     */
    uint64_t preloadCorpus(const std::vector<CorpusEntry> &entries);

    /**
     * Capture the complete barrier state after run() — coverage
     * groups, shard continuations, steal Rng, cursors and the bug
     * ledger with reproducers — for campaign-directory persistence
     * (snapshot.hh). Pair with corpus().saveTo().
     */
    CampaignCheckpoint makeCheckpoint() const;

    /**
     * Reinstall a checkpoint before run(), continuing the saved
     * campaign: coverage novelty gates stay monotone (restored
     * points are never "rediscovered"), batch indices and epoch/
     * iteration cursors resume where the saved run stopped, and the
     * restored ledger keeps accumulating hits. With the same master
     * seed, options and corpus (restoreCorpus), the resumed run is
     * bit-identical to an uninterrupted one. The checkpoint must
     * match this campaign's fleet (worker count, config groups and
     * module shapes, master seed); mismatches fail with a
     * diagnostic in @p error and leave the campaign untouched.
     */
    bool restoreCheckpoint(const CampaignCheckpoint &cp,
                           std::string *error = nullptr);

    /**
     * Re-admit a saved corpus verbatim for an exact checkpoint
     * resume. Unlike preloadCorpus(), identities are not marked as
     * preloaded (the restored shards' stolen sets already encode
     * what was injected) and batch counters are left to the
     * checkpoint. Returns the number of entries retained.
     */
    uint64_t restoreCorpus(const std::vector<CorpusEntry> &entries);

    /**
     * Distill the corpus after run(): drop content-duplicate entries
     * and entries whose replayed coverage is subsumed by the kept
     * set (SharedCorpus::minimize, with the campaign's own executors
     * as the coverage oracle). Updates the corpus_size /
     * corpus_minimized stats the JSONL summary reports.
     */
    SharedCorpus::MinimizeStats minimizeCorpus();

    const CampaignStats &stats() const { return stats_; }
    const BugLedger &ledger() const { return ledger_; }
    /** Mutable ledger access, for post-run triage annotation. */
    BugLedger &ledger() { return ledger_; }
    const SharedCorpus &corpus() const { return corpus_; }

    /** Emit the campaign JSONL log (stats + deduplicated bugs).
     *  Deliberately heartbeat-free: this is the bit-reproducible
     *  view equivalence tests compare. */
    void writeJsonl(std::ostream &os) const;

    /** writeJsonl() preceded by the heartbeat records captured
     *  during run() — the full campaign.jsonl a live log carries. */
    void writeJsonlWithHeartbeats(std::ostream &os) const;

    /**
     * Crash-safe persistence callback (typically saveCampaignDir).
     * run() invokes it at epoch barriers per CampaignOptions::
     * autosave_sec; the orchestrator's cursors and stats are
     * barrier-consistent whenever it fires. A failing hook (false
     * return, diagnostic in its out-param) is logged and retried at
     * the next interval — persistence trouble must not kill the
     * campaign it is trying to protect.
     */
    using AutosaveHook = std::function<bool(std::string *)>;
    void setAutosaveHook(AutosaveHook hook)
    {
        autosave_hook_ = std::move(hook);
    }

    /** Seeds quarantined so far, in barrier (shard, batch) order —
     *  deterministic campaigns yield byte-identical ledgers. */
    const std::vector<QuarantineRecord> &quarantineRecords() const
    {
        return quarantine_;
    }
    /** How many quarantineRecords() entries have been appended to
     *  the on-disk ledger already (autosave bookkeeping, maintained
     *  by saveCampaignDir via noteQuarantinePersisted). */
    size_t quarantinePersisted() const
    {
        return quarantine_persisted_;
    }
    void noteQuarantinePersisted(size_t count)
    {
        quarantine_persisted_ = count;
    }

  private:
    /** Shard-logical state: the unit of provenance and policy. The
     *  executing thread varies batch to batch; everything here is
     *  touched only at barriers (main thread). */
    struct Shard
    {
        uarch::CoreConfig config;
        core::FuzzerOptions fopts;
        std::string config_name;
        std::string variant;
        /** Coverage/corpus/steal domain key. Equals config_name
         *  except under Heads, where each head gets its own group
         *  ("<config>+head=<name>") so head-local coverage maps and
         *  seed stealing never cross subspaces. */
        std::string group_name;
        GlobalCoverage *group = nullptr;
        unsigned kind = 0;           ///< steal-compatibility class
        uint64_t next_batch = 0;     ///< shard-global batch counter
        /** Corpus seeds awaiting assignment to the next batch. */
        std::vector<core::TestCase> pending_inject;
        /** (author, seq) pairs already injected into this shard. */
        std::set<std::pair<unsigned, uint64_t>> stolen;
        /**
         * The shard's private coverage map (PR-1 semantics:
         * everything its batches saw, including the epoch baselines
         * they started from). Batch maps are merged in at barriers
         * in (shard, batch) order, so the union — and the
         * coverage_points it yields — is deterministic even when
         * two batches of the shard discovered the same point.
         */
        ift::TaintCoverage private_map;
        /** Shard-logical rollups, accumulated at barriers. */
        WorkerSummary agg;
        std::array<core::Fuzzer::TriggerStats, core::kTriggerKinds>
            trigger_agg{};
    };

    /** One batch's outcome in the epoch plan (slot-indexed so
     *  concurrent executors write disjoint elements). */
    struct SlotResult
    {
        core::Fuzzer::BatchResult res;
        /** The executor's post-batch coverage map (baseline ∪ batch
         *  discoveries); folded into the shard's private map at the
         *  barrier. Bitmaps are small, so the per-epoch copies are
         *  cheap. */
        ift::TaintCoverage cov;
        double seconds = 0.0;
        /** Shard-global batch index (quarantine provenance). */
        uint64_t batch_index = 0;
        /** The spec's iteration count — what a failed batch skipped. */
        uint64_t iterations_planned = 0;
        /** Executions attempted (1 = clean first try). */
        unsigned attempts = 1;
        /** Watchdog cut-offs among those attempts (real + injected). */
        unsigned deadline_kills = 0;
        /** The batch exhausted every retry: res/cov are empty and
         *  must not be folded; fail_reason carries the signature. */
        bool failed = false;
        std::string fail_reason;
        /** Corpus seeds that rode the failed batch — quarantined at
         *  the barrier. */
        std::vector<core::TestCase> failed_inject;
    };

    void provision();
    std::vector<uint64_t> planQuotas(uint64_t done) const;
    void runEpoch(const std::vector<uint64_t> &quotas);
    void syncEpoch(uint64_t epoch);
    void executorLoop(unsigned t);
    void finalizeStats(double wall_seconds);

    CampaignOptions options_;
    SharedCorpus corpus_;
    BugLedger ledger_;
    CampaignStats stats_;
    std::vector<Shard> shards_;
    /** Executor thread t's fuzzer, built for shard t's kind and
     *  reused (dual-sim buffers and all) across every batch it
     *  runs — the batched-simulation amortization. */
    std::vector<std::unique_ptr<core::Fuzzer>> executors_;
    /** One global coverage map per distinct group (config name, or
     *  config+head under the Heads policy). */
    std::map<std::string, std::unique_ptr<GlobalCoverage>> groups_;
    /** Blank registered maps (per group) snapshots are stamped from. */
    std::map<std::string, ift::TaintCoverage> group_shapes_;
    /** Frozen per-group coverage at the current epoch's start; all
     *  batches of the epoch read it concurrently, nobody writes. */
    std::map<std::string, ift::TaintCoverage> group_snapshots_;

    std::unique_ptr<WorkStealingScheduler> sched_;
    /** Per-(shard, slot) results of the epoch in flight. */
    std::vector<std::vector<SlotResult>> epoch_results_;
    std::vector<double> busy_seconds_;

    Rng steal_rng_;
    uint64_t steals_ = 0;
    uint64_t preloaded_ = 0;
    /** Cursors a checkpoint restore advances: run() continues
     *  counting iterations/epochs from here. */
    uint64_t done_base_ = 0;
    uint64_t epoch_base_ = 0;
    /** Final cursor values, captured for makeCheckpoint(). */
    uint64_t done_ = 0;
    uint64_t epoch_ = 0;
    uint64_t stolen_before_ = 0;   ///< sched_->stolen() at epoch start
    uint64_t epoch_stolen_ = 0;    ///< batches stolen this epoch
    uint64_t epoch_idle_ns_ = 0;   ///< idle (non-busy) ns this epoch
    /** Identities admitted by preloadCorpus(): they are stealable by
     *  every current shard, including the one sharing the author's
     *  worker number (that shard never actually generated them). */
    std::set<std::pair<unsigned, uint64_t>> preloaded_ids_;
    /** Heartbeat lines captured during run(), in emission order. */
    std::vector<std::string> heartbeat_lines_;
    /** Quarantined seeds in barrier order; the persisted-prefix
     *  cursor lets autosaves append only fresh records. */
    std::vector<QuarantineRecord> quarantine_;
    size_t quarantine_persisted_ = 0;
    AutosaveHook autosave_hook_;
    /** Per-kind consecutive failed-batch streaks (barrier order) and
     *  the fleet-wide disable switch they trip. Indexed by
     *  Shard::kind. */
    std::vector<unsigned> kind_fail_streak_;
    std::vector<bool> kind_disabled_;
    /** Iterations planned into batches that exhausted their retries
     *  and were skipped — subtracted from the epoch curve so its
     *  iteration axis keeps matching the worker rollups. */
    uint64_t skipped_iterations_ = 0;
    bool ran_ = false;
};

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_ORCHESTRATOR_HH
