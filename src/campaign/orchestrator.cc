#include "campaign/orchestrator.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "campaign/faults.hh"
#include "obs/heartbeat.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dejavuzz::campaign {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Rng seed of batch @p index of shard @p shard. Two stream
 * derivations decorrelate both axes; the same (master, shard, index)
 * triple always yields the same batch, whoever executes it.
 */
uint64_t
batchSeed(uint64_t master, unsigned shard, uint64_t index)
{
    return Rng::streamSeed(Rng::streamSeed(master, shard), index);
}

/** CPUs this process may run on (its sched_getaffinity mask), or 1
 *  if the mask cannot be read. `taskset -c 0` therefore gives one
 *  executor per shard. */
unsigned
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/** Ablation variants cycled across workers by AblationMatrix. */
struct AblationVariant
{
    const char *name;
    bool derived_training;
    bool coverage_feedback;
    bool use_liveness;
    bool training_reduction;
};

/** Variant-name prefix of a Heads shard ("head-<name>"). */
constexpr const char *kHeadVariantPrefix = "head-";

constexpr AblationVariant kAblationMatrix[] = {
    {"full", true, true, true, true},
    {"dejavuzz-star", false, true, true, true},
    {"dejavuzz-minus", true, false, true, true},
    {"no-liveness", true, true, false, true},
    {"no-reduction", true, true, true, false},
};

} // namespace

const std::vector<HeadSpec> &
headMatrix()
{
    using core::AttackTemplate;
    using core::TriggerKind;
    using core::modelBit;
    using core::triggerBit;
    // Disjoint subspaces covering every trigger kind. Each head also
    // owns the attack templates whose windows live in its subspace:
    // double-fetch rides the predictor windows, the supervisor victim
    // is a page-walk (TLB) scenario, and the privilege transitions
    // are exception-machinery windows.
    static const std::vector<HeadSpec> matrix = {
        {"predictors",
         triggerBit(TriggerKind::BranchMispredict) |
             triggerBit(TriggerKind::IndirectMispredict) |
             triggerBit(TriggerKind::ReturnMispredict) |
             triggerBit(TriggerKind::MemDisambiguation),
         modelBit(AttackTemplate::SameDomain) |
             modelBit(AttackTemplate::DoubleFetch)},
        {"caches",
         triggerBit(TriggerKind::LoadAccessFault) |
             triggerBit(TriggerKind::LoadMisalign),
         modelBit(AttackTemplate::SameDomain)},
        {"tlb", triggerBit(TriggerKind::LoadPageFault),
         modelBit(AttackTemplate::SameDomain) |
             modelBit(AttackTemplate::MeltdownSupervisor)},
        {"exceptions",
         triggerBit(TriggerKind::IllegalInstr) |
             triggerBit(TriggerKind::PrivEcall) |
             triggerBit(TriggerKind::PrivReturn),
         modelBit(AttackTemplate::SameDomain) |
             modelBit(AttackTemplate::PrivTransition)},
    };
    return matrix;
}

const char *
shardPolicyName(ShardPolicy policy)
{
    switch (policy) {
      case ShardPolicy::Replicas: return "replicas";
      case ShardPolicy::ConfigSweep: return "sweep";
      case ShardPolicy::AblationMatrix: return "ablation";
      case ShardPolicy::Heads: return "heads";
    }
    return "?";
}

bool
applyAblationVariant(const std::string &name,
                     core::FuzzerOptions &fopts)
{
    for (const AblationVariant &variant : kAblationMatrix) {
        if (name != variant.name)
            continue;
        fopts.derived_training = variant.derived_training;
        fopts.coverage_feedback = variant.coverage_feedback;
        fopts.use_liveness = variant.use_liveness;
        fopts.training_reduction = variant.training_reduction;
        return true;
    }
    for (const HeadSpec &spec : headMatrix()) {
        if (name != kHeadVariantPrefix + std::string(spec.name))
            continue;
        fopts.trigger_mask = spec.trigger_mask;
        fopts.model_mask = spec.model_mask;
        return true;
    }
    return false;
}

CampaignOrchestrator::CampaignOrchestrator(
    const CampaignOptions &options)
    : options_(options),
      steal_rng_(Rng::streamSeed(options.master_seed,
                                 0x5eedfeedULL))
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.epoch_iterations == 0)
        options_.epoch_iterations = 1;
    if (options_.batch_iterations == 0)
        options_.batch_iterations = 1;
    dv_assert(options_.total_iterations != 0 ||
              options_.wall_seconds > 0.0);
    provision();
}

void
CampaignOrchestrator::provision()
{
    shards_.resize(options_.workers);
    // One executor per CPU, but never fewer than one per shard. Only
    // the shards' own executors are built here; the rest stay null
    // until an epoch has batches for them (runEpoch).
    executors_.resize(
        std::max<size_t>(options_.workers, cpusAvailable()));
    std::map<std::pair<std::string, std::string>, unsigned> kinds;

    for (unsigned w = 0; w < options_.workers; ++w) {
        Shard &shard = shards_[w];

        uarch::CoreConfig config = options_.base_config;
        core::FuzzerOptions fopts = options_.fuzzer;
        shard.variant = "full";
        std::string head;

        switch (options_.policy) {
          case ShardPolicy::Replicas:
            break;
          case ShardPolicy::ConfigSweep:
            // Alternate between the two paper cores, starting from
            // the base config's core.
            if (w % 2 == 1) {
                config = options_.base_config.kind ==
                                 uarch::CoreKind::Boom
                             ? uarch::xiangshanMinimalConfig()
                             : uarch::smallBoomConfig();
            }
            break;
          case ShardPolicy::AblationMatrix: {
            shard.variant =
                kAblationMatrix[w % std::size(kAblationMatrix)].name;
            // One switch table for campaign execution and replay
            // reconstruction alike.
            bool known = applyAblationVariant(shard.variant, fopts);
            dv_assert(known);
            break;
          }
          case ShardPolicy::Heads: {
            const std::vector<HeadSpec> &heads = headMatrix();
            head = heads[w % heads.size()].name;
            // The head rides the variant so kind compatibility (the
            // thief's fuzzer carries the head's masks) and ledger
            // provenance both see it; replay resolves the same name.
            shard.variant = kHeadVariantPrefix + head;
            bool known = applyAblationVariant(shard.variant, fopts);
            dv_assert(known);
            break;
          }
        }

        // The executor's own stream seed is irrelevant in batch mode
        // (every batch reseeds from its spec) but kept distinct for
        // any direct run() use. Long campaigns: bound memory, the
        // orchestrator tracks the fleet-level curve itself.
        fopts.master_seed =
            Rng::streamSeed(options_.master_seed, w);
        fopts.record_coverage_curve = false;

        shard.config = config;
        shard.fopts = fopts;
        shard.config_name = config.name;
        // Head shards get their own coverage/corpus/steal domain so
        // each head's novelty gate and seed pool stay local to its
        // subspace — the head-local coverage maps of the multi-head
        // campaign.
        shard.group_name =
            head.empty() ? shard.config_name
                         : shard.config_name + "+head=" + head;
        shard.agg.worker = w;
        shard.agg.config = shard.config_name;
        shard.agg.variant = shard.variant;

        // Executor w reuses this one fuzzer (and its dual-sim
        // buffers) for every batch it runs, own or stolen.
        executors_[w] =
            std::make_unique<core::Fuzzer>(config, fopts);

        auto [it, inserted] = groups_.try_emplace(shard.group_name);
        if (inserted) {
            it->second = std::make_unique<GlobalCoverage>(
                executors_[w]->coverage());
            // Blank registered map; epoch snapshots are stamped from
            // this shape then filled by pullInto.
            group_shapes_.emplace(shard.group_name,
                                  executors_[w]->coverage());
            group_snapshots_.emplace(shard.group_name,
                                     executors_[w]->coverage());
        }
        shard.group = it->second.get();
        shard.private_map = group_shapes_.at(shard.group_name);

        auto [kit, fresh] = kinds.try_emplace(
            {shard.config_name, shard.variant},
            static_cast<unsigned>(kinds.size()));
        (void)fresh;
        shard.kind = kit->second;
    }

    // Executor t serves shard t % shards' kind. Executors past the
    // shard count own deques nothing is pushed to, so they only steal.
    std::vector<unsigned> kind_ids;
    kind_ids.reserve(executors_.size());
    for (size_t t = 0; t < executors_.size(); ++t)
        kind_ids.push_back(shards_[t % shards_.size()].kind);
    sched_ = std::make_unique<WorkStealingScheduler>(kind_ids);
    busy_seconds_.assign(executors_.size(), 0.0);
    kind_fail_streak_.assign(kinds.size(), 0);
    kind_disabled_.assign(kinds.size(), false);
}

uint64_t
CampaignOrchestrator::preloadCorpus(
    const std::vector<CorpusEntry> &entries)
{
    dv_assert(!ran_);
    uint64_t admitted = 0;
    for (const CorpusEntry &entry : entries) {
        // Reserve the identity even when the entry itself is
        // skipped or dropped below, so a chained resume never
        // re-issues a (worker, seq) the file already claims. Batch
        // k of a shard owns seqs [k*B, (k+1)*B); skipping to the
        // batch past the highest loaded seq skips every claimed id.
        if (entry.worker < shards_.size()) {
            Shard &namesake = shards_[entry.worker];
            namesake.next_batch = std::max(
                namesake.next_batch,
                entry.seq / options_.batch_iterations + 1);
        }
        // runBatch resumes a case in Phase-2 mutation mode, which
        // requires a completed window payload.
        if (!entry.tc.has_window_payload)
            continue;
        // A file holding more entries than a corpus shard retains
        // keeps only the top of the saved set; only what actually
        // landed counts as preloaded.
        if (!corpus_.offer(entry))
            continue;
        preloaded_ids_.insert({entry.worker, entry.seq});
        ++admitted;
    }
    preloaded_ += admitted;
    return admitted;
}

CampaignCheckpoint
CampaignOrchestrator::makeCheckpoint() const
{
    dv_assert(ran_);
    CampaignCheckpoint cp;
    cp.master_seed = options_.master_seed;
    cp.iterations_done = done_;
    cp.epochs_done = epoch_;
    cp.steals = steals_;
    cp.preloaded = preloaded_;
    cp.steal_rng = steal_rng_.state();
    cp.preloaded_ids.assign(preloaded_ids_.begin(),
                            preloaded_ids_.end());

    // groups_ is keyed by config name, so iteration order — and the
    // serialized snapshot — is deterministic.
    for (const auto &[name, group] : groups_) {
        CoverageGroupSnap snap;
        snap.config = name;
        const ift::TaintCoverage &shape = group_shapes_.at(name);
        for (size_t m = 0; m < group->moduleCount(); ++m) {
            CoverageGroupSnap::Module module;
            module.name =
                shape.moduleName(static_cast<uint16_t>(m));
            module.slots = group->moduleSlots(m);
            module.words.resize(group->moduleWords(m));
            for (size_t w = 0; w < module.words.size(); ++w)
                module.words[w] = group->word(m, w);
            snap.modules.push_back(std::move(module));
        }
        cp.groups.push_back(std::move(snap));
    }

    for (const Shard &shard : shards_) {
        ShardSnap snap;
        snap.next_batch = shard.next_batch;
        snap.stolen.assign(shard.stolen.begin(),
                           shard.stolen.end());
        snap.pending_inject = shard.pending_inject;
        cp.shards.push_back(std::move(snap));
    }

    cp.ledger = ledger_.entries();
    return cp;
}

bool
CampaignOrchestrator::restoreCheckpoint(const CampaignCheckpoint &cp,
                                        std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    dv_assert(!ran_);
    if (cp.master_seed != options_.master_seed) {
        return fail("checkpoint master seed " +
                    std::to_string(cp.master_seed) +
                    " does not match campaign master seed " +
                    std::to_string(options_.master_seed));
    }
    if (cp.shards.size() != shards_.size()) {
        return fail("checkpoint has " +
                    std::to_string(cp.shards.size()) +
                    " shards, campaign has " +
                    std::to_string(shards_.size()));
    }
    // Validate every group against this fleet's shapes before
    // touching any state: a mismatched snapshot must not
    // half-restore the campaign.
    for (const CoverageGroupSnap &snap : cp.groups) {
        auto it = groups_.find(snap.config);
        if (it == groups_.end()) {
            return fail("checkpoint coverage group \"" +
                        snap.config +
                        "\" has no matching config in this "
                        "campaign");
        }
        const GlobalCoverage &group = *it->second;
        const ift::TaintCoverage &shape =
            group_shapes_.at(snap.config);
        if (snap.modules.size() != group.moduleCount())
            return fail("module count mismatch in coverage group \"" +
                        snap.config + "\"");
        for (size_t m = 0; m < snap.modules.size(); ++m) {
            const CoverageGroupSnap::Module &module =
                snap.modules[m];
            if (module.name !=
                    shape.moduleName(static_cast<uint16_t>(m)) ||
                module.slots != group.moduleSlots(m) ||
                module.words.size() != group.moduleWords(m)) {
                return fail("module shape mismatch at \"" +
                            module.name + "\" in coverage group \"" +
                            snap.config + "\"");
            }
        }
    }

    uint64_t restored_points = 0;
    for (const CoverageGroupSnap &snap : cp.groups) {
        GlobalCoverage &group = *groups_.at(snap.config);
        const uint64_t before = group.points();
        for (size_t m = 0; m < snap.modules.size(); ++m) {
            for (size_t w = 0; w < snap.modules[m].words.size();
                 ++w) {
                // Slot-range validity was checked by the snapshot
                // loader; shapes were checked above.
                bool ok = group.restoreWord(
                    m, w, snap.modules[m].words[w]);
                dv_assert(ok);
            }
        }
        restored_points += group.points() - before;
    }

    for (size_t w = 0; w < shards_.size(); ++w) {
        Shard &shard = shards_[w];
        shard.next_batch = cp.shards[w].next_batch;
        shard.stolen.clear();
        for (const auto &[author, seq] : cp.shards[w].stolen)
            shard.stolen.insert({author, seq});
        shard.pending_inject = cp.shards[w].pending_inject;
    }

    ledger_.restore(cp.ledger);
    steal_rng_.setState(cp.steal_rng);
    steals_ = cp.steals;
    preloaded_ = cp.preloaded;
    // Preloaded identities keep their special steal-eligibility
    // (stealable by namesake shards) across the resume.
    preloaded_ids_.clear();
    for (const auto &[author, seq] : cp.preloaded_ids)
        preloaded_ids_.insert({author, seq});
    done_base_ = done_ = cp.iterations_done;
    epoch_base_ = epoch_ = cp.epochs_done;

    stats_.coverage_preloaded = restored_points;
    stats_.bugs_restored = ledger_.distinct();
    stats_.reports_restored = ledger_.totalReports();
    return true;
}

uint64_t
CampaignOrchestrator::restoreCorpus(
    const std::vector<CorpusEntry> &entries)
{
    dv_assert(!ran_);
    uint64_t admitted = 0;
    for (const CorpusEntry &entry : entries)
        admitted += corpus_.offer(entry) ? 1 : 0;
    return admitted;
}

SharedCorpus::MinimizeStats
CampaignOrchestrator::minimizeCorpus()
{
    dv_assert(ran_);
    // Coverage oracle: replay each entry on an executor running the
    // entry's own config (its coverage map is expendable after the
    // campaign). Entries from configs absent in this fleet cannot be
    // evaluated — keep them by reporting a unique sentinel tuple, so
    // minimization never drops what it cannot judge.
    std::map<std::string, core::Fuzzer *> by_config;
    for (size_t w = 0; w < shards_.size(); ++w)
        by_config.try_emplace(shards_[w].group_name,
                              executors_[w].get());
    // Tuples from different configs live in disjoint module-id
    // ranges, so a SmallBOOM point can never subsume the
    // equal-numbered XiangShan point. The 1024-wide stripes (and
    // the 0xffff unknown-config sentinel) bound how many configs
    // and modules the namespacing can hold.
    std::map<std::string, uint16_t> config_base;
    dv_assert(by_config.size() < 64);
    for (const auto &[name, fz] : by_config) {
        dv_assert(fz->coverage().moduleCount() < 1024);
        config_base.emplace(
            name, static_cast<uint16_t>(config_base.size() * 1024));
    }
    uint32_t unknown = 0;
    auto eval = [&](const CorpusEntry &entry)
        -> std::vector<ift::CoveragePoint> {
        auto it = by_config.find(entry.config);
        if (it == by_config.end()) {
            return {ift::CoveragePoint{
                static_cast<uint16_t>(0xffff), unknown++}};
        }
        std::vector<ift::CoveragePoint> tuples =
            it->second
                ->replayCase(entry.tc, /*collect_coverage_tuples=*/true)
                .coverage;
        const uint16_t base = config_base.at(entry.config);
        for (ift::CoveragePoint &point : tuples)
            point.module_id =
                static_cast<uint16_t>(point.module_id + base);
        return tuples;
    };

    SharedCorpus::MinimizeStats stats = corpus_.minimize(eval);
    stats_.corpus_minimized += stats.dropped();
    stats_.corpus_size = corpus_.size();
    return stats;
}

std::vector<uint64_t>
CampaignOrchestrator::planQuotas(uint64_t done) const
{
    // Desired per-shard quota for a full epoch. Shards of a disabled
    // kind plan nothing — graceful degradation zeroes them before the
    // budget scaling, so the surviving kinds inherit the remaining
    // budget proportionally.
    std::vector<uint64_t> quotas(shards_.size(),
                                 options_.epoch_iterations);
    for (size_t w = 0; w < shards_.size(); ++w) {
        if (kind_disabled_[shards_[w].kind])
            quotas[w] = 0;
    }
    uint64_t desired_total = 0;
    for (uint64_t quota : quotas)
        desired_total += quota;
    if (desired_total == 0)
        return quotas; // every kind disabled: run() terminates

    if (options_.total_iterations == 0)
        return quotas;

    // Final epoch of an iteration-bounded campaign: scale the
    // desired quotas down proportionally (largest shares first by
    // worker order for the integer remainder).
    uint64_t remaining = options_.total_iterations - done;
    if (remaining >= desired_total)
        return quotas;
    uint64_t assigned = 0;
    std::vector<uint64_t> scaled(shards_.size(), 0);
    for (size_t w = 0; w < shards_.size(); ++w) {
        scaled[w] = remaining * quotas[w] / desired_total;
        assigned += scaled[w];
    }
    uint64_t leftover = remaining - assigned;
    for (size_t w = 0; w < shards_.size() && leftover > 0; ++w) {
        if (quotas[w] == 0)
            continue;
        ++scaled[w];
        --leftover;
    }
    return scaled;
}

void
CampaignOrchestrator::executorLoop(unsigned t)
{
    // Trace track 0 is the main thread; executor t takes track t+1,
    // also when executor 0 runs on the main thread.
    obs::setThreadTrack(t + 1);
    core::Fuzzer &fz = *executors_[t];
    double busy = 0.0;
    for (;;) {
        BatchTask task;
        if (!sched_->popOwn(t, task)) {
            // Own deque dry: convert would-be barrier idle into
            // stolen batches.
            if (!sched_->steal(t, task))
                break;
        }
        const Shard &shard = shards_[task.shard];

        // Provenance: offers are tagged with the *shard-logical*
        // (worker, seq) identity regardless of the executing
        // thread; batch k owns seq range [k*B, (k+1)*B). Offers are
        // buffered per attempt and committed only when the batch
        // succeeds: a failed or deadline-killed attempt must leave
        // no trace in the shared corpus, or retries would not be
        // bit-identical to a clean first run.
        const uint64_t seq_base =
            task.index * options_.batch_iterations;
        std::vector<CorpusEntry> offers;
        uint64_t offer_local = 0;
        fz.setInterestingHook(
            [&offers, &shard, &offer_local, seq_base,
             s = task.shard](const core::TestCase &tc,
                             uint64_t gain) {
                offers.push_back(CorpusEntry{tc, gain, s,
                                             seq_base + offer_local++,
                                             shard.group_name});
            });

        // The inject set outlives the attempt loop so every retry
        // re-executes the identical spec.
        std::vector<core::TestCase> inject = std::move(task.inject);

        const double begin = nowSeconds();
        SlotResult slot;
        slot.batch_index = task.index;
        slot.iterations_planned = task.iterations;

        const unsigned max_attempts = 1 + options_.batch_retries;
        bool ok = false;
        std::string reason;
        unsigned attempt = 0;
        for (; attempt < max_attempts && !ok; ++attempt) {
            if (attempt > 0)
                obs::counterAdd(obs::Ctr::BatchRetries);
            offers.clear();
            offer_local = 0;

            core::Fuzzer::BatchSpec spec;
            spec.rng_seed = batchSeed(options_.master_seed,
                                      task.shard, task.index);
            spec.iter_base = seq_base;
            spec.iterations = task.iterations;
            spec.baseline = &group_snapshots_.at(shard.group_name);
            spec.inject = inject;
            spec.deadline_seconds = options_.batch_deadline_sec;

            // batch-hang failpoint: the batch never terminates, so
            // the watchdog kills it at the deadline. Simulated
            // before execution — an actual spin would make the test
            // suite's wall time the deadline sum.
            if (shouldFail(Fault::BatchHang)) {
                obs::counterAdd(obs::Ctr::BatchDeadlineKills);
                ++slot.deadline_kills;
                reason = "batch-deadline";
                continue;
            }
            try {
                if (shouldFail(Fault::BatchThrow))
                    throw std::runtime_error("batch-throw failpoint");
                obs::ScopedSpan batch_span(obs::Hist::BatchNs,
                                           task.shard, task.index);
                slot.res = fz.runBatch(spec);
            } catch (const std::exception &e) {
                reason = std::string("batch-throw: ") + e.what();
                continue;
            }
            if (slot.res.deadline_hit) {
                // The partial result is machine-speed-dependent;
                // discard it wholesale (determinism) and retry.
                obs::counterAdd(obs::Ctr::BatchDeadlineKills);
                ++slot.deadline_kills;
                reason = "batch-deadline";
                slot.res = core::Fuzzer::BatchResult{};
                continue;
            }
            ok = true;
        }
        slot.attempts = attempt;

        if (ok) {
            // Commit the successful attempt: corpus offers first
            // (retention is arrival-order independent), then publish
            // the batch's discoveries with lock-free atomic ORs
            // (commutative, so barrier state is timing-free); keep
            // the full map for the barrier-ordered per-shard fold.
            for (CorpusEntry &entry : offers)
                corpus_.offer(std::move(entry));
            shard.group->mergeFrom(fz.coverage());
            slot.cov = fz.coverage();
        } else {
            slot.failed = true;
            slot.fail_reason = std::move(reason);
            slot.res = core::Fuzzer::BatchResult{};
            // The seeds that rode this batch are quarantined at the
            // barrier (they are the prime crash/hang suspects).
            slot.failed_inject = std::move(inject);
        }
        obs::counterAdd(obs::Ctr::Batches);
        obs::drainThreadSpans();
        slot.seconds = nowSeconds() - begin;
        busy += slot.seconds;
        fz.setInterestingHook(nullptr);

        // Slots are preallocated and disjoint per (shard, slot): no
        // lock needed to publish.
        epoch_results_[task.shard][task.slot] = std::move(slot);
    }
    busy_seconds_[t] = busy;
}

void
CampaignOrchestrator::runEpoch(const std::vector<uint64_t> &quotas)
{
    // Freeze one coverage snapshot per config group on the main
    // thread before any executor starts: every batch of the epoch
    // measures novelty against the same barrier state, which is what
    // makes batches executor-independent.
    for (auto &[name, snapshot] : group_snapshots_) {
        snapshot = group_shapes_.at(name);
        groups_.at(name)->pullInto(snapshot);
    }

    // Plan the epoch: per-shard batch deques + disjoint result slots.
    epoch_results_.assign(shards_.size(), {});
    for (unsigned w = 0; w < shards_.size(); ++w) {
        Shard &shard = shards_[w];
        uint64_t remaining = quotas[w];
        if (remaining == 0)
            continue; // pending seeds wait for the next active epoch
        std::vector<core::TestCase> pending =
            std::move(shard.pending_inject);
        shard.pending_inject.clear();
        size_t slot = 0;
        while (remaining > 0) {
            BatchTask task;
            task.shard = w;
            task.index = shard.next_batch++;
            task.iterations =
                std::min<uint64_t>(remaining,
                                   options_.batch_iterations);
            task.slot = slot++;
            if (!pending.empty()) {
                // Corpus seeds ride the shard's first batch of the
                // epoch; unconsumed ones come back via
                // leftover_inject and retry next epoch.
                task.inject = std::move(pending);
                pending.clear();
            }
            sched_->push(w, std::move(task));
            remaining -= std::min<uint64_t>(
                options_.batch_iterations,
                remaining);
        }
        epoch_results_[w].resize(slot);
    }

    stolen_before_ = sched_->stolen();
    std::fill(busy_seconds_.begin(), busy_seconds_.end(), 0.0);

    // One thread per shard, and more while there are CPUs and batches
    // for them. Which thread runs a batch never changes what it
    // computes, so the count changes only the wall time.
    size_t batches = 0;
    for (const std::vector<SlotResult> &slots : epoch_results_)
        batches += slots.size();
    const size_t threads = std::max(
        shards_.size(), std::min(executors_.size(), batches));
    // An extra executor is built the first time an epoch needs it and
    // kept for later epochs. Building it here rather than on its own
    // thread keeps its allocations in the main thread's malloc arena,
    // which every campaign's executors reuse.
    for (size_t t = shards_.size(); t < threads; ++t) {
        if (!executors_[t]) {
            const Shard &shard = shards_[t % shards_.size()];
            executors_[t] =
                std::make_unique<core::Fuzzer>(shard.config, shard.fopts);
        }
    }

    const double begin = nowSeconds();
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back([this, t] { executorLoop(t); });
    executorLoop(0);
    obs::setThreadTrack(0); // the main thread's barrier work
    for (std::thread &thread : pool)
        thread.join();
    const double wall = nowSeconds() - begin;

    // Idle is counted only for the threads this epoch started: an
    // executor built for an earlier, larger epoch is not idle now.
    epoch_stolen_ = sched_->stolen() - stolen_before_;
    epoch_idle_ns_ = 0;
    unsigned ran = 0;
    for (size_t t = 0; t < threads; ++t) {
        double idle = wall - busy_seconds_[t];
        if (idle > 0.0)
            epoch_idle_ns_ +=
                static_cast<uint64_t>(idle * 1e9);
        ran += busy_seconds_[t] > 0.0 ? 1 : 0;
    }
    executors_ran_ = std::max(executors_ran_, ran);
}

void
CampaignOrchestrator::syncEpoch(uint64_t epoch)
{
    // Fold batch outcomes into the shard-logical rollups and the bug
    // ledger in (shard, batch) order, so provenance and dedup
    // first-reporter choices are thread-timing independent.
    for (unsigned w = 0; w < shards_.size(); ++w) {
        Shard &shard = shards_[w];
        for (SlotResult &slot : epoch_results_[w]) {
            stats_.batch_retries += slot.attempts - 1;
            stats_.batch_deadline_kills += slot.deadline_kills;
            if (slot.failed) {
                // The batch exhausted its retries: nothing of it
                // folds in. Its planned iterations were skipped
                // (tracked so the epoch curve stays consistent with
                // the worker rollups), and the corpus seeds that
                // rode it are quarantined — recorded in barrier
                // order for a deterministic ledger, and pulled from
                // the corpus so they stop circulating.
                stats_.batches_failed += 1;
                skipped_iterations_ += slot.iterations_planned;
                shard.agg.active_seconds += slot.seconds;
                for (core::TestCase &tc : slot.failed_inject) {
                    corpus_.removeMatching(tc);
                    QuarantineRecord rec;
                    rec.worker = w;
                    rec.batch = slot.batch_index;
                    rec.attempts = slot.attempts;
                    rec.reason = slot.fail_reason;
                    rec.tc = std::move(tc);
                    quarantine_.push_back(std::move(rec));
                    obs::counterAdd(obs::Ctr::QuarantinedSeeds);
                    stats_.quarantined_seeds += 1;
                }
                // Fleet-wide degradation: a kind whose batches keep
                // faulting (consecutively, across its shards in
                // barrier order) is disabled rather than allowed to
                // burn the whole budget on retries.
                unsigned &streak = kind_fail_streak_[shard.kind];
                ++streak;
                if (options_.kind_disable_failures != 0 &&
                    streak >= options_.kind_disable_failures &&
                    !kind_disabled_[shard.kind]) {
                    kind_disabled_[shard.kind] = true;
                    stats_.kinds_disabled += 1;
                    std::cerr << "dejavuzz-campaign: disabling kind "
                              << shard.config_name << "/"
                              << shard.variant << " after " << streak
                              << " consecutive failed batches (last: "
                              << slot.fail_reason << ")\n";
                }
                continue;
            }
            kind_fail_streak_[shard.kind] = 0;
            const core::Fuzzer::BatchResult &res = slot.res;
            shard.agg.iterations += res.iterations;
            shard.agg.simulations += res.simulations;
            shard.agg.windows_triggered += res.windows_triggered;
            shard.agg.seeds_imported += res.seeds_imported;
            shard.agg.bug_reports += res.bugs.size();
            shard.agg.active_seconds += slot.seconds;
            for (unsigned k = 0; k < core::kTriggerKinds; ++k) {
                shard.trigger_agg[k].windows +=
                    res.triggers[k].windows;
                shard.trigger_agg[k].training_overhead +=
                    res.triggers[k].training_overhead;
                shard.trigger_agg[k].effective_overhead +=
                    res.triggers[k].effective_overhead;
                shard.trigger_agg[k].attempts +=
                    res.triggers[k].attempts;
            }
            for (size_t b = 0; b < res.bugs.size(); ++b) {
                ledger_.record(res.bugs[b], w, epoch,
                               res.bug_cases[b],
                               shard.config_name, shard.variant);
            }
            for (core::TestCase &tc : slot.res.leftover_inject)
                shard.pending_inject.push_back(std::move(tc));
            // Union, not sum: two batches rediscovering the same
            // point must not double-count the shard's coverage.
            shard.private_map.mergeFrom(slot.cov);
        }
        shard.agg.coverage_points = shard.private_map.points();
        stats_.batches += epoch_results_[w].size();
    }
    stats_.batches_stolen += epoch_stolen_;
    stats_.steal_idle_ns += epoch_idle_ns_;

    // Cross-shard seed stealing from a canonical corpus snapshot: one
    // seed per shard per barrier. Only (gain, worker, seq) keys are
    // snapshotted; the entries actually injected are fetched
    // individually, so the barrier never deep-copies the whole
    // corpus. A single-worker fleet still steals when the corpus was
    // preloaded from a saved campaign — that is what makes
    // a --corpus-in campaign build on the saved seeds.
    if (shards_.size() < 2 && preloaded_ids_.empty())
        return;
    std::vector<CorpusKey> snapshot = corpus_.snapshotKeys();
    if (snapshot.empty())
        return;
    for (unsigned w = 0; w < shards_.size(); ++w) {
        Shard &shard = shards_[w];
        // A disabled kind's shard never plans another epoch: seeds
        // queued for it would pile up in pending_inject forever (and
        // inflate the steals counter with injections that never
        // execute).
        if (kind_disabled_[shard.kind])
            continue;
        std::vector<const CorpusKey *> eligible;
        eligible.reserve(snapshot.size());
        for (const auto &key : snapshot) {
            // Skip a shard's own discoveries (it already mutated
            // them), but not preloaded namesakes from the previous
            // campaign.
            if (key.worker == w &&
                !preloaded_ids_.count({key.worker, key.seq})) {
                continue;
            }
            // Test cases are trigger-tuned to their author's core
            // (and, under Heads, its subspace): only steal within
            // the same group (mirrors the per-group coverage split).
            // The entry carries its own group name because preloaded
            // entries may be authored by workers of a previous
            // campaign with a different fleet size.
            if (key.config != shard.group_name)
                continue;
            if (shard.stolen.count({key.worker, key.seq}))
                continue;
            eligible.push_back(&key);
        }
        if (eligible.empty())
            continue;
        // Bias toward the head of the canonical (highest-gain)
        // order: draw twice, keep the earlier index.
        uint64_t a = steal_rng_.below(eligible.size());
        uint64_t b = steal_rng_.below(eligible.size());
        const CorpusKey *key = eligible[std::min(a, b)];
        CorpusEntry entry;
        if (corpus_.fetch(key->worker, key->seq, entry)) {
            shard.pending_inject.push_back(std::move(entry.tc));
            shard.stolen.insert({key->worker, key->seq});
            ++steals_;
        }
    }
}

void
CampaignOrchestrator::finalizeStats(double wall_seconds)
{
    // Idempotent recompute: autosave calls this mid-campaign and the
    // final save calls it again, so every addWorker() accumulator
    // must be zeroed before the rollups are re-folded.
    stats_.workers.clear();
    stats_.iterations = 0;
    stats_.simulations = 0;
    stats_.windows_triggered = 0;
    stats_.seeds_imported = 0;
    stats_.triggers = {};
    for (const Shard &shard : shards_)
        stats_.addWorker(shard.agg, shard.trigger_agg);

    stats_.coverage_points = 0;
    for (const auto &[name, group] : groups_)
        stats_.coverage_points += group->points();

    stats_.corpus_size = corpus_.size();
    stats_.corpus_preloaded = preloaded_;
    stats_.steals = steals_;
    stats_.batch_iterations = options_.batch_iterations;
    stats_.wall_seconds = wall_seconds;
    stats_.iters_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(stats_.iterations) / wall_seconds
            : 0.0;
}

CampaignStats
CampaignOrchestrator::run()
{
    dv_assert(!ran_);
    ran_ = true;

    // Heartbeats stream live to heartbeat_out and are retained for
    // writeJsonlWithHeartbeats(); the emitter's destructor (after
    // finalizeStats) flushes one final record so even runs shorter
    // than the interval produce a heartbeat.
    heartbeat_lines_.clear();
    obs::HeartbeatEmitter heartbeat(
        options_.heartbeat_sec, [this](const std::string &line) {
            heartbeat_lines_.push_back(line);
            if (options_.heartbeat_out != nullptr) {
                *options_.heartbeat_out << line << '\n';
                options_.heartbeat_out->flush();
            }
        });
    obs::gaugeSet(obs::Gauge::Workers, options_.workers);

    const double begin = nowSeconds();
    // A restored checkpoint advances the cursors: planQuotas() and
    // ledger provenance continue from the saved campaign, and
    // --iters budgets count the restored iterations, so "resume with
    // a larger budget" extends the original run.
    uint64_t done = done_base_;
    uint64_t epoch = epoch_base_;
    double last_autosave = begin;

    for (;;) {
        if (options_.total_iterations != 0 &&
            done >= options_.total_iterations) {
            break;
        }
        if (options_.wall_seconds > 0.0 &&
            nowSeconds() - begin >= options_.wall_seconds) {
            break;
        }

        std::vector<uint64_t> quotas = planQuotas(done);
        uint64_t planned = 0;
        for (uint64_t quota : quotas)
            planned += quota;
        if (planned == 0) {
            // Every remaining kind is disabled: terminate instead of
            // spinning on empty epochs.
            std::cerr << "dejavuzz-campaign: all shard kinds "
                         "disabled; ending campaign early\n";
            break;
        }
        runEpoch(quotas);
        done += planned;
        syncEpoch(epoch);

        // Fig-7-style epoch-resolution growth sample. The counter
        // fields are barrier state, so they are reproducible; only
        // wall_seconds and the scheduler occupancy pair are
        // machine-dependent. Epoch/iteration axes are this run's own
        // (a resumed log restarts both at 0; cumulative state like
        // coverage and distinct bugs includes what was restored).
        EpochSample sample;
        sample.epoch = epoch - epoch_base_;
        // Planned-but-skipped iterations of retry-exhausted batches
        // are excluded, so this axis equals the sum of iterations
        // the workers actually executed (the validator's invariant
        // against the summary record).
        sample.iterations = done - done_base_ - skipped_iterations_;
        for (const auto &[name, group] : groups_)
            sample.coverage_points += group->points();
        sample.distinct_bugs = ledger_.distinct();
        sample.corpus_size = corpus_.size();
        sample.batches_stolen = epoch_stolen_;
        sample.steal_idle_ns = epoch_idle_ns_;
        sample.wall_seconds = nowSeconds() - begin;
        stats_.epoch_curve.push_back(sample);

        obs::gaugeSet(obs::Gauge::CoveragePoints,
                      sample.coverage_points);
        obs::gaugeSet(obs::Gauge::DistinctBugs, sample.distinct_bugs);
        obs::gaugeSet(obs::Gauge::CorpusSize, sample.corpus_size);
        obs::gaugeSet(obs::Gauge::Epochs, sample.epoch + 1);
        obs::gaugeSet(obs::Gauge::Executors, executors_ran_);

        ++epoch;

        // Periodic crash-safe checkpoint. Cursors and stats are
        // brought barrier-consistent first (finalizeStats is an
        // idempotent recompute), so the hook sees exactly the state
        // an uninterrupted save after run() would see; a SIGKILL
        // then loses at most one interval plus the epoch in flight.
        if (autosave_hook_ && options_.autosave_sec > 0.0 &&
            nowSeconds() - last_autosave >= options_.autosave_sec) {
            done_ = done;
            epoch_ = epoch;
            stats_.epochs = epoch - epoch_base_;
            finalizeStats(nowSeconds() - begin);
            std::string save_error;
            if (!autosave_hook_(&save_error)) {
                // Persistence trouble must not kill the campaign it
                // protects: log, keep fuzzing, retry next interval.
                std::cerr << "dejavuzz-campaign: autosave failed: "
                          << save_error << "\n";
            }
            last_autosave = nowSeconds();
        }
    }

    done_ = done;
    epoch_ = epoch;
    stats_.epochs = epoch - epoch_base_;
    finalizeStats(nowSeconds() - begin);
    return stats_;
}

void
CampaignOrchestrator::writeJsonl(std::ostream &os) const
{
    // Echo the effective template set (stimgen normalizes an empty
    // mask to the legacy single model); heads shards each carry
    // their own set, visible per worker via the head-* variant.
    uint32_t mask = options_.fuzzer.model_mask & core::kAllModelMask;
    if (mask == 0)
        mask = core::kLegacyModelMask;
    writeCampaignJsonl(os, stats_, ledger_,
                       shardPolicyName(options_.policy),
                       options_.master_seed,
                       options_.policy == ShardPolicy::Heads
                           ? "per-head"
                           : core::modelMaskNames(mask));
}

void
CampaignOrchestrator::writeJsonlWithHeartbeats(std::ostream &os) const
{
    // Heartbeats first: that is the order a live campaign.jsonl
    // carries (records streamed during the run, full log at the end).
    for (const std::string &line : heartbeat_lines_)
        os << line << '\n';
    writeJsonl(os);
}

} // namespace dejavuzz::campaign
