#include "core/fuzzer.hh"

#include <algorithm>
#include <chrono>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/wallguard.hh"

namespace dejavuzz::core {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

Fuzzer::Fuzzer(const uarch::CoreConfig &config,
               const FuzzerOptions &options)
    : cfg_(config), options_(options), gen_(config), sim_(config),
      rng_(options.master_seed)
{
    // ift_mode is the pipeline's mode knob; the embedded SimOptions
    // default (Off) was never meant to win over it.
    options_.sim.mode = options_.ift_mode;
    module_ids_ = uarch::Core::registerModules(coverage_, cfg_);
}

Fuzzer::RunSlice::RunSlice(Fuzzer &fuzzer) : fuzzer_(fuzzer)
{
    dv_assert(!fuzzer_.in_run_);
    fuzzer_.in_run_ = true;
    fuzzer_.slice_begin_ = nowSeconds();
}

Fuzzer::RunSlice::~RunSlice()
{
    fuzzer_.active_seconds_ += nowSeconds() - fuzzer_.slice_begin_;
    fuzzer_.in_run_ = false;
}

double
Fuzzer::elapsedSeconds() const
{
    double total = active_seconds_;
    if (in_run_)
        total += nowSeconds() - slice_begin_;
    return total;
}

bool
Fuzzer::triggerOnce(TriggerKind kind, uint64_t entropy, size_t &to,
                    size_t &eto)
{
    Rng rng(entropy);
    StimGen gen(cfg_);
    Seed seed = gen.newSeed(rng, 0, kind);

    Phase1 phase1(sim_, options_.sim);
    for (unsigned attempt = 0; attempt <= options_.phase1_retries;
         ++attempt) {
        TestCase tc =
            gen.generatePhase1(seed, options_.derived_training);
        bool triggered = false;
        stats_.simulations +=
            phase1.run(tc, triggered, options_.training_reduction);
        if (triggered) {
            to = tc.schedule.trainingOverhead();
            eto = tc.schedule.effectiveTrainingOverhead();
            return true;
        }
        seed.entropy = rng.next();
        seed.window.encode_entropy = rng.next();
    }
    return false;
}

void
Fuzzer::iterate(Phase1 &phase1, Phase2 &phase2, Phase3 &phase3)
{
    ++stats_.iterations;
    obs::counterAdd(obs::Ctr::Iterations);

    if (!active_) {
        // Adopt a stolen corpus seed before generating from scratch:
        // resume it in Phase-2 mutation mode with fresh entropy so
        // each adopter explores a distinct neighbourhood.
        if (!injected_.empty()) {
            current_ = std::move(injected_.front());
            injected_.pop_front();
            ++stats_.seeds_imported;
            gen_.mutateWindow(current_, rng_.next());
            active_ = true;
            mutations_left_ = options_.max_mutations;
            if (options_.record_coverage_curve)
                stats_.coverage_curve.push_back(coverage_.points());
            return;
        }

        // --- Phase 1: new seed, trigger generation + reduction ------
        ++stats_.phase1_attempts;
        Seed seed =
            gen_.newSeed(rng_, next_seed_id_++, TriggerKind::kCount,
                         options_.trigger_mask, options_.model_mask);
        current_ = gen_.generatePhase1(seed, options_.derived_training);
        bool triggered = false;
        stats_.simulations += phase1.run(current_, triggered,
                                         options_.training_reduction);
        // Regenerate the window up to phase1_retries times with fresh
        // entropy before giving the iteration up, mirroring
        // triggerOnce(): the Rng only advances on failure, so seeds
        // whose first window triggers are unaffected.
        for (unsigned attempt = 0;
             !triggered && attempt < options_.phase1_retries;
             ++attempt) {
            seed.entropy = rng_.next();
            seed.window.encode_entropy = rng_.next();
            current_ =
                gen_.generatePhase1(seed, options_.derived_training);
            stats_.simulations += phase1.run(
                current_, triggered, options_.training_reduction);
        }
        if (!triggered) {
            if (options_.record_coverage_curve)
                stats_.coverage_curve.push_back(coverage_.points());
            return;
        }
        ++stats_.windows_triggered;
        auto &tstats =
            trigger_stats_[static_cast<unsigned>(seed.trigger)];
        ++tstats.windows;
        tstats.training_overhead +=
            current_.schedule.trainingOverhead();
        tstats.effective_overhead +=
            current_.schedule.effectiveTrainingOverhead();
        stats_.training_overhead +=
            current_.schedule.trainingOverhead();
        stats_.effective_training +=
            current_.schedule.effectiveTrainingOverhead();

        gen_.completeWindow(current_);
        active_ = true;
        mutations_left_ = options_.max_mutations;
        if (options_.record_coverage_curve)
            stats_.coverage_curve.push_back(coverage_.points());
        return;
    }

    // --- Phase 2: differential exploration --------------------------
    ++stats_.phase2_runs;
    const Phase2Result &explored = phase2.run(current_);
    stats_.simulations += explored.dual.sim_passes;

    if (explored.window_ok && explored.taint_propagated &&
        explored.new_coverage > 0 && on_interesting_) {
        on_interesting_(current_, explored.new_coverage);
    }

    bool retire = false;
    if (!explored.window_ok) {
        retire = true;
    } else if (explored.taint_propagated) {
        // --- Phase 3: leakage analysis -------------------------------
        ++stats_.phase3_runs;
        Phase3Result verdict =
            phase3.run(current_, explored, options_.use_liveness);
        stats_.simulations += verdict.simulations;
        if (verdict.leak && verdict.report.has_value()) {
            BugReport report = *verdict.report;
            report.iteration = stats_.iterations;
            if (stats_.bugs.empty()) {
                stats_.first_bug_iteration = stats_.iterations;
                stats_.first_bug_seconds = elapsedSeconds();
            }
            stats_.bugs.push_back(std::move(report));
            // The active case IS the reproducer: replayCase() on a
            // copy of it re-derives the identical leak verdict.
            if (capture_bug_cases_)
                bug_cases_.push_back(current_);
        }
    }

    // Coverage-guided mutation (paper step 2.2 feedback): windows
    // whose coverage gain beats the running average earn extra
    // mutation budget; unproductive seeds retire quickly. The
    // DejaVuzz- ablation mutates blindly on a fixed budget.
    if (!retire) {
        bool low_gain = true;
        if (options_.coverage_feedback) {
            double gain = static_cast<double>(explored.new_coverage);
            low_gain = gain < average_gain_;
            average_gain_ = 0.9 * average_gain_ + 0.1 * gain;
            if (!explored.taint_propagated)
                low_gain = true;
        }
        if (mutations_left_ == 0) {
            retire = true;
        } else {
            --mutations_left_;
            if (options_.coverage_feedback && !low_gain) {
                mutations_left_ = std::min(
                    mutations_left_ + 2, options_.max_mutations);
            }
            gen_.mutateWindow(current_, rng_.next());
        }
    }
    if (retire)
        active_ = false;

    stats_.coverage_points = coverage_.points();
    if (options_.record_coverage_curve)
        stats_.coverage_curve.push_back(coverage_.points());
}

void
Fuzzer::run(uint64_t count)
{
    RunSlice slice(*this);
    Phase1 phase1(sim_, options_.sim);
    Phase2 phase2(sim_, options_.sim, coverage_, module_ids_, gen_);
    Phase3 phase3(sim_, options_.sim, gen_);
    for (uint64_t i = 0; i < count; ++i)
        iterate(phase1, phase2, phase3);
    stats_.coverage_points = coverage_.points();
}

void
Fuzzer::runUntilFirstBug(uint64_t max_iters)
{
    RunSlice slice(*this);
    Phase1 phase1(sim_, options_.sim);
    Phase2 phase2(sim_, options_.sim, coverage_, module_ids_, gen_);
    Phase3 phase3(sim_, options_.sim, gen_);
    for (uint64_t i = 0; i < max_iters && stats_.bugs.empty(); ++i)
        iterate(phase1, phase2, phase3);
    stats_.coverage_points = coverage_.points();
}

Fuzzer::BatchResult
Fuzzer::runBatch(const BatchSpec &spec)
{
    dv_assert(spec.baseline != nullptr);

    // Reset the campaign state machine from the spec so the batch's
    // outcome is a pure function of (config, options, spec) — the
    // determinism contract that lets any compatible executor run it.
    rng_.reseed(spec.rng_seed);
    coverage_ = *spec.baseline;
    active_ = false;
    current_ = TestCase{};
    mutations_left_ = 0;
    average_gain_ = 1.0;
    next_seed_id_ = spec.iter_base;
    injected_.assign(spec.inject.begin(), spec.inject.end());

    // Delta markers over the executor-cumulative stats.
    const FuzzerStats before = [this] {
        FuzzerStats copy;
        copy.iterations = stats_.iterations;
        copy.simulations = stats_.simulations;
        copy.windows_triggered = stats_.windows_triggered;
        copy.phase1_attempts = stats_.phase1_attempts;
        copy.phase2_runs = stats_.phase2_runs;
        copy.phase3_runs = stats_.phase3_runs;
        copy.seeds_imported = stats_.seeds_imported;
        copy.training_overhead = stats_.training_overhead;
        copy.effective_training = stats_.effective_training;
        return copy;
    }();
    const size_t bugs_before = stats_.bugs.size();
    const auto triggers_before = trigger_stats_;
    const uint64_t baseline_points = spec.baseline->points();

    bug_cases_.clear();
    capture_bug_cases_ = true;
    bool deadline_hit = false;
    if (spec.deadline_seconds > 0.0) {
        // The watchdog fires inside the simulator's cycle loop, so
        // even a single pathological iteration is cut off. The
        // partial deltas below are machine-speed-dependent; the
        // caller must discard a deadline_hit result.
        util::WallGuard guard(spec.deadline_seconds);
        try {
            run(spec.iterations);
        } catch (const util::WallDeadlineExceeded &) {
            deadline_hit = true;
        }
    } else {
        run(spec.iterations);
    }
    capture_bug_cases_ = false;

    BatchResult result;
    result.deadline_hit = deadline_hit;
    result.iterations = stats_.iterations - before.iterations;
    result.simulations = stats_.simulations - before.simulations;
    result.windows_triggered =
        stats_.windows_triggered - before.windows_triggered;
    result.phase1_attempts =
        stats_.phase1_attempts - before.phase1_attempts;
    result.phase2_runs = stats_.phase2_runs - before.phase2_runs;
    result.phase3_runs = stats_.phase3_runs - before.phase3_runs;
    result.seeds_imported =
        stats_.seeds_imported - before.seeds_imported;
    result.training_overhead =
        stats_.training_overhead - before.training_overhead;
    result.effective_training =
        stats_.effective_training - before.effective_training;
    result.new_coverage = coverage_.points() - baseline_points;
    for (unsigned k = 0; k < kTriggerKinds; ++k) {
        result.triggers[k].windows = trigger_stats_[k].windows -
                                     triggers_before[k].windows;
        result.triggers[k].training_overhead =
            trigger_stats_[k].training_overhead -
            triggers_before[k].training_overhead;
        result.triggers[k].effective_overhead =
            trigger_stats_[k].effective_overhead -
            triggers_before[k].effective_overhead;
        result.triggers[k].attempts = trigger_stats_[k].attempts -
                                      triggers_before[k].attempts;
    }
    result.bugs.assign(stats_.bugs.begin() +
                           static_cast<ptrdiff_t>(bugs_before),
                       stats_.bugs.end());
    result.bug_cases = std::move(bug_cases_);
    bug_cases_.clear();
    // Rewrite executor-cumulative iteration provenance into the
    // shard-logical numbering the campaign reports.
    for (BugReport &bug : result.bugs) {
        bug.iteration =
            spec.iter_base + (bug.iteration - before.iterations);
    }
    result.leftover_inject.assign(injected_.begin(),
                                  injected_.end());
    injected_.clear();
    return result;
}

Fuzzer::ReplayOutcome
Fuzzer::replayCase(const TestCase &tc, bool collect_coverage_tuples)
{
    RunSlice slice(*this);
    // Measure against an empty map so outcome.coverage is the case's
    // own tuple set — the same yardstick whoever replays it.
    coverage_.resetSamples();
    Phase2 phase2(sim_, options_.sim, coverage_, module_ids_, gen_);
    Phase3 phase3(sim_, options_.sim, gen_);

    ReplayOutcome outcome;
    util::WallGuard guard(options_.replay_deadline_sec);
    try {
        const Phase2Result &explored = phase2.run(tc);
        stats_.simulations += explored.dual.sim_passes;
        outcome.window_ok = explored.window_ok;
        outcome.taint_propagated = explored.taint_propagated;
        if (explored.window_ok && explored.taint_propagated) {
            Phase3Result verdict =
                phase3.run(tc, explored, options_.use_liveness);
            stats_.simulations += verdict.simulations;
            if (verdict.leak && verdict.report.has_value())
                outcome.report = *verdict.report;
        }
    } catch (const util::WallDeadlineExceeded &) {
        // A pathological reproducer must not hang a replay or triage
        // sweep: report the timeout, keep the pipeline moving.
        outcome = ReplayOutcome{};
        outcome.timed_out = true;
        return outcome;
    }
    outcome.coverage_points = coverage_.points();
    if (collect_coverage_tuples)
        outcome.coverage = coverage_.tuples();
    return outcome;
}

} // namespace dejavuzz::core
