/**
 * @file
 * Integration tests of the DejaVuzz pipeline: Phase-1 window
 * triggering across all trigger kinds, training reduction, Phase-2
 * taint propagation + coverage, Phase-3 leak detection, the fuzzer
 * loop, batch executor independence, and the SpecDoctor baseline.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baseline/specdoctor.hh"
#include "campaign/io_util.hh"
#include "core/fuzzer.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using core::Fuzzer;
using core::FuzzerOptions;
using core::Phase1;
using core::Phase2;
using core::Phase3;
using core::Seed;
using core::StimGen;
using core::TestCase;
using core::TriggerKind;
using harness::DualSim;
using harness::SimOptions;

/** Try up to @p attempts entropies to trigger a window of @p kind. */
bool
triggerKindOn(const uarch::CoreConfig &cfg, TriggerKind kind,
              unsigned attempts, TestCase *out = nullptr,
              bool reduce = true)
{
    DualSim sim(cfg);
    StimGen gen(cfg);
    SimOptions options;
    Phase1 phase1(sim, options);
    Rng rng(0xc0ffee ^ static_cast<uint64_t>(kind));
    for (unsigned i = 0; i < attempts; ++i) {
        Seed seed = gen.newSeed(rng, i, kind);
        TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, reduce);
        if (triggered) {
            if (out != nullptr)
                *out = std::move(tc);
            return true;
        }
    }
    return false;
}

class TriggerKinds : public ::testing::TestWithParam<int> {};

TEST_P(TriggerKinds, TriggersOnXiangShan)
{
    auto kind = static_cast<TriggerKind>(GetParam());
    EXPECT_TRUE(triggerKindOn(uarch::xiangshanMinimalConfig(), kind, 8))
        << core::triggerKindName(kind);
}

TEST_P(TriggerKinds, TriggersOnBoomExceptIllegal)
{
    auto kind = static_cast<TriggerKind>(GetParam());
    bool triggered = triggerKindOn(uarch::smallBoomConfig(), kind, 8);
    if (kind == TriggerKind::IllegalInstr) {
        EXPECT_FALSE(triggered)
            << "BOOM stalls illegal instructions at decode";
    } else {
        EXPECT_TRUE(triggered) << core::triggerKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TriggerKinds,
    ::testing::Range(0, static_cast<int>(TriggerKind::kCount)),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string name = core::triggerKindName(
            static_cast<TriggerKind>(info.param));
        for (char &c : name) {
            if (c == '/' || c == '-')
                c = '_';
        }
        return name;
    });

TEST(Phase1, ReductionDropsAllTrainingForExceptionWindows)
{
    TestCase tc;
    ASSERT_TRUE(triggerKindOn(uarch::xiangshanMinimalConfig(),
                              TriggerKind::LoadPageFault, 8, &tc));
    EXPECT_EQ(tc.schedule.trainingOverhead(), 0u)
        << "exception windows need no training after reduction";
}

TEST(Phase1, MispredictWindowsKeepMinimalTraining)
{
    // Windows on the taken side require taken-training; reduction must
    // keep at least one training packet but drop the redundant ones.
    uarch::CoreConfig cfg = uarch::smallBoomConfig();
    DualSim sim(cfg);
    StimGen gen(cfg);
    SimOptions options;
    Phase1 phase1(sim, options);
    Rng rng(1234);
    unsigned kept_with_training = 0;
    unsigned windows = 0;
    for (unsigned i = 0; i < 24 && windows < 6; ++i) {
        Seed seed =
            gen.newSeed(rng, i, TriggerKind::ReturnMispredict);
        TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        ++windows;
        size_t training_packets = tc.schedule.packets.size() - 1;
        EXPECT_LE(training_packets, 2u);
        if (training_packets >= 1)
            ++kept_with_training;
        // Effective overhead excludes alignment nops: a handful of
        // real instructions at most.
        EXPECT_LE(tc.schedule.effectiveTrainingOverhead(), 8u);
    }
    ASSERT_GT(windows, 0u);
    EXPECT_GT(kept_with_training, 0u)
        << "return windows require RAS training";
}

TEST(Phase2, TaintPropagatesAndCoverageGrows)
{
    uarch::CoreConfig cfg = uarch::smallBoomConfig();
    TestCase tc;
    ASSERT_TRUE(triggerKindOn(cfg, TriggerKind::BranchMispredict, 12,
                              &tc));
    StimGen gen(cfg);
    gen.completeWindow(tc);

    DualSim sim(cfg);
    SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    ift::TaintCoverage coverage;
    auto ids = uarch::Core::registerModules(coverage, cfg);
    Phase2 phase2(sim, options, coverage, ids, gen);

    // Several mutations: at least one must propagate taint.
    bool propagated = false;
    Rng rng(77);
    for (int i = 0; i < 8 && !propagated; ++i) {
        auto result = phase2.run(tc);
        if (result.window_ok && result.taint_propagated)
            propagated = true;
        else
            gen.mutateWindow(tc, rng.next());
    }
    EXPECT_TRUE(propagated);
    EXPECT_GT(coverage.points(), 0u);
}

TEST(Phase3, FindsLeakOnBuggyBoom)
{
    uarch::CoreConfig cfg = uarch::smallBoomConfig();
    StimGen gen(cfg);
    DualSim sim(cfg);
    SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    ift::TaintCoverage coverage;
    auto ids = uarch::Core::registerModules(coverage, cfg);
    Phase1 phase1(sim, options);
    Phase2 phase2(sim, options, coverage, ids, gen);
    Phase3 phase3(sim, options, gen);

    Rng rng(4242);
    bool leak_found = false;
    for (unsigned i = 0; i < 40 && !leak_found; ++i) {
        Seed seed = gen.newSeed(rng, i);
        TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        gen.completeWindow(tc);
        for (int m = 0; m < 3 && !leak_found; ++m) {
            auto explored = phase2.run(tc);
            if (explored.window_ok && explored.taint_propagated) {
                auto verdict = phase3.run(tc, explored, true);
                if (verdict.leak)
                    leak_found = true;
            }
            gen.mutateWindow(tc, rng.next());
        }
    }
    EXPECT_TRUE(leak_found);
}

TEST(FuzzerLoop, RunsAndAccumulatesCoverage)
{
    FuzzerOptions options;
    options.master_seed = 7;
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.run(60);
    const auto &stats = fuzzer.stats();
    EXPECT_EQ(stats.iterations, 60u);
    EXPECT_GT(stats.windows_triggered, 0u);
    EXPECT_GT(stats.coverage_points, 0u);
    EXPECT_EQ(stats.coverage_curve.size(), 60u);
    // Coverage curve is monotone.
    for (size_t i = 1; i < stats.coverage_curve.size(); ++i)
        EXPECT_GE(stats.coverage_curve[i], stats.coverage_curve[i - 1]);
}

TEST(FuzzerLoop, FindsBugsOnBoom)
{
    FuzzerOptions options;
    options.master_seed = 11;
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.runUntilFirstBug(400);
    EXPECT_FALSE(fuzzer.stats().bugs.empty());
}

TEST(FuzzerLoop, DeterministicBySeed)
{
    FuzzerOptions options;
    options.master_seed = 99;
    Fuzzer a(uarch::smallBoomConfig(), options);
    Fuzzer b(uarch::smallBoomConfig(), options);
    a.run(30);
    b.run(30);
    EXPECT_EQ(a.stats().coverage_points, b.stats().coverage_points);
    EXPECT_EQ(a.stats().windows_triggered,
              b.stats().windows_triggered);
    EXPECT_EQ(a.stats().bugs.size(), b.stats().bugs.size());
}

/** Everything one runBatch() call produced, in comparable form. */
struct BatchOutcome
{
    Fuzzer::BatchResult res;
    std::vector<std::pair<uint16_t, uint32_t>> coverage;
    std::vector<std::pair<uint64_t, uint64_t>> offers; ///< (hash, gain)
};

BatchOutcome
runObserved(Fuzzer &fuzzer, const Fuzzer::BatchSpec &spec)
{
    BatchOutcome out;
    fuzzer.setInterestingHook(
        [&out](const TestCase &tc, uint64_t gain) {
            out.offers.emplace_back(campaign::hashTestCase(tc), gain);
        });
    out.res = fuzzer.runBatch(spec);
    fuzzer.setInterestingHook(nullptr);
    for (const auto &point : fuzzer.coverage().tuples())
        out.coverage.emplace_back(point.module_id, point.index);
    return out;
}

std::vector<uint64_t>
hashes(const std::vector<TestCase> &cases)
{
    std::vector<uint64_t> out;
    for (const TestCase &tc : cases)
        out.push_back(campaign::hashTestCase(tc));
    return out;
}

TEST(Fuzzer, RunBatchIsExecutorIndependent)
{
    // The invariant batch work-stealing rests on: a batch's outcome
    // is a function of its spec alone, whichever executor runs it.
    // The second executor differs in everything the spec must
    // override: its master seed, and the Rng position, active test
    // case, coverage map and seed ids another shard's batch left.
    const uarch::CoreConfig config = uarch::smallBoomConfig();
    FuzzerOptions options;
    options.master_seed = 3;
    ift::TaintCoverage blank;
    uarch::Core::registerModules(blank, config);

    // Corpus seeds as a steal delivers them (completed test cases a
    // peer found interesting), and a non-empty epoch baseline.
    std::vector<TestCase> inject;
    Fuzzer donor(config, options);
    donor.setInterestingHook([&inject](const TestCase &tc, uint64_t) {
        if (inject.size() < 3)
            inject.push_back(tc);
    });
    Fuzzer::BatchSpec donor_spec;
    donor_spec.rng_seed = 101;
    donor_spec.iterations = 20;
    donor_spec.baseline = &blank;
    donor.runBatch(donor_spec);
    ASSERT_FALSE(inject.empty());
    const ift::TaintCoverage baseline = donor.coverage();
    ASSERT_GT(baseline.points(), 0u);

    Fuzzer::BatchSpec spec;
    spec.rng_seed = 202;
    spec.iter_base = 64;
    spec.iterations = 48;
    spec.baseline = &baseline;
    spec.inject = inject;

    Fuzzer fresh(config, options);
    const BatchOutcome a = runObserved(fresh, spec);

    // A short batch from an empty baseline leaves fresh seed ids
    // consumed, a test case in flight and a high running gain
    // average: state that leaks into the next batch unless
    // runBatch resets it.
    FuzzerOptions other_options = options;
    other_options.master_seed = 99;
    Fuzzer used(config, other_options);
    Fuzzer::BatchSpec other;
    other.rng_seed = 303;
    other.iter_base = 32;
    other.iterations = 12;
    other.baseline = &blank;
    runObserved(used, other);
    const BatchOutcome b = runObserved(used, spec);

    // The batch did real work: adopted seeds, opened windows,
    // offered corpus entries.
    EXPECT_GT(a.res.seeds_imported, 0u);
    EXPECT_GT(a.res.windows_triggered, 0u);
    EXPECT_FALSE(a.offers.empty());

    EXPECT_EQ(a.res.iterations, b.res.iterations);
    EXPECT_EQ(a.res.simulations, b.res.simulations);
    EXPECT_EQ(a.res.windows_triggered, b.res.windows_triggered);
    EXPECT_EQ(a.res.phase1_attempts, b.res.phase1_attempts);
    EXPECT_EQ(a.res.phase2_runs, b.res.phase2_runs);
    EXPECT_EQ(a.res.phase3_runs, b.res.phase3_runs);
    EXPECT_EQ(a.res.seeds_imported, b.res.seeds_imported);
    EXPECT_EQ(a.res.training_overhead, b.res.training_overhead);
    EXPECT_EQ(a.res.effective_training, b.res.effective_training);
    EXPECT_EQ(a.res.new_coverage, b.res.new_coverage);
    EXPECT_EQ(a.res.deadline_hit, b.res.deadline_hit);
    for (unsigned k = 0; k < core::kTriggerKinds; ++k) {
        const auto &ta = a.res.triggers[k];
        const auto &tb = b.res.triggers[k];
        EXPECT_EQ(ta.windows, tb.windows) << k;
        EXPECT_EQ(ta.training_overhead, tb.training_overhead) << k;
        EXPECT_EQ(ta.effective_overhead, tb.effective_overhead) << k;
        EXPECT_EQ(ta.attempts, tb.attempts) << k;
    }
    ASSERT_EQ(a.res.bugs.size(), b.res.bugs.size());
    for (size_t i = 0; i < a.res.bugs.size(); ++i) {
        EXPECT_EQ(a.res.bugs[i].key(), b.res.bugs[i].key());
        EXPECT_EQ(a.res.bugs[i].iteration, b.res.bugs[i].iteration);
    }
    EXPECT_EQ(hashes(a.res.bug_cases), hashes(b.res.bug_cases));
    EXPECT_EQ(hashes(a.res.leftover_inject),
              hashes(b.res.leftover_inject));
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.offers, b.offers);
}

TEST(SpecDoctorBaseline, FindsRollbacksAndCandidates)
{
    baseline::SpecDoctor::Options options;
    options.master_seed = 5;
    baseline::SpecDoctor specdoctor(uarch::smallBoomConfig(), options);
    specdoctor.run(120);
    const auto &stats = specdoctor.stats();
    EXPECT_GT(stats.rollbacks, 0u);
    // Window-type limitation: no access-fault / misalign / illegal /
    // return windows (generator + discard constraints).
    EXPECT_EQ(stats.window_count[static_cast<unsigned>(
                  TriggerKind::LoadAccessFault)], 0u);
    EXPECT_EQ(stats.window_count[static_cast<unsigned>(
                  TriggerKind::LoadMisalign)], 0u);
    EXPECT_EQ(stats.window_count[static_cast<unsigned>(
                  TriggerKind::IllegalInstr)], 0u);
    EXPECT_EQ(stats.window_count[static_cast<unsigned>(
                  TriggerKind::ReturnMispredict)], 0u);
}

} // namespace
} // namespace dejavuzz
