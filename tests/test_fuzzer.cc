/**
 * @file
 * Integration tests of the DejaVuzz pipeline: Phase-1 window
 * triggering across all trigger kinds, training reduction, Phase-2
 * taint propagation + coverage, Phase-3 leak detection, the fuzzer
 * loop, and the SpecDoctor baseline.
 */

#include <gtest/gtest.h>

#include "baseline/specdoctor.hh"
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
