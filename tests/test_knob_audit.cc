/**
 * @file
 * Knob-wiring audit: every FuzzerOptions and CampaignOptions field
 * must demonstrably alter behavior when flipped (the ift_mode
 * dead-knob bug class — an option the constructor silently dropped).
 * Each test flips exactly one knob against a pinned baseline and
 * asserts a measurable delta; knobs whose *documented* contract is
 * outcome-equivalence (record_coverage_curve, heartbeats) instead
 * assert that equivalence plus the observational side channel that
 * proves the knob is read at all. The campaign scheduler and corpus
 * geometry are fixed (batch stealing always on, one stolen seed per
 * shard per barrier, 8 corpus shards of 64 entries), so they have
 * no knobs to audit.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "campaign/ledger.hh"
#include "campaign/orchestrator.hh"
#include "core/fuzzer.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;
using campaign::CampaignStats;
using campaign::ShardPolicy;
using core::Fuzzer;
using core::FuzzerOptions;

// --- FuzzerOptions ------------------------------------------------------

/** A behavioral fingerprint: if any component differs between two
 *  runs, the knob that separated them is wired. */
struct Fingerprint
{
    uint64_t simulations = 0;
    uint64_t windows = 0;
    uint64_t coverage = 0;
    std::set<std::string> bug_keys;

    bool
    operator==(const Fingerprint &other) const
    {
        return simulations == other.simulations &&
               windows == other.windows &&
               coverage == other.coverage &&
               bug_keys == other.bug_keys;
    }
};

Fingerprint
fingerprint(const FuzzerOptions &options, uint64_t iters = 300)
{
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.run(iters);
    Fingerprint fp;
    fp.simulations = fuzzer.stats().simulations;
    fp.windows = fuzzer.stats().windows_triggered;
    fp.coverage = fuzzer.stats().coverage_points;
    for (const auto &bug : fuzzer.stats().bugs)
        fp.bug_keys.insert(bug.key());
    return fp;
}

/** The audit primitive: flipping @p flip must change the
 *  fingerprint, and the flipped configuration must itself be
 *  deterministic (so the delta is the knob, not noise). */
template <typename Flip>
void
expectKnobWired(const char *name, Flip flip)
{
    FuzzerOptions base;
    FuzzerOptions flipped;
    flip(flipped);
    const Fingerprint a = fingerprint(base);
    const Fingerprint b = fingerprint(flipped);
    EXPECT_FALSE(a == b) << name << " flip produced no delta";
    const Fingerprint b2 = fingerprint(flipped);
    EXPECT_TRUE(b == b2) << name << " flip is nondeterministic";
}

TEST(KnobAudit, FuzzerMasterSeed)
{
    expectKnobWired("master_seed",
                    [](FuzzerOptions &o) { o.master_seed = 99; });
}

TEST(KnobAudit, FuzzerDerivedTraining)
{
    expectKnobWired("derived_training", [](FuzzerOptions &o) {
        o.derived_training = false;
    });
}

TEST(KnobAudit, FuzzerCoverageFeedback)
{
    expectKnobWired("coverage_feedback", [](FuzzerOptions &o) {
        o.coverage_feedback = false;
    });
}

TEST(KnobAudit, FuzzerUseLiveness)
{
    expectKnobWired("use_liveness",
                    [](FuzzerOptions &o) { o.use_liveness = false; });
}

TEST(KnobAudit, FuzzerTrainingReduction)
{
    expectKnobWired("training_reduction", [](FuzzerOptions &o) {
        o.training_reduction = false;
    });
}

TEST(KnobAudit, FuzzerIftMode)
{
    // The original dead knob: FuzzerOptions::ift_mode was never
    // copied into the sim options, so CellIFT campaigns silently ran
    // DiffIFT. CellIFT over-taints, so the coverage signal differs.
    expectKnobWired("ift_mode", [](FuzzerOptions &o) {
        o.ift_mode = ift::IftMode::CellIFT;
    });
}

TEST(KnobAudit, FuzzerMaxMutations)
{
    expectKnobWired("max_mutations",
                    [](FuzzerOptions &o) { o.max_mutations = 1; });
}

TEST(KnobAudit, FuzzerPhase1Retries)
{
    expectKnobWired("phase1_retries",
                    [](FuzzerOptions &o) { o.phase1_retries = 0; });
}

TEST(KnobAudit, FuzzerTriggerMask)
{
    expectKnobWired("trigger_mask", [](FuzzerOptions &o) {
        o.trigger_mask =
            core::triggerBit(core::TriggerKind::BranchMispredict);
    });
}

TEST(KnobAudit, FuzzerModelMask)
{
    expectKnobWired("model_mask", [](FuzzerOptions &o) {
        o.trigger_mask = core::kAllTriggerMask;
        o.model_mask = core::kAllModelMask;
    });
}

TEST(KnobAudit, FuzzerRecordCoverageCurve)
{
    // Documented contract: observational only. The curve appears or
    // not; everything else is bit-identical.
    FuzzerOptions on;
    FuzzerOptions off;
    off.record_coverage_curve = false;

    Fuzzer a(uarch::smallBoomConfig(), on);
    a.run(200);
    Fuzzer b(uarch::smallBoomConfig(), off);
    b.run(200);

    EXPECT_FALSE(a.stats().coverage_curve.empty());
    EXPECT_TRUE(b.stats().coverage_curve.empty());
    EXPECT_EQ(a.stats().simulations, b.stats().simulations);
    EXPECT_EQ(a.stats().coverage_points, b.stats().coverage_points);
    ASSERT_EQ(a.stats().bugs.size(), b.stats().bugs.size());
    for (size_t i = 0; i < a.stats().bugs.size(); ++i)
        EXPECT_EQ(a.stats().bugs[i].key(), b.stats().bugs[i].key());
}

// --- CampaignOptions ----------------------------------------------------

CampaignOptions
baseCampaign()
{
    CampaignOptions options;
    options.workers = 2;
    options.master_seed = 7;
    options.total_iterations = 500;
    options.epoch_iterations = 125;
    options.base_config = uarch::smallBoomConfig();
    return options;
}

std::set<std::string>
ledgerKeys(const CampaignOrchestrator &orchestrator)
{
    std::set<std::string> keys;
    for (const auto &record : orchestrator.ledger().entries())
        keys.insert(record.report.key());
    return keys;
}

TEST(KnobAudit, CampaignWorkers)
{
    CampaignOptions four = baseCampaign();
    four.workers = 4;
    CampaignOrchestrator a(baseCampaign());
    CampaignStats sa = a.run();
    CampaignOrchestrator b(four);
    CampaignStats sb = b.run();
    EXPECT_EQ(sa.workers.size(), 2u);
    EXPECT_EQ(sb.workers.size(), 4u);
    // Same total budget, different fleet decomposition.
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_NE(sa.workers[0].iterations, sb.workers[0].iterations);
}

TEST(KnobAudit, CampaignPolicy)
{
    CampaignOptions heads = baseCampaign();
    heads.policy = ShardPolicy::Heads;
    CampaignOrchestrator a(baseCampaign());
    CampaignStats sa = a.run();
    CampaignOrchestrator b(heads);
    CampaignStats sb = b.run();
    EXPECT_EQ(sa.workers[0].variant, "full");
    EXPECT_EQ(sb.workers[0].variant, "head-predictors");
}

TEST(KnobAudit, CampaignFuzzerModelMask)
{
    // The fleet-wide template set (the `--templates` CLI knob) must
    // reach every worker: a priv-transition-only campaign reports
    // the PrivTransition class the baseline never draws.
    CampaignOptions priv = baseCampaign();
    priv.fuzzer.model_mask =
        core::modelBit(core::AttackTemplate::PrivTransition);
    CampaignOrchestrator a(baseCampaign());
    a.run();
    CampaignOrchestrator b(priv);
    b.run();
    auto hasClass = [](const std::set<std::string> &keys,
                       const char *prefix) {
        for (const std::string &key : keys) {
            if (key.rfind(prefix, 0) == 0)
                return true;
        }
        return false;
    };
    EXPECT_FALSE(hasClass(ledgerKeys(a), "PrivTransition"));
    EXPECT_TRUE(hasClass(ledgerKeys(b), "PrivTransition"));
}

TEST(KnobAudit, CampaignMasterSeed)
{
    CampaignOptions reseeded = baseCampaign();
    reseeded.master_seed = 1234;
    CampaignOrchestrator a(baseCampaign());
    CampaignStats sa = a.run();
    CampaignOrchestrator b(reseeded);
    CampaignStats sb = b.run();
    EXPECT_TRUE(sa.coverage_points != sb.coverage_points ||
                ledgerKeys(a) != ledgerKeys(b))
        << "master_seed flip produced identical campaigns";
}

TEST(KnobAudit, CampaignEpochIterations)
{
    CampaignOptions coarse = baseCampaign();
    coarse.epoch_iterations = 250;
    CampaignOrchestrator a(baseCampaign());
    CampaignStats sa = a.run();
    CampaignOrchestrator b(coarse);
    CampaignStats sb = b.run();
    EXPECT_NE(sa.epochs, sb.epochs);
}

TEST(KnobAudit, CampaignBatchIterations)
{
    CampaignOptions fine = baseCampaign();
    fine.batch_iterations = 8;
    CampaignOrchestrator a(baseCampaign());
    CampaignStats sa = a.run();
    CampaignOrchestrator b(fine);
    CampaignStats sb = b.run();
    EXPECT_NE(sa.batches, sb.batches);
}

TEST(KnobAudit, CampaignHeartbeats)
{
    // Observational knob: lines appear iff enabled; outcomes match.
    CampaignOptions quiet = baseCampaign();
    CampaignOptions chatty = baseCampaign();
    chatty.heartbeat_sec = 0.001;
    std::ostringstream lines;
    chatty.heartbeat_out = &lines;
    CampaignOrchestrator a(quiet);
    CampaignStats sa = a.run();
    CampaignOrchestrator b(chatty);
    CampaignStats sb = b.run();
    EXPECT_NE(lines.str().find("\"type\":\"heartbeat\""),
              std::string::npos);
    EXPECT_EQ(sa.coverage_points, sb.coverage_points);
    EXPECT_EQ(ledgerKeys(a), ledgerKeys(b));
}

} // namespace
} // namespace dejavuzz
