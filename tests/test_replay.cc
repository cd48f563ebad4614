/**
 * @file
 * The dejavuzz-replay regression harness, end to end: every bug a
 * campaign's ledger records must re-trigger with the identical
 * signature when its saved reproducer is pushed back through the
 * Phase-2/Phase-3 pipeline — directly from a checkpoint, and through
 * a full campaign-directory save/load round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "campaign/campaign_dir.hh"
#include "campaign/orchestrator.hh"
#include "campaign/snapshot.hh"
#include "core/fuzzer.hh"
#include "replay/replay.hh"
#include "triage/portability.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;

CampaignOptions
smallCampaign(unsigned workers, uint64_t iters)
{
    CampaignOptions options;
    options.workers = workers;
    options.master_seed = 7;
    options.total_iterations = iters;
    options.epoch_iterations = 125;
    options.base_config = uarch::smallBoomConfig();
    return options;
}

TEST(Replay, EveryLedgerBugReproducesFromItsSavedCase)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u)
        << "campaign found no bugs; nothing to replay";

    const campaign::CampaignCheckpoint cp =
        orchestrator.makeCheckpoint();
    ASSERT_EQ(cp.ledger.size(), orchestrator.ledger().distinct());

    const replay::ReplaySummary summary =
        replay::replayLedger(cp.ledger);
    ASSERT_EQ(summary.total(), cp.ledger.size());
    for (const replay::BugReplay &bug : summary.bugs) {
        EXPECT_TRUE(bug.reproduced)
            << bug.key << " did not reproduce: " << bug.observed;
    }
    EXPECT_TRUE(summary.allReproduced());
}

TEST(Replay, ReplaysAcrossConfigsAndVariants)
{
    // Sweep + ablation fleets record per-bug config/variant
    // provenance; replay must rebuild the right simulator for each.
    CampaignOptions options = smallCampaign(4, 1500);
    options.policy = campaign::ShardPolicy::ConfigSweep;
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);

    const replay::ReplaySummary summary =
        replay::replayLedger(orchestrator.makeCheckpoint().ledger);
    EXPECT_TRUE(summary.allReproduced());
    for (const replay::BugReplay &bug : summary.bugs)
        EXPECT_FALSE(bug.config.empty());
}

TEST(Replay, HeadsLedgerReplaysFully)
{
    // A heads fleet records "head-<name>" variants; replay must
    // resolve them from the same head matrix the campaign ran.
    CampaignOptions options = smallCampaign(4, 1500);
    options.policy = campaign::ShardPolicy::Heads;
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);

    const replay::ReplaySummary summary =
        replay::replayLedger(orchestrator.makeCheckpoint().ledger);
    for (const replay::BugReplay &bug : summary.bugs) {
        EXPECT_EQ(bug.variant.rfind("head-", 0), 0u) << bug.variant;
        EXPECT_TRUE(bug.reproduced)
            << bug.key << " did not reproduce: " << bug.observed;
    }
    EXPECT_TRUE(summary.allReproduced());
}

TEST(Replay, HeadVariantsResolveToTheirMasks)
{
    for (const campaign::HeadSpec &spec : campaign::headMatrix()) {
        core::FuzzerOptions fopts;
        ASSERT_TRUE(campaign::applyAblationVariant(
            std::string("head-") + spec.name, fopts));
        EXPECT_EQ(fopts.trigger_mask, spec.trigger_mask);
        EXPECT_EQ(fopts.model_mask, spec.model_mask);
    }
    core::FuzzerOptions fopts;
    EXPECT_FALSE(campaign::applyAblationVariant("head-nosuch", fopts));
}

TEST(Replay, UnknownConfigIsReportedNotCrashed)
{
    CampaignOrchestrator orchestrator(smallCampaign(1, 500));
    orchestrator.run();
    campaign::CampaignCheckpoint cp = orchestrator.makeCheckpoint();
    ASSERT_GT(cp.ledger.size(), 0u);
    cp.ledger[0].config = "NoSuchCore";

    const replay::ReplaySummary summary =
        replay::replayLedger(cp.ledger);
    EXPECT_FALSE(summary.bugs[0].reproduced);
    EXPECT_NE(summary.bugs[0].observed.find("NoSuchCore"),
              std::string::npos);
}

TEST(Replay, CampaignDirRoundTripReplaysFully)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_replay_dir")
            .string();
    std::filesystem::remove_all(dir);

    CampaignOptions options = smallCampaign(2, 1000);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);

    std::string error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir, orchestrator, options,
                                          &error))
        << error;
    ASSERT_TRUE(campaign::campaignDirExists(dir));

    replay::ReplaySummary summary;
    ASSERT_TRUE(replay::replayCampaignDir(dir, summary, &error))
        << error;
    EXPECT_EQ(summary.total(), orchestrator.ledger().distinct());
    EXPECT_TRUE(summary.allReproduced());

    std::filesystem::remove_all(dir);
}

TEST(Replay, MissingDirectoryFailsCleanly)
{
    replay::ReplaySummary summary;
    std::string error;
    EXPECT_FALSE(replay::replayCampaignDir(
        "/nonexistent/dvz-campaign", summary, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Portability, MatrixCoversEveryRegisteredConfig)
{
    // Every ledger bug gets one cell per registered core config —
    // not just its origin — and the origin cell must reproduce (the
    // same contract replayLedger() enforces).
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    const std::vector<campaign::BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    const std::vector<uarch::CoreConfig> registry =
        uarch::registeredCoreConfigs();
    ASSERT_GE(registry.size(), 2u)
        << "portability needs at least two registered configs";

    triage::FuzzerCache cache;
    const std::vector<triage::BugPortability> matrix =
        triage::portabilityMatrix(ledger, cache);
    ASSERT_EQ(matrix.size(), ledger.size());

    for (size_t i = 0; i < matrix.size(); ++i) {
        const triage::BugPortability &row = matrix[i];
        EXPECT_EQ(row.key, ledger[i].report.key());
        EXPECT_EQ(row.origin_config, ledger[i].config);
        ASSERT_EQ(row.cells.size(), registry.size());
        for (size_t c = 0; c < row.cells.size(); ++c) {
            // Cells follow registry order and always carry sink-diff
            // provenance, reproduced or not.
            EXPECT_EQ(row.cells[c].config, registry[c].name);
            EXPECT_FALSE(row.cells[c].observed.empty());
            if (row.cells[c].config == row.origin_config) {
                EXPECT_TRUE(row.cells[c].reproduced)
                    << row.key << " on its origin "
                    << row.cells[c].config << ": "
                    << row.cells[c].observed;
                EXPECT_EQ(row.cells[c].observed, row.key);
            }
        }
        // reproducesOn() mirrors the reproduced cells, registry order.
        std::vector<std::string> expected;
        for (const triage::PortabilityCell &cell : row.cells)
            if (cell.reproduced)
                expected.push_back(cell.config);
        EXPECT_EQ(row.reproducesOn(), expected);
    }
}

TEST(Portability, MatrixIsDeterministicAcrossRuns)
{
    // Two independent passes over the same ledger — fresh simulator
    // caches each time — must agree cell for cell, including the
    // observed foreign signatures.
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    const std::vector<campaign::BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    triage::FuzzerCache cache1, cache2;
    const auto first = triage::portabilityMatrix(ledger, cache1);
    const auto second = triage::portabilityMatrix(ledger, cache2);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].key, second[i].key);
        ASSERT_EQ(first[i].cells.size(), second[i].cells.size());
        for (size_t c = 0; c < first[i].cells.size(); ++c) {
            EXPECT_EQ(first[i].cells[c].reproduced,
                      second[i].cells[c].reproduced);
            EXPECT_EQ(first[i].cells[c].observed,
                      second[i].cells[c].observed);
        }
    }
}

TEST(Portability, UnreplayableRecordYieldsDiagnosticCells)
{
    CampaignOrchestrator orchestrator(smallCampaign(1, 500));
    orchestrator.run();
    std::vector<campaign::BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);
    ledger[0].variant = "no-such-variant";

    triage::FuzzerCache cache;
    const auto matrix = triage::portabilityMatrix(ledger, cache);
    ASSERT_EQ(matrix.size(), ledger.size());
    for (const triage::PortabilityCell &cell : matrix[0].cells) {
        EXPECT_FALSE(cell.reproduced);
        EXPECT_NE(cell.observed.find("no-such-variant"),
                  std::string::npos);
    }
    EXPECT_TRUE(matrix[0].reproducesOn().empty());
}

} // namespace
} // namespace dejavuzz
