/**
 * @file
 * The triage pipeline: signature clustering, the ddmin shrinker, PoC
 * artifacts and the end-to-end triageLedger() contract.
 *
 * The clustering tests pin the determinism guarantees (permutation
 * invariance, singleton preservation, near-duplicate merging); the
 * shrinker tests are property-based over real Phase-1-triggered
 * reproducers from a small campaign (signature preserved, idempotent,
 * never growing); the pipeline tests assert the artifacts CI gates
 * on — every emitted PoC re-reproduces standalone and two triage
 * passes over the same ledger serialize byte-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/poc_suite.hh"
#include "campaign/io_util.hh"
#include "campaign/ledger.hh"
#include "campaign/orchestrator.hh"
#include "replay/replay.hh"
#include "report/triage_log.hh"
#include "triage/cluster.hh"
#include "triage/poc.hh"
#include "triage/shrink.hh"
#include "triage/signature.hh"
#include "triage/triage.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using campaign::BugRecord;
using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;

/** Hand-build a ledger record with the given signature axes. */
BugRecord
record(core::AttackType attack, core::TriggerKind window,
       std::initializer_list<const char *> components,
       bool masked = false)
{
    BugRecord rec;
    rec.report.attack = attack;
    rec.report.window = window;
    rec.report.masked_address = masked;
    for (const char *component : components)
        rec.report.components.insert(component);
    rec.config = "SmallBOOM";
    rec.variant = "full";
    return rec;
}

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

/** A fuzzer configured like the ledger's origin (full variant). */
core::Fuzzer &
originFuzzer(triage::FuzzerCache &cache, const BugRecord &rec)
{
    std::string error;
    core::Fuzzer *fuzzer = cache.get(rec.config, rec.variant, &error);
    EXPECT_NE(fuzzer, nullptr) << error;
    return *fuzzer;
}

// --- signatures -----------------------------------------------------------

TEST(TriageSignature, SimilarityAxes)
{
    using core::AttackType;
    using core::TriggerKind;
    const auto a = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache", "lsu"})
            .report);
    const auto same = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache", "lsu"})
            .report);
    const auto half = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::ReturnMispredict,
               {"dcache"})
            .report);
    const auto disjoint = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"icache"})
            .report);
    const auto meltdown = triage::signatureOf(
        record(AttackType::Meltdown, TriggerKind::BranchMispredict,
               {"dcache", "lsu"})
            .report);

    EXPECT_DOUBLE_EQ(triage::similarity(a, same), 1.0);
    // Window kind deliberately does not gate similarity.
    EXPECT_DOUBLE_EQ(triage::similarity(a, half), 0.5);
    EXPECT_DOUBLE_EQ(triage::similarity(a, disjoint), 0.0);
    // Attack family gates to zero regardless of overlap.
    EXPECT_DOUBLE_EQ(triage::similarity(a, meltdown), 0.0);
    // Symmetry.
    EXPECT_DOUBLE_EQ(triage::similarity(half, a),
                     triage::similarity(a, half));
    // Two empty component sets of the same family are identical.
    const auto empty1 = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::BranchMispredict, {})
            .report);
    const auto empty2 = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::ReturnMispredict, {})
            .report);
    EXPECT_DOUBLE_EQ(triage::similarity(empty1, empty2), 1.0);
    // The masked-address flag is a distinct root-cause axis.
    const auto masked = triage::signatureOf(
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache", "lsu"}, true)
            .report);
    EXPECT_DOUBLE_EQ(triage::similarity(a, masked), 0.0);
}

// --- clustering -----------------------------------------------------------

TEST(TriageCluster, NearDuplicatesMergeSingletonsStay)
{
    using core::AttackType;
    using core::TriggerKind;
    std::vector<BugRecord> ledger = {
        // Two near-duplicates: {dcache,lsu} vs {dcache} = 0.5.
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache", "lsu"}),
        record(AttackType::Spectre, TriggerKind::ReturnMispredict,
               {"dcache"}),
        // Disjoint singleton.
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"icache"}),
        // Same components but different family: singleton.
        record(AttackType::Meltdown, TriggerKind::LoadAccessFault,
               {"dcache", "lsu"}),
    };

    const auto clusters = triage::clusterLedger(ledger, {});
    ASSERT_EQ(clusters.size(), 3u);
    // Dense ids sorted by representative key.
    for (size_t i = 0; i < clusters.size(); ++i) {
        EXPECT_EQ(clusters[i].id,
                  std::string("C00") + std::to_string(i));
        EXPECT_EQ(clusters[i].representative,
                  clusters[i].members.front());
        EXPECT_TRUE(std::is_sorted(clusters[i].members.begin(),
                                   clusters[i].members.end()));
    }
    // The two Spectre dcache entries share a cluster; the others are
    // singletons.
    const std::string merged = triage::clusterOf(
        clusters, ledger[0].report.key());
    EXPECT_EQ(merged,
              triage::clusterOf(clusters, ledger[1].report.key()));
    EXPECT_NE(merged,
              triage::clusterOf(clusters, ledger[2].report.key()));
    EXPECT_NE(merged,
              triage::clusterOf(clusters, ledger[3].report.key()));
    EXPECT_EQ(triage::clusterOf(clusters, "no-such-key"), "");
}

TEST(TriageCluster, ThresholdControlsMerging)
{
    using core::AttackType;
    using core::TriggerKind;
    std::vector<BugRecord> ledger = {
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache", "lsu"}),
        record(AttackType::Spectre, TriggerKind::BranchMispredict,
               {"dcache"}),
    };
    triage::ClusterOptions strict;
    strict.threshold = 0.75;
    EXPECT_EQ(triage::clusterLedger(ledger, strict).size(), 2u);
    triage::ClusterOptions loose;
    loose.threshold = 0.5;
    EXPECT_EQ(triage::clusterLedger(ledger, loose).size(), 1u);
}

TEST(TriageCluster, OrderIndependentUnderPermutation)
{
    // A real campaign ledger, clustered in ledger order and in
    // several deterministic permutations: identical clusters, ids
    // and members either way.
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    std::vector<BugRecord> ledger = orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 2u);

    const auto baseline = triage::clusterLedger(ledger, {});
    auto permuted = ledger;
    std::reverse(permuted.begin(), permuted.end());
    for (int round = 0; round < 3; ++round) {
        // Deterministic reshuffle: rotate by a coprime-ish stride.
        std::rotate(permuted.begin(),
                    permuted.begin() + 1 + round,
                    permuted.end());
        const auto clusters = triage::clusterLedger(permuted, {});
        ASSERT_EQ(clusters.size(), baseline.size());
        for (size_t i = 0; i < clusters.size(); ++i) {
            EXPECT_EQ(clusters[i].id, baseline[i].id);
            EXPECT_EQ(clusters[i].representative,
                      baseline[i].representative);
            EXPECT_EQ(clusters[i].members, baseline[i].members);
        }
    }
}

// --- shrinker -------------------------------------------------------------

TEST(TriageShrink, PropertiesOverCampaignReproducers)
{
    // Property pass over a randomized corpus of real
    // Phase-1-triggered reproducers: for every ledger bug of a small
    // campaign the minimized case must (a) reproduce the exact
    // signature, (b) never grow, (c) be a shrink fixpoint.
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    const std::vector<BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    triage::FuzzerCache cache;
    size_t checked = 0;
    for (const BugRecord &rec : ledger) {
        if (checked == 4)
            break; // bound the test's runtime; cases are ~equivalent
        ++checked;
        core::Fuzzer &fuzzer = originFuzzer(cache, rec);
        const std::string key = rec.report.key();

        triage::ShrinkStats stats;
        const core::TestCase shrunk =
            triage::shrinkCase(fuzzer, rec.repro, key, &stats);
        ASSERT_TRUE(stats.reproduced_initially) << key;

        // (a) the minimized case reproduces the same signature —
        // hence lands in the same cluster as the original.
        const auto outcome = fuzzer.replayCase(shrunk);
        ASSERT_TRUE(outcome.report.has_value()) << key;
        EXPECT_EQ(outcome.report->key(), key);

        // (b) monotone: never more packets/instructions than before.
        EXPECT_LE(stats.packets_after, stats.packets_before);
        EXPECT_LE(stats.instrs_after, stats.instrs_before);
        EXPECT_LE(stats.effective_after, stats.effective_before);

        // (c) idempotent: a second shrink changes nothing.
        triage::ShrinkStats again;
        const core::TestCase twice =
            triage::shrinkCase(fuzzer, shrunk, key, &again);
        EXPECT_EQ(campaign::hashTestCase(twice),
                  campaign::hashTestCase(shrunk))
            << key;
        EXPECT_EQ(again.instrs_after, stats.instrs_after);
        EXPECT_EQ(again.effective_after, stats.effective_after);
    }
}

TEST(TriageShrink, NonReproducingInputReturnedUnchanged)
{
    CampaignOrchestrator orchestrator(smallCampaign(1, 500));
    orchestrator.run();
    const std::vector<BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    triage::FuzzerCache cache;
    core::Fuzzer &fuzzer = originFuzzer(cache, ledger[0]);
    triage::ShrinkStats stats;
    const core::TestCase out = triage::shrinkCase(
        fuzzer, ledger[0].repro, "not|a|real,key,", &stats);
    EXPECT_FALSE(stats.reproduced_initially);
    EXPECT_EQ(stats.oracle_calls, 1u);
    EXPECT_EQ(campaign::hashTestCase(out),
              campaign::hashTestCase(ledger[0].repro));
}

// --- PoC artifacts --------------------------------------------------------

TEST(TriagePoc, FileRoundTripsExactly)
{
    CampaignOrchestrator orchestrator(smallCampaign(1, 500));
    orchestrator.run();
    const std::vector<BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    triage::PocArtifact poc;
    poc.cluster = "C007";
    poc.key = ledger[0].report.key();
    poc.config = ledger[0].config;
    poc.variant = ledger[0].variant;
    poc.tc = ledger[0].repro;

    std::ostringstream os;
    triage::writePocFile(os, poc);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("DVZPOC 1\n", 0), 0u);
    EXPECT_NE(text.find("\nend\n"), std::string::npos);

    std::istringstream is(text);
    triage::PocArtifact loaded;
    std::string error;
    ASSERT_TRUE(triage::readPocFile(is, loaded, &error)) << error;
    EXPECT_EQ(loaded.cluster, poc.cluster);
    EXPECT_EQ(loaded.key, poc.key);
    EXPECT_EQ(loaded.config, poc.config);
    EXPECT_EQ(loaded.variant, poc.variant);
    EXPECT_EQ(campaign::hashTestCase(loaded.tc),
              campaign::hashTestCase(poc.tc));

    // Serialization is deterministic.
    std::ostringstream os2;
    triage::writePocFile(os2, poc);
    EXPECT_EQ(os2.str(), text);

    EXPECT_EQ(triage::pocFileName("C007"), "C007.dvzpoc");
}

TEST(TriagePoc, MalformedFilesRejected)
{
    triage::PocArtifact out;
    std::string error;
    {
        std::istringstream is("not a poc\n");
        EXPECT_FALSE(triage::readPocFile(is, out, &error));
        EXPECT_NE(error.find("DVZPOC"), std::string::npos);
    }
    {
        // Valid magic, no case blob.
        std::istringstream is("DVZPOC 1\nkey: k\nconfig: c\n"
                              "variant: v\nend\n");
        EXPECT_FALSE(triage::readPocFile(is, out, &error));
        EXPECT_NE(error.find("case"), std::string::npos);
    }
    {
        // Truncated: no end terminator.
        std::istringstream is("DVZPOC 1\nkey: k\n");
        EXPECT_FALSE(triage::readPocFile(is, out, &error));
        EXPECT_NE(error.find("end"), std::string::npos);
    }
    {
        // Unknown field (forward-compat means a version bump).
        std::istringstream is("DVZPOC 1\nbogus: x\nend\n");
        EXPECT_FALSE(triage::readPocFile(is, out, &error));
        EXPECT_NE(error.find("bogus"), std::string::npos);
    }
    {
        // Corrupt hex.
        std::istringstream is("DVZPOC 1\nkey: k\nconfig: c\n"
                              "variant: v\ncase: zz\nend\n");
        EXPECT_FALSE(triage::readPocFile(is, out, &error));
        EXPECT_NE(error.find("hex"), std::string::npos);
    }
}

// --- end-to-end pipeline --------------------------------------------------

TEST(TriagePipeline, PocsReproduceAndArtifactsAreDeterministic)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    const std::vector<BugRecord> ledger =
        orchestrator.ledger().entries();
    ASSERT_GT(ledger.size(), 0u);

    triage::TriageOptions options;
    triage::FuzzerCache cache;
    const triage::TriageResult result =
        triage::triageLedger(ledger, options, cache);

    ASSERT_GT(result.clusters.size(), 0u);
    ASSERT_EQ(result.matrix.size(), result.ledger.size());
    // One PoC per cluster: every representative is a replayable
    // first-reporter case, so no cluster may be skipped.
    ASSERT_EQ(result.pocs.size(), result.clusters.size());

    // Matrix sanity: each row covers every registered config, and
    // the origin-config cell reproduces (the replay contract).
    const size_t n_configs = uarch::registeredCoreConfigs().size();
    for (size_t i = 0; i < result.matrix.size(); ++i) {
        const triage::BugPortability &row = result.matrix[i];
        ASSERT_EQ(row.cells.size(), n_configs);
        bool origin_seen = false;
        for (const triage::PortabilityCell &cell : row.cells) {
            if (cell.config == row.origin_config) {
                origin_seen = true;
                EXPECT_TRUE(cell.reproduced)
                    << row.key << " on " << cell.config << ": "
                    << cell.observed;
            }
        }
        EXPECT_TRUE(origin_seen);
        // Annotations mirror the matrix.
        EXPECT_EQ(result.ledger[i].reproduces_on,
                  row.reproducesOn());
        EXPECT_FALSE(result.ledger[i].cluster.empty());
    }

    // Every emitted PoC reproduces its claimed signature standalone,
    // and its minimized case stays in its cluster.
    for (const triage::PocEntry &poc : result.pocs) {
        std::string error;
        core::Fuzzer *fuzzer =
            cache.get(poc.artifact.config, poc.artifact.variant,
                      &error);
        ASSERT_NE(fuzzer, nullptr) << error;
        const auto outcome = fuzzer->replayCase(poc.artifact.tc);
        ASSERT_TRUE(outcome.report.has_value())
            << poc.artifact.cluster;
        EXPECT_EQ(outcome.report->key(), poc.artifact.key);
        EXPECT_EQ(triage::clusterOf(result.clusters,
                                    outcome.report->key()),
                  poc.artifact.cluster);
    }

    // The serialized artifact is byte-identical across an
    // independent second pass over the same ledger.
    triage::FuzzerCache cache2;
    const triage::TriageResult second =
        triage::triageLedger(ledger, options, cache2);
    std::ostringstream first_jsonl, second_jsonl;
    triage::writeTriageJsonl(first_jsonl, result);
    triage::writeTriageJsonl(second_jsonl, second);
    EXPECT_EQ(first_jsonl.str(), second_jsonl.str());
    ASSERT_EQ(second.pocs.size(), result.pocs.size());
    for (size_t i = 0; i < result.pocs.size(); ++i) {
        std::ostringstream a, b;
        triage::writePocFile(a, result.pocs[i].artifact);
        triage::writePocFile(b, second.pocs[i].artifact);
        EXPECT_EQ(a.str(), b.str());
    }

    // The jsonl parses back through the report-side reader with
    // matching shapes.
    std::istringstream parse_in(first_jsonl.str());
    report::TriageLog parsed;
    std::string parse_error;
    ASSERT_TRUE(report::parseTriageLog(parse_in, parsed,
                                       &parse_error))
        << parse_error;
    EXPECT_EQ(parsed.clusters.size(), result.clusters.size());
    EXPECT_EQ(parsed.portability.size(),
              result.matrix.size() * n_configs);
    EXPECT_EQ(parsed.pocs.size(), result.pocs.size());
    EXPECT_FALSE(
        report::buildTriageTables(parsed).empty());
}

TEST(TriagePipeline, WritePocsRoundTripsOnDisk)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_triage_pocs")
            .string();
    std::filesystem::remove_all(dir);

    CampaignOrchestrator orchestrator(smallCampaign(1, 500));
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);

    triage::TriageOptions options;
    options.matrix = false; // PoC path only
    triage::FuzzerCache cache;
    const triage::TriageResult result = triage::triageLedger(
        orchestrator.ledger().entries(), options, cache);
    ASSERT_GT(result.pocs.size(), 0u);

    std::string error;
    ASSERT_TRUE(triage::writePocs(dir, result, &error)) << error;
    for (const triage::PocEntry &poc : result.pocs) {
        const std::string path =
            dir + "/pocs/" + triage::pocFileName(poc.artifact.cluster);
        std::ifstream is(path, std::ios::binary);
        ASSERT_TRUE(is.good()) << path;
        triage::PocArtifact loaded;
        ASSERT_TRUE(triage::readPocFile(is, loaded, &error)) << error;
        EXPECT_EQ(loaded.key, poc.artifact.key);
    }
    std::filesystem::remove_all(dir);
}

TEST(TriagePipeline, EmptyLedgerYieldsEmptyArtifacts)
{
    triage::TriageOptions options;
    triage::FuzzerCache cache;
    const triage::TriageResult result =
        triage::triageLedger({}, options, cache);
    EXPECT_TRUE(result.clusters.empty());
    EXPECT_TRUE(result.matrix.empty());
    EXPECT_TRUE(result.pocs.empty());
    std::ostringstream os;
    triage::writeTriageJsonl(os, result);
    EXPECT_TRUE(os.str().empty());
}

// --- verdict --------------------------------------------------------------

TEST(TriageVerdict, EmptyLedgerExitPaths)
{
    replay::ReplaySummary empty;
    std::string line;
    EXPECT_EQ(replay::replayVerdict(empty, false, line), 0);
    EXPECT_EQ(line, "replay: 0 bugs, nothing replayed");
    EXPECT_EQ(replay::replayVerdict(empty, true, line), 1);
    EXPECT_NE(line.find("--require-bugs"), std::string::npos);

    replay::ReplaySummary some;
    some.bugs.push_back({"k", "c", "v", 0.0, true, "k"});
    EXPECT_EQ(replay::replayVerdict(some, true, line), 0);
    EXPECT_EQ(line, "replay: 1/1 ledger bugs reproduced");
    some.bugs.push_back({"k2", "c", "v", 0.0, false, "no-leak"});
    EXPECT_EQ(replay::replayVerdict(some, false, line), 1);
    EXPECT_EQ(line, "replay: 1/2 ledger bugs reproduced");
}

// --- cross-check against the hand-written PoC suite -----------------------

TEST(TriagePocSuite, ShrunkPocsAreAsLeanAsHandWrittenOnes)
{
    // The hand-written suite (bench/poc_suite.hh) is the human
    // yardstick for "minimal exploit": its densest transient packet
    // bounds what a reduced exploit should need. Campaign PoCs carry
    // window setup the hand suite leaves implicit, so allow 2x.
    const size_t hand_max = bench::maxTransientEffectiveSize();
    ASSERT_GT(hand_max, 0u);

    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);

    triage::TriageOptions options;
    options.matrix = false;
    triage::FuzzerCache cache;
    const triage::TriageResult result = triage::triageLedger(
        orchestrator.ledger().entries(), options, cache);
    ASSERT_GT(result.pocs.size(), 0u);

    for (const triage::PocEntry &poc : result.pocs) {
        const auto &schedule = poc.artifact.tc.schedule;
        const size_t idx = schedule.transientIndex();
        EXPECT_LE(schedule.packets[idx].effectiveSize(),
                  2 * hand_max)
            << poc.artifact.cluster << " (" << poc.artifact.key
            << ") shrank worse than the hand-written yardstick";
    }
}

} // namespace
} // namespace dejavuzz
