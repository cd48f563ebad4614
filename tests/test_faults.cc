/**
 * @file
 * Tests of the fault-tolerant campaign runtime: the deterministic
 * failpoint registry (--inject-faults), the CRC integrity trailer
 * and atomic-write failpoint semantics, torn-generation fallback in
 * the campaign directory, the quarantine ledger, and the headline
 * guarantee — a campaign that retries injected batch failures stays
 * bit-identical to the same campaign with no faults armed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_dir.hh"
#include "campaign/faults.hh"
#include "campaign/io_util.hh"
#include "campaign/orchestrator.hh"
#include "campaign/quarantine.hh"
#include "obs/telemetry.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;
using campaign::CampaignStats;
using campaign::Fault;
using campaign::QuarantineRecord;

/** Failpoints are process-wide: every test disarms on the way out so
 *  a failure cannot leak an armed registry into later suites. */
class FaultsTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        campaign::disarmFaults();
    }
};

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

/** Scratch directory, removed on scope exit. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("dvz_faults_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(counter()++)))
                   .string();
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static unsigned &counter()
    {
        static unsigned n = 0;
        return n;
    }
};

// --- Spec parsing -------------------------------------------------------

TEST_F(FaultsTest, SpecParsesAndDisarms)
{
    std::string error;
    EXPECT_TRUE(campaign::armFaults(
        "seed=9,batch-throw=0.25,enospc=1:2", &error))
        << error;
    EXPECT_TRUE(campaign::faultsArmed());
    EXPECT_TRUE(campaign::armFaults("", &error)) << error;
    EXPECT_FALSE(campaign::faultsArmed());
    EXPECT_FALSE(campaign::shouldFail(Fault::BatchThrow));
}

TEST_F(FaultsTest, SpecRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(campaign::armFaults("bogus-kind=1", &error));
    EXPECT_NE(error.find("unknown failpoint"), std::string::npos);
    // Seeds and caps are digits-only integers that fit 64 bits; a
    // probability is a finite number in [0, 1]. A nan compares false
    // against both bounds, so a bare range check lets it through.
    for (const char *spec :
         {"batch-throw", "batch-throw=nope", "seed=-3,enospc=1",
          "enospc=1:1.5", "batch-throw=nan", "batch-throw=-nan",
          "batch-throw=inf", "seed=1e300", "seed=1.0", "seed=+1",
          "seed= 1", "seed=0x10", "seed=18446744073709551616",
          "enospc=1:1e3", "enospc=1:+2",
          "enospc=1:18446744073709551616"}) {
        // A failed parse must leave the registry disarmed.
        ASSERT_TRUE(campaign::armFaults("enospc=1"));
        EXPECT_FALSE(campaign::armFaults(spec, &error)) << spec;
        EXPECT_FALSE(campaign::faultsArmed()) << spec;
        // The CLI names the flag; the parser must not repeat it.
        EXPECT_EQ(error.find("--inject-faults"), std::string::npos)
            << error;
    }
    EXPECT_FALSE(campaign::shouldFail(Fault::Enospc));
}

TEST_F(FaultsTest, SpecNumbersParseExactly)
{
    EXPECT_TRUE(campaign::armFaults(
        "seed=18446744073709551615,enospc=1:18446744073709551615"));
    // 2^53 + 1 has no double representation: a floating-point parse
    // rounds it onto 2^53, and the two specs would roll one sequence.
    auto roll = [](const std::string &spec) {
        EXPECT_TRUE(campaign::armFaults(spec)) << spec;
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(campaign::shouldFail(Fault::BatchThrow));
        return fired;
    };
    EXPECT_NE(roll("seed=9007199254740992,batch-throw=0.5"),
              roll("seed=9007199254740993,batch-throw=0.5"));
}

TEST_F(FaultsTest, FiringSequenceIsSeededAndCapped)
{
    const std::string spec = "seed=42,batch-throw=0.5";
    std::vector<bool> first, second;
    ASSERT_TRUE(campaign::armFaults(spec));
    for (int i = 0; i < 64; ++i)
        first.push_back(campaign::shouldFail(Fault::BatchThrow));
    ASSERT_TRUE(campaign::armFaults(spec));
    for (int i = 0; i < 64; ++i)
        second.push_back(campaign::shouldFail(Fault::BatchThrow));
    EXPECT_EQ(first, second);
    // A different seed rolls a different sequence (with 64 draws at
    // p=0.5 a collision is a 2^-64 event, i.e. a real bug).
    ASSERT_TRUE(campaign::armFaults("seed=43,batch-throw=0.5"));
    std::vector<bool> other;
    for (int i = 0; i < 64; ++i)
        other.push_back(campaign::shouldFail(Fault::BatchThrow));
    EXPECT_NE(first, other);

    ASSERT_TRUE(campaign::armFaults("seed=1,enospc=1:3"));
    unsigned fired = 0;
    for (int i = 0; i < 32; ++i)
        fired += campaign::shouldFail(Fault::Enospc) ? 1 : 0;
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(campaign::faultsFired(), 3u);
}

// --- Integrity trailer --------------------------------------------------

TEST_F(FaultsTest, TrailerRoundTripsAndCatchesCorruption)
{
    const std::string payload = "campaign artifact bytes\x00\x01\x02";
    const std::string file = campaign::withTrailer(payload, 17);
    ASSERT_EQ(file.size(), payload.size() + campaign::kTrailerBytes);

    std::string out;
    uint64_t gen = 0;
    std::string error;
    ASSERT_TRUE(campaign::splitTrailer(file, out, gen, &error))
        << error;
    EXPECT_EQ(out, payload);
    EXPECT_EQ(gen, 17u);

    // One flipped payload bit must fail the CRC.
    std::string flipped = file;
    flipped[3] = static_cast<char>(flipped[3] ^ 0x10);
    EXPECT_FALSE(
        campaign::splitTrailer(flipped, out, gen, &error));
    EXPECT_NE(error.find("CRC"), std::string::npos);

    // Truncation anywhere must fail (payload-length mismatch or a
    // file shorter than the trailer itself).
    EXPECT_FALSE(campaign::splitTrailer(
        file.substr(0, file.size() - 1), out, gen, &error));
    EXPECT_FALSE(campaign::splitTrailer(
        file.substr(0, campaign::kTrailerBytes - 1), out, gen,
        &error));

    // A wrong magic is not a trailer at all.
    std::string bad_magic = file;
    bad_magic[payload.size()] ^= 0x7f;
    EXPECT_FALSE(
        campaign::splitTrailer(bad_magic, out, gen, &error));
}

TEST_F(FaultsTest, AtomicWriteFailpointSemantics)
{
    TempDir dir;
    const std::string path = dir.path + "/artifact.bin";
    const std::string data =
        campaign::withTrailer(std::string(4096, 'x'), 1);
    std::string error;

    // enospc: the write fails loudly and leaves no debris.
    ASSERT_TRUE(campaign::armFaults("seed=1,enospc=1:1"));
    EXPECT_FALSE(campaign::atomicWriteFile(path, data, &error));
    EXPECT_NE(error.find("No space left"), std::string::npos);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // short-write: reports success but the target is truncated —
    // exactly what the CRC trailer exists to catch.
    ASSERT_TRUE(campaign::armFaults("seed=1,short-write=1:1"));
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    std::string file;
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_LT(file.size(), data.size());
    std::string payload;
    uint64_t gen = 0;
    EXPECT_FALSE(
        campaign::splitTrailer(file, payload, gen, nullptr));

    // torn-rename: ditto, via a truncated rename target.
    ASSERT_TRUE(campaign::armFaults("seed=1,torn-rename=1:1"));
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_LT(file.size(), data.size());
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // Disarmed: the write is whole and the trailer validates.
    campaign::disarmFaults();
    EXPECT_TRUE(campaign::atomicWriteFile(path, data, &error));
    ASSERT_TRUE(campaign::readWholeFile(path, file, &error));
    EXPECT_TRUE(campaign::splitTrailer(file, payload, gen, &error))
        << error;
    EXPECT_EQ(gen, 1u);
}

// --- Torn-generation fallback -------------------------------------------

TEST_F(FaultsTest, LoaderFallsBackToPreviousGeneration)
{
    TempDir dir;
    CampaignOptions options = smallCampaign(2, 500);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();

    // Two complete generations, then tear the latest corpus.
    std::string error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir.path, orchestrator,
                                          options, &error))
        << error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir.path, orchestrator,
                                          options, &error))
        << error;
    const auto paths = campaign::campaignDirPaths(dir.path);
    ASSERT_TRUE(fs::exists(campaign::prevPath(paths.meta)));
    fs::resize_file(paths.corpus, fs::file_size(paths.corpus) / 2);

    campaign::LoadedCampaignDir loaded;
    std::string note;
    ASSERT_TRUE(campaign::loadCampaignDir(dir.path, loaded, &error,
                                          &note))
        << error;
    EXPECT_NE(note.find("generation"), std::string::npos) << note;
    EXPECT_EQ(loaded.meta.master_seed, options.master_seed);
    EXPECT_FALSE(loaded.corpus.entries.empty());

    // With both generations torn there is nothing left to trust.
    fs::resize_file(campaign::prevPath(paths.corpus), 8);
    EXPECT_FALSE(
        campaign::loadCampaignDir(dir.path, loaded, &error));
    EXPECT_NE(error.find("no complete save generation"),
              std::string::npos)
        << error;
}

// --- Quarantine ledger --------------------------------------------------

TEST_F(FaultsTest, QuarantineRoundTripsAndToleratesTornTail)
{
    TempDir dir;
    const std::string path = dir.path + "/quarantine.jsonl";

    std::vector<QuarantineRecord> records(2);
    records[0].worker = 1;
    records[0].batch = 42;
    records[0].attempts = 3;
    records[0].reason = "batch-deadline";
    records[0].tc.seed.id = 42;
    records[0].tc.seed.entropy = 0xdeadbeefcafef00dULL;
    records[1].worker = 0;
    records[1].batch = 7;
    records[1].attempts = 4;
    records[1].reason = "batch-throw: boom \"quoted\"";
    records[1].tc.seed.id = 43;
    records[1].tc.seed.entropy = 0x0123456789abcdefULL;

    std::string error;
    ASSERT_TRUE(campaign::appendQuarantine(path, records, &error))
        << error;

    std::vector<QuarantineRecord> loaded;
    std::string torn_note;
    ASSERT_TRUE(campaign::loadQuarantineFile(path, loaded, &error,
                                             &torn_note))
        << error;
    EXPECT_TRUE(torn_note.empty()) << torn_note;
    ASSERT_EQ(loaded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(loaded[i].worker, records[i].worker);
        EXPECT_EQ(loaded[i].batch, records[i].batch);
        EXPECT_EQ(loaded[i].attempts, records[i].attempts);
        EXPECT_EQ(loaded[i].reason, records[i].reason);
        EXPECT_EQ(loaded[i].tc.seed.id, records[i].tc.seed.id);
        EXPECT_EQ(loaded[i].tc.seed.entropy,
                  records[i].tc.seed.entropy);
    }

    // A crash mid-append tears only the final line; the loader keeps
    // everything before it and reports the drop.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "{\"type\":\"quarantine\",\"worker\":2,\"ba";
    }
    loaded.clear();
    ASSERT_TRUE(campaign::loadQuarantineFile(path, loaded, &error,
                                             &torn_note))
        << error;
    EXPECT_EQ(loaded.size(), records.size());
    EXPECT_FALSE(torn_note.empty());

    // Corruption anywhere *else* is not crash debris: strict fail.
    {
        std::ofstream os(path, std::ios::trunc | std::ios::binary);
        os << "{\"type\":\"quarantine\",\"worker\":2,\"ba\n";
        std::ostringstream rec;
        campaign::writeQuarantineRecord(rec, records[0]);
        os << rec.str();
    }
    EXPECT_FALSE(
        campaign::loadQuarantineFile(path, loaded, &error));

    // A missing ledger is simply empty.
    loaded.clear();
    EXPECT_TRUE(campaign::loadQuarantineFile(
        dir.path + "/absent.jsonl", loaded, &error));
    EXPECT_TRUE(loaded.empty());
}

// --- Retry determinism (the headline guarantee) -------------------------

TEST_F(FaultsTest, RetriedBatchesStayBitIdentical)
{
    // Retries re-execute the identical batch spec, so a campaign
    // whose batches are made to crash (and then retried) must land
    // on exactly the ledger and corpus of an undisturbed run.
    campaign::disarmFaults();
    CampaignOptions options = smallCampaign(2, 1500);
    options.batch_retries = 5;
    CampaignOrchestrator baseline(options);
    CampaignStats clean = baseline.run();
    ASSERT_GT(baseline.ledger().distinct(), 0u);

    ASSERT_TRUE(campaign::armFaults("seed=7,batch-throw=1:3"));
    CampaignOrchestrator faulted(options);
    CampaignStats stats = faulted.run();
    campaign::disarmFaults();

    EXPECT_EQ(stats.batch_retries, 3u);
    EXPECT_EQ(stats.batches_failed, 0u);
    EXPECT_EQ(stats.iterations, clean.iterations);
    EXPECT_EQ(stats.coverage_points, clean.coverage_points);
    EXPECT_EQ(stats.steals, clean.steals);
    EXPECT_EQ(stats.seeds_imported, clean.seeds_imported);

    auto ea = baseline.ledger().entries();
    auto eb = faulted.ledger().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].report.key(), eb[i].report.key());
        EXPECT_EQ(ea[i].worker, eb[i].worker);
        EXPECT_EQ(ea[i].epoch, eb[i].epoch);
        EXPECT_EQ(ea[i].hits, eb[i].hits);
        EXPECT_EQ(ea[i].report.iteration, eb[i].report.iteration);
    }
    auto ka = baseline.corpus().snapshotKeys();
    auto kb = faulted.corpus().snapshotKeys();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].gain, kb[i].gain);
        EXPECT_EQ(ka[i].worker, kb[i].worker);
        EXPECT_EQ(ka[i].seq, kb[i].seq);
        EXPECT_EQ(ka[i].config, kb[i].config);
    }
}

TEST_F(FaultsTest, AlwaysHangingBatchesDegradeGracefully)
{
    // Every attempt of every batch "hangs": retries exhaust, the
    // kind's failure streak trips the fleet-wide disable, and the
    // campaign ends early instead of spinning — with the failure
    // fully accounted (no phantom iterations folded in).
    CampaignOptions options = smallCampaign(1, 4000);
    options.batch_retries = 1;
    options.kind_disable_failures = 3;
    ASSERT_TRUE(campaign::armFaults("seed=3,batch-hang=1"));
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    campaign::disarmFaults();

    EXPECT_EQ(stats.iterations, 0u);
    EXPECT_GT(stats.batches_failed, 0u);
    EXPECT_GT(stats.batch_deadline_kills, 0u);
    EXPECT_EQ(stats.kinds_disabled, 1u);
    EXPECT_EQ(orchestrator.ledger().distinct(), 0u);
    // The epoch curve must agree with the rollups it validates
    // against: skipped iterations never appear as progress.
    for (const auto &sample : stats.epoch_curve)
        EXPECT_EQ(sample.iterations, 0u);
}

TEST_F(FaultsTest, DisabledKindReceivesNoStolenSeeds)
{
    // The first batch to run hangs and disables its kind at the
    // first barrier. The disabled shard never plans another epoch,
    // so seeds stolen for it would pile up in a queue that never
    // drains (and that every checkpoint saves). Its peer is the only
    // other author in the steal domain, so nothing may be stolen.
    CampaignOptions options = smallCampaign(2, 2000);
    options.policy = campaign::ShardPolicy::AblationMatrix;
    options.epoch_iterations = 50;
    options.batch_iterations = 50;
    options.batch_retries = 0;
    options.kind_disable_failures = 1;
    ASSERT_TRUE(campaign::armFaults("seed=1,batch-hang=1:1"));
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    campaign::disarmFaults();

    EXPECT_EQ(stats.kinds_disabled, 1u);
    EXPECT_EQ(stats.batches_failed, 1u);
    EXPECT_EQ(stats.steals, 0u);
    const campaign::CampaignCheckpoint cp =
        orchestrator.makeCheckpoint();
    ASSERT_EQ(stats.workers.size(), 2u);
    ASSERT_EQ(cp.shards.size(), 2u);
    unsigned disabled = 0;
    for (unsigned w = 0; w < 2; ++w) {
        if (stats.workers[w].iterations != 0)
            continue;
        ++disabled;
        EXPECT_TRUE(cp.shards[w].pending_inject.empty()) << w;
    }
    EXPECT_EQ(disabled, 1u);
}

} // namespace
} // namespace dejavuzz
