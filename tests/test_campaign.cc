/**
 * @file
 * Tests of the parallel campaign orchestrator subsystem: Rng stream
 * forking, slice-aware fuzzer timing, coverage-merge idempotence,
 * corpus retention order-independence, BugLedger deduplication,
 * multi-worker vs single-worker bug-class equivalence, and repeat-run
 * determinism of the full campaign.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include <sched.h>

#include "campaign/campaign_dir.hh"
#include "campaign/corpus.hh"
#include "campaign/coverage_map.hh"
#include "campaign/io_util.hh"
#include "campaign/ledger.hh"
#include "campaign/orchestrator.hh"
#include "campaign/snapshot.hh"
#include "core/fuzzer.hh"
#include "obs/telemetry.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using campaign::BugLedger;
using campaign::CampaignOptions;
using campaign::CampaignOrchestrator;
using campaign::CampaignStats;
using campaign::CorpusEntry;
using campaign::GlobalCoverage;
using campaign::SharedCorpus;
using campaign::ShardPolicy;
using core::BugReport;
using core::TriggerKind;

// --- Rng stream forking -------------------------------------------------

TEST(RngFork, StreamsAreReproducible)
{
    Rng a(123), b(123);
    Rng fa = a.fork(7), fb = b.fork(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(fa.next(), fb.next());
    EXPECT_EQ(Rng::streamSeed(5, 2), Rng::streamSeed(5, 2));
}

TEST(RngFork, StreamsAreDecorrelated)
{
    Rng parent(99);
    Rng s0 = parent.fork(0), s1 = parent.fork(1);
    unsigned collisions = 0;
    for (int i = 0; i < 64; ++i) {
        if (s0.next() == s1.next())
            ++collisions;
    }
    EXPECT_EQ(collisions, 0u);
    // Adjacent master seeds also give distinct streams.
    EXPECT_NE(Rng::streamSeed(1, 0), Rng::streamSeed(2, 0));
    EXPECT_NE(Rng::streamSeed(1, 0), Rng::streamSeed(1, 1));
}

TEST(RngFork, DoesNotAdvanceParent)
{
    Rng a(55), b(55);
    (void)a.fork(3);
    (void)a.fork(9);
    EXPECT_EQ(a.next(), b.next());
}

// --- Fuzzer slice timing ------------------------------------------------

TEST(FuzzerTiming, ElapsedExcludesIdleBetweenSlices)
{
    core::FuzzerOptions options;
    options.master_seed = 3;
    core::Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.run(10);
    const double after_first = fuzzer.elapsedSeconds();
    EXPECT_GT(after_first, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    fuzzer.run(1);
    // The 60ms idle gap must not appear in the active time.
    EXPECT_LT(fuzzer.elapsedSeconds() - after_first, 0.050);
    EXPECT_EQ(fuzzer.stats().iterations, 11u);
}

// --- Coverage merging ---------------------------------------------------

TEST(CoverageMerge, TaintCoverageMergeIsIdempotent)
{
    ift::TaintCoverage a, b;
    uarch::CoreConfig cfg = uarch::smallBoomConfig();
    auto ids_a = uarch::Core::registerModules(a, cfg);
    auto ids_b = uarch::Core::registerModules(b, cfg);
    (void)ids_b;
    a.sample(ids_a[0], 1);
    a.sample(ids_a[0], 3);
    a.sample(ids_a[2], 2);

    EXPECT_EQ(b.mergeFrom(a), 3u);
    EXPECT_EQ(b.points(), 3u);
    EXPECT_EQ(b.mergeFrom(a), 0u) << "second merge must be a no-op";
    EXPECT_EQ(b.points(), 3u);
}

TEST(CoverageMerge, GlobalMapMergeAndPullAreIdempotent)
{
    uarch::CoreConfig cfg = uarch::smallBoomConfig();
    ift::TaintCoverage local, other;
    auto ids = uarch::Core::registerModules(local, cfg);
    uarch::Core::registerModules(other, cfg);
    local.sample(ids[1], 2);
    local.sample(ids[2], 70); // BHT: exercises the second bitmap word
    local.sample(ids[4], 1);

    GlobalCoverage global(local);
    EXPECT_EQ(global.mergeFrom(local), 3u);
    EXPECT_EQ(global.mergeFrom(local), 0u);
    EXPECT_EQ(global.points(), 3u);

    EXPECT_EQ(global.pullInto(other), 3u);
    EXPECT_EQ(global.pullInto(other), 0u);
    EXPECT_EQ(other.points(), 3u);
    // Round trip: the pulled map merges back with nothing fresh.
    EXPECT_EQ(global.mergeFrom(other), 0u);
}

// --- Shared corpus ------------------------------------------------------

TEST(Corpus, RetentionIsArrivalOrderIndependent)
{
    auto entry = [](uint64_t gain, unsigned worker, uint64_t seq) {
        CorpusEntry e;
        e.gain = gain;
        e.worker = worker;
        e.seq = seq;
        return e;
    };
    std::vector<CorpusEntry> entries = {
        entry(5, 0, 0), entry(9, 1, 0), entry(1, 0, 1),
        entry(7, 1, 1), entry(3, 0, 2), entry(8, 1, 2),
    };

    SharedCorpus forward(1, 3), backward(1, 3);
    for (const auto &e : entries)
        forward.offer(e);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        backward.offer(*it);

    auto fs = forward.snapshotSorted();
    auto bs = backward.snapshotSorted();
    ASSERT_EQ(fs.size(), 3u);
    ASSERT_EQ(bs.size(), 3u);
    for (size_t i = 0; i < fs.size(); ++i) {
        EXPECT_EQ(fs[i].gain, bs[i].gain);
        EXPECT_EQ(fs[i].worker, bs[i].worker);
        EXPECT_EQ(fs[i].seq, bs[i].seq);
    }
    EXPECT_EQ(fs[0].gain, 9u);
    EXPECT_EQ(fs[1].gain, 8u);
    EXPECT_EQ(fs[2].gain, 7u);
}

// --- Corpus persistence -------------------------------------------------

/** A corpus entry with every serialized field holding a nontrivial
 *  value, so round-trip comparisons exercise the whole format. */
CorpusEntry
syntheticEntry(uint64_t gain, unsigned worker, uint64_t seq)
{
    CorpusEntry entry;
    entry.gain = gain;
    entry.worker = worker;
    entry.seq = seq;
    entry.config = "SmallBOOM";

    core::TestCase &tc = entry.tc;
    tc.seed.id = 42 + seq;
    tc.seed.trigger = core::TriggerKind::ReturnMispredict;
    tc.seed.entropy = 0xdeadbeefcafef00dULL + gain;
    tc.seed.window.meltdown = true;
    tc.seed.window.prot = swapmem::SecretProt::Pte;
    tc.seed.window.mask_high_bits = true;
    tc.seed.window.encode_ops = 5;
    tc.seed.window.encode_entropy = 0x1234'5678'9abc'def0ULL;
    tc.seed.model.tmpl = core::AttackTemplate::PrivTransition;
    tc.seed.model.attacker = isa::Priv::U;
    tc.seed.model.victim = isa::Priv::M;
    tc.seed.model.supervisor_victim = (seq % 2) == 0;

    tc.schedule.transient_prot = swapmem::SecretProt::Pmp;
    tc.schedule.victim_supervisor = tc.seed.model.supervisor_victim;
    tc.schedule.double_fetch = (gain % 2) == 1;
    swapmem::SwapPacket train;
    train.label = "train";
    train.kind = swapmem::PacketKind::TriggerTrain;
    train.entry = swapmem::kSwapBase + 8;
    train.instrs.push_back(
        isa::Instr{isa::Op::ADDI, 5, 6, 0, -2048, 0x1234});
    swapmem::SwapPacket transient;
    transient.label = "transient";
    transient.kind = swapmem::PacketKind::Transient;
    transient.instrs.push_back(
        isa::Instr{isa::Op::LD, 10, 11, 0, 8, 0});
    transient.instrs.push_back(
        isa::Instr{isa::Op::SWAPNEXT, 0, 0, 0, 0, 0});
    tc.schedule.packets = {train, transient};

    for (size_t i = 0; i < tc.data.secret.size(); ++i)
        tc.data.secret[i] = static_cast<uint8_t>(i * 7 + seq);
    tc.data.operands = {1, 0xffff'ffff'ffff'ffffULL, 3 + gain};

    tc.trigger_addr = 0x10040;
    tc.window_addr = 0x10080;
    tc.window_begin = 1;
    tc.window_end = 2;
    tc.encode_begin = 1;
    tc.encode_end = 2;
    tc.has_window_payload = true;
    return entry;
}

TEST(CorpusIo, SaveLoadRoundTripsEveryField)
{
    SharedCorpus corpus(2, 8);
    corpus.offer(syntheticEntry(9, 0, 0));
    corpus.offer(syntheticEntry(4, 1, 3));

    std::stringstream file;
    ASSERT_TRUE(corpus.saveTo(file, /*master_seed=*/77));

    campaign::CorpusFile loaded;
    std::string error;
    ASSERT_TRUE(SharedCorpus::loadFrom(file, loaded, &error))
        << error;
    EXPECT_EQ(loaded.master_seed, 77u);
    ASSERT_EQ(loaded.entries.size(), 2u);

    // saveTo writes canonical order: gain desc.
    EXPECT_EQ(loaded.entries[0].gain, 9u);
    EXPECT_EQ(loaded.entries[1].gain, 4u);

    const CorpusEntry expected = syntheticEntry(9, 0, 0);
    const CorpusEntry &got = loaded.entries[0];
    EXPECT_EQ(got.worker, expected.worker);
    EXPECT_EQ(got.seq, expected.seq);
    EXPECT_EQ(got.config, expected.config);
    EXPECT_EQ(got.tc.seed.id, expected.tc.seed.id);
    EXPECT_EQ(got.tc.seed.trigger, expected.tc.seed.trigger);
    EXPECT_EQ(got.tc.seed.entropy, expected.tc.seed.entropy);
    EXPECT_EQ(got.tc.seed.window.meltdown,
              expected.tc.seed.window.meltdown);
    EXPECT_EQ(got.tc.seed.window.prot,
              expected.tc.seed.window.prot);
    EXPECT_EQ(got.tc.seed.window.mask_high_bits,
              expected.tc.seed.window.mask_high_bits);
    EXPECT_EQ(got.tc.seed.window.encode_ops,
              expected.tc.seed.window.encode_ops);
    EXPECT_EQ(got.tc.seed.window.encode_entropy,
              expected.tc.seed.window.encode_entropy);
    EXPECT_EQ(got.tc.seed.model.tmpl, expected.tc.seed.model.tmpl);
    EXPECT_EQ(got.tc.seed.model.attacker,
              expected.tc.seed.model.attacker);
    EXPECT_EQ(got.tc.seed.model.victim,
              expected.tc.seed.model.victim);
    EXPECT_EQ(got.tc.seed.model.supervisor_victim,
              expected.tc.seed.model.supervisor_victim);
    EXPECT_EQ(got.tc.schedule.transient_prot,
              expected.tc.schedule.transient_prot);
    EXPECT_EQ(got.tc.schedule.victim_supervisor,
              expected.tc.schedule.victim_supervisor);
    EXPECT_EQ(got.tc.schedule.double_fetch,
              expected.tc.schedule.double_fetch);
    ASSERT_EQ(got.tc.schedule.packets.size(),
              expected.tc.schedule.packets.size());
    for (size_t p = 0; p < got.tc.schedule.packets.size(); ++p) {
        const auto &gp = got.tc.schedule.packets[p];
        const auto &ep = expected.tc.schedule.packets[p];
        EXPECT_EQ(gp.label, ep.label);
        EXPECT_EQ(gp.kind, ep.kind);
        EXPECT_EQ(gp.entry, ep.entry);
        ASSERT_EQ(gp.instrs.size(), ep.instrs.size());
        for (size_t i = 0; i < gp.instrs.size(); ++i) {
            EXPECT_TRUE(gp.instrs[i] == ep.instrs[i]);
            EXPECT_EQ(gp.instrs[i].raw, ep.instrs[i].raw);
        }
    }
    EXPECT_EQ(got.tc.data.secret, expected.tc.data.secret);
    EXPECT_EQ(got.tc.data.operands, expected.tc.data.operands);
    EXPECT_EQ(got.tc.trigger_addr, expected.tc.trigger_addr);
    EXPECT_EQ(got.tc.window_addr, expected.tc.window_addr);
    EXPECT_EQ(got.tc.window_begin, expected.tc.window_begin);
    EXPECT_EQ(got.tc.window_end, expected.tc.window_end);
    EXPECT_EQ(got.tc.encode_begin, expected.tc.encode_begin);
    EXPECT_EQ(got.tc.encode_end, expected.tc.encode_end);
    EXPECT_EQ(got.tc.has_window_payload,
              expected.tc.has_window_payload);
}

TEST(CorpusIo, LoadRejectsCorruptInput)
{
    campaign::CorpusFile out;
    std::string error;

    std::stringstream bad_magic("not a corpus file at all");
    EXPECT_FALSE(SharedCorpus::loadFrom(bad_magic, out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    SharedCorpus corpus(1, 4);
    corpus.offer(syntheticEntry(3, 0, 0));
    std::stringstream file;
    ASSERT_TRUE(corpus.saveTo(file, 1));
    const std::string bytes = file.str();

    // Truncation anywhere inside an entry fails the load.
    std::stringstream truncated(
        bytes.substr(0, bytes.size() - 10));
    EXPECT_FALSE(SharedCorpus::loadFrom(truncated, out, &error));

    // Trailing garbage after the final entry fails too.
    std::stringstream padded(bytes + "x");
    EXPECT_FALSE(SharedCorpus::loadFrom(padded, out, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

/** Rewrite a single-entry v2 corpus image as its v1 equivalent: the
 *  v2 tail is the entry's final six bytes (the attack model), and the
 *  version field sits right after the 8-byte magic. */
std::string
asV1Image(std::string bytes)
{
    bytes.resize(bytes.size() - 6);
    bytes[8] = 1;
    bytes[9] = bytes[10] = bytes[11] = 0;
    return bytes;
}

TEST(CorpusIo, RejectsV1Files)
{
    // Readers accept exactly the version the writer emits: a v1
    // image is refused by name, not decoded with guessed defaults.
    SharedCorpus corpus(1, 4);
    corpus.offer(syntheticEntry(3, 0, 0));
    std::stringstream v2_file;
    ASSERT_TRUE(corpus.saveTo(v2_file, 5));

    std::stringstream v1_file(asV1Image(v2_file.str()),
                              std::ios::in | std::ios::binary);
    campaign::CorpusFile loaded;
    std::string error;
    EXPECT_FALSE(SharedCorpus::loadFrom(v1_file, loaded, &error));
    EXPECT_NE(error.find("unsupported corpus version 1"),
              std::string::npos)
        << error;
}

TEST(CorpusIo, RejectsReservedPrivilegeInModel)
{
    SharedCorpus corpus(1, 4);
    corpus.offer(syntheticEntry(3, 0, 0));
    std::stringstream file;
    ASSERT_TRUE(corpus.saveTo(file, 5));
    std::string bytes = file.str();
    // The victim privilege is the entry's fourth-from-last byte;
    // 2 is the reserved (hypervisor) encoding.
    bytes[bytes.size() - 4] = 2;

    std::stringstream stream(bytes,
                             std::ios::in | std::ios::binary);
    campaign::CorpusFile loaded;
    std::string error;
    EXPECT_FALSE(SharedCorpus::loadFrom(stream, loaded, &error));
    EXPECT_NE(error.find("privilege"), std::string::npos) << error;
}

// --- Bug ledger ---------------------------------------------------------

TEST(Ledger, DeduplicatesIdenticalReports)
{
    BugReport report;
    report.attack = core::AttackType::Spectre;
    report.window = TriggerKind::BranchMispredict;
    report.components = {"dcache"};

    BugLedger ledger;
    EXPECT_TRUE(ledger.record(report, 0, 0));
    EXPECT_FALSE(ledger.record(report, 3, 1));
    EXPECT_FALSE(ledger.record(report, 5, 2));
    EXPECT_EQ(ledger.distinct(), 1u);
    EXPECT_EQ(ledger.totalReports(), 3u);

    auto entries = ledger.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].worker, 0u) << "first reporter wins";
    EXPECT_EQ(entries[0].epoch, 0u);
    EXPECT_EQ(entries[0].hits, 3u);
}

TEST(Ledger, DistinguishesDifferentSignatures)
{
    BugReport a;
    a.window = TriggerKind::BranchMispredict;
    a.components = {"dcache"};
    BugReport b = a;
    b.components = {"icache"};
    BugReport c = a;
    c.window = TriggerKind::ReturnMispredict;

    BugLedger ledger;
    EXPECT_TRUE(ledger.record(a, 0, 0));
    EXPECT_TRUE(ledger.record(b, 0, 0));
    EXPECT_TRUE(ledger.record(c, 0, 0));
    EXPECT_EQ(ledger.distinct(), 3u);
}

// --- Full campaigns -----------------------------------------------------

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

/** Deduplicated (attack | window) vulnerability classes — the axis
 *  the paper's Table 5 counts bugs on. */
std::set<std::string>
bugClasses(const BugLedger &ledger)
{
    std::set<std::string> classes;
    for (const auto &record : ledger.entries()) {
        std::string cls = core::attackTypeName(record.report.attack);
        cls += '|';
        cls += core::triggerKindName(record.report.window);
        classes.insert(cls);
    }
    return classes;
}

TEST(Campaign, TwoWorkersMatchOneWorkerBugClasses)
{
    CampaignOrchestrator one(smallCampaign(1, 1000));
    CampaignStats sone = one.run();
    CampaignOrchestrator two(smallCampaign(2, 1000));
    CampaignStats stwo = two.run();

    EXPECT_EQ(sone.iterations, 1000u);
    EXPECT_EQ(stwo.iterations, 1000u);
    EXPECT_GT(one.ledger().distinct(), 0u);
    EXPECT_GT(two.ledger().distinct(), 0u);

    // Equivalent total budget => the same deduplicated set of
    // vulnerability classes, found by a different worker fleet. The
    // class set saturates well within 1000 iterations on the buggy
    // SmallBOOM config; if a future generator change shifts RNG
    // consumption enough to desaturate one fleet, raise the budget
    // rather than weakening the equality.
    EXPECT_EQ(bugClasses(one.ledger()), bugClasses(two.ledger()));
}

TEST(Campaign, RepeatRunsAreBitIdentical)
{
    CampaignOrchestrator a(smallCampaign(2, 750));
    CampaignStats sa = a.run();
    CampaignOrchestrator b(smallCampaign(2, 750));
    CampaignStats sb = b.run();

    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(sa.simulations, sb.simulations);
    EXPECT_EQ(sa.windows_triggered, sb.windows_triggered);
    EXPECT_EQ(sa.coverage_points, sb.coverage_points);
    EXPECT_EQ(sa.corpus_size, sb.corpus_size);
    EXPECT_EQ(sa.steals, sb.steals);

    auto ea = a.ledger().entries();
    auto eb = b.ledger().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].report.key(), eb[i].report.key());
        EXPECT_EQ(ea[i].worker, eb[i].worker);
        EXPECT_EQ(ea[i].epoch, eb[i].epoch);
        EXPECT_EQ(ea[i].hits, eb[i].hits);
        EXPECT_EQ(ea[i].report.iteration, eb[i].report.iteration);
    }
}

TEST(Campaign, SeedStealingInjectsForeignSeeds)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 1000));
    CampaignStats stats = orchestrator.run();
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GT(stats.seeds_imported, 0u);
    EXPECT_LE(stats.seeds_imported, stats.steals);
    EXPECT_GT(stats.corpus_size, 0u);
}

TEST(Campaign, AblationPolicyAssignsVariants)
{
    CampaignOptions options = smallCampaign(3, 375);
    options.policy = ShardPolicy::AblationMatrix;
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    ASSERT_EQ(stats.workers.size(), 3u);
    EXPECT_EQ(stats.workers[0].variant, "full");
    EXPECT_EQ(stats.workers[1].variant, "dejavuzz-star");
    EXPECT_EQ(stats.workers[2].variant, "dejavuzz-minus");
}

TEST(Campaign, SweepPolicyAlternatesCores)
{
    CampaignOptions options = smallCampaign(2, 250);
    options.policy = ShardPolicy::ConfigSweep;
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_NE(stats.workers[0].config, stats.workers[1].config);
}

// --- Multi-head subspace campaigns --------------------------------------

TEST(Campaign, HeadMatrixPartitionsTheTriggerSpace)
{
    const auto &heads = campaign::headMatrix();
    ASSERT_EQ(heads.size(), 4u);
    uint32_t seen = 0;
    for (const auto &head : heads) {
        EXPECT_NE(head.trigger_mask, 0u) << head.name;
        EXPECT_EQ(seen & head.trigger_mask, 0u)
            << head.name << " overlaps an earlier head";
        seen |= head.trigger_mask;
        EXPECT_NE(head.model_mask & core::kLegacyModelMask, 0u)
            << head.name << " must keep the same-domain template";
    }
    EXPECT_EQ(seen, core::kAllTriggerMask)
        << "the heads must cover every trigger kind";
}

TEST(Campaign, HeadsPolicyAssignsSubspaceVariants)
{
    CampaignOptions options = smallCampaign(4, 500);
    options.policy = ShardPolicy::Heads;
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();
    ASSERT_EQ(stats.workers.size(), 4u);
    EXPECT_EQ(stats.workers[0].variant, "head-predictors");
    EXPECT_EQ(stats.workers[1].variant, "head-caches");
    EXPECT_EQ(stats.workers[2].variant, "head-tlb");
    EXPECT_EQ(stats.workers[3].variant, "head-exceptions");
    // Head-local coverage: every head observes some points of its
    // own subspace.
    for (const auto &w : stats.workers)
        EXPECT_GT(w.coverage_points, 0u) << w.variant;
}

TEST(Campaign, HeadsDiscoverAttackClassesBaselineNeverReports)
{
    // The acceptance split: a heads campaign classifies findings as
    // privilege-transition and double-fetch; the replicas baseline
    // (implicit same-domain model) structurally cannot.
    CampaignOptions heads = smallCampaign(4, 1200);
    heads.policy = ShardPolicy::Heads;
    CampaignOrchestrator hc(heads);
    hc.run();

    CampaignOrchestrator baseline(smallCampaign(4, 1200));
    baseline.run();

    auto attacks = [](const BugLedger &ledger) {
        std::set<core::AttackType> set;
        for (const auto &record : ledger.entries())
            set.insert(record.report.attack);
        return set;
    };
    auto found = attacks(hc.ledger());
    EXPECT_TRUE(found.count(core::AttackType::PrivTransition));
    EXPECT_TRUE(found.count(core::AttackType::DoubleFetch));
    auto base = attacks(baseline.ledger());
    EXPECT_FALSE(base.count(core::AttackType::PrivTransition));
    EXPECT_FALSE(base.count(core::AttackType::DoubleFetch));
}

TEST(Campaign, RecordsEpochCoverageCurve)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 750));
    CampaignStats stats = orchestrator.run();
    ASSERT_EQ(stats.epoch_curve.size(), stats.epochs);
    uint64_t prev_iters = 0, prev_cov = 0;
    for (size_t i = 0; i < stats.epoch_curve.size(); ++i) {
        const auto &sample = stats.epoch_curve[i];
        EXPECT_EQ(sample.epoch, i);
        EXPECT_GE(sample.iterations, prev_iters);
        EXPECT_GE(sample.coverage_points, prev_cov)
            << "coverage growth must be monotone";
        prev_iters = sample.iterations;
        prev_cov = sample.coverage_points;
    }
    EXPECT_EQ(stats.epoch_curve.back().iterations,
              stats.iterations);
    EXPECT_EQ(stats.epoch_curve.back().coverage_points,
              stats.coverage_points);
}

// --- Corpus save -> load -> resume --------------------------------------

TEST(Campaign, CorpusSaveLoadResume)
{
    // First campaign: run and persist the corpus.
    CampaignOptions options = smallCampaign(2, 750);
    CampaignOrchestrator first(options);
    first.run();
    ASSERT_GT(first.corpus().size(), 0u);
    const auto saved = first.corpus().snapshotSorted();

    std::stringstream file;
    ASSERT_TRUE(first.corpus().saveTo(file, options.master_seed));

    campaign::CorpusFile loaded;
    std::string error;
    ASSERT_TRUE(SharedCorpus::loadFrom(file, loaded, &error))
        << error;
    ASSERT_EQ(loaded.entries.size(), saved.size());

    // Resume: preload into a fresh campaign with a different seed.
    CampaignOptions resume_options = smallCampaign(2, 750);
    resume_options.master_seed = 11;
    CampaignOrchestrator second(resume_options);
    EXPECT_EQ(second.preloadCorpus(loaded.entries),
              loaded.entries.size());

    // Preload preserves the saved coverage-gain ordering exactly.
    const auto preloaded = second.corpus().snapshotSorted();
    ASSERT_EQ(preloaded.size(), saved.size());
    for (size_t i = 0; i < preloaded.size(); ++i) {
        EXPECT_EQ(preloaded[i].gain, saved[i].gain);
        EXPECT_EQ(preloaded[i].worker, saved[i].worker);
        EXPECT_EQ(preloaded[i].seq, saved[i].seq);
        EXPECT_EQ(preloaded[i].config, saved[i].config);
    }

    CampaignStats stats = second.run();
    EXPECT_EQ(stats.corpus_preloaded, loaded.entries.size());
    EXPECT_GE(stats.corpus_size, loaded.entries.size());

    // The resumed campaign admits no duplicate seeds: every
    // (worker, seq) identity in the final corpus is unique even
    // though the namesake workers kept offering.
    std::set<std::pair<unsigned, uint64_t>> identities;
    for (const auto &entry : second.corpus().snapshotSorted()) {
        EXPECT_TRUE(
            identities.insert({entry.worker, entry.seq}).second)
            << "duplicate corpus identity (" << entry.worker << ", "
            << entry.seq << ")";
    }
    EXPECT_GT(identities.size(), loaded.entries.size())
        << "resumed campaign should admit fresh entries too";
}

TEST(Campaign, PreloadCountsOnlyRetainedEntries)
{
    // A saved set larger than the corpus retains (8 shards x 64)
    // keeps only its top; dropped entries must not be reported as
    // preloaded.
    CampaignOrchestrator orchestrator(smallCampaign(2, 250));
    // Canonical (gain-desc) order, as loadFrom yields it.
    std::vector<CorpusEntry> entries;
    for (uint64_t seq = 0; seq < 600; ++seq)
        entries.push_back(syntheticEntry(1000 - seq, 0, seq));
    const uint64_t admitted = orchestrator.preloadCorpus(entries);
    EXPECT_EQ(admitted, orchestrator.corpus().size());
    EXPECT_LT(admitted, entries.size());
    EXPECT_LE(admitted, 8u * 64u);
}

// --- Work-stealing scheduler determinism --------------------------------

/** Everything a determinism comparison should look at: the full bug
 *  ledger (keys, provenance, hit counts) and the corpus identity set
 *  (gain, worker, seq, config). */
void
expectSameOutcome(const CampaignOrchestrator &a,
                  const CampaignOrchestrator &b)
{
    auto ea = a.ledger().entries();
    auto eb = b.ledger().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].report.key(), eb[i].report.key());
        EXPECT_EQ(ea[i].worker, eb[i].worker);
        EXPECT_EQ(ea[i].epoch, eb[i].epoch);
        EXPECT_EQ(ea[i].hits, eb[i].hits);
        EXPECT_EQ(ea[i].report.iteration, eb[i].report.iteration);
    }

    auto ka = a.corpus().snapshotKeys();
    auto kb = b.corpus().snapshotKeys();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].gain, kb[i].gain);
        EXPECT_EQ(ka[i].worker, kb[i].worker);
        EXPECT_EQ(ka[i].seq, kb[i].seq);
        EXPECT_EQ(ka[i].config, kb[i].config);
    }

    EXPECT_EQ(a.stats().iterations, b.stats().iterations);
    EXPECT_EQ(a.stats().coverage_points,
              b.stats().coverage_points);
    EXPECT_EQ(a.stats().steals, b.stats().steals);
    EXPECT_EQ(a.stats().seeds_imported,
              b.stats().seeds_imported);
}

TEST(Scheduler, StealingRepeatRunsAreBitIdentical)
{
    // Batch work-stealing changes which thread executes a batch,
    // never what the batch computes, so two 4-worker campaigns with
    // the same master seed yield identical bug ledgers and corpus
    // keys however their threads interleave. test_fuzzer's
    // Fuzzer.RunBatchIsExecutorIndependent checks the per-batch
    // invariant directly, without depending on a steal happening.
    CampaignOptions options = smallCampaign(4, 2000);
    options.batch_iterations = 16;

    CampaignOrchestrator a(options);
    CampaignStats sa = a.run();
    CampaignOrchestrator b(options);
    CampaignStats sb = b.run();

    EXPECT_GT(a.ledger().distinct(), 0u);
    expectSameOutcome(a, b);

    // The scheduler-occupancy counters are the only divergence axis.
    EXPECT_EQ(sa.batches, sb.batches);
    EXPECT_LE(sa.batches_stolen, sa.batches);
    EXPECT_LE(sb.batches_stolen, sb.batches);
}

/** writeJsonl() with the host-timing fields set to 0. */
std::string
deterministicLog(const CampaignOrchestrator &orchestrator)
{
    std::stringstream os;
    orchestrator.writeJsonl(os);
    static const std::regex timing(
        "\"(active_seconds|wall_seconds|iters_per_sec|steal_idle_ns|"
        "batches_stolen)\":[^,}]*");
    return std::regex_replace(os.str(), timing, "\"$1\":0");
}

/** Restores the calling thread's CPU mask on scope exit. */
class AffinityGuard
{
  public:
    AffinityGuard()
    {
        CPU_ZERO(&saved_);
        ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    }
    ~AffinityGuard()
    {
        if (ok_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    AffinityGuard(const AffinityGuard &) = delete;
    AffinityGuard &operator=(const AffinityGuard &) = delete;

    bool ok() const { return ok_; }
    const cpu_set_t &saved() const { return saved_; }

  private:
    cpu_set_t saved_;
    bool ok_ = false;
};

TEST(Scheduler, ExecutorCountNeverChangesCampaign)
{
    // The orchestrator sizes its executor pool from the CPU mask.
    // Pinned to one CPU it runs one thread per shard; with every CPU
    // it adds executors that steal. The campaign log must not notice.
    AffinityGuard guard;
    ASSERT_TRUE(guard.ok());
    const cpu_set_t all = guard.saved();
    if (CPU_COUNT(&all) < 2)
        GTEST_SKIP() << "only one CPU available";
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all)) {
            CPU_SET(cpu, &one);
            break;
        }
    }

    CampaignOptions replicas = smallCampaign(1, 500);
    replicas.batch_iterations = 16;
    CampaignOptions sweep = smallCampaign(2, 1000);
    sweep.policy = ShardPolicy::ConfigSweep;
    sweep.batch_iterations = 16;

    for (const CampaignOptions &options : {replicas, sweep}) {
        ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
        CampaignOrchestrator pinned(options);
        pinned.run();
        ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
        CampaignOrchestrator spread(options);
        spread.run();

        SCOPED_TRACE(options.workers);
        EXPECT_GT(pinned.ledger().distinct(), 0u);
        EXPECT_EQ(pinned.stats().batches_stolen, 0u);
        EXPECT_GT(spread.stats().batches_stolen, 0u);
        EXPECT_EQ(deterministicLog(pinned), deterministicLog(spread));
    }
}

TEST(Campaign, HeadsRepeatRunsAreBitIdentical)
{
    // Work stealing moves batches between threads, never across
    // heads: the kind classes keyed on the head variant keep each
    // stolen batch inside its own subspace, so repeat runs agree.
    CampaignOptions options = smallCampaign(4, 1000);
    options.policy = ShardPolicy::Heads;
    options.batch_iterations = 16;
    CampaignOrchestrator a(options);
    a.run();
    CampaignOrchestrator b(options);
    b.run();
    EXPECT_GT(a.ledger().distinct(), 0u);
    expectSameOutcome(a, b);
}

TEST(Scheduler, TelemetryDoesNotPerturbDeterminism)
{
    // Telemetry is observational only: a fully instrumented campaign
    // (trace capture on, heartbeats streaming) must stay
    // bit-identical to a bare campaign with the same seed.
    CampaignOptions bare = smallCampaign(4, 2000);
    bare.batch_iterations = 16;
    CampaignOrchestrator a(bare);
    a.run();

    obs::resetForTest();
    obs::enableTrace(true);
    CampaignOptions instrumented = bare;
    instrumented.heartbeat_sec = 0.002;
    std::ostringstream heartbeats;
    instrumented.heartbeat_out = &heartbeats;
    CampaignOrchestrator b(instrumented);
    b.run();
    obs::enableTrace(false);
    const auto events = obs::takeTraceEvents();

    expectSameOutcome(a, b);
    EXPECT_NE(heartbeats.str().find("\"type\":\"heartbeat\""),
              std::string::npos);
    EXPECT_FALSE(events.empty());
}

TEST(Scheduler, BatchSizeOneRepeatRunsAreBitIdentical)
{
    // The finest grain exercises the seq/iteration numbering edge
    // cases (one identity range per iteration).
    CampaignOptions options = smallCampaign(2, 400);
    options.batch_iterations = 1;

    CampaignOrchestrator a(options);
    a.run();
    CampaignOrchestrator b(options);
    b.run();
    expectSameOutcome(a, b);
}

TEST(Scheduler, BatchAccountingIsCoherent)
{
    CampaignOptions options = smallCampaign(2, 500);
    options.batch_iterations = 32;
    CampaignOrchestrator orchestrator(options);
    CampaignStats stats = orchestrator.run();

    // 500 iterations at epoch 125 x 2 workers: per epoch each shard
    // plans ceil(125/32) = 4 batches, 2 epochs => 16 batches.
    EXPECT_EQ(stats.batches, 16u);
    EXPECT_LE(stats.batches_stolen, stats.batches);
    EXPECT_EQ(stats.batch_iterations, 32u);
    uint64_t epoch_stolen = 0;
    for (const auto &sample : stats.epoch_curve)
        epoch_stolen += sample.batches_stolen;
    EXPECT_EQ(epoch_stolen, stats.batches_stolen);
}

// --- Checkpoint save -> resume ------------------------------------------

/** Ledger + corpus + fleet-coverage equality — the state a resumed
 *  campaign must share with an uninterrupted one. */
void
expectSameCampaignState(const CampaignOrchestrator &a,
                        const CampaignOrchestrator &b)
{
    auto ea = a.ledger().entries();
    auto eb = b.ledger().entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].report.key(), eb[i].report.key());
        EXPECT_EQ(ea[i].worker, eb[i].worker);
        EXPECT_EQ(ea[i].epoch, eb[i].epoch);
        EXPECT_EQ(ea[i].hits, eb[i].hits);
        EXPECT_EQ(ea[i].report.iteration, eb[i].report.iteration);
        EXPECT_EQ(campaign::hashTestCase(ea[i].repro),
                  campaign::hashTestCase(eb[i].repro))
            << "reproducer mismatch for " << ea[i].report.key();
    }

    auto ka = a.corpus().snapshotKeys();
    auto kb = b.corpus().snapshotKeys();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].gain, kb[i].gain);
        EXPECT_EQ(ka[i].worker, kb[i].worker);
        EXPECT_EQ(ka[i].seq, kb[i].seq);
        EXPECT_EQ(ka[i].config, kb[i].config);
    }

    EXPECT_EQ(a.stats().coverage_points, b.stats().coverage_points);
    EXPECT_EQ(a.stats().steals, b.stats().steals);
}

TEST(Campaign, CheckpointResumeMatchesUninterruptedRun)
{
    // The tentpole property: run 1500 iterations straight through,
    // versus 750 iterations -> checkpoint through the binary
    // snapshot + corpus formats -> resume to 1500 with the same
    // master seed. Ledger (keys, provenance, hit counts,
    // reproducers), corpus identities and fleet coverage must be
    // bit-identical.
    CampaignOrchestrator uninterrupted(smallCampaign(2, 1500));
    uninterrupted.run();
    ASSERT_GT(uninterrupted.ledger().distinct(), 0u);

    CampaignOrchestrator first(smallCampaign(2, 750));
    first.run();

    std::stringstream snap_file(std::ios::in | std::ios::out |
                                std::ios::binary);
    ASSERT_TRUE(campaign::saveCheckpoint(snap_file,
                                         first.makeCheckpoint()));
    campaign::CampaignCheckpoint checkpoint;
    std::string error;
    ASSERT_TRUE(
        campaign::loadCheckpoint(snap_file, checkpoint, &error))
        << error;
    EXPECT_EQ(checkpoint.iterations_done, 750u);

    std::stringstream corpus_file(std::ios::in | std::ios::out |
                                  std::ios::binary);
    ASSERT_TRUE(first.corpus().saveTo(corpus_file, 7));
    campaign::CorpusFile corpus;
    ASSERT_TRUE(SharedCorpus::loadFrom(corpus_file, corpus, &error))
        << error;

    CampaignOrchestrator resumed(smallCampaign(2, 1500));
    ASSERT_TRUE(resumed.restoreCheckpoint(checkpoint, &error))
        << error;
    resumed.restoreCorpus(corpus.entries);
    CampaignStats stats = resumed.run();

    expectSameCampaignState(uninterrupted, resumed);

    // The resumed log accounts only its own half, with the restored
    // provenance carried in the summary fields.
    EXPECT_EQ(stats.iterations, 750u);
    EXPECT_EQ(stats.bugs_restored, checkpoint.ledger.size());
    uint64_t restored_hits = 0;
    for (const auto &record : checkpoint.ledger)
        restored_hits += record.hits;
    EXPECT_EQ(stats.reports_restored, restored_hits);
    EXPECT_GT(stats.coverage_preloaded, 0u);
    EXPECT_EQ(stats.coverage_preloaded,
              first.stats().coverage_points);
}

TEST(Campaign, HeadsCheckpointResumeMatchesUninterruptedRun)
{
    // The head-local coverage groups ("<config>+head=<name>") and
    // per-head corpus tags must survive the snapshot/corpus round
    // trip, or a resumed heads campaign diverges.
    CampaignOptions full = smallCampaign(4, 1000);
    full.policy = ShardPolicy::Heads;
    CampaignOrchestrator uninterrupted(full);
    uninterrupted.run();
    ASSERT_GT(uninterrupted.ledger().distinct(), 0u);

    CampaignOptions half = full;
    half.total_iterations = 500;
    CampaignOrchestrator first(half);
    first.run();

    std::stringstream snap(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(
        campaign::saveCheckpoint(snap, first.makeCheckpoint()));
    campaign::CampaignCheckpoint checkpoint;
    std::string error;
    ASSERT_TRUE(campaign::loadCheckpoint(snap, checkpoint, &error))
        << error;

    CampaignOrchestrator resumed(full);
    ASSERT_TRUE(resumed.restoreCheckpoint(checkpoint, &error))
        << error;
    resumed.restoreCorpus(first.corpus().snapshotSorted());
    resumed.run();

    expectSameCampaignState(uninterrupted, resumed);
}

TEST(Campaign, CheckpointResumePreservesPreloadedEligibility)
{
    // Preloaded corpus entries are stealable by namesake shards; a
    // checkpoint must carry that eligibility set, or a resumed
    // campaign's steal choices diverge from the uninterrupted run.
    CampaignOrchestrator donor(smallCampaign(2, 500));
    donor.run();
    ASSERT_GT(donor.corpus().size(), 0u);
    const auto donated = donor.corpus().snapshotSorted();

    CampaignOptions options = smallCampaign(2, 1500);
    options.master_seed = 21;
    CampaignOrchestrator uninterrupted(options);
    uninterrupted.preloadCorpus(donated);
    uninterrupted.run();

    CampaignOptions half = options;
    half.total_iterations = 750;
    CampaignOrchestrator first(half);
    first.preloadCorpus(donated);
    first.run();

    std::stringstream snap(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(campaign::saveCheckpoint(snap,
                                         first.makeCheckpoint()));
    campaign::CampaignCheckpoint checkpoint;
    std::string error;
    ASSERT_TRUE(campaign::loadCheckpoint(snap, checkpoint, &error))
        << error;
    EXPECT_EQ(checkpoint.preloaded_ids.size(), donated.size());

    CampaignOrchestrator resumed(options);
    ASSERT_TRUE(resumed.restoreCheckpoint(checkpoint, &error))
        << error;
    resumed.restoreCorpus(first.corpus().snapshotSorted());
    resumed.run();

    expectSameCampaignState(uninterrupted, resumed);
}

TEST(Campaign, MinimizedResumeIsSelfDeterministic)
{
    // Minimizing before the save drops corpus entries, so the
    // resumed run may legitimately explore differently than an
    // uninterrupted one (steal selection sees a smaller corpus) —
    // but the minimized directory itself must still resume
    // deterministically: two resumes from the same artifacts are
    // bit-identical.
    CampaignOrchestrator first(smallCampaign(2, 750));
    first.run();
    first.minimizeCorpus();
    const campaign::CampaignCheckpoint cp = first.makeCheckpoint();
    const auto entries = first.corpus().snapshotSorted();

    auto resume = [&]() {
        auto orchestrator = std::make_unique<CampaignOrchestrator>(
            smallCampaign(2, 1500));
        std::string error;
        EXPECT_TRUE(orchestrator->restoreCheckpoint(cp, &error))
            << error;
        orchestrator->restoreCorpus(entries);
        orchestrator->run();
        return orchestrator;
    };
    auto a = resume();
    auto b = resume();
    expectSameCampaignState(*a, *b);
    EXPECT_GT(a->ledger().distinct(), 0u);
}

TEST(Campaign, CheckpointRejectsMismatchedFleet)
{
    CampaignOrchestrator first(smallCampaign(2, 500));
    first.run();
    const campaign::CampaignCheckpoint cp = first.makeCheckpoint();

    std::string error;
    // Wrong worker count.
    CampaignOrchestrator three(smallCampaign(3, 500));
    EXPECT_FALSE(three.restoreCheckpoint(cp, &error));
    EXPECT_FALSE(error.empty());
    // Wrong master seed.
    CampaignOptions other_seed = smallCampaign(2, 500);
    other_seed.master_seed = 99;
    CampaignOrchestrator reseeded(other_seed);
    EXPECT_FALSE(reseeded.restoreCheckpoint(cp, &error));
    // Wrong config group.
    CampaignOptions other_core = smallCampaign(2, 500);
    other_core.master_seed = 7;
    other_core.base_config = uarch::xiangshanMinimalConfig();
    CampaignOrchestrator recored(other_core);
    EXPECT_FALSE(recored.restoreCheckpoint(cp, &error));
}

// --- Corpus minimization ------------------------------------------------

TEST(Corpus, MinimizeDropsContentDuplicates)
{
    SharedCorpus corpus(2, 8);
    CorpusEntry original = syntheticEntry(9, 0, 0);
    // Same content under a different identity: a content duplicate.
    CorpusEntry duplicate = original;
    duplicate.gain = 5;
    duplicate.worker = 1;
    duplicate.seq = 3;
    CorpusEntry distinct = syntheticEntry(7, 0, 1);
    corpus.offer(original);
    corpus.offer(duplicate);
    corpus.offer(distinct);
    ASSERT_EQ(corpus.size(), 3u);
    ASSERT_EQ(campaign::hashTestCase(original.tc),
              campaign::hashTestCase(duplicate.tc));
    ASSERT_NE(campaign::hashTestCase(original.tc),
              campaign::hashTestCase(distinct.tc));

    const SharedCorpus::MinimizeStats stats = corpus.minimize();
    EXPECT_EQ(stats.before, 3u);
    EXPECT_EQ(stats.kept, 2u);
    EXPECT_EQ(stats.duplicates, 1u);
    EXPECT_EQ(stats.subsumed, 0u);

    // The canonical-first (highest-gain) twin survives.
    const auto remaining = corpus.snapshotSorted();
    ASSERT_EQ(remaining.size(), 2u);
    EXPECT_EQ(remaining[0].gain, 9u);
    EXPECT_EQ(remaining[0].worker, 0u);
}

TEST(Campaign, MinimizePreservesCoverageUnion)
{
    CampaignOptions options = smallCampaign(2, 1000);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    ASSERT_GT(orchestrator.corpus().size(), 0u);

    // Reference oracle: each entry's standalone coverage set, from
    // an independent fuzzer of the same (only) config.
    core::FuzzerOptions fopts;
    fopts.record_coverage_curve = false;
    core::Fuzzer oracle(uarch::smallBoomConfig(), fopts);
    auto coverageUnion = [&](const std::vector<CorpusEntry> &entries) {
        std::set<std::pair<uint16_t, uint32_t>> covered;
        for (const CorpusEntry &entry : entries) {
            for (const auto &point :
                 oracle
                     .replayCase(entry.tc,
                                 /*collect_coverage_tuples=*/true)
                     .coverage) {
                covered.insert({point.module_id, point.index});
            }
        }
        return covered;
    };

    const auto before_entries = orchestrator.corpus().snapshotSorted();
    const auto before_union = coverageUnion(before_entries);
    // A vacuously-empty union would make the preservation check
    // meaningless (e.g. if the oracle stopped materializing tuples).
    ASSERT_FALSE(before_union.empty());

    const SharedCorpus::MinimizeStats stats =
        orchestrator.minimizeCorpus();
    EXPECT_EQ(stats.before, before_entries.size());
    EXPECT_EQ(stats.kept, orchestrator.corpus().size());
    EXPECT_EQ(stats.kept + stats.dropped(), stats.before);

    // The distilled corpus still covers every point the full corpus
    // covered — minimization may drop entries, never coverage.
    const auto after_union =
        coverageUnion(orchestrator.corpus().snapshotSorted());
    EXPECT_EQ(after_union, before_union);

    EXPECT_EQ(orchestrator.stats().corpus_minimized,
              stats.dropped());
    EXPECT_EQ(orchestrator.stats().corpus_size, stats.kept);
}

// --- Campaign directory meta --------------------------------------------

TEST(CampaignDir, MetaRoundTripsAndDetectsMismatches)
{
    CampaignOptions options = smallCampaign(2, 750);
    campaign::CampaignMeta meta = campaign::metaFromOptions(options);
    meta.generation = 1; // as saveCampaignDir's first save writes it

    std::stringstream file;
    campaign::writeMeta(file, meta);
    campaign::CampaignMeta loaded;
    std::string error;
    ASSERT_TRUE(campaign::readMeta(file, loaded, &error)) << error;
    EXPECT_TRUE(campaign::metaMismatches(loaded, meta).empty());

    // Every drifted configuration field is called out by name.
    CampaignOptions drifted = options;
    drifted.workers = 4;
    drifted.master_seed = 8;
    drifted.batch_iterations = 64;
    const auto mismatches = campaign::metaMismatches(
        loaded, campaign::metaFromOptions(drifted));
    ASSERT_EQ(mismatches.size(), 3u);
    EXPECT_NE(mismatches[0].find("master_seed"), std::string::npos);
    EXPECT_NE(mismatches[1].find("workers"), std::string::npos);
    EXPECT_NE(mismatches[2].find("batch"), std::string::npos);

    // An older saved format is a mismatch, not an upgrade path.
    campaign::CampaignMeta stale = loaded;
    stale.corpus_version = 1;
    stale.snapshot_version = 1;
    const auto old_formats = campaign::metaMismatches(stale, meta);
    ASSERT_EQ(old_formats.size(), 2u);
    EXPECT_EQ(old_formats[0], "corpus_version: saved 1, current 2");
    EXPECT_EQ(old_formats[1], "snapshot_version: saved 1, current 2");

    // A version-1 meta.json also carried the retired scheduler and
    // corpus-geometry fields (a --corpus-cap 2 save among them). It
    // still parses; the version mismatch is what refuses the resume.
    std::stringstream v1(
        "{\"meta_version\":1,\"corpus_version\":2,"
        "\"snapshot_version\":2,\"master_seed\":7,\"workers\":2,"
        "\"policy\":\"replicas\",\"core\":\"SmallBOOM\",\"epoch\":125,"
        "\"batch\":32,\"steal\":true,\"steals\":1,\"templates\":1,"
        "\"corpus_shards\":8,\"corpus_cap\":2,\"generation\":1}\n");
    ASSERT_TRUE(campaign::readMeta(v1, loaded, &error)) << error;
    const auto v1_mismatches = campaign::metaMismatches(loaded, meta);
    ASSERT_EQ(v1_mismatches.size(), 1u);
    EXPECT_EQ(v1_mismatches[0], "meta_version: saved 1, current 2");

    // Garbage meta fails cleanly.
    std::stringstream bad("{\"meta_version\":1}");
    EXPECT_FALSE(campaign::readMeta(bad, loaded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(CampaignDir, MetaCarriesTheTemplateMask)
{
    CampaignOptions options = smallCampaign(2, 750);
    options.fuzzer.model_mask =
        core::modelBit(core::AttackTemplate::PrivTransition) |
        core::modelBit(core::AttackTemplate::DoubleFetch);

    campaign::CampaignMeta meta = campaign::metaFromOptions(options);
    meta.generation = 1;
    std::stringstream file;
    campaign::writeMeta(file, meta);
    const std::string line = file.str();
    campaign::CampaignMeta loaded;
    std::string error;
    ASSERT_TRUE(campaign::readMeta(file, loaded, &error)) << error;
    EXPECT_EQ(loaded.model_mask, options.fuzzer.model_mask);

    // A resume drawing a different template set is a mismatch named
    // in template names, not raw mask bits.
    const auto mismatches = campaign::metaMismatches(
        loaded,
        campaign::metaFromOptions(smallCampaign(2, 750)));
    ASSERT_EQ(mismatches.size(), 1u);
    EXPECT_NE(mismatches[0].find("templates"), std::string::npos);
    EXPECT_NE(mismatches[0].find("priv-transition,double-fetch"),
              std::string::npos);
    EXPECT_NE(mismatches[0].find("same-domain"), std::string::npos);

    // A meta.json without the templates field is refused, not read
    // as the legacy single model.
    const std::string field = ",\"templates\":12";
    const size_t at = line.find(field);
    ASSERT_NE(at, std::string::npos);
    std::stringstream legacy(std::string(line).erase(at, field.size()));
    EXPECT_FALSE(campaign::readMeta(legacy, loaded, &error));
    EXPECT_NE(error.find("missing field \"templates\""),
              std::string::npos)
        << error;
}

TEST(CampaignDir, MetaRequiresANonZeroGeneration)
{
    campaign::CampaignMeta meta =
        campaign::metaFromOptions(smallCampaign(2, 750));
    meta.generation = 1;
    std::stringstream file;
    campaign::writeMeta(file, meta);
    std::string line = file.str();
    const std::string field = ",\"generation\":1";
    const size_t at = line.find(field);
    ASSERT_NE(at, std::string::npos);
    campaign::CampaignMeta loaded;
    std::string error;

    // No generation field: a directory from before save generations,
    // whose artifacts carry no trailers.
    std::stringstream missing(std::string(line).erase(at, field.size()));
    EXPECT_FALSE(campaign::readMeta(missing, loaded, &error));
    EXPECT_NE(error.find("missing field \"generation\""),
              std::string::npos)
        << error;

    // Generation 0 is never written: every save writes at least 1.
    std::stringstream zero(line.replace(at, field.size(),
                                        ",\"generation\":0"));
    EXPECT_FALSE(campaign::readMeta(zero, loaded, &error));
    EXPECT_NE(error.find("\"generation\" must be at least 1"),
              std::string::npos)
        << error;
}

TEST(CampaignDir, SaveLoadRoundTrip)
{
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_campaign_dir")
            .string();
    std::filesystem::remove_all(dir);
    EXPECT_FALSE(campaign::campaignDirExists(dir));

    CampaignOptions options = smallCampaign(2, 750);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    std::string error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir, orchestrator, options,
                                          &error))
        << error;
    ASSERT_TRUE(campaign::campaignDirExists(dir));

    campaign::LoadedCampaignDir loaded;
    ASSERT_TRUE(campaign::loadCampaignDir(dir, loaded, &error))
        << error;
    EXPECT_TRUE(campaign::metaMismatches(
                    loaded.meta, campaign::metaFromOptions(options))
                    .empty());
    EXPECT_EQ(loaded.corpus.entries.size(),
              orchestrator.corpus().size());
    EXPECT_EQ(loaded.checkpoint.iterations_done, 750u);
    EXPECT_EQ(loaded.checkpoint.ledger.size(),
              orchestrator.ledger().distinct());

    std::filesystem::remove_all(dir);
}

TEST(CampaignDir, RefusesTrailerLessDirectories)
{
    // The layout from before save generations: raw artifacts, a log
    // without a trailer record and a meta.json without a generation.
    // Nothing vouches for those bytes, so the loader refuses them.
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_campaign_dir_raw")
            .string();
    std::filesystem::remove_all(dir);
    CampaignOptions options = smallCampaign(2, 750);
    CampaignOrchestrator orchestrator(options);
    orchestrator.run();
    std::string error;
    ASSERT_TRUE(campaign::saveCampaignDir(dir, orchestrator, options,
                                          &error))
        << error;

    const campaign::CampaignDirPaths paths =
        campaign::campaignDirPaths(dir);
    for (const std::string &path : {paths.corpus, paths.snapshot}) {
        std::string file, payload;
        uint64_t gen = 0;
        ASSERT_TRUE(campaign::readWholeFile(path, file));
        ASSERT_TRUE(campaign::splitTrailer(file, payload, gen));
        ASSERT_TRUE(campaign::atomicWriteFile(path, payload));
    }
    std::string log;
    ASSERT_TRUE(campaign::readWholeFile(paths.log, log));
    const size_t cut = log.rfind("{\"type\":\"trailer\"");
    ASSERT_NE(cut, std::string::npos);
    ASSERT_TRUE(campaign::atomicWriteFile(paths.log, log.substr(0, cut)));
    std::string meta;
    ASSERT_TRUE(campaign::readWholeFile(paths.meta, meta));
    const std::string field = ",\"generation\":1";
    const size_t at = meta.find(field);
    ASSERT_NE(at, std::string::npos);
    ASSERT_TRUE(campaign::atomicWriteFile(
        paths.meta, std::string(meta).erase(at, field.size())));

    campaign::LoadedCampaignDir loaded;
    EXPECT_FALSE(campaign::loadCampaignDir(dir, loaded, &error));
    EXPECT_NE(error.find("missing field \"generation\""),
              std::string::npos)
        << error;
    campaign::CampaignMeta snap_meta;
    campaign::CampaignCheckpoint checkpoint;
    EXPECT_FALSE(campaign::loadCampaignSnapshot(dir, snap_meta,
                                                checkpoint, &error));

    // A meta.json that does name a generation cannot vouch for
    // artifacts without trailers either.
    ASSERT_TRUE(campaign::atomicWriteFile(paths.meta, meta));
    EXPECT_FALSE(campaign::loadCampaignDir(dir, loaded, &error));
    EXPECT_NE(error.find("no complete save generation"),
              std::string::npos)
        << error;

    std::filesystem::remove_all(dir);
}

TEST(CampaignDir, AutosaveDoesNotPerturbTheCampaign)
{
    // Autosaving is observational: a campaign that checkpoints at
    // every epoch barrier must land on exactly the outcome of one
    // that never saves at all, and the directory it leaves behind
    // must hold a complete, loadable latest generation.
    CampaignOrchestrator baseline(smallCampaign(2, 1000));
    baseline.run();
    ASSERT_GT(baseline.ledger().distinct(), 0u);

    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_autosave_dir")
            .string();
    std::filesystem::remove_all(dir);
    CampaignOptions options = smallCampaign(2, 1000);
    options.autosave_sec = 1e-9; // every epoch qualifies
    CampaignOrchestrator saved(options);
    saved.setAutosaveHook([&](std::string *err) {
        return campaign::saveCampaignDir(dir, saved, options, err);
    });
    saved.run();

    expectSameCampaignState(baseline, saved);

    std::string error, note;
    campaign::LoadedCampaignDir loaded;
    ASSERT_TRUE(
        campaign::loadCampaignDir(dir, loaded, &error, &note))
        << error;
    EXPECT_TRUE(note.empty()) << note;
    // Several autosave generations rotated through; only the count
    // monotonicity matters, not the exact cadence.
    EXPECT_GE(loaded.meta.generation, 2u);
    std::filesystem::remove_all(dir);
}

TEST(CampaignDir, ResumeFromAutosavedDirMatchesUninterrupted)
{
    // The crash-recovery path end to end through the directory
    // formats: half a campaign autosaved per epoch (plus its final
    // save), reloaded from disk, resumed to the full budget — and
    // required to be bit-identical to the uninterrupted run.
    CampaignOrchestrator uninterrupted(smallCampaign(2, 1500));
    uninterrupted.run();
    ASSERT_GT(uninterrupted.ledger().distinct(), 0u);

    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         "dvz_autosave_resume_dir")
            .string();
    std::filesystem::remove_all(dir);
    CampaignOptions half = smallCampaign(2, 750);
    half.autosave_sec = 1e-9;
    CampaignOrchestrator first(half);
    first.setAutosaveHook([&](std::string *err) {
        return campaign::saveCampaignDir(dir, first, half, err);
    });
    first.run();
    std::string error;
    ASSERT_TRUE(
        campaign::saveCampaignDir(dir, first, half, &error))
        << error;

    campaign::LoadedCampaignDir loaded;
    ASSERT_TRUE(campaign::loadCampaignDir(dir, loaded, &error))
        << error;
    EXPECT_EQ(loaded.checkpoint.iterations_done, 750u);

    CampaignOrchestrator resumed(smallCampaign(2, 1500));
    ASSERT_TRUE(resumed.restoreCheckpoint(loaded.checkpoint, &error))
        << error;
    resumed.restoreCorpus(loaded.corpus.entries);
    resumed.run();

    expectSameCampaignState(uninterrupted, resumed);
    std::filesystem::remove_all(dir);
}

// --- Corruption robustness ----------------------------------------------

/**
 * Randomized corruption harness: mutate valid bytes (bit flips and
 * truncations) and require every load attempt to return cleanly —
 * false with a diagnostic, or true when the flip happened to land in
 * a don't-care payload byte. Crashing or hanging fails the test.
 */
template <typename LoadFn>
void
corruptionFuzz(const std::string &valid, uint64_t seed,
               const LoadFn &load)
{
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
        std::string bytes = valid;
        const unsigned mode = static_cast<unsigned>(rng.below(3));
        if (mode == 0) {
            bytes.resize(rng.below(bytes.size()));
        } else {
            const unsigned flips = 1 + rng.below(mode == 1 ? 1 : 8);
            for (unsigned f = 0; f < flips; ++f) {
                const size_t pos = rng.below(bytes.size());
                bytes[pos] = static_cast<char>(
                    static_cast<uint8_t>(bytes[pos]) ^
                    (uint8_t{1} << rng.below(8)));
            }
        }
        std::stringstream stream(bytes, std::ios::in |
                                            std::ios::binary);
        std::string error;
        const bool ok = load(stream, error);
        if (!ok) {
            EXPECT_FALSE(error.empty())
                << "failed load must carry a diagnostic";
        }
    }
}

TEST(CorpusIo, RandomCorruptionNeverCrashesTheLoader)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 750));
    orchestrator.run();
    ASSERT_GT(orchestrator.corpus().size(), 0u);
    std::stringstream file(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(orchestrator.corpus().saveTo(file, 7));

    corruptionFuzz(file.str(), 0xc0bb5,
                   [](std::istream &is, std::string &error) {
                       campaign::CorpusFile out;
                       return SharedCorpus::loadFrom(is, out,
                                                     &error);
                   });
}

TEST(CorpusIo, TrailerMakesCorruptionDetectionCertain)
{
    // The raw loaders above may accept a flip in a don't-care byte;
    // a trailered artifact may not: CRC-32 catches every 1-bit
    // payload error and every truncation, so each such mutation
    // must be rejected — this is what lets the campaign-dir loader
    // trust "trailer validates" as "artifact payload is whole".
    // (The generation and pad fields of the trailer itself are
    // outside the CRC; the loader cross-checks the generation
    // against meta.json instead.)
    CampaignOrchestrator orchestrator(smallCampaign(2, 750));
    orchestrator.run();
    std::stringstream file(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(orchestrator.corpus().saveTo(file, 7));
    const std::string valid = campaign::withTrailer(file.str(), 3);
    const size_t payload_size = valid.size() - campaign::kTrailerBytes;

    Rng rng(0x7ea11e5);
    for (int trial = 0; trial < 300; ++trial) {
        std::string bytes = valid;
        if (rng.below(2) == 0) {
            bytes.resize(rng.below(bytes.size()));
        } else {
            const size_t pos = rng.below(payload_size);
            bytes[pos] = static_cast<char>(
                static_cast<uint8_t>(bytes[pos]) ^
                (uint8_t{1} << rng.below(8)));
        }
        std::string payload, error;
        uint64_t gen = 0;
        EXPECT_FALSE(
            campaign::splitTrailer(bytes, payload, gen, &error))
            << "trial " << trial;
        EXPECT_FALSE(error.empty());
    }
}

TEST(Snapshot, RandomCorruptionNeverCrashesTheLoader)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 750));
    orchestrator.run();
    ASSERT_GT(orchestrator.ledger().distinct(), 0u);
    std::stringstream file(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(campaign::saveCheckpoint(
        file, orchestrator.makeCheckpoint()));

    corruptionFuzz(file.str(), 0x54a95,
                   [](std::istream &is, std::string &error) {
                       campaign::CampaignCheckpoint out;
                       return campaign::loadCheckpoint(is, out,
                                                       &error);
                   });
}

TEST(Snapshot, CheckpointSurvivesBinaryRoundTripExactly)
{
    CampaignOrchestrator orchestrator(smallCampaign(2, 750));
    orchestrator.run();
    const campaign::CampaignCheckpoint original =
        orchestrator.makeCheckpoint();

    std::stringstream file(std::ios::in | std::ios::out |
                           std::ios::binary);
    ASSERT_TRUE(campaign::saveCheckpoint(file, original));
    campaign::CampaignCheckpoint loaded;
    std::string error;
    ASSERT_TRUE(campaign::loadCheckpoint(file, loaded, &error))
        << error;

    EXPECT_EQ(loaded.master_seed, original.master_seed);
    EXPECT_EQ(loaded.iterations_done, original.iterations_done);
    EXPECT_EQ(loaded.epochs_done, original.epochs_done);
    EXPECT_EQ(loaded.steals, original.steals);
    EXPECT_EQ(loaded.steal_rng, original.steal_rng);
    ASSERT_EQ(loaded.groups.size(), original.groups.size());
    for (size_t g = 0; g < loaded.groups.size(); ++g) {
        EXPECT_EQ(loaded.groups[g].config,
                  original.groups[g].config);
        ASSERT_EQ(loaded.groups[g].modules.size(),
                  original.groups[g].modules.size());
        for (size_t m = 0; m < loaded.groups[g].modules.size();
             ++m) {
            EXPECT_EQ(loaded.groups[g].modules[m].words,
                      original.groups[g].modules[m].words);
        }
    }
    ASSERT_EQ(loaded.shards.size(), original.shards.size());
    for (size_t s = 0; s < loaded.shards.size(); ++s) {
        EXPECT_EQ(loaded.shards[s].next_batch,
                  original.shards[s].next_batch);
        EXPECT_EQ(loaded.shards[s].stolen,
                  original.shards[s].stolen);
        EXPECT_EQ(loaded.shards[s].pending_inject.size(),
                  original.shards[s].pending_inject.size());
    }
    ASSERT_EQ(loaded.ledger.size(), original.ledger.size());
    for (size_t b = 0; b < loaded.ledger.size(); ++b) {
        EXPECT_EQ(loaded.ledger[b].report.key(),
                  original.ledger[b].report.key());
        EXPECT_EQ(loaded.ledger[b].hits, original.ledger[b].hits);
        EXPECT_EQ(loaded.ledger[b].config,
                  original.ledger[b].config);
        EXPECT_EQ(campaign::hashTestCase(loaded.ledger[b].repro),
                  campaign::hashTestCase(original.ledger[b].repro));
    }
}

TEST(Snapshot, RejectsV1Files)
{
    // With no test cases embedded (no pending seeds, empty ledger), a
    // v1 snapshot differs from v2 only in the version field after the
    // 8-byte magic. The loader must refuse it by name.
    campaign::CampaignCheckpoint cp;
    cp.master_seed = 5;
    cp.steal_rng = {1, 2, 3, 4};
    std::stringstream v2_file;
    ASSERT_TRUE(campaign::saveCheckpoint(v2_file, cp));
    std::string bytes = v2_file.str();
    bytes[8] = 1;
    bytes[9] = bytes[10] = bytes[11] = 0;

    std::stringstream v1_file(bytes, std::ios::in | std::ios::binary);
    campaign::CampaignCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(campaign::loadCheckpoint(v1_file, loaded, &error));
    EXPECT_NE(error.find("unsupported snapshot version 1"),
              std::string::npos)
        << error;
}

TEST(Campaign, SingleWorkerResumeInjectsSavedSeeds)
{
    // A saved corpus authored by worker 0 must be injectable into a
    // 1-worker resumed campaign (the namesake-worker case).
    CampaignOptions options = smallCampaign(1, 500);
    CampaignOrchestrator first(options);
    first.run();
    ASSERT_GT(first.corpus().size(), 0u);
    std::stringstream file;
    ASSERT_TRUE(first.corpus().saveTo(file, options.master_seed));
    campaign::CorpusFile loaded;
    ASSERT_TRUE(SharedCorpus::loadFrom(file, loaded));

    CampaignOptions resume_options = smallCampaign(1, 500);
    resume_options.master_seed = 13;
    CampaignOrchestrator second(resume_options);
    second.preloadCorpus(loaded.entries);
    CampaignStats stats = second.run();
    EXPECT_GT(stats.steals, 0u)
        << "preloaded entries should be stolen by the lone worker";
    EXPECT_GT(stats.seeds_imported, 0u);
}

} // namespace
} // namespace dejavuzz
