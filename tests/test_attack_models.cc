/**
 * @file
 * Attack-model template layer tests: the privilege-transition and
 * double-fetch scenario classes, the supervisor victim placement, the
 * PMP guard block, and the determinism/replay contracts for seeds
 * drawn under non-default model masks.
 */

#include <gtest/gtest.h>

#include "bench/poc_suite.hh"
#include "core/fuzzer.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "swapmem/memory.hh"
#include "uarch/config.hh"

namespace dejavuzz {
namespace {

using core::AttackModel;
using core::AttackTemplate;
using core::AttackType;
using core::Fuzzer;
using core::FuzzerOptions;
using core::Seed;
using core::StimGen;
using core::TestCase;
using core::TriggerKind;
using swapmem::AccessKind;
using swapmem::Memory;
using swapmem::SecretProt;

// --- memory-level mechanics ------------------------------------------------

TEST(PmpGuard, DeniedBelowMachineMode)
{
    Memory mem;
    EXPECT_EQ(mem.check(swapmem::kPmpGuardAddr, 8, AccessKind::Load,
                        isa::Priv::U),
              isa::ExcCause::LoadAccessFault);
    EXPECT_EQ(mem.check(swapmem::kPmpGuardAddr, 8, AccessKind::Store,
                        isa::Priv::U),
              isa::ExcCause::StoreAccessFault);
    EXPECT_EQ(mem.check(swapmem::kPmpGuardAddr, 8, AccessKind::Load,
                        isa::Priv::M),
              isa::ExcCause::None);
    // The guard is independent of the secret protection state.
    mem.setSecretProt(SecretProt::Open);
    EXPECT_EQ(mem.check(swapmem::kPmpGuardAddr, 8, AccessKind::Load,
                        isa::Priv::U),
              isa::ExcCause::LoadAccessFault);
}

TEST(SupervisorVictim, SecretPageFaultsForUser)
{
    Memory mem;
    mem.setVictimSupervisor(true);
    // Page fault dominates the PMP flavour: the walk fails first.
    mem.setSecretProt(SecretProt::Pmp);
    EXPECT_EQ(mem.check(swapmem::kSecretAddr, 8, AccessKind::Load,
                        isa::Priv::U),
              isa::ExcCause::LoadPageFault);
    EXPECT_EQ(mem.check(swapmem::kSecretAddr, 8, AccessKind::Load,
                        isa::Priv::M),
              isa::ExcCause::None);
    mem.setVictimSupervisor(false);
    EXPECT_EQ(mem.check(swapmem::kSecretAddr, 8, AccessKind::Load,
                        isa::Priv::U),
              isa::ExcCause::LoadAccessFault);
}

TEST(SecretSwap, IdempotentAndUndoCovered)
{
    Memory mem;
    uint8_t secret[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.installSecret(secret, sizeof(secret));
    uint8_t v1 = mem.byte(swapmem::kSecretAddr);

    mem.beginUndo();
    mem.applySecretSwap();
    EXPECT_TRUE(mem.secretSwapped());
    EXPECT_EQ(mem.byte(swapmem::kSecretAddr), v1 ^ 0x5a);
    // A second application is a no-op (Phase-3 fused reload path).
    mem.applySecretSwap();
    EXPECT_EQ(mem.byte(swapmem::kSecretAddr), v1 ^ 0x5a);
    // Speculative rollback restores the pre-swap bytes and flag.
    mem.rollbackUndo();
    EXPECT_EQ(mem.byte(swapmem::kSecretAddr), v1);
    EXPECT_FALSE(mem.secretSwapped());
}

TEST(SecretSwap, ResetAndCopyCarryFlags)
{
    Memory a;
    a.setVictimSupervisor(true);
    a.applySecretSwap();
    Memory b;
    b.copyFrom(a);
    EXPECT_TRUE(b.victimSupervisor());
    EXPECT_TRUE(b.secretSwapped());
    b.reset();
    EXPECT_FALSE(b.victimSupervisor());
    EXPECT_FALSE(b.secretSwapped());
}

// --- seed drawing under masks ----------------------------------------------

TEST(AttackModels, LegacyMaskDrawsOnlySameDomain)
{
    StimGen gen(uarch::smallBoomConfig());
    Rng rng(321);
    for (unsigned i = 0; i < 64; ++i) {
        Seed seed = gen.newSeed(rng, i);
        EXPECT_EQ(seed.model.tmpl, AttackTemplate::SameDomain);
        EXPECT_LT(static_cast<unsigned>(seed.trigger),
                  core::kLegacyTriggerKinds);
    }
}

TEST(AttackModels, TemplateMasksRestrictTriggers)
{
    StimGen gen(uarch::smallBoomConfig());
    Rng rng(99);
    for (unsigned i = 0; i < 64; ++i) {
        Seed seed = gen.newSeed(rng, i, TriggerKind::kCount,
                                core::kAllTriggerMask,
                                core::kAllModelMask);
        uint32_t allowed = core::templateTriggerMask(seed.model.tmpl);
        EXPECT_NE(allowed & core::triggerBit(seed.trigger), 0u)
            << core::attackTemplateName(seed.model.tmpl) << " drew "
            << core::triggerKindName(seed.trigger);
        switch (seed.model.tmpl) {
          case AttackTemplate::MeltdownSupervisor:
            EXPECT_TRUE(seed.model.supervisor_victim);
            EXPECT_EQ(seed.model.victim, isa::Priv::S);
            EXPECT_TRUE(seed.window.meltdown);
            break;
          case AttackTemplate::PrivTransition:
            EXPECT_EQ(seed.model.victim, isa::Priv::M);
            break;
          default:
            EXPECT_FALSE(seed.model.supervisor_victim);
            break;
        }
    }
}

TEST(AttackModels, AccessFaultMeltdownDecoupled)
{
    // Satellite fix: LoadAccessFault no longer force-sets meltdown.
    StimGen gen(uarch::smallBoomConfig());
    Rng rng(7);
    bool saw_meltdown = false;
    bool saw_spectre = false;
    for (unsigned i = 0; i < 64; ++i) {
        Seed seed =
            gen.newSeed(rng, i, TriggerKind::LoadAccessFault);
        (seed.window.meltdown ? saw_meltdown : saw_spectre) = true;
        if (seed.window.meltdown)
            EXPECT_EQ(seed.window.prot, SecretProt::Pmp);
        else
            EXPECT_EQ(seed.window.prot, SecretProt::Open);
    }
    EXPECT_TRUE(saw_meltdown);
    EXPECT_TRUE(saw_spectre);
}

TEST(AttackModels, ScheduleCarriesModelFlags)
{
    StimGen gen(uarch::smallBoomConfig());
    Rng rng(55);
    Seed seed = gen.newSeed(rng, 0, TriggerKind::BranchMispredict,
                            core::kAllTriggerMask,
                            core::modelBit(AttackTemplate::DoubleFetch));
    EXPECT_EQ(seed.model.tmpl, AttackTemplate::DoubleFetch);
    TestCase tc = gen.generatePhase1(seed);
    EXPECT_TRUE(tc.schedule.double_fetch);
    EXPECT_FALSE(tc.schedule.victim_supervisor);
    // Reduction keeps the flags.
    EXPECT_TRUE(tc.schedule.without(0).double_fetch);

    Seed sup = gen.newSeed(
        rng, 1, TriggerKind::kCount, core::kAllTriggerMask,
        core::modelBit(AttackTemplate::MeltdownSupervisor));
    EXPECT_EQ(sup.trigger, TriggerKind::LoadPageFault);
    TestCase sup_tc = gen.generatePhase1(sup);
    EXPECT_TRUE(sup_tc.schedule.victim_supervisor);
}

// --- end-to-end bug discovery per template ---------------------------------

/** Run a small campaign restricted to @p model_mask and return the
 *  attack types of the bugs it found. */
std::set<AttackType>
campaignAttacks(uint32_t model_mask, uint64_t master_seed,
                uint64_t iters = 400)
{
    FuzzerOptions options;
    options.master_seed = master_seed;
    options.trigger_mask = core::kAllTriggerMask;
    options.model_mask = model_mask;
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.runUntilFirstBug(iters);
    std::set<AttackType> attacks;
    for (const auto &bug : fuzzer.stats().bugs)
        attacks.insert(bug.attack);
    return attacks;
}

TEST(AttackModels, PrivTransitionCampaignFindsPrivTransitionBug)
{
    auto attacks = campaignAttacks(
        core::modelBit(AttackTemplate::PrivTransition), 13);
    ASSERT_FALSE(attacks.empty());
    EXPECT_TRUE(attacks.count(AttackType::PrivTransition));
}

TEST(AttackModels, DoubleFetchCampaignFindsDoubleFetchBug)
{
    auto attacks = campaignAttacks(
        core::modelBit(AttackTemplate::DoubleFetch), 17);
    ASSERT_FALSE(attacks.empty());
    EXPECT_TRUE(attacks.count(AttackType::DoubleFetch));
}

TEST(AttackModels, SupervisorCampaignFindsMeltdownBug)
{
    auto attacks = campaignAttacks(
        core::modelBit(AttackTemplate::MeltdownSupervisor), 19);
    ASSERT_FALSE(attacks.empty());
    EXPECT_TRUE(attacks.count(AttackType::Meltdown));
}

TEST(AttackModels, BaselineNeverReportsNewAttackClasses)
{
    // The implicit single-model baseline cannot classify a bug as
    // privilege-transition or double-fetch - the acceptance split the
    // multi-head campaign is measured against.
    FuzzerOptions options;
    options.master_seed = 11;
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    fuzzer.run(300);
    for (const auto &bug : fuzzer.stats().bugs) {
        EXPECT_NE(bug.attack, AttackType::PrivTransition);
        EXPECT_NE(bug.attack, AttackType::DoubleFetch);
    }
}

TEST(AttackModels, MaskedCampaignDeterministic)
{
    FuzzerOptions options;
    options.master_seed = 23;
    options.trigger_mask = core::kAllTriggerMask;
    options.model_mask = core::kAllModelMask;
    Fuzzer a(uarch::smallBoomConfig(), options);
    Fuzzer b(uarch::smallBoomConfig(), options);
    a.run(120);
    b.run(120);
    EXPECT_EQ(a.stats().coverage_points, b.stats().coverage_points);
    EXPECT_EQ(a.stats().windows_triggered,
              b.stats().windows_triggered);
    ASSERT_EQ(a.stats().bugs.size(), b.stats().bugs.size());
    for (size_t i = 0; i < a.stats().bugs.size(); ++i)
        EXPECT_EQ(a.stats().bugs[i].key(), b.stats().bugs[i].key());
}

TEST(AttackModels, PrivTransitionBugReplays)
{
    FuzzerOptions options;
    options.master_seed = 13;
    options.trigger_mask = core::kAllTriggerMask;
    options.model_mask =
        core::modelBit(AttackTemplate::PrivTransition);
    Fuzzer fuzzer(uarch::smallBoomConfig(), options);
    Fuzzer::BatchSpec spec;
    spec.rng_seed = 13;
    spec.iterations = 400;
    ift::TaintCoverage baseline;
    uarch::Core::registerModules(baseline,
                                 uarch::smallBoomConfig());
    spec.baseline = &baseline;
    auto batch = fuzzer.runBatch(spec);
    ASSERT_FALSE(batch.bugs.empty());
    ASSERT_EQ(batch.bugs.size(), batch.bug_cases.size());

    Fuzzer replayer(uarch::smallBoomConfig(), options);
    auto outcome = replayer.replayCase(batch.bug_cases[0]);
    ASSERT_TRUE(outcome.report.has_value());
    EXPECT_EQ(outcome.report->key(), batch.bugs[0].key());
}

// --- hand-written scenario PoCs --------------------------------------------

harness::DualResult
runPoc(const bench::Poc &poc)
{
    harness::DualSim sim(uarch::smallBoomConfig());
    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.taint_log = true;
    options.sinks = true;
    return sim.runDual(poc.schedule, poc.data, options);
}

size_t
dcacheLiveTainted(const harness::DutResult &dut)
{
    for (const auto &sink : dut.sinks) {
        if (sink.module() == "dcache")
            return sink.liveTaintedEntries();
    }
    return 0;
}

const uarch::SquashRec *
findSquash(const uarch::TraceLog &trace, uarch::SquashCause cause)
{
    for (const auto &squash : trace.squashes) {
        if (squash.cause == cause && squash.flushed > 0)
            return &squash;
    }
    return nullptr;
}

TEST(ScenarioPocs, PrivEcallLeaksInTrapShadow)
{
    auto result = runPoc(bench::privEcall());
    ASSERT_TRUE(result.dut0.completed);
    const auto *window =
        findSquash(result.dut0.trace, uarch::SquashCause::Exception);
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->exc, isa::ExcCause::EcallU);
    EXPECT_GT(window->transient_executed, 2u)
        << "payload must execute inside the ecall trap shadow";
    EXPECT_GT(result.dut0.taint_log.finalTaintSum(), 0u);
    EXPECT_GE(dcacheLiveTainted(result.dut0), 2u)
        << "secret line + encode line must survive the flush";
}

TEST(ScenarioPocs, PrivReturnLeaksUnderStaleMachineMode)
{
    auto result = runPoc(bench::privReturn());
    ASSERT_TRUE(result.dut0.completed);
    const auto *window = findSquash(result.dut0.trace,
                                    uarch::SquashCause::PrivReturn);
    ASSERT_NE(window, nullptr);
    EXPECT_GT(window->transient_executed, 2u)
        << "payload must execute before the mret commit flush";
    EXPECT_GT(result.dut0.taint_log.finalTaintSum(), 0u);
    EXPECT_GE(dcacheLiveTainted(result.dut0), 2u);
}

TEST(ScenarioPocs, DoubleFetchObservesSwappedSecret)
{
    auto result = runPoc(bench::doubleFetch());
    ASSERT_TRUE(result.dut0.completed);
    const auto *window = findSquash(
        result.dut0.trace, uarch::SquashCause::BranchMispredict);
    ASSERT_NE(window, nullptr);
    EXPECT_GT(window->transient_executed, 2u);
    EXPECT_GT(result.dut0.taint_log.finalTaintSum(), 0u);
    EXPECT_GE(dcacheLiveTainted(result.dut0), 2u);
}

TEST(ScenarioPocs, MeltdownSupervisorPageFaultForwards)
{
    auto result = runPoc(bench::meltdownSupervisor());
    ASSERT_TRUE(result.dut0.completed);
    const auto *window =
        findSquash(result.dut0.trace, uarch::SquashCause::Exception);
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->exc, isa::ExcCause::LoadPageFault)
        << "supervisor placement must fail the walk, not the PMP";
    EXPECT_GT(window->transient_executed, 0u);
    EXPECT_GT(result.dut0.taint_log.finalTaintSum(), 0u);
    EXPECT_GE(dcacheLiveTainted(result.dut0), 2u);
}

TEST(ScenarioPocs, ScenarioSuiteDeterministicAcrossReruns)
{
    for (const auto &poc : bench::scenarioPocSuite()) {
        auto a = runPoc(poc);
        auto b = runPoc(poc);
        EXPECT_EQ(a.dut0.timing_hash, b.dut0.timing_hash) << poc.name;
        EXPECT_EQ(a.dut0.state_hash, b.dut0.state_hash) << poc.name;
        EXPECT_EQ(a.dut0.cycles, b.dut0.cycles) << poc.name;
    }
}

} // namespace
} // namespace dejavuzz
