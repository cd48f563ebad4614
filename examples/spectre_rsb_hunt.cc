/**
 * @file
 * Domain scenario: hunt return-address-misprediction (Spectre-RSB
 * family) windows with the full three-phase pipeline on BOOM, and
 * show the Phantom-RSB (B2) below-TOS corruption being found and
 * disappearing on a fixed core.
 *
 *   ./examples/spectre_rsb_hunt
 */

#include <cstdio>

#include "core/fuzzer.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "uarch/config.hh"

using namespace dejavuzz;
using core::TriggerKind;

namespace {

void
hunt(const uarch::CoreConfig &cfg, const char *label)
{
    std::printf("\n--- %s ---\n", label);
    harness::DualSim sim(cfg);
    core::StimGen gen(cfg);
    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    ift::TaintCoverage coverage;
    auto ids = uarch::Core::registerModules(coverage, cfg);
    core::Phase1 phase1(sim, options);
    core::Phase2 phase2(sim, options, coverage, ids, gen);
    core::Phase3 phase3(sim, options, gen);

    Rng rng(0x5b5b);
    unsigned windows = 0;
    unsigned ras_leaks = 0;
    unsigned other_leaks = 0;
    for (unsigned i = 0; i < 60; ++i) {
        core::Seed seed =
            gen.newSeed(rng, i, TriggerKind::ReturnMispredict);
        core::TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        ++windows;
        gen.completeWindow(tc);
        for (int m = 0; m < 4; ++m) {
            auto explored = phase2.run(tc);
            if (explored.window_ok && explored.taint_propagated) {
                auto verdict = phase3.run(tc, explored, true);
                if (verdict.leak && verdict.report.has_value()) {
                    if (verdict.report->components.count("ras") != 0)
                        ++ras_leaks;
                    else
                        ++other_leaks;
                }
            }
            gen.mutateWindow(tc, rng.next());
        }
    }
    std::printf("return windows triggered: %u\n", windows);
    std::printf("leaks with a live tainted RAS entry (Phantom-RSB"
                " signature): %u\n", ras_leaks);
    std::printf("other leaks through return windows: %u\n",
                other_leaks);
}

} // namespace

int
main()
{
    std::printf("Hunting Spectre-RSB / Phantom-RSB on BOOM\n");

    hunt(uarch::smallBoomConfig(),
         "BOOM with B2 (partial RAS restore)");

    uarch::CoreConfig fixed = uarch::smallBoomConfig();
    fixed.bug_b2_ras_partial_restore = false;
    hunt(fixed, "BOOM with the B2 fix (full RAS restore)");

    std::printf("\nexpected: the fixed core shows no live tainted RAS"
                " entries.\n");
    return 0;
}
