/**
 * @file
 * Figure 7: taint-coverage growth over fuzzing iterations on BOOM,
 * for DejaVuzz, the DejaVuzz- no-feedback ablation, and SpecDoctor
 * (whose differential test cases are replayed under diffIFT so its
 * exploration is scored with the same coverage metric).
 *
 * Paper shape: DejaVuzz ends ~4.7x above SpecDoctor and ~1.2x above
 * DejaVuzz-, and reaches SpecDoctor's saturation point within a few
 * hundred iterations.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baseline/specdoctor.hh"
#include "bench/bench_util.hh"
#include "core/fuzzer.hh"
#include "uarch/config.hh"
#include "util/stats.hh"

using namespace dejavuzz;

namespace {

std::vector<uint64_t>
padCurve(std::vector<uint64_t> curve, uint64_t iters)
{
    uint64_t last = curve.empty() ? 0 : curve.back();
    curve.resize(iters, last);
    return curve;
}

/** Mean/CI across trials at sampled iteration points. */
void
printCurves(const char *name,
            const std::vector<std::vector<uint64_t>> &trials,
            uint64_t iters)
{
    std::printf("%s (final per trial:", name);
    for (const auto &trial : trials)
        std::printf(" %lu", static_cast<unsigned long>(trial.back()));
    std::printf(")\n");
    std::printf("  iter,mean,ci95\n");
    for (uint64_t at = 0; at <= iters; at += iters / 10) {
        uint64_t index = at == 0 ? 0 : at - 1;
        RunningStat stat;
        for (const auto &trial : trials)
            stat.add(static_cast<double>(trial[index]));
        std::printf("  %lu,%.1f,%.1f\n",
                    static_cast<unsigned long>(at), stat.mean(),
                    stat.ci95());
    }
}

double
finalMean(const std::vector<std::vector<uint64_t>> &trials)
{
    RunningStat stat;
    for (const auto &trial : trials)
        stat.add(static_cast<double>(trial.back()));
    return stat.mean();
}

} // namespace

int
main()
{
    uint64_t iters = bench::envKnob("DEJAVUZZ_FIG7_ITERS", 2000);
    uint64_t trials = bench::envKnob("DEJAVUZZ_FIG7_TRIALS", 3);
    auto cfg = uarch::smallBoomConfig();

    bench::banner("Figure 7: taint coverage over iterations (BOOM)");
    std::printf("(%lu iterations x %lu trials; paper: 20000 x 5)\n",
                static_cast<unsigned long>(iters),
                static_cast<unsigned long>(trials));

    std::vector<std::vector<uint64_t>> dejavuzz_trials;
    std::vector<std::vector<uint64_t>> minus_trials;
    std::vector<std::vector<uint64_t>> sd_trials;

    for (uint64_t trial = 0; trial < trials; ++trial) {
        // DejaVuzz.
        core::FuzzerOptions options;
        options.master_seed = 1000 + trial;
        core::Fuzzer dejavuzz(cfg, options);
        dejavuzz.run(iters);
        dejavuzz_trials.push_back(
            padCurve(dejavuzz.stats().coverage_curve, iters));

        // DejaVuzz-: no coverage feedback (blind window mutation).
        core::FuzzerOptions minus_options = options;
        minus_options.coverage_feedback = false;
        core::Fuzzer minus(cfg, minus_options);
        minus.run(iters);
        minus_trials.push_back(
            padCurve(minus.stats().coverage_curve, iters));

        // SpecDoctor: replay its phase-3 stimuli under diffIFT and
        // score the same taint-coverage matrix.
        ift::TaintCoverage sd_coverage;
        auto ids = uarch::Core::registerModules(sd_coverage, cfg);
        harness::DualSim replay_sim(cfg);
        std::vector<uint64_t> sd_curve;
        baseline::SpecDoctor::Options sd_options;
        sd_options.master_seed = 2000 + trial;
        baseline::SpecDoctor specdoctor(cfg, sd_options);
        specdoctor.replay_hook = [&](const swapmem::SwapSchedule &sched,
                                     const harness::StimulusData &data) {
            harness::SimOptions sim_options;
            sim_options.mode = ift::IftMode::DiffIFT;
            sim_options.taint_log = true;
            auto result = replay_sim.runDual(sched, data, sim_options);
            const auto &log = result.dut0.taint_log;
            log.inEffect(0, UINT64_MAX,
                         [&](const ift::TaintLogCycle &rec, uint64_t,
                             uint64_t) {
                             for (const auto *sample = log.samplesBegin(rec);
                                  sample != log.samplesEnd(rec); ++sample) {
                                 sd_coverage.sample(ids[sample->module_id],
                                                    sample->tainted_regs);
                             }
                         });
        };
        for (uint64_t i = 0; i < iters; ++i) {
            specdoctor.run(1);
            sd_curve.push_back(sd_coverage.points());
        }
        sd_trials.push_back(std::move(sd_curve));
    }

    printCurves("DejaVuzz", dejavuzz_trials, iters);
    printCurves("DejaVuzz-", minus_trials, iters);
    printCurves("SpecDoctor", sd_trials, iters);

    double dv = finalMean(dejavuzz_trials);
    double dv_minus = finalMean(minus_trials);
    double sd = finalMean(sd_trials);
    std::printf("\nfinal coverage: DejaVuzz=%.0f DejaVuzz-=%.0f"
                " SpecDoctor=%.0f\n", dv, dv_minus, sd);
    if (sd > 0) {
        std::printf("DejaVuzz / SpecDoctor = %.2fx (paper: 4.7x)\n",
                    dv / sd);
    }
    if (dv_minus > 0) {
        std::printf("DejaVuzz / DejaVuzz-  = %.2fx (paper: 1.22x)\n",
                    dv / dv_minus);
    }

    // Iterations for DejaVuzz to reach SpecDoctor's saturation.
    if (!dejavuzz_trials.empty() && sd > 0) {
        const auto &curve = dejavuzz_trials[0];
        for (uint64_t i = 0; i < curve.size(); ++i) {
            if (static_cast<double>(curve[i]) >= sd) {
                std::printf("DejaVuzz reaches SpecDoctor saturation at"
                            " iteration %lu (paper: 118)\n",
                            static_cast<unsigned long>(i + 1));
                break;
            }
        }
    }
    return 0;
}
