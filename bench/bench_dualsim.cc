/**
 * @file
 * Differential-harness throughput: lockstep diffIFT `runDual` on the
 * multi-packet PoC suite.
 *
 * The plain variant is the Phase-3-style configuration (sinks only);
 * the TaintLog variant measures the Phase-2 configuration, where
 * per-cycle taint sampling adds a fixed cost.
 *
 * Each variant also reports how many times each telemetry primitive
 * runs per DUT cycle (`<primitive>_per_cycle`). Those counts are
 * deterministic; scripts/telemetry_gate.py prices them with
 * `bench_micro`'s BM_TelemetryPrimitives and gates the sum at 2% of
 * the benchmark's own time per DUT cycle.
 */

#include <benchmark/benchmark.h>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "obs/telemetry.hh"
#include "uarch/config.hh"
#include "util/logging.hh"

using namespace dejavuzz;

namespace {

/**
 * Reports each telemetry primitive's calls per DUT cycle since
 * @p before. Counters that add one per call count their own calls;
 * the three that add a quantity are called a fixed number of times per
 * runDual (Simulations once, TaintTransitions once per lane,
 * FusedLaneCycles at most once), so they are charged per run.
 * ModuleTaintNs is the sampled span, and its weighted count is its
 * call count. Every other histogram's count is priced as a ScopedSpan,
 * which costs at least a bare histRecord.
 */
void
reportPrimitiveCalls(benchmark::State &state,
                     const obs::TelemetrySnapshot &before,
                     uint64_t runs, uint64_t cycles)
{
    using obs::Ctr;
    using obs::Hist;
    const obs::TelemetrySnapshot after = obs::snapshot();
    uint64_t counter_add = 4 * runs;
    for (unsigned i = 0; i < obs::kNumCtrs; ++i) {
        const auto c = static_cast<Ctr>(i);
        if (c != Ctr::Simulations && c != Ctr::TaintTransitions &&
            c != Ctr::FusedLaneCycles)
            counter_add += after.counter(c) - before.counter(c);
    }
    uint64_t sampled_span = 0;
    uint64_t scoped_span = 0;
    for (unsigned i = 0; i < obs::kNumHists; ++i) {
        const auto h = static_cast<Hist>(i);
        const uint64_t calls = after.hist(h).count - before.hist(h).count;
        (h == Hist::ModuleTaintNs ? sampled_span : scoped_span) += calls;
    }
    auto per_cycle = [&](const char *name, uint64_t calls) {
        state.counters[name] =
            static_cast<double>(calls) / static_cast<double>(cycles);
    };
    per_cycle("sampled_span_per_cycle", sampled_span);
    per_cycle("counter_add_per_cycle", counter_add);
    per_cycle("scoped_span_per_cycle", scoped_span);
}

void
runDiffIft(benchmark::State &state, bool taint_log)
{
    auto cfg = uarch::smallBoomConfig();
    harness::DualSim sim(cfg);
    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.sinks = true;
    options.taint_log = taint_log;
    auto suite = bench::pocSuite();
    harness::DualResult result;
    uint64_t cycles = 0;
    uint64_t runs = 0;
    const obs::TelemetrySnapshot before = obs::snapshot();
    for (auto _ : state) {
        for (const auto &poc : suite) {
            sim.runDual(poc.schedule, poc.data, options, result);
            cycles += result.dut0.cycles + result.dut1.cycles;
            benchmark::DoNotOptimize(result.dut0.sinks.data());
        }
        runs += suite.size();
    }
    reportPrimitiveCalls(state, before, runs, cycles);
    state.counters["dut_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_DiffIFTLockstep(benchmark::State &state)
{
    runDiffIft(state, /*taint_log=*/false);
}
BENCHMARK(BM_DiffIFTLockstep)->Unit(benchmark::kMillisecond);

void
BM_DiffIFTLockstepTaintLog(benchmark::State &state)
{
    runDiffIft(state, /*taint_log=*/true);
}
BENCHMARK(BM_DiffIFTLockstepTaintLog)->Unit(benchmark::kMillisecond);

} // namespace

// Hand-rolled BENCHMARK_MAIN(): quiet the inform() digest before the
// runner does anything (--benchmark_list_tests must print only the
// benchmark names).
int
main(int argc, char **argv)
{
    dejavuzz::setQuiet(true);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
