/**
 * @file
 * Differential-harness throughput: lockstep diffIFT `runDual` on the
 * multi-packet PoC suite.
 *
 * The plain variant is the Phase-3-style configuration (sinks only);
 * the TaintLog variant measures the Phase-2 configuration, where
 * per-cycle taint sampling adds a fixed cost.
 */

#include <benchmark/benchmark.h>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "uarch/config.hh"
#include "util/logging.hh"

using namespace dejavuzz;

namespace {

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
    for (auto _ : state) {
        for (const auto &poc : suite) {
            sim.runDual(poc.schedule, poc.data, options, result);
            cycles += result.dut0.cycles + result.dut1.cycles;
            benchmark::DoNotOptimize(result.dut0.state_hash);
        }
    }
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
