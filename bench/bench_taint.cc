/**
 * @file
 * Taint-accounting and transient-boundary-resume throughput.
 *
 * BM_TaintStatsIncremental / BM_TaintStatsRescan isolate the cost of
 * assembling the per-module taint statistics every cycle: the
 * incremental accounts (ift/taintacct.hh) are an O(kModCount) read of
 * running sums, the rescan walks all of the shadow state. The
 * incremental path must win (CI gate in perf-smoke).
 *
 * BM_Phase3Standalone / BM_Phase3Fused measure a full Phase-2 +
 * Phase-3 analysis of triggered windows. The fused variant runs both
 * phases on one DualSim, so the Phase-3 sanitized run resumes from the
 * Phase-2 run's divergence-point snapshot (everything before the
 * mutable tail skipped). The standalone variant runs Phase 3 on a
 * second DualSim whose snapshot holds the previous case's prefix, so
 * the sanitized run starts from reset.
 *
 * BM_Phase2MutationsShared / BM_Phase2MutationsFresh measure the
 * Phase-2 runs of triggered seeds: each seed's first run plus a fixed
 * chain of window mutations. The shared variant runs them all on one
 * DualSim, as the fuzzer does, so the first run captures the
 * divergence point and every mutation that leaves the words before
 * the tail alone resumes there. The fresh variant gives every run a
 * new DualSim (its construction included), so each starts from reset.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "bench/poc_suite.hh"
#include "core/phases.hh"
#include "core/stimgen.hh"
#include "harness/dualsim.hh"
#include "ift/policy.hh"
#include "swapmem/memory.hh"
#include "swapmem/packet.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace dejavuzz;

namespace {

/** Per-cycle stats assembly over one PoC run; @p rescan picks the
 *  oracle path. Returns cycles simulated (rate counter). */
template <typename StatsFn>
uint64_t
runWithStats(const uarch::CoreConfig &cfg, const bench::Poc &poc,
             StatsFn &&stats_fn)
{
    uarch::Core core(cfg);
    swapmem::Memory mem;
    mem.installSecret(poc.data.secret.data(), poc.data.secret.size(),
                      true);
    for (size_t i = 0; i < poc.data.operands.size(); ++i)
        mem.setOperand(static_cast<unsigned>(i), poc.data.operands[i]);
    swapmem::SwapRuntime runtime(poc.schedule);
    uint64_t entry = runtime.start(mem);
    if (runtime.done())
        return 0;
    core.startSequence(entry);

    std::array<uarch::ModuleStat, uarch::kModCount> stats;
    uint64_t packet_cycles = 0;
    while (core.cycle() < 4000) {
        ift::TaintCtx ctx;
        ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);
        uarch::TickEvents ev = core.tick(mem, ctx, nullptr);
        ++packet_cycles;
        stats_fn(core, stats);
        benchmark::DoNotOptimize(stats);
        if (ev.swap_next || ev.trapped || packet_cycles >= 1500) {
            uint64_t next_entry = runtime.advance(mem);
            if (runtime.done())
                break;
            core.flushICache();
            core.startSequence(next_entry);
            packet_cycles = 0;
        }
    }
    return core.cycle();
}

template <typename StatsFn>
void
runTaintStats(benchmark::State &state, StatsFn &&stats_fn)
{
    auto cfg = uarch::smallBoomConfig();
    auto suite = bench::pocSuite();
    uint64_t cycles = 0;
    for (auto _ : state) {
        for (const auto &poc : suite)
            cycles += runWithStats(cfg, poc, stats_fn);
    }
    state.counters["stat_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_TaintStatsIncremental(benchmark::State &state)
{
    runTaintStats(state, [](const uarch::Core &core, auto &stats) {
        core.moduleTaintStats(stats);
    });
}
BENCHMARK(BM_TaintStatsIncremental)->Unit(benchmark::kMillisecond);

void
BM_TaintStatsRescan(benchmark::State &state)
{
    runTaintStats(state, [](const uarch::Core &core, auto &stats) {
        core.moduleTaintStatsRescan(stats);
    });
}
BENCHMARK(BM_TaintStatsRescan)->Unit(benchmark::kMillisecond);

/** Phase-1-triggered, window-completed test cases (fixed seed). */
std::vector<core::TestCase>
triggeredCases(const uarch::CoreConfig &cfg, unsigned want)
{
    harness::DualSim sim(cfg);
    core::StimGen gen(cfg);
    core::Phase1 phase1(sim, harness::SimOptions{});
    Rng rng(0xbe9c);
    std::vector<core::TestCase> cases;
    for (unsigned i = 0; i < 64 && cases.size() < want; ++i) {
        core::Seed seed = gen.newSeed(rng, i);
        core::TestCase tc = gen.generatePhase1(seed);
        bool triggered = false;
        phase1.run(tc, triggered, true);
        if (!triggered)
            continue;
        gen.completeWindow(tc);
        if (tc.has_window_payload)
            cases.push_back(std::move(tc));
    }
    return cases;
}

void
runPhase3(benchmark::State &state, bool fused)
{
    auto cfg = uarch::smallBoomConfig();
    auto cases = triggeredCases(cfg, 6);
    core::StimGen gen(cfg);
    harness::DualSim explore_sim(cfg);
    harness::DualSim standalone_sim(cfg);
    harness::DualSim &analyze_sim = fused ? explore_sim : standalone_sim;

    harness::SimOptions phase2_options;
    phase2_options.mode = ift::IftMode::DiffIFT;
    phase2_options.taint_log = true;
    phase2_options.sinks = true;
    harness::SimOptions phase3_options;
    phase3_options.mode = ift::IftMode::DiffIFT;
    phase3_options.sinks = true;

    harness::DualResult explore;
    harness::DualResult analyze;
    uint64_t analysed = 0;
    for (auto _ : state) {
        for (const auto &tc : cases) {
            // As Phase 2 does: name the tail its twin rewrites.
            explore_sim.runDual(tc.schedule, tc.data, phase2_options,
                                explore, tc.mutableTail());
            analyze_sim.runDual(gen.sanitizedSchedule(tc), tc.data,
                                phase3_options, analyze);
            ++analysed;
            benchmark::DoNotOptimize(analyze.dut0.sinks.data());
        }
    }
    state.counters["cases_per_s"] = benchmark::Counter(
        static_cast<double>(analysed), benchmark::Counter::kIsRate);
}

void
BM_Phase3Standalone(benchmark::State &state)
{
    runPhase3(state, /*fused=*/false);
}
BENCHMARK(BM_Phase3Standalone)->Unit(benchmark::kMillisecond);

void
BM_Phase3Fused(benchmark::State &state)
{
    runPhase3(state, /*fused=*/true);
}
BENCHMARK(BM_Phase3Fused)->Unit(benchmark::kMillisecond);

/** Window mutations drawn per seed for BM_Phase2Mutations*. */
constexpr unsigned kMutationsPerSeed = 8;

void
runPhase2Mutations(benchmark::State &state, bool shared)
{
    auto cfg = uarch::smallBoomConfig();
    core::StimGen gen(cfg);
    // Each seed's run chain is drawn up front, so the timed loop only
    // simulates.
    std::vector<core::TestCase> runs;
    Rng rng(0x3b2d);
    for (core::TestCase &tc : triggeredCases(cfg, 6)) {
        runs.push_back(tc);
        for (unsigned k = 0; k < kMutationsPerSeed; ++k) {
            gen.mutateWindow(tc, rng.next());
            runs.push_back(tc);
        }
    }

    harness::SimOptions options;
    options.mode = ift::IftMode::DiffIFT;
    options.taint_log = true;
    options.sinks = true;

    harness::DualSim shared_sim(cfg);
    harness::DualResult out;
    uint64_t simulated = 0;
    for (auto _ : state) {
        for (const auto &tc : runs) {
            if (shared) {
                shared_sim.runDual(tc.schedule, tc.data, options, out,
                                   tc.mutableTail());
            } else {
                harness::DualSim fresh(cfg);
                fresh.runDual(tc.schedule, tc.data, options, out,
                              tc.mutableTail());
            }
            ++simulated;
            benchmark::DoNotOptimize(out.dut0.sinks.data());
        }
    }
    state.counters["runs_per_s"] = benchmark::Counter(
        static_cast<double>(simulated), benchmark::Counter::kIsRate);
}

void
BM_Phase2MutationsFresh(benchmark::State &state)
{
    runPhase2Mutations(state, /*shared=*/false);
}
BENCHMARK(BM_Phase2MutationsFresh)->Unit(benchmark::kMillisecond);

void
BM_Phase2MutationsShared(benchmark::State &state)
{
    runPhase2Mutations(state, /*shared=*/true);
}
BENCHMARK(BM_Phase2MutationsShared)->Unit(benchmark::kMillisecond);

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
