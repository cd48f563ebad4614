/**
 * @file
 * Google-benchmark micro-benchmarks: taint-policy kernels, core tick
 * throughput per IFT mode, swap-packet reload, and full
 * differential-run latency. These underpin the wall-clock numbers of
 * the experiment harnesses.
 */

#include <benchmark/benchmark.h>

#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "ift/policy.hh"
#include "ift/taint.hh"
#include "rtl/fig2_rob.hh"
#include "uarch/config.hh"

using namespace dejavuzz;

namespace {

void
BM_PolicyKernels(benchmark::State &state)
{
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);
    ift::TV a{0x1234, 0xff};
    ift::TV b{0x5678, 0};
    for (auto _ : state) {
        auto r1 = ift::andCell(a, b);
        auto r2 = ift::addCell(r1, b);
        auto r3 = ctx.mux(1, ift::TV{1, 1}, r2, a);
        benchmark::DoNotOptimize(r3);
    }
}
BENCHMARK(BM_PolicyKernels);

void
BM_Fig2RobEval(benchmark::State &state)
{
    auto rob = rtl::buildFig2Rob(32);
    rtl::Evaluator eval(rob.netlist);
    ift::TaintCtx ctx;
    ctx.begin(ift::IftMode::CellIFT, nullptr, nullptr);
    eval.setInput(rob.enq_uopc, ift::TV{0x2a, 0});
    eval.setInput(rob.enq_valid, ift::TV{1, 0});
    eval.setInput(rob.rob_tail_idx, ift::TV{3, 0xff});
    for (auto _ : state) {
        eval.step(ctx);
        benchmark::DoNotOptimize(eval.taintSum());
    }
}
BENCHMARK(BM_Fig2RobEval);

void
BM_CoreTick(benchmark::State &state)
{
    auto mode = static_cast<ift::IftMode>(state.range(0));
    auto cfg = uarch::smallBoomConfig();
    uarch::Core core(cfg);
    swapmem::Memory mem;
    auto poc = bench::spectreV1();
    mem.installSecret(poc.data.secret.data(), poc.data.secret.size());
    swapmem::SwapRuntime runtime(poc.schedule);
    core.startSequence(runtime.start(mem));
    ift::TaintCtx ctx;
    ctx.begin(mode, nullptr, nullptr);
    for (auto _ : state) {
        auto ev = core.tick(mem, ctx, nullptr);
        if (ev.swap_next || ev.trapped) {
            uint64_t entry = runtime.advance(mem);
            if (runtime.done()) {
                swapmem::SwapRuntime fresh(poc.schedule);
                runtime = fresh;
                entry = runtime.start(mem);
            }
            core.flushICache();
            core.startSequence(entry);
        }
    }
}
BENCHMARK(BM_CoreTick)
    ->Arg(static_cast<int>(ift::IftMode::Off))
    ->Arg(static_cast<int>(ift::IftMode::CellIFT))
    ->Arg(static_cast<int>(ift::IftMode::DiffIFT));

/** Swap-packet reload: one full start/advance sweep over each 5-PoC
 *  schedule. */
void
BM_SwapPacketLoad(benchmark::State &state)
{
    const auto suite = bench::pocSuite();
    swapmem::Memory mem;
    size_t loads = 0;
    for (auto _ : state) {
        for (const auto &poc : suite) {
            swapmem::SwapRuntime runtime(poc.schedule);
            benchmark::DoNotOptimize(runtime.start(mem));
            while (!runtime.done())
                benchmark::DoNotOptimize(runtime.advance(mem));
            loads += poc.schedule.packets.size();
        }
        benchmark::ClobberMemory();
    }
    state.counters["loads_per_s"] = benchmark::Counter(
        static_cast<double>(loads), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwapPacketLoad);

void
BM_DualRun(benchmark::State &state)
{
    auto mode = static_cast<ift::IftMode>(state.range(0));
    auto cfg = uarch::smallBoomConfig();
    harness::DualSim sim(cfg);
    harness::SimOptions options;
    options.mode = mode;
    options.taint_log = mode != ift::IftMode::Off;
    auto poc = bench::spectreV1();
    for (auto _ : state) {
        // Alternate the (never reached) cycle budget so each diffIFT
        // run starts from reset instead of resuming from the previous
        // run's transient-boundary snapshot.
        options.total_cycle_budget ^= 1;
        auto result = sim.runDual(poc.schedule, poc.data, options);
        benchmark::DoNotOptimize(result.dut0.cycles);
    }
}
BENCHMARK(BM_DualRun)
    ->Arg(static_cast<int>(ift::IftMode::Off))
    ->Arg(static_cast<int>(ift::IftMode::CellIFT))
    ->Arg(static_cast<int>(ift::IftMode::DiffIFT));

} // namespace

BENCHMARK_MAIN();
