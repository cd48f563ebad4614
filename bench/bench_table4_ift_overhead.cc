/**
 * @file
 * Table 4: overhead of differential information flow tracking.
 *
 * Compile row: the RTL-IR instrumentation pass over a netlist sized
 * like each core. CellIFT must flatten every memory into per-bit
 * cells, which exceeds the cell budget on the XiangShan-sized design
 * (the paper's 8h timeout); diffIFT stays word-level.
 *
 * Simulation rows: wall-clock time of the five classic PoCs under
 * Base (one taint-free lane), CellIFT and diffIFT (a taint-tracking
 * lane plus its value-lane sibling) on the differential testbench.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "bench/poc_suite.hh"
#include "harness/dualsim.hh"
#include "rtl/netlist.hh"
#include "uarch/config.hh"

using namespace dejavuzz;

namespace {

/** Build an RTL-IR netlist mirroring a core's memory footprint. */
rtl::Netlist
coreLikeNetlist(const uarch::CoreConfig &cfg)
{
    rtl::Netlist netlist;
    auto mem = [&](const char *name, uint32_t entries, uint8_t width) {
        netlist.memory(name, entries, width);
    };
    mem("prf", cfg.prf_entries, 64);
    mem("rob", cfg.rob_entries, 64);
    mem("bht", cfg.bht_entries, 2);
    mem("btb", cfg.btb_entries, 64);
    mem("ras", cfg.ras_entries, 64);
    mem("icache_data", cfg.icache_lines * 8, 64);
    mem("dcache_data", cfg.dcache_lines * 8, 64);
    mem("lq", cfg.lq_entries, 64);
    mem("sq", cfg.sq_entries, 64);
    // Control logic: a few thousand word-level cells.
    rtl::NodeId a = netlist.input("a");
    rtl::NodeId b = netlist.input("b");
    unsigned cells = cfg.rob_entries * 40 + cfg.prf_entries * 10;
    rtl::NodeId acc = a;
    for (unsigned i = 0; i < cells; ++i) {
        acc = (i % 3 == 0)   ? netlist.andGate(acc, b)
              : (i % 3 == 1) ? netlist.add(acc, b)
                             : netlist.mux(netlist.eq(acc, b), acc, b);
    }
    return netlist;
}

double
runSuite(const uarch::CoreConfig &cfg, ift::IftMode mode,
         const char *poc_name, unsigned repeats)
{
    harness::DualSim sim(cfg);
    harness::SimOptions options;
    options.mode = mode;
    options.taint_log = mode != ift::IftMode::Off;

    auto suite = bench::pocSuite();
    const bench::Poc *poc = nullptr;
    for (const auto &candidate : suite) {
        if (candidate.name == poc_name)
            poc = &candidate;
    }
    bench::Stopwatch timer;
    for (unsigned r = 0; r < repeats; ++r) {
        // Alternate the (never reached) cycle budget so each runDual
        // repeat starts from reset instead of resuming from the
        // previous repeat's transient-boundary snapshot.
        options.total_cycle_budget ^= 1;
        if (mode == ift::IftMode::Off) {
            (void)sim.runSingle(poc->schedule, poc->data, options);
        } else {
            (void)sim.runDual(poc->schedule, poc->data, options);
        }
    }
    return timer.seconds() / repeats * 1e3; // ms per run
}

} // namespace

int
main()
{
    unsigned repeats = static_cast<unsigned>(
        bench::envKnob("DEJAVUZZ_T4_REPEATS", 40));

    bench::banner("Table 4: overhead of diffIFT (vs Base and CellIFT)");

    // --- compile (instrumentation) row ---------------------------------
    struct CoreCase
    {
        const char *name;
        uarch::CoreConfig cfg;
        uint64_t budget; ///< instrumentation cell budget ("8h" analog)
    };
    CoreCase cases[2] = {
        {"BOOM", uarch::smallBoomConfig(), 4'000'000},
        {"XiangShan", uarch::xiangshanMinimalConfig(), 400'000},
    };

    std::printf("%-22s %-10s %-12s %-12s\n", "Instrumentation", "base",
                "CellIFT", "diffIFT");
    for (const auto &core_case : cases) {
        rtl::Netlist netlist = coreLikeNetlist(core_case.cfg);
        bench::Stopwatch timer;
        auto cell_report = rtl::instrument(netlist, ift::IftMode::CellIFT,
                                           core_case.budget);
        double cell_ms = timer.seconds() * 1e3;
        timer.reset();
        auto diff_report = rtl::instrument(netlist, ift::IftMode::DiffIFT,
                                           core_case.budget);
        double diff_ms = timer.seconds() * 1e3;
        char cell_buf[48];
        if (cell_report.timed_out) {
            std::snprintf(cell_buf, sizeof(cell_buf),
                          "TIMEOUT(>%lluc)",
                          static_cast<unsigned long long>(
                              core_case.budget));
        } else {
            std::snprintf(cell_buf, sizeof(cell_buf), "%lluc/%.2fms",
                          static_cast<unsigned long long>(
                              cell_report.shadow_cells),
                          cell_ms);
        }
        char diff_buf[48];
        std::snprintf(diff_buf, sizeof(diff_buf), "%lluc/%.2fms",
                      static_cast<unsigned long long>(
                          diff_report.shadow_cells),
                      diff_ms);
        std::printf("%-22s %-10s %-12s %-12s\n", core_case.name, "-",
                    cell_buf, diff_buf);
    }

    // --- simulation rows -------------------------------------------------
    const char *pocs[5] = {"Spectre-V1", "Spectre-V2", "Meltdown",
                           "Spectre-V4", "Spectre-RSB"};
    for (const auto &core_case : cases) {
        std::printf("\n%s simulation (ms/run, %u repeats):\n",
                    core_case.name, repeats);
        std::printf("  %-12s %-10s %-10s %-10s\n", "testcase", "base",
                    "CellIFT", "diffIFT");
        for (const char *poc : pocs) {
            double base_ms =
                runSuite(core_case.cfg, ift::IftMode::Off, poc, repeats);
            double cell_ms = runSuite(core_case.cfg,
                                      ift::IftMode::CellIFT, poc,
                                      repeats);
            double diff_ms = runSuite(core_case.cfg,
                                      ift::IftMode::DiffIFT, poc,
                                      repeats);
            std::printf("  %-12s %-10.3f %-10.3f %-10.3f\n", poc,
                        base_ms, cell_ms, diff_ms);
        }
    }

    std::printf("\npaper shape: diffIFT compile ~2x base (vs CellIFT"
                " 23x / timeout on XiangShan); diffIFT simulation a"
                " small multiple of base, far below CellIFT's ~75x.\n");
    return 0;
}
