#!/usr/bin/env python3
"""Telemetry overhead gate, priced in one binary.

Reads a `bench_dualsim` JSON file and a `bench_micro` JSON file that
holds the BM_TelemetryPrimitives runs:

    telemetry_gate.py BENCH_dualsim.json BENCH_telemetry_primitives.json

For every `bench_dualsim` benchmark, the cost of telemetry per DUT
cycle is the sum over primitives of (calls per DUT cycle, a
deterministic user counter of that benchmark) x (ns per call, from
BM_TelemetryPrimitives/<primitive>). The gate fails when that sum
exceeds 2% of the benchmark's own ns per DUT cycle
(1e9 / dut_cycles_per_s). Every time is the run with the least
real_time over the non-aggregate repetitions. One row is printed per
primitive, so a failure names its primitive.
"""

import json
import sys

BUDGET = 0.02
PRIMITIVES = ("sampled_span", "counter_add", "scoped_span")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fastest(path):
    """Per benchmark name: the non-aggregate run with the least
    real_time."""
    with open(path) as f:
        data = json.load(f)
    best = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        if name not in best or b["real_time"] < best[name]["real_time"]:
            best[name] = b
    return best


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sims = fastest(argv[1])
    micro = fastest(argv[2])
    ns_per_call = {}
    for p in PRIMITIVES:
        run = micro.get(f"BM_TelemetryPrimitives/{p}")
        if run is None:
            print(f"FAIL: {argv[2]} has no BM_TelemetryPrimitives/{p}")
            return 1
        ns_per_call[p] = run["real_time"] * NS_PER_UNIT[run["time_unit"]]

    failed = False
    for name, run in sorted(sims.items()):
        missing = [p for p in PRIMITIVES if f"{p}_per_cycle" not in run]
        if missing or "dut_cycles_per_s" not in run:
            print(f"FAIL: {name} lacks the counters of "
                  f"{', '.join(missing) or 'dut_cycles_per_s'}")
            failed = True
            continue
        cycle_ns = 1e9 / run["dut_cycles_per_s"]
        print(f"{name}: {cycle_ns:.2f} ns per DUT cycle")
        total = 0.0
        for p in PRIMITIVES:
            calls = run[f"{p}_per_cycle"]
            cost = calls * ns_per_call[p]
            total += cost
            print(f"  {p:<13} {calls:10.6f} calls/cycle x "
                  f"{ns_per_call[p]:6.2f} ns = {cost:7.3f} ns "
                  f"({cost / cycle_ns:6.2%})")
        share = total / cycle_ns
        print(f"  {'total':<13} {total:43.3f} ns ({share:6.2%}, "
              f"budget {BUDGET:.0%})")
        if share > BUDGET:
            print(f"FAIL: telemetry costs {share:.2%} of {name}'s "
                  f"DUT cycle, over the {BUDGET:.0%} budget")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
