"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
metrics, each with its declared unit; that both runs pass their checks and
digest the same outputs; and that shifting every oracle's expected value
(the workloads' `sabotage` switch, which lives in the benchmark, not in
src/) makes the checks fail.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

# enough items to reach every kind of check each workload makes
TINY = {"algebra-sweep": 3, "construct-cli": 2, "long-play": 4,
        "verdict-batch": 8}


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def emitted(result):
    return {k: m["unit"] for k, m in result["metrics"].items()
            if isinstance(m["value"], (int, float))}


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    wanted = {0: units(spec["end_to_end"]), 1: units(spec["per_layer"])}
    for name, n in TINY.items():
        digests = {}
        for trace in (0, 1):
            out = bench.run_workload(name, seed=1, seconds=0, trace=trace,
                                     max_items=n, setup_reps=1)
            res = out["result"]
            digests[trace] = out["digest"]
            if emitted(res) != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics or units "
                                f"differ from BENCHMARK.json")
            # a traced run makes two passes over its items
            if not res["correct"] or res["failed"] \
                    or res["attempted"] != n * (1 + trace):
                problems.append(f"{name} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} items failed")
        if digests[0] != digests[1]:
            problems.append(f"{name}: traced outputs differ from untraced")
        bad = bench.run_workload(name, seed=1, seconds=0, trace=0,
                                 sabotage=True, max_items=n, setup_reps=1)
        frac = bad["extra"]["failed_frac"]["value"]
        if not frac > 0:
            problems.append(f"{name}: a wrong expected value went unnoticed")
        print(f"{name}: {len(wanted[0])} end-to-end and {len(wanted[1])} "
              f"per-layer metrics checked; sabotaged failed_frac={frac:g}",
              flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
