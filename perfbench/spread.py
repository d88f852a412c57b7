"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload long-play --seeds 1-10 --seconds 25

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles and interquartile spread as a share
of the median (quartiles as statistics.quantiles(values, n=4) gives them).
Use the same command on the parent and on a change to compare medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--out", help="write the summary as JSON")
    args = p.parse_args(argv)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = s
        print(f"{name:14s} median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} spread={s['spread']:.4f}")
    ok = all(r["correct"] for r in runs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "all_correct": ok,
                       "metrics": summary}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
