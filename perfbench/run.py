"""Benchmark for the limsup-games package: four seeded workloads.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload algebra-sweep --seed 1 --seconds 25 --trace 0

Run all four, untraced and traced, and print one row per workload:

    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics: a closed loop with one client
runs the workload's items back to back in this single-threaded process
for `--seconds` seconds (long-play and construct-cli stop only at the end
of a rotation of configs).  `--trace 1` measures the per-layer metrics instead: it wraps the
package's public functions from perfbench/tracer.py and runs a fixed number
of items, so its counts repeat exactly; a second pass over the same items
collects the dyadic call counts alone.

Inputs come from the seed through the package's corpus generators; the
package under src/ is imported from this checkout and is never modified.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "limsupgames"
LAYERS = ("dyadic", "trees", "automata", "graphs", "kernels", "families",
          "construction", "games", "strategies", "corpus", "cli")

sys.path.insert(0, HERE)
import calibrate as calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = {w.name: w for w in (wl.AlgebraSweep(), wl.ConstructCli(),
                                 wl.LongPlay(), wl.VerdictBatch())}
SETUP_REPS = 7
clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def load_package() -> SimpleNamespace:
    """Import the package from this checkout's src/, afresh."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise BenchError(f"no {PACKAGE} package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"{PACKAGE} imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"{PACKAGE}.{n}")
                              for n in LAYERS})


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def drive(items, seconds, min_items, max_items, block, tracer=None,
          cal=None):
    """Closed loop over items; returns latencies, failures, rounds, digest.

    The digest covers the outputs of the first min_items items (or all of
    them when max_items bounds the run), so a traced run of max_items items
    and an untraced run of at least that many digest the same outputs.
    A tracer is paused while the oracle runs.  With a calibrator,
    latencies come back in reference seconds.
    """
    digest = hashlib.sha256()
    n_digest = max_items or min_items
    lat, failed, rounds = array.array("d"), 0, 0
    starts = []  # (first item, calibration sample) of each chunk
    if cal is not None:
        starts.append((0, cal.sample()))
    start = clock()
    for k, (run, check) in enumerate(items):
        if cal is not None and cal.due():
            starts.append((k, cal.sample()))
        t0 = clock()
        try:
            res = run()
            err = None
        except Exception as e:  # an item that raises counts as failed
            res, err = None, e
        lat.append(clock() - t0)
        need_out = k < n_digest
        if err is None:
            if tracer is not None:
                tracer.paused = True
            try:
                out, ok, r = check(res, need_out)
            except Exception as e:
                out, ok, r = repr(e).encode(), False, 0
            finally:
                if tracer is not None:
                    tracer.paused = False
        else:
            out, ok, r = f"error {type(err).__name__}: {err}".encode(), False, 0
        failed += not ok
        rounds += r
        if need_out:
            digest.update(len(out).to_bytes(8, "big") + out)
        done = k + 1
        if max_items is not None:
            if done >= max_items:
                break
        elif done >= min_items and done % block == 0 \
                and clock() - start >= seconds:
            break
    raw_busy = sum(lat)
    if cal is not None:
        cal.sample()
        starts.append((len(lat), None))
        for (lo, c), (hi, _) in zip(starts, starts[1:]):
            f = cal.scale(c)
            for k in range(lo, hi):
                lat[k] *= f
    return (lat, failed, rounds, digest.hexdigest(), min(n_digest, len(lat)),
            raw_busy)


def percentile_ms(lat, q):
    return statistics.quantiles(lat, n=100, method="inclusive")[q - 1] * 1e3


def run_workload(name, seed, seconds, trace, sabotage=False, max_items=None,
                 setup_reps=SETUP_REPS):
    """Run one workload in this process; returns the result dict plus the
    digest and the extra report-only figures."""
    w = WORKLOADS[name]
    base = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(base, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cwd = os.getcwd()
    try:
        cal = calibration.Calibrator()
        cal.sample()
        setups = []
        for i in range(setup_reps):
            t0 = clock()
            M = load_package()
            data = w.setup(M, seed, workdir)
            setups.append(clock() - t0)
            cal.sample()
        raw_setup = statistics.median(setups)
        setups = [t * cal.scale(i) for i, t in enumerate(setups)]
        os.chdir(workdir)
        if trace:
            return _traced(w, M, seed, workdir, sabotage, max_items, cal)
        n_min = w.trace_items if max_items is None else min(max_items,
                                                           w.trace_items)
        wall = clock()
        lat, failed, rounds, digest, n_dig, raw_busy = drive(
            w.items(M, data, sabotage), seconds, n_min, max_items, w.block,
            cal=cal)
        wall = clock() - wall
        # read before the statistics below sort the latencies into a list
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        busy = sum(lat)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (len(lat) / busy, "1/s"),
            "item_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        extra = {"failed_frac": (failed / len(lat), "ratio"),
                 "items": (len(lat), "count"),
                 "host_speed": (cal.speed(), "x"),
                 "raw_setup_s": (raw_setup, "s"),
                 "raw_items_per_s": (len(lat) / raw_busy, "1/s"),
                 "wall_s": (wall, "s")}
        # throughput over the items a traced run repeats, for its slowdown
        extra["head_items_per_s"] = (n_dig / sum(lat[:n_dig]), "1/s")
        if len(lat) >= 100:
            extra["item_ms_p90"] = (percentile_ms(lat, 90), "ms")
        if rounds:
            extra["rounds_per_s"] = (rounds / busy, "1/s")
        return _result(len(lat), failed, metrics, extra, digest, n_dig)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def _traced(w, M, seed, workdir, sabotage, max_items, cal):
    n = w.trace_items if max_items is None else max_items
    modules = package_modules()
    tracer = tracing.Tracer()
    patch = tracing.Patcher(modules)
    try:
        tracing.install_corpus(tracer, M, patch)
        data = w.setup(M, seed, workdir)
        patch.restore()
        tracing.install_layers(tracer, M, patch)
        lat, failed, _, digest, n_dig, _ = drive(
            w.items(M, data, sabotage), 0, n, n, w.block, tracer, cal)
        patch.restore()
        counters = tracing.Tracer()
        tracing.install_dyadic(counters, M, patch)
        lat2, failed2, _, digest2, _, _ = drive(
            w.items(M, data, sabotage), 0, n, n, w.block, counters)
    finally:
        patch.restore()
    if digest2 != digest:
        failed2 = max(failed2, 1)  # the counting pass changed an output
    # span times in reference seconds, like every other timing
    speed = cal.speed()
    metrics = {k: (v * speed if u in ("s", "us") else v, u)
               for k, (v, u) in tracing.layer_metrics(
                   tracer, counters.counts).items()}
    metrics["trace.items_per_s"] = (len(lat) / sum(lat), "1/s")
    extra = {"failed_frac": (failed / len(lat), "ratio"),
             "items": (len(lat), "count"),
             "host_speed": (speed, "x")}
    return _result(len(lat) + len(lat2), failed + failed2, metrics, extra,
                   digest, n_dig)


def _result(attempted, failed, metrics, extra, digest, n_digest):
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "digest": digest,
        "digest_items": n_digest,
    }


def print_result(name, seed, trace, out) -> None:
    res = out["result"]
    shown = {**res["metrics"], **out["extra"]} if not trace else out["extra"]
    row = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                    for k, m in shown.items())
    print(f"workload={name} seed={seed} trace={trace} "
          f"attempted={res['attempted']} failed={res['failed']}  {row}")
    print(f"digest={out['digest']} over {out['digest_items']} items")
    print(json.dumps(res, sort_keys=True))


def _child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} trace={trace} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    digest = next(line.split()[0].split("=", 1)[1] for line in lines
                  if line.startswith("digest="))
    extra = {}
    for tok in lines[0].split("  ")[1:]:
        key, _, rest = tok.partition("=")
        extra[key] = rest
    return json.loads(lines[-1]), digest, extra


def run_all(seed, seconds, out_path=None) -> int:
    """Every workload untraced, then traced twice; one row per workload."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        plain, d0, shown = _child(name, seed, seconds, 0)
        t1, d1, _ = _child(name, seed, seconds, 1)
        t2, d2, _ = _child(name, seed, seconds, 1)
        counts_repeat = all(
            t1["metrics"][k]["value"] == t2["metrics"][k]["value"]
            for k, m in t1["metrics"].items() if m["unit"] != "s"
            and not k.endswith("_per_s") and not k.endswith("us_per_round"))
        slowdown = (float(shown["head_items_per_s"].split()[0])
                    / t1["metrics"]["trace.items_per_s"]["value"])
        good = (plain["correct"] and t1["correct"] and t2["correct"]
                and d0 == d1 == d2 and counts_repeat)
        ok = ok and good
        cells = [f"{k}={m['value']:.6g} {m['unit']}"
                 for k, m in plain["metrics"].items()]
        cells += [f"{k}={v}" for k, v in shown.items()
                  if k in ("failed_frac", "item_ms_p90", "rounds_per_s")]
        print(f"{name:14s} " + "  ".join(cells)
              + f"  trace_slowdown={slowdown:.3g}x"
              + f"  digest_match={d0 == d1 == d2}"
              + f"  counts_repeat={counts_repeat}")
        report["workloads"][name] = {
            "untraced": plain, "traced": t1, "trace_slowdown": slowdown,
            "digest": d0, "digest_match": d0 == d1 == d2,
            "counts_repeat": counts_repeat, "extra": shown}
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write the rows as JSON")
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print_result(args.workload, args.seed, args.trace, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
