#!/usr/bin/env python3
"""Result sets of the benchmark: collect them, check their spread, compare two.

    # run every workload on seeds 1..10, untraced and traced, into one file
    python3 perfbench/report.py collect --out base.jsonl --seeds 1-10 --trace both

    # per workload x end-to-end metric: median, quartiles, IQR/median vs bound
    python3 perfbench/report.py spread base.jsonl

    # two result sets (e.g. the parent commit and a change): per workload x
    # end-to-end metric median, quartiles and a verdict against the bound
    # (worse / unchanged / better / unresolved), then the per-layer deltas
    python3 perfbench/report.py compare base.jsonl change.jsonl

A result set is a JSON-lines file, one object per benchmark run: the RESULT
line run.py prints (workload, seed, trace flag, machine calibration and every
metric the run produced).
"""
import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = benchmark_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                for trace in traces:
                    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                    lines = proc.stdout.strip().splitlines()
                    result = next((json.loads(l[len("RESULT "):]) for l in lines
                                   if l.startswith("RESULT ")), None)
                    if proc.returncode != 0 or result is None:
                        sys.stderr.write(f"{workload} seed {seed} trace {trace}: failed "
                                         f"(exit {proc.returncode})\n{proc.stderr[-2000:]}\n")
                        continue
                    out.write(json.dumps(result) + "\n")
                    out.flush()
                    sys.stderr.write(f"{workload} seed {seed} trace {trace}: "
                                     f"correct={result['correct']} failed={result['failed']}\n")


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def values(runs, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]]


def summary(vals):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def rel_spread(vals):
    med, q1, q3 = summary(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def unbounded_metrics(runs, workload, spec):
    """Metrics an untraced run printed that BENCHMARK.json does not bound."""
    bounded = {m["name"] for m in spec["end_to_end"]}
    names = set()
    for r in runs:
        if r["workload"] == workload and r["trace"] == 0:
            names.update(r["metrics"])
    return sorted(names - bounded)


def workloads_in(runs):
    return sorted({r["workload"] for r in runs})


def machine_line(runs, label):
    calib = [r["machine"]["calib_ns"] for r in runs]
    m = runs[0]["machine"]
    return (f"{label}: {len(runs)} runs, calib_ns median {statistics.median(calib):.4f}, "
            f"nproc {m['nproc']}, {m['mhz']:.0f} MHz, {m['cpu']}")


def spread(args):
    spec = benchmark_spec()
    runs = load(args.results)
    print(machine_line(runs, args.results))
    ok = True
    for workload in workloads_in(runs):
        print(f"\n{workload}")
        print(f"  {'metric':<20} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values(runs, workload, 0, m["name"])
            if not vals:
                continue
            med, q1, q3 = summary(vals)
            rs = rel_spread(vals)
            flag = "" if rs <= m["bound"] / 3 else \
                ("  > bound/3" if rs <= m["bound"] else "  > BOUND")
            if rs > m["bound"]:
                ok = False
            print(f"  {m['name']:<20} {len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{rs:>8.3f} {m['bound']:>6}{flag} {m['unit']}")
        for name in unbounded_metrics(runs, workload, spec):
            vals = values(runs, workload, 0, name)
            med, q1, q3 = summary(vals)
            rs = rel_spread(vals) if med else 0.0
            print(f"  {name:<20} {len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{rs:>8.3f} {'-':>6}  (not bounded)")
    return 0 if ok else 1


def worse_by(base_med, new_med, better):
    """Signed relative change, positive when the change is worse."""
    if base_med == 0:
        return 0.0
    change = (new_med - base_med) / abs(base_med)
    return -change if better == "higher" else change


def verdict(base, new, bound, better):
    base_med, _, _ = summary(base)
    new_med, _, _ = summary(new)
    worse = worse_by(base_med, new_med, better)
    noise = max(rel_spread(base), rel_spread(new))
    sign = 1 if better == "lower" else -1
    all_better = all(sign * n < sign * b for n in new for b in base)
    all_worse = all(sign * n > sign * b for n in new for b in base)
    if noise > bound:
        if all_better:
            return worse, "better"
        if all_worse:
            return worse, "worse"
        return worse, "unresolved"
    if worse > bound:
        return worse, "worse"
    if -worse > bound:
        return worse, "better"
    return worse, "unchanged"


def compare(args):
    spec = benchmark_spec()
    base_runs, new_runs = load(args.base), load(args.new)
    print(machine_line(base_runs, "base"))
    print(machine_line(new_runs, "new "))
    status = 0
    for workload in workloads_in(base_runs + new_runs):
        print(f"\n{workload}: end-to-end (untraced runs)")
        print(f"  {'metric':<20} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
              f"{'worse%':>8} {'bound%':>7}  verdict")
        for m in spec["end_to_end"]:
            base = values(base_runs, workload, 0, m["name"])
            new = values(new_runs, workload, 0, m["name"])
            if not base or not new:
                continue
            b, n = summary(base), summary(new)
            worse, word = verdict(base, new, m["bound"], m["better"])
            if word == "worse":
                status = 1
            print(f"  {m['name']:<20} {b[0]:>12.5g} [{b[1]:>9.4g}, {b[2]:>9.4g}] "
                  f"{n[0]:>12.5g} [{n[1]:>9.4g}, {n[2]:>9.4g}] {100 * worse:>8.2f} "
                  f"{100 * m['bound']:>7.1f}  {word} ({len(base)} vs {len(new)} runs)")
        for name in unbounded_metrics(base_runs + new_runs, workload, spec):
            base = values(base_runs, workload, 0, name)
            new = values(new_runs, workload, 0, name)
            if not base or not new:
                continue
            b, n = summary(base), summary(new)
            change = 100 * (n[0] - b[0]) / abs(b[0]) if b[0] else 0.0
            print(f"  {name:<20} {b[0]:>12.5g} [{b[1]:>9.4g}, {b[2]:>9.4g}] "
                  f"{n[0]:>12.5g} [{n[1]:>9.4g}, {n[2]:>9.4g}] {change:>+8.2f}% "
                  f"{'-':>7}  not bounded (signed change, not 'worse')")
        layer_names = [m["name"] for m in spec["per_layer"]]
        rows = []
        for name in layer_names:
            base = values(base_runs, workload, 1, name)
            new = values(new_runs, workload, 1, name)
            if not base or not new:
                continue
            bm, nm = statistics.median(base), statistics.median(new)
            delta = (nm - bm) / abs(bm) * 100 if bm else (0.0 if nm == bm else float("inf"))
            rows.append((name, bm, nm, delta))
        if rows:
            print(f"{workload}: per-layer (traced runs, medians)")
            for name, bm, nm, delta in rows:
                print(f"  {name:<32} {bm:>14.6g} -> {nm:>14.6g}  {delta:>+8.2f}%")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", choices=["0", "1", "both"], default="0")
    c.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("spread", help="per-metric spread of one result set")
    s.add_argument("results")
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    if args.command == "spread":
        return spread(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
