#!/usr/bin/env python3
"""Build (on first use) and run the benchmark program.

    python3 perfbench/run.py --workload paper_reference --seed 1 --seconds 10 --trace 0

The program is configured and built from source into .bench_build/perfbench
at the root of the checkout (build output goes to stderr), then run with the
same arguments; its last stdout line is the result JSON. Work files
(temporary caches) go to .bench_build/work, traced runs write their spans to
.bench_build/traces. Exits non-zero without a result when the library
sources are missing, the build fails, or BENCHMARK.json's metric lists
differ from the program's catalogue (`--list-metrics`).
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "edc_perfbench"


def build() -> None:
    sources = ROOT / "src" / "edc"
    if not sources.is_dir() or not any(sources.rglob("*.cpp")):
        sys.exit(f"perfbench: no library sources under {sources}; nothing to build")
    BUILD_ROOT.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: cmake configure failed")
        if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def check_catalogue() -> None:
    """BENCHMARK.json's metric lists must be the program's catalogue."""
    listed = subprocess.run([str(BINARY), "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    catalogue = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        catalogue[kind].append((name, unit))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, metrics in catalogue.items():
        wanted = [(m["name"], m["unit"]) for m in declared[kind]]
        if wanted != metrics:
            missing = sorted(set(wanted) - set(metrics))
            extra = sorted(set(metrics) - set(wanted))
            sys.exit(f"perfbench: BENCHMARK.json {kind} differs from the program's catalogue"
                     f" (only in BENCHMARK.json: {missing}; only in the program: {extra})")


def main() -> None:
    build()
    check_catalogue()
    sys.stdout.flush()
    args = [str(BINARY), *sys.argv[1:],
            "--work-dir", str(BUILD_ROOT / "work"),
            "--trace-dir", str(BUILD_ROOT / "traces")]
    os.chdir(ROOT)
    os.execv(args[0], args)


if __name__ == "__main__":
    main()
