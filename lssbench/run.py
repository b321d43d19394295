#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 lssbench/run.py --workload paper_sim --seed 1 --seconds 35 --trace 0
    python3 lssbench/run.py --workload all --seed 1 --seconds 35 --trace 1

The first call configures and builds an optimized copy of the program and
the lssbench binary under $CARGO_TARGET_DIR (default .bench_build). Each
call prints one line per metric, then, as the last line, one JSON object
with correct/attempted/failed and the metrics BENCHMARK.json lists for the
mode: its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. A full record of the run (host, every metric, sample counts)
goes to <build dir>/results/, and the traced run's spans beside it.
Exits nonzero on any output mismatch.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"lssbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(out_dir):
    """Configures (once) and builds lssbench and lssd, optimized."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir.parent / "lssbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs,
                        "--target", "lssbench", "lssd"],
                       check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest():
    """SHA-256 over every file the benchmark builds or reads."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "models", "lssbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    files.append(ROOT / "tools" / "lssd.cpp")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_one(exe, lssd, workload, args, names, results_dir):
    """Runs one workload; returns (line dict, exit code)."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = build_root() / "run" / str(os.getpid())
    # A relative path keeps the daemon's socket path short.
    rel_work = os.path.relpath(work, ROOT)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", ".", "--work-dir", rel_work, "--lssd", str(lssd),
           "--expected", str(HERE / "expected_outputs.json"),
           "--results", str(results_dir / f"{tag}.json"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--spans", str(results_dir / f"{tag}.spans.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result (exit {proc.returncode})")
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            fail(f"{workload} did not report metric {name}")
        metrics[name] = result["metrics"][name]
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    return line, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload (paper_sim, delayn_elab, quiet_sim, "
                             "edit_loop), or 'all' for BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "src/CMakeLists.txt", "tools/lssd.cpp",
                   "models/uarch.lss"):
        if not (ROOT / needed).exists():
            fail(f"{needed} is missing; run from a full checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    out_dir = build_root() / "lssbench"
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}", 2)
    results_dir = build_root() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    todo = workloads if args.workload == "all" else [args.workload]
    lines, worst = {}, 0
    for w in todo:
        line, code = run_one(out_dir / "lssbench", out_dir / "lssd", w, args,
                             names, results_dir)
        lines[w] = line
        worst = worst or code
        prefix = f"{w}." if args.workload == "all" else ""
        for name, m in line["metrics"].items():
            print(f"{prefix}{name} {m['value']} {m['unit']}")

    if args.workload == "all":
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {f"{w}.{n}": m for w, l in lines.items()
                             for n, m in l["metrics"].items()}}
    else:
        final = lines[args.workload]
    print(json.dumps(final), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
