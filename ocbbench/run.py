#!/usr/bin/env python3
"""Build and run the OCB benchmark (see ocbbench/README.md).

One run of one workload; the last line of standard output is the result:

    python3 ocbbench/run.py --workload ocb-read --seed 1998 --seconds 10 --trace 0

Every workload, printing `workload metric value unit` lines (with --trace,
a traced pass as well, and its overhead on throughput):

    python3 ocbbench/run.py --all [--trace] [--seed N] [--seconds S]

The self-check a CI job can call (2 s windows, 2,000-object bases):

    python3 ocbbench/run.py --smoke

The engine is built in Release from the checkout's sources into
.bench_build/ocbbench; each run's result, with the host facts, is written to
.bench_work/results/ (or --out-dir) for ocbbench/compare.py. The exit code is
non-zero when the build fails, a run fails, or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "ocbbench"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "bench_ocb"
# One benchmark process must end well inside three minutes (a checkout's
# first build comes on top).
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds bench_ocb; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no engine sources under {ROOT}: cannot build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "bench_ocb",
           "-j", jobs]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/self/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(workload, seed, seconds, trace, smoke):
    """Runs bench_ocb once and returns its result object."""
    WORK_DIR.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work-dir", str(WORK_DIR / f"run-{workload}")]
    if trace:
        trace_dir = WORK_DIR / "trace"
        trace_dir.mkdir(exist_ok=True)
        # One file per workload, so repeated traced runs do not pile up.
        cmd += ["--trace-file", str(trace_dir / f"{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(f"{workload}: bench_ocb exited {proc.returncode} "
                         "without a result")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def record(result, seconds, smoke, out_dir):
    """Adds the host facts and writes the full result for compare.py."""
    result["seconds"] = seconds
    result["smoke"] = smoke
    result["host"] = {
        "nproc": os.cpu_count(),
        "build_type": result.pop("build_type"),
        "compiler": result.pop("compiler"),
        "git_sha": git_sha(),
        "seed": result["seed"],
        "work_dir_fs": fs_type(WORK_DIR),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    with open(out_dir / f"{name}.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("host " + json.dumps(result["host"], sort_keys=True))


def select(result, metrics):
    """The result restricted to `metrics` (BENCHMARK.json entries)."""
    out = {}
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"{result['workload']}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = got
    return out


def run_one(args, spec):
    build()
    result = run_bench(args.workload, args.seed, args.seconds, args.trace,
                       False)
    record(result, args.seconds, False, args.out_dir)
    metrics = select(result,
                     spec["per_layer"] if args.trace else spec["end_to_end"])
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_suite(args, spec):
    """--all and --smoke: every workload of BENCHMARK.json."""
    build()
    ok = True
    start = time.monotonic()
    for w in spec["workloads"]:
        name = w["name"]
        passes = [True] if args.smoke else [False] + ([True] if args.trace else [])
        tps = {}
        for trace in passes:
            result = run_bench(name, args.seed, args.seconds, trace,
                               args.smoke)
            record(result, args.seconds, args.smoke, args.out_dir)
            # A traced run computes every metric; an untraced one every
            # end-to-end metric.
            wanted = spec["end_to_end"] + (spec["per_layer"] if trace else [])
            select(result, wanted)
            tps[trace] = result["metrics"]["throughput_tps"]["value"]
            if not result["correct"] or result["failed"]:
                log(f"{name}: checks {result['checks']}, "
                    f"failed {result['failed']}")
                ok = False
        if False in tps and True in tps:
            print(f"{name} trace_overhead {1 - tps[True] / tps[False]:.4f} "
                  "fraction")
    log(f"{'passed' if ok else 'FAILED'} in {time.monotonic() - start:.1f} s")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--out-dir", type=Path, default=WORK_DIR / "results")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = 2 if args.smoke else spec["run_seconds"]
        if args.workload is not None:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise BenchError(f"unknown workload {args.workload}")
            return run_one(args, spec)
        return run_suite(args, spec)
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
