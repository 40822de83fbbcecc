#!/usr/bin/env python3
"""Build avperf from source and run it.

One benchmark run (what BENCHMARK.json's command runs):

    python3 perf/run.py --workload paper_drive --seed 2020 --seconds 15 --trace 0

The last stdout line is avperf's JSON result. The build goes to
$CARGO_TARGET_DIR (default .bench_build/) under the repository root.

Other modes:

    --workload all           every workload, one fresh process each
    --baseline [--reps 5]    R end-to-end runs + one traced run per
                             workload -> perf/baseline/BENCH_perf.json
    --compare PARENT CHANGE  alternate two avperf binaries (or build
                             directories holding one) for --pairs runs
                             per workload and apply the gain and
                             regression rules of README.md
    --smoke                  every workload, end to end and traced, on
                             4 s drives; checks the printed metrics
                             against BENCHMARK.json
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
WORKLOADS = ["paper_drive", "vision_isolated", "depth_sweep", "chaos_faulted"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configure and build avperf (incrementally); return its path."""
    for needed in ("src/CMakeLists.txt", "cmake/Hardening.cmake",
                   "bench/options.cc"):
        if not (ROOT / needed).is_file():
            fail(f"{ROOT / needed} is missing: run from an AVScope checkout")
    out = build_root() / "avperf"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(PERF), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "avperf",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("building avperf failed")
    return out / "avperf"


def resolve_avperf(path):
    path = Path(path)
    return path / "avperf" if path.is_dir() else path


def avperf_args(workload, seed, seconds, trace, extra=()):
    work = build_root() / "work"
    work.mkdir(parents=True, exist_ok=True)
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", str(work), *extra]


def run_once(avperf, workload, seed, seconds, trace, extra=()):
    """Run avperf in a fresh process; return (exit code, parsed result)."""
    done = subprocess.run(
        [str(avperf), *avperf_args(workload, seed, seconds, trace, extra)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def single(args):
    avperf = resolve_avperf(args.avperf) if args.avperf else build()
    spans = build_root() / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        extra = ["--spans", str(spans / f"{name}-trace{args.trace}.json")]
        cmd = [str(avperf), *avperf_args(name, args.seed, args.seconds,
                                         args.trace, extra)]
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{name} ran past {RUN_TIMEOUT_S} s", 1)
        status = status or done.returncode
    return status


def baseline(args):
    avperf = resolve_avperf(args.avperf) if args.avperf else build()
    bench = load_benchmark()
    out = {
        "benchmark": "perf/avperf",
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = []
        for _ in range(args.reps):
            code, result = run_once(avperf, name, args.seed, args.seconds, 0)
            if code != 0 or result is None:
                fail(f"{name}: end-to-end run failed", 1)
            runs.append(result)
        code, traced = run_once(avperf, name, args.seed, args.seconds, 1)
        if code != 0 or traced is None:
            fail(f"{name}: traced run failed", 1)
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            e2e[metric["name"]] = {"unit": metric["unit"], "median": med,
                                   "q1": q1, "q3": q3, "values": values}
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
        }
        print(f"{name}: wall_s median {e2e['wall_s']['median']:.3f} s",
              file=sys.stderr)
    target = PERF / "baseline" / "BENCH_perf.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return 0


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def verdict(metric, parent, change):
    """Gain / regression / no change / unresolved for one metric."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = p3 - p1
    delta = (cmed - pmed) if lower else (pmed - cmed)  # > 0: worse
    if wins >= 0.9 * len(parent) and -delta > iqr:
        return wins, "gain"
    if delta > metric["bound"] * abs(pmed):
        return wins, "regression"
    if iqr > metric["bound"] * abs(pmed):
        if all(better(c, p) for c in change for p in parent):
            return wins, "no regression (all change runs better)"
        return wins, "unresolved (spread wider than bound)"
    return wins, "no regression"


def compare(args):
    parent = resolve_avperf(args.compare[0])
    change = resolve_avperf(args.compare[1])
    bench = load_benchmark()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = [("parent", parent), ("change", change)]
            for side, binary in order if i % 2 == 0 else reversed(order):
                code, result = run_once(binary, name, args.seed,
                                        args.seconds, 0)
                if code != 0 or result is None:
                    fail(f"{name}: {side} run {i} failed", 1)
                runs[side].append(result)
        print(f"\n{name}: {args.pairs} alternating pairs, seed {args.seed}")
        print(f"  {'metric':28} {'parent med [q1, q3]':>30} "
              f"{'change med [q1, q3]':>30}  wins  verdict")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in runs["parent"]]
            c = [r["metrics"][key]["value"] for r in runs["change"]]
            wins, text = verdict(metric, p, c)
            if key.startswith("sim_") and p != c:
                text += "; simulated figure changed"
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {key:28} {pq[1]:12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]"
                  f" {cq[1]:12.4f} [{cq[0]:.4f}, {cq[2]:.4f}]"
                  f"  {wins:2d}/{args.pairs}  {text}")
        for side in runs:
            failed = sum(r["failed"] for r in runs[side])
            print(f"  {side}: {failed} failed operations")
    return 0


def smoke(args):
    avperf = resolve_avperf(args.avperf) if args.avperf else build()
    bench = load_benchmark()
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's", 1)
    jobs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    with tempfile.TemporaryDirectory() as work:
        def one(job):
            name, trace = job
            done = subprocess.run(
                [str(avperf), "--workload", name, "--trace", str(trace),
                 "--smoke", "--work-dir", work],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=RUN_TIMEOUT_S)
            return job, done

        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(one, jobs))
    problems = []
    for (name, trace), done in results:
        tag = f"{name} --trace {trace}"
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"{tag}: no JSON result (exit "
                            f"{done.returncode})\n{done.stderr}")
            continue
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != expected[trace]:
            missing = set(expected[trace]) - set(printed)
            extra = set(printed) - set(expected[trace])
            wrong = [k for k in printed.keys() & expected[trace].keys()
                     if printed[k] != expected[trace][k]]
            problems.append(f"{tag}: missing {sorted(missing)}, "
                            f"unexpected {sorted(extra)}, wrong unit "
                            f"{sorted(wrong)}")
        if done.returncode != 0 or result["failed"] != 0 or \
                not result["correct"] or result["attempted"] < 1:
            problems.append(f"{tag}: exit {done.returncode}, "
                            f"{result['failed']}/{result['attempted']} "
                            f"failed\n{done.stderr}")
    for problem in problems:
        print(f"perf.smoke: {problem}", file=sys.stderr)
    print(f"perf.smoke: {len(jobs) - len(problems)}/{len(jobs)} runs clean")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--avperf", help="use this binary, do not build")
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.smoke:
        return smoke(args)
    if args.baseline:
        return baseline(args)
    if args.compare:
        if args.pairs < 10:
            parser.error("--compare needs at least 10 pairs")
        return compare(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
