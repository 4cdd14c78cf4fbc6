#!/usr/bin/env python3
"""Runs the repository benchmark (definitions in perfbench/METRICS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. On first use it configures and builds the
`perfbench` binary from source into .bench_build/ (Release). Each workload
runs in its own process; its output is relayed, and the last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

The deterministic counts a workload reports (packets, drops, DQ fires,
archive blocks, ...) are compared with perfbench/recorded_counts.json when
that file holds the seed; --record stores them there instead.

--all runs every workload in turn, prints each metric with its unit, and
exits non-zero if any output check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RECORDED = os.path.join(HERE, "recorded_counts.json")
WORKLOADS = ("replay_dq_archive", "serve_live", "fabric_incast")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def load_recorded():
    if not os.path.isfile(RECORDED):
        return {}
    with open(RECORDED) as f:
        return json.load(f)


def write_recorded(recorded):
    """One line per (workload, seed), so a re-recording diffs readably."""
    blocks = []
    for w in sorted(recorded):
        seeds = sorted(recorded[w], key=int)
        rows = [f'  "{s}": {json.dumps(recorded[w][s], sort_keys=True)}'
                for s in seeds]
        blocks.append(f' "{w}": {{\n' + ",\n".join(rows) + "\n }")
    with open(RECORDED, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


def run_workload(workload, seed, seconds, trace, record=False):
    """Runs one workload in a fresh process. Returns (result, exit code);
    result is None when the binary printed no result line."""
    workdir = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    trace_out = os.path.join(BUILD, "traces", f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        print(line)
    if result is None:
        return None, proc.returncode or 1

    counts = result.pop("counts", {})
    recorded = load_recorded()
    if record:
        recorded.setdefault(workload, {}).setdefault(str(seed), {}).update(counts)
        write_recorded(recorded)
    else:
        # A short or traced run may not reach every trace of the seed;
        # every count it does report must match.
        expect = recorded.get(workload, {}).get(str(seed), {})
        wrong = {k: v for k, v in counts.items()
                 if k in expect and expect[k] != v}
        if wrong:
            print(f"CHECK FAILED: counts {wrong} differ from the values "
                  f"recorded for seed {seed}")
            result["correct"] = False
    code = proc.returncode
    if not result["correct"] and code == 0:
        code = 1
    return result, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's counts in recorded_counts.json")
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    if args.workload:
        result, code = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace, args.record)
        if result is not None:
            print(json.dumps(result))
        return code

    worst = 0
    summary = {}
    for w in WORKLOADS:
        result, code = run_workload(w, args.seed, args.seconds, args.trace,
                                    args.record)
        worst = worst or code
        summary[w] = result
    print("\nsummary")
    for w, result in summary.items():
        if result is None:
            print(f"  {w}: no result")
            continue
        verdict = "correct" if result["correct"] else "OUTPUT CHECK FAILED"
        print(f"  {w}: {verdict}, {result['failed']} of {result['attempted']} "
              "operations failed")
        for name, m in result["metrics"].items():
            print(f"    {name:34s} {m['value']:.6g} {m['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
