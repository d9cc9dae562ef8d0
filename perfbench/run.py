#!/usr/bin/env python3
"""Paper-figure sweep benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload tab2_cycle --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Builds the repository's libraries, the mannad daemon and the perfbench
binary from source into .bench_build/perfbench (see
perfbench/CMakeLists.txt), then runs that binary for the workload.
--trace 0 measures the end-to-end metrics with tracing off; --trace 1
measures the per-layer metrics from a separate traced run. Metric
names, units and workloads come from BENCHMARK.json; the metric list
and what each one should move are explained in perfbench/README.md.

Every metric is printed as "name value unit"; the last line of stdout
is one JSON object with the keys correct, attempted, failed and
metrics. --workload all runs every workload in turn and prints one
such line per workload. The exit code is nonzero, with no JSON line,
when the benchmark cannot build or run (for example outside a full
checkout of the repository).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build incrementally; raise on failure."""
    for need in ("src/CMakeLists.txt", "tools/mannad.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise RuntimeError(f"repository source {need} not found; "
                               "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(workload, seed, mode, seconds=0):
    """Run the perfbench binary once in its own session, so a timeout also stops
    the mannad it may have spawned; return its parsed JSON result."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MANNA_")}
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    argv = [os.path.join(BUILD, "perfbench"), f"workload={workload}",
            f"seed={seed}", f"mode={mode}", f"seconds={seconds}",
            f"mannad={os.path.join(BUILD, 'perfbench_mannad')}",
            f"ref_dir={os.path.join('perfbench', 'reference')}",
            f"out_dir={out_dir}"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: {mode} exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:  # stop anything left in the session (a stray mannad)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: {mode} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Untraced: the set-up passes in one process, then the sweeps in
    another, each reporting its own metrics. Traced: one traced run."""
    if trace:
        return run_binary(workload, seed, "trace")
    runs = [run_binary(workload, seed, "setup"),
            run_binary(workload, seed, "sweep", seconds)]
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]],
            "metrics": {k: v for r in runs for k, v in r["metrics"].items()},
            "tails": {}}


def report(spec, workload, raw, trace):
    """Print every metric by name with its unit; return the result line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in raw["metrics"]:
            raise RuntimeError(f"{workload}: perfbench did not report "
                               f"{m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"== {workload} (trace {trace}): {attempted} jobs checked, "
          f"{failed} failed, error_rate {failed / attempted:.4g}")
    for name, m in metrics.items():
        line = f"{workload} {name} {m['value']:.6g} {m['unit']}"
        if name in raw["tails"]:
            pct, n = raw["tails"][name]
            line += f" (p{pct:g} of {n})"
        print(line)
    for err in raw["errors"]:
        log(f"{workload}: INCORRECT: {err}")
    return {"correct": failed == 0 and not raw["errors"],
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload}; "
                               f"one of {', '.join(names)} or all")
        for workload in names if args.workload == "all" else [args.workload]:
            t0 = time.monotonic()
            raw = measure(workload, args.seed, args.seconds, args.trace)
            result = report(spec, workload, raw, args.trace)
            log(f"{workload}: finished in {time.monotonic() - t0:.1f} s")
            print(json.dumps(result), flush=True)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
