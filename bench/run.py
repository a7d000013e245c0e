"""magmetric benchmark: three workloads driven through the `magmetric` CLI.

    python3 bench/run.py                          # all workloads, seed 42
    python3 bench/run.py --workload study_huber --seed 7
    python3 bench/run.py --trace 1                # per-layer breakdown
    python3 bench/run.py --blas1                  # ungated 1-BLAS-thread reference

Each workload runs in fresh processes started from the repository root
(`src/magmetric` must be there). The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; full results, with the
environment record, go to bench/out/. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("study_highdim", "study_huber", "maggn_train")
SETUP_PROBES = 6         # fresh processes that only set up, half before and half
                         # after the timed run; setup_s is the median of their
                         # set-up times and the timed run's
DEADLINE_S = 170.0       # a single workload run ends well inside 180 s
SCRUBBED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAGMETRIC_THREADS")

END_TO_END = [  # name, unit; BENCHMARK.json says which are gated
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("call_ms.p50", "ms"), ("call_ms.p95", "ms"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "1"),
]
# Printed but not gated: failed_ratio is 0 when all is well, so it travels as
# failed/attempted in the result line. call_ms.p95 falls where normal calls
# meet the stalls of the spinning BLAS threads on study_highdim, so it moves by
# a fifth to a third from run to run.


def load_spec() -> dict:
    """BENCHMARK.json: run_seconds and the gated metric specs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(blas1: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker; return (its start time, its parsed JSON result)."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args[:4])} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return started, json.loads(lines[-1])


def percentile(values, q):
    if not values:  # no call completed; the run already counts as failed
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def run_workload(name, seed, seconds, trace, blas1, deadline, per_layer) -> dict:
    env = child_env(blas1)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    tag = name + (".blas1" if blas1 else "") + (".trace" if trace else "")
    common = ["--root", ROOT, "--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace)]
    probes = 0 if trace else SETUP_PROBES
    setups = []

    def probe(i):
        probe_dir = os.path.join(workdir, f"probe{i}")
        os.makedirs(probe_dir)
        started, ready = spawn(common + ["--workdir", probe_dir, "--probe"],
                               env, deadline)
        setups.append(ready["ready"] - started)

    try:
        # the host's speed drifts over tens of seconds, so set-up is sampled on
        # both sides of the timed run rather than in one burst
        for i in range(probes // 2):
            probe(i)
        run_dir = os.path.join(workdir, "run")
        os.makedirs(run_dir)
        spans = ["--spans", os.path.join(OUT, tag + ".spans.jsonl")] if trace else []
        started, res = spawn(common + ["--workdir", run_dir] + spans, env, deadline)
        setups.append(res["ready"] - started)
        for i in range(probes // 2, probes):
            probe(i)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = res["call_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "ops_per_s": statistics.median(res["units"] / w for w in res["walls"]),
        "call_ms.p50": percentile(calls, 0.50),
        "call_ms.p95": percentile(calls, 0.95),
        "cpu_s": statistics.median(res["cpus"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_ratio": res["failed"] / res["attempted"],
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "blas1": blas1, "env": res["env"],
        "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "samples": {"passes": len(res["walls"]), "calls": len(calls),
                    "setups": len(setups), "walls": res["walls"],
                    "cpus": res["cpus"], "setup_s": setups},
        "attempted": res["attempted"], "failed": res["failed"],
        "misses": res["misses"],
    }
    if trace:
        result["per_layer"] = {m["name"]: {"value": res["layers"][m["name"]],
                                           "unit": m["unit"]} for m in per_layer}
        result["samples"]["traced_walls"] = res["traced_walls"]
        result["exact_counts_repeat"] = res["exact_counts_repeat"]
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def report(result) -> None:
    """Human-readable lines; the result line printed last stays the contract."""
    env = result["env"]
    blas = ", ".join(f"{k} {v['threads']} thr" for k, v in sorted(env["blas"].items()))
    label = " (OPENBLAS_NUM_THREADS=1 reference, ungated)" if result["blas1"] else ""
    print(f"== {result['workload']} seed={result['seed']}{label}")
    print(f"   env: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas [{blas}], "
          f"MAGMETRIC_THREADS={env['env']['MAGMETRIC_THREADS']}, "
          f"src lines {env['src_lines']}")
    s = result["samples"]
    print(f"   samples: {s['passes']} passes, {s['calls']} distance calls, "
          f"{s['setups']} set-ups")
    for name, m in result["end_to_end"].items():
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, m in result.get("per_layer", {}).items():
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']}")
    for miss in result["misses"]:
        print(f"   FAILED: {miss}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                   help="one workload, as the gated runs name it; default all three")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int,
                   help="must equal run_seconds in BENCHMARK.json, which sets "
                        "the measured time per workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas1", action="store_true",
                   help="ungated reference: OPENBLAS_NUM_THREADS=1 in the children")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "magmetric", "cli.py")):
        print(f"error: no src/magmetric under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        # each workload gets its own 170 s budget, so one run stays under 180 s
        deadline = time.monotonic() + DEADLINE_S
        try:
            results.append(run_workload(name, args.seed, seconds, args.trace,
                                        args.blas1, deadline, per_layer))
        except (RuntimeError, KeyError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        table = res["per_layer"] if args.trace else {
            m["name"]: res["end_to_end"][m["name"]] for m in end_to_end}
        for key, m in table.items():
            metrics[prefix + key] = m
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
