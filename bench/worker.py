"""One workload in one fresh process: set up, run timed passes, check outputs.

run.py starts this file with the checkout's `src` on PYTHONPATH and prints
nothing of it but the JSON line this writes last. Every pass is one whole
`magmetric` command run in-process through `magmetric.cli.main`.
"""
import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    p.add_argument("--probe", action="store_true",
                   help="stop once set up; only the set-up time is wanted")
    return p.parse_args()


ARGS = _parse()
_IMPORT_START = time.perf_counter()
import magmetric  # noqa: E402
import magmetric.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _IMPORT_START

import numpy as np  # noqa: E402

from oracle import check_report, check_value_and_gradient  # noqa: E402
from tracer import Tracer  # noqa: E402

SCHEDULE = "0.5@1,1.5@60,3.0@150"
TARGET_MEAN = (3.0, 2.0)
TARGET_STD = 0.15
TARGET_POINTS = 256


class Workload:
    """How to run one pass, which boundary to time, and what it writes."""

    def __init__(self, name, boundary, files, sample_stride):
        self.name = name
        self.boundary = boundary        # (module, attribute) of the distance call
        self.files = files              # outputs compared pass to pass
        self.sample_stride = sample_stride  # every k-th distance call is re-checked

    def argv(self, seed, data, out):
        if self.name == "maggn_train":
            return ["maggn", "train", "--data", data, "--schedule", SCHEDULE,
                    "--epochs", "300", "--lr", "0.01", "--seed", str(seed),
                    "--out", out]
        study = self.name[len("study_"):]
        return ["experiment", "--study", study, "--seed", str(seed),
                "--out", os.path.join(out, "rows.csv")]


WORKLOADS = {
    "study_highdim": Workload("study_highdim", ("magmetric.experiments", "mag_distance"),
                              ("rows.csv", "rows.csv.summary.json"), 50),
    "study_huber": Workload("study_huber", ("magmetric.experiments", "mag_distance"),
                            ("rows.csv", "rows.csv.summary.json"), 19),
    "maggn_train": Workload("maggn_train", ("magmetric.maggn", "_value_and_gradient"),
                            ("checkpoint.json", "train_log.csv"), 87),
}


def write_inputs(workload, seed, workdir):
    """The training target of acceptance criterion 12, drawn from the seed."""
    if workload.name != "maggn_train":
        return None
    rng = np.random.default_rng(seed)
    pts = np.asarray(TARGET_MEAN) + TARGET_STD * rng.standard_normal((TARGET_POINTS, 2))
    path = os.path.join(workdir, "target.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in pts:
            fh.write(f"{x:.17g},{y:.17g}\n")
    return path


class CallTimer:
    """Times every call at the distance boundary and keeps every k-th call
    (with its arguments and result) for the output oracle."""

    def __init__(self, fn, stride, offset):
        self.fn = fn
        self.stride = stride
        self.offset = offset
        self.seconds = []   # pooled over the untraced passes
        self.samples = []   # (args, kwargs, result) of the current pass
        self.index = 0
        self.timing = True

    def start_pass(self, timing):
        self.samples = []
        self.index = 0
        self.timing = timing

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = self.fn(*args, **kwargs)
        finally:
            if self.timing:
                self.seconds.append(time.perf_counter() - start)
            picked = self.index % self.stride == self.offset
            self.index += 1
        if picked:
            self.samples.append((args, kwargs, result))
        return result


def read_outputs(workload, out):
    """(bytes that must repeat, output units, failed units, per-layer
    figures read from the outputs) for one pass."""
    blobs = {}
    for name in workload.files:
        with open(os.path.join(out, name), "rb") as fh:
            blobs[name] = fh.read()
    if workload.name == "maggn_train":
        lines = blobs["train_log.csv"].decode().splitlines()[1:]
        # the seconds column is wall time and differs on every pass
        blobs["train_log.csv"] = "\n".join(l.rsplit(",", 1)[0] for l in lines).encode()
        fields = [l.split(",") for l in lines]
        bad = sum(1 for f in fields
                  if not (math.isfinite(float(f[2])) and math.isfinite(float(f[3]))))
        losses = [float(f[2]) for f in fields if f[1] != "0"]
        ratio = losses[-1] / losses[0] if losses and losses[0] else float("nan")
        return blobs, len(fields), bad, {"experiments.output_bytes": 0,
                                         "maggn.loss_ratio": ratio,
                                         "maggn.epochs": len(fields),
                                         "maggn.error_epochs": bad}
    rows = blobs["rows.csv"].decode().splitlines()[1:]
    bad = 0
    for row in rows:
        fields = row.split(",")
        if fields[-1] != "" or not math.isfinite(float(fields[-2])):
            bad += 1
    size = sum(len(b) for b in blobs.values())
    return blobs, len(rows), bad, {"experiments.output_bytes": size,
                                   "maggn.loss_ratio": 0.0, "maggn.epochs": 0,
                                   "maggn.error_epochs": 0}


def oracle_checks(workload, timer, pass_id, seed):
    results = []
    mag_distance = magmetric.distance.mag_distance
    for k, (args, kwargs, result) in enumerate(timer.samples):
        x, y, t = args[0], args[1], args[2]
        if workload.name == "maggn_train":
            value, grad = result
            coords = None
            if k == 0:  # one gradient per pass, at coordinates drawn from seed and pass
                rng = np.random.default_rng([seed, pass_id])
                flat = rng.choice(grad.size, size=min(8, grad.size), replace=False)
                coords = [divmod(int(f), grad.shape[1]) for f in flat]
            results += check_value_and_gradient(x, y, t, value, grad, mag_distance,
                                                coords)
        else:
            results += check_report(x, y, t, result, mag_distance)
    return results


def blas_record():
    """Thread count and build string of each bundled OpenBLAS in this process."""
    import ctypes
    import glob
    import scipy
    record = {}
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                cfg = getattr(lib, "scipy_openblas_get_config" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            cfg.argtypes, cfg.restype = [], ctypes.c_char_p
            record[pkg.__name__] = {"threads": get(), "config": cfg().decode()}
    return record


def env_record(root):
    import platform
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src", "magmetric")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_record(),
            "env": {k: os.environ.get(k, "unset") for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAGMETRIC_THREADS")},
            "src_lines": lines}


def run_passes(workload, data):
    """Passes until --seconds have gone by; returns the worker's result."""
    module, attr = workload.boundary
    owner = sys.modules[module]
    timer = CallTimer(getattr(owner, attr), workload.sample_stride,
                      ARGS.seed % workload.sample_stride)
    setattr(owner, attr, timer)
    tracer = Tracer() if ARGS.trace else None
    walls, cpus, traced_walls = [], [], []
    attempted = failed = units = 0
    first = None
    extra = {}
    misses = []
    started = time.perf_counter()
    pass_id = 0
    while True:
        traced = tracer is not None and pass_id % 2 == 1
        out = os.path.join(ARGS.workdir, f"pass{pass_id}")
        os.makedirs(out)
        argv = workload.argv(ARGS.seed, data, out)
        main = magmetric.cli.main
        timer.start_pass(timing=not traced)
        if traced:
            tracer.install(pass_id)
            main = tracer.root("cli.main", main)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                code = main(argv)
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        # everything below is outside the timed region
        (traced_walls if traced else walls).append(wall)
        if not traced:
            cpus.append(cpu)
        attempted += 1
        if code != 0:
            failed += 1
            misses.append(f"pass {pass_id}: exit code {code}")
        else:
            blobs, n_units, n_bad, extra = read_outputs(workload, out)
            units = n_units
            attempted += n_units
            failed += n_bad
            if n_bad:
                misses.append(f"pass {pass_id}: {n_bad} error or non-finite outputs")
            if first is None:
                first = blobs
            else:
                for name in workload.files:
                    attempted += 1
                    if blobs[name] != first[name]:
                        failed += 1
                        misses.append(f"pass {pass_id}: {name} bytes differ from pass 0")
            for check, ok in oracle_checks(workload, timer, pass_id, ARGS.seed):
                attempted += 1
                if not ok:
                    failed += 1
                    misses.append(f"pass {pass_id}: oracle {check} check failed")
        for name in os.listdir(out):
            os.remove(os.path.join(out, name))
        os.rmdir(out)
        pass_id += 1
        enough = time.perf_counter() - started >= ARGS.seconds and len(walls) >= 2
        if enough and (tracer is None or traced_walls):
            break
    setattr(owner, attr, timer.fn)

    result = {"walls": walls, "cpus": cpus, "units": units,
              "call_ms": [s * 1e3 for s in timer.seconds],
              "attempted": attempted, "failed": failed, "misses": misses[:20]}
    if tracer is not None:
        layers, repeat = tracer.metrics()
        layers.update(extra)
        layers["cli.import_s"] = IMPORT_S
        # pass 0 also pays first-call costs, so the untraced side starts at pass 2
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls[1:]) - 1.0)
        result.update(layers=layers, traced_walls=traced_walls,
                      exact_counts_repeat=repeat)
        if not repeat:
            result["failed"] += 1
            result["misses"].append("exact per-layer counts differ between passes")
        if ARGS.spans:
            tracer.write_spans(ARGS.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main():
    root = os.path.realpath(ARGS.root)
    src = os.path.join(root, "src")
    if os.path.dirname(os.path.dirname(os.path.realpath(magmetric.__file__))) != src:
        print(f"magmetric imported from {magmetric.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[ARGS.workload]
    data = write_inputs(workload, ARGS.seed, ARGS.workdir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if ARGS.probe:
        print(json.dumps({"ready": ready}))
        return 0
    result = run_passes(workload, data)
    result.update(ready=ready, env=env_record(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
