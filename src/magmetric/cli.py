"""Command line surface: magnitude, distance, counterexample, experiment, maggn.

Conventions shared by every subcommand: the seed defaults to 42 and is echoed
before any random draw happens; floats print with 17 significant digits;
--json swaps the text report for one object with keys {command, seed,
params, results, blas_threads}, the last from `_blas.THREADS`. Exit codes:
0 ok, 2 input/config problem, 3 numerical failure, 4 shape mismatch.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._blas import THREADS as BLAS_THREADS
from .core import (DimensionMismatch, RngState, _require_int, fmt17, read_point_csv,
                   write_point_csv)
from .distance import (ScaleSchedule, bound_check, cross_polytope_counterexample,
                       mag_distance)
from .experiments import (config_from_dict, run_study, study_names, summary_path,
                          write_rows, write_summary)
from .magnitude import CholeskyFailure, CoincidentPoints, _nonnegative, magnitude
from .maggn import (TrainConfig, init_generator, load_checkpoint, sample,
                    save_checkpoint, train)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_SHAPE = 4

FULL_VERIFY_MAX_DIM = 1000  # dense cross-check stays desk-sized


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def _echo(args, **fields) -> None:
    """One `key=value` text line; nothing in --json mode."""
    if not args.json:
        print(" ".join(f"{k}={_text(v)}" for k, v in fields.items()))


def _report(args, command: str, seed: int, params: dict, results,
            lines=None) -> None:
    """Print the JSON envelope, or one text line per dict in `lines`
    (default: the list of result dicts itself)."""
    if args.json:
        print(json.dumps({"command": command, "seed": seed, "params": params,
                          "results": results, "blas_threads": BLAS_THREADS},
                         sort_keys=True))
    else:
        for line in results if lines is None else lines:
            _echo(args, **line)


def _list(kind):
    """argparse type: a comma-separated list of `kind` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(",") if p.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


# experiment flags that override the StudyConfig field of the same name
STUDY_FLAGS = {
    "seed": (int, "override the config seed (default 42)"),
    "dims": (_list(int), "comma-separated dims override"),
    "n_per_set": (int, None),
    "trials": (int, None),
    "scales": (_list(float), "comma-separated fixed scales"),
    "adaptive_scales": (_list(str), "comma-separated subset of inv_d,inv_sqrt_d"),
    "shift_mode": (str, "fixed_norm or per_coordinate"),
    "shifts": (_list(float), "comma-separated shift magnitudes"),
    "epsilons": (_list(float), "comma-separated contamination rates"),
    "radii": (_list(float), "comma-separated outlier radii (increasing)"),
}


def cmd_magnitude(args) -> None:
    _echo(args, seed=args.seed)
    points = read_point_csv(args.input, skip_header=args.skip_header)
    results = []
    for t in args.t:  # every scale solves on the one memoised geometry
        res = magnitude(points, t)
        results.append({"t": t, "magnitude": res.magnitude, "residual": res.residual,
                        "nonneg_weighting": _nonnegative(res.weights)})
    _report(args, "magnitude", args.seed, {"input": args.input, "t": list(args.t)},
            results)


def cmd_distance(args) -> None:
    _echo(args, seed=args.seed)
    x = read_point_csv(args.x, skip_header=args.skip_header)
    y = read_point_csv(args.y, skip_header=args.skip_header)
    results = []
    for t in args.t:
        rep = mag_distance(x, y, t)
        entry = {"t": t, "distance": rep.distance, "mag_union": rep.mag_union,
                 "mag_x": rep.mag_x, "mag_y": rep.mag_y}
        if args.normalized:
            entry["normalized"] = rep.normalized
        if args.bound_check:
            chk = bound_check(rep)
            entry.update({"applicable": chk.applicable, "holds": chk.holds})
        results.append(entry)
    _report(args, "distance", args.seed,
            {"x": args.x, "y": args.y, "t": list(args.t),
             "normalized": args.normalized, "bound_check": args.bound_check},
            results)


def cmd_counterexample(args) -> None:
    if args.full_verify and args.dim > FULL_VERIFY_MAX_DIM:
        raise ValueError(f"--full-verify supports dim <= {FULL_VERIFY_MAX_DIM}")
    _echo(args, seed=args.seed)
    res = cross_polytope_counterexample(args.dim, args.t,
                                        full_verify=args.full_verify)
    lines = [{"dim": args.dim, "t": args.t, "gap": res.gap, "slack": res.slack,
              "triangle_violated": res.slack < 0}]
    if args.full_verify:
        lines.append({"dense_gap": res.dense_gap,
                      "agreement": abs(res.dense_gap - res.gap)})
    _report(args, "counterexample", args.seed,
            {"dim": args.dim, "t": args.t, "full_verify": args.full_verify},
            {k: v for line in lines for k, v in line.items()}, lines)


def cmd_experiment(args) -> None:
    file_data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
    overrides = {name: getattr(args, name) for name in STUDY_FLAGS
                 if getattr(args, name) is not None}
    cfg = config_from_dict(args.study, file_data, **overrides)
    if not args.out:
        raise ValueError("--out must name a file")
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")
    if os.path.isdir(args.out):
        raise ValueError(f"--out {args.out!r} is a directory, not a file")
    cfg_dict = dataclasses.asdict(cfg)
    _echo(args, seed=cfg.seed)
    _echo(args, config=json.dumps(cfg_dict, sort_keys=True))
    rows = run_study(args.study, cfg)
    write_rows(args.out, rows)
    spath = summary_path(args.out)
    write_summary(spath, rows)
    results = {"rows": len(rows), "failed_rows": sum(1 for r in rows if r.error),
               "csv": args.out, "summary": spath}
    _report(args, "experiment", cfg.seed,
            {"study": args.study, "out": args.out, "config_file": args.config},
            {**results, "config": cfg_dict}, [{"study": args.study, **results}])


def cmd_maggn_train(args) -> None:
    if not args.out:
        raise ValueError("--out must name a directory")
    schedule = ScaleSchedule.parse(args.schedule)
    config = TrainConfig(schedule=schedule, epochs=args.epochs,
                         batch_real=args.batch_real, batch_gen=args.batch_gen,
                         learning_rate=args.lr, seed=args.seed)
    _echo(args, seed=args.seed)
    if args.epochs < schedule.last_epoch:
        print(f"warning: schedule entry at epoch {schedule.last_epoch} never "
              f"activates within --epochs {args.epochs}", file=sys.stderr)
    data = read_point_csv(args.data, skip_header=args.skip_header)
    gen = init_generator(RngState(args.seed).derive(0), args.layer_dims)
    if data.dim != gen.data_dim:  # refused before --out is created
        raise DimensionMismatch(f"data dim {data.dim} vs generator output {gen.data_dim}")
    os.makedirs(args.out, exist_ok=True)
    gen, log = train(gen, data, config)
    ckpt = os.path.join(args.out, "checkpoint.json")
    log_path = os.path.join(args.out, "train_log.csv")
    save_checkpoint(gen, ckpt)
    log.to_csv(log_path)
    results = {"final_loss": log.rows[-1].loss if log.rows else float("nan"),
               "error_epochs": sum(1 for r in log.rows if r.error),
               "checkpoint": ckpt, "train_log": log_path}
    _report(args, "maggn-train", args.seed,
            {"data": args.data, "schedule": args.schedule,
             "epochs": args.epochs, "out": args.out,
             "layer_dims": list(args.layer_dims), "lr": args.lr},
            results, [{"epochs": args.epochs, **results}])


def cmd_maggn_sample(args) -> None:
    if not args.out:
        raise ValueError("--out must name a directory")
    ckpt = os.path.join(args.out, "checkpoint.json")
    gen = load_checkpoint(ckpt)
    _require_int(args.n, "n", 1)
    _echo(args, seed=args.seed)
    rng = RngState(args.seed).derive(2)
    points = sample(gen, rng, args.n)
    out_csv = os.path.join(args.out, "samples.csv")
    write_point_csv(out_csv, points)
    results = {"dim": gen.data_dim, "samples": out_csv}
    _report(args, "maggn-sample", args.seed, {"out": args.out, "n": args.n},
            {**results, "checkpoint": ckpt}, [{"n": args.n, **results}])


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=42,
                        help="deterministic seed (echoed in output)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of text lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magmetric",
        description="Magnitude of finite point sets, magnitude distances, "
                    "baseline distances, and deterministic studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mag = sub.add_parser("magnitude", help="magnitude of a point CSV at one or more scales")
    p_mag.add_argument("--input", required=True, help="point CSV (one point per line)")
    p_mag.add_argument("--t", type=float, action="append", required=True,
                       help="scale; repeatable")
    p_mag.add_argument("--skip-header", action="store_true",
                       help="skip the first CSV line")
    _add_common(p_mag)
    p_mag.set_defaults(func=cmd_magnitude)

    p_dist = sub.add_parser("distance", help="magnitude distance between two point CSVs")
    p_dist.add_argument("--x", required=True)
    p_dist.add_argument("--y", required=True)
    p_dist.add_argument("--t", type=float, action="append", required=True)
    p_dist.add_argument("--normalized", action="store_true",
                        help="also report distance / union magnitude")
    p_dist.add_argument("--bound-check", action="store_true",
                        help="check 0 <= d <= 2|X u Y| and report applicability")
    p_dist.add_argument("--skip-header", action="store_true")
    _add_common(p_dist)
    p_dist.set_defaults(func=cmd_distance)

    p_ce = sub.add_parser("counterexample",
                          help="cross-polytope triangle-inequality violation")
    p_ce.add_argument("--dim", type=int, required=True)
    p_ce.add_argument("--t", type=float, default=5.0)
    p_ce.add_argument("--full-verify", action="store_true",
                      help=f"cross-check with the dense solver (dim <= {FULL_VERIFY_MAX_DIM})")
    _add_common(p_ce)
    p_ce.set_defaults(func=cmd_counterexample)

    p_exp = sub.add_parser("experiment", help="run a study and write CSV + JSON summary")
    p_exp.add_argument("--study", required=True, choices=study_names())
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.add_argument("--config", help="JSON file of config overrides")
    for name, (kind, help_text) in STUDY_FLAGS.items():
        p_exp.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                           help=help_text)
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    p_gn = sub.add_parser("maggn", help="toy push-forward generator")
    gn_sub = p_gn.add_subparsers(dest="mode", required=True)

    p_train = gn_sub.add_parser("train", help="train on a point CSV")
    p_train.add_argument("--data", required=True, help="target point CSV")
    p_train.add_argument("--schedule", required=True,
                         help="scale schedule 't1@e1,t2@e2,...', e.g. 0.5@1,1.5@100,3.0@200")
    p_train.add_argument("--epochs", type=int, default=300)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--layer-dims", dest="layer_dims", type=_list(int),
                         default="2,32,32,2",
                         help="comma-separated MLP sizes, z_dim first")
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--batch-real", type=int, dest="batch_real", default=64)
    p_train.add_argument("--batch-gen", type=int, dest="batch_gen", default=64)
    p_train.add_argument("--skip-header", action="store_true")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_maggn_train)

    p_sample = gn_sub.add_parser("sample", help="sample from a trained checkpoint")
    p_sample.add_argument("--out", required=True,
                          help="directory holding checkpoint.json; samples.csv lands here")
    p_sample.add_argument("--n", type=int, default=500)
    _add_common(p_sample)
    p_sample.set_defaults(func=cmd_maggn_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DimensionMismatch as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (CholeskyFailure, CoincidentPoints) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
