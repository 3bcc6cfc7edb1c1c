"""Command-line interface.

Subcommands: generate, train, eval, sweep, dump, dof-report. Configuration
comes from a key=value file (--config) with individual flag overrides. On
failure the process exits nonzero with a machine-readable JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import harness
from .exceptions import SemidanseError
from .metrics import nmse_db, nmse_db_stats


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file with [sections]")
    for f in fields(harness.ExperimentConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None,
                            help=f"override config key {f.name}")


def _config_from(args: argparse.Namespace) -> harness.ExperimentConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)
                 if getattr(args, f.name) is not None}
    return harness.load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidanse",
        description="Semi-supervised Bayesian state estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate and persist train/test datasets")
    _add_common(p)
    p.add_argument("--smnr", type=float, default=None,
                   help="single SMNR point (default: every configured point)")

    p = sub.add_parser("train", help="train a learned method, write checkpoint + log")
    _add_common(p)
    p.add_argument("--method", default="semidanse", choices=harness.LEARNED_METHODS)
    p.add_argument("--smnr", type=float, required=True)

    p = sub.add_parser("eval", help="evaluate one method at one SMNR point")
    _add_common(p)
    p.add_argument("--method", required=True, choices=harness.ALL_METHODS)
    p.add_argument("--smnr", type=float, required=True)
    p.add_argument("--per-coordinate", action="store_true")

    p = sub.add_parser("sweep", help="run the configured methods over all SMNR points")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")

    p = sub.add_parser("dump", help="per-step CSV (and optional SVG) of one trajectory")
    _add_common(p)
    p.add_argument("--method", required=True, choices=harness.ALL_METHODS)
    p.add_argument("--smnr", type=float, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("dof-report", help="constraint-counting diagnostics")
    _add_common(p)
    p.add_argument("--smnr", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "generate":
            points = [args.smnr] if args.smnr is not None else list(cfg.smnr_db)
            for point in points:
                train_path, test_path = harness.generate_and_save(cfg, point)
                print(json.dumps({"smnr_db": point, "train": train_path, "test": test_path}))
        elif args.command == "train":
            train_ds = harness.train_split(cfg, args.smnr)
            result = harness.train_method(cfg, args.method, args.smnr, train_ds)
            print(json.dumps({
                "checkpoint": harness.checkpoint_path(cfg, args.method, args.smnr),
                "best_epoch": result.best_epoch,
                "best_val": result.best_val,
                "epochs_run": len(result.log),
            }, sort_keys=True))
        elif args.command == "eval":
            _, test_ds = harness.build_datasets(cfg, args.smnr, need_train=False)
            truth = test_ds.states
            est = harness.method_outputs(cfg, [args.method], args.smnr, test_ds)[0].means
            if args.per_coordinate:
                report = {"aggregate": nmse_db(truth, est)}
                for k in range(truth.shape[-1]):
                    report[f"coord{k + 1}"] = nmse_db(truth, est, coords=[k])
            else:
                value, stderr = nmse_db_stats(truth, est)
                report = {"method": args.method, "smnr_db": args.smnr,
                          "nmse_db": value, "nmse_stderr_db": stderr}
            print(json.dumps(report, sort_keys=True))
        elif args.command == "sweep":
            rows = harness.run_sweep(cfg, jobs=args.jobs)
            for row in sorted(rows, key=lambda r: (r.method, r.smnr_db)):
                print(json.dumps({
                    "method": row.method, "smnr_db": row.smnr_db,
                    "nmse_db": row.nmse_db, "error": row.error,
                }, sort_keys=True))
            failed = [r for r in rows if r.error]
            if failed:
                raise SemidanseError(f"{len(failed)} sweep point(s) failed")
        elif args.command == "dump":
            path = harness.dump_trajectory(cfg, args.method, args.smnr, args.index,
                                           args.out, svg=args.svg)
            print(json.dumps({"csv": path}))
        elif args.command == "dof-report":
            print(json.dumps(harness.dof_report_from_config(cfg, args.smnr), sort_keys=True))
        return 0
    except (SemidanseError, OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
