"""Command-line front end.

Three subcommands drive the library from one JSON config: `synthesize`
writes a manifest with the designed parameters and their invariant
checks, `simulate` adds a single closed-loop trace as CSV, and
`montecarlo` adds averaged curves plus a summary. Outputs are plain
files; plotting is left to whatever consumes the CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import config as config_mod
from .errors import BufferExhausted, ConfigError, SppcError
from .netsim import SolverAggregate, log_decay_slope, run_montecarlo, run_trial
from .synthesis import check_invariants

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_SIMULATION = 3

# aggregate.csv column names per solver: (mean norm, mean l0)
AGGREGATE_COLUMNS = {
    "omp": ("mean_norm_x_omp", "mean_l0_omp"),
    "l1": ("mean_norm_x_l1", "mean_l1_l0"),
}


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def _write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    # integer columns as integers; 17 significant digits round-trip every double
    values = list(columns.values())
    fmt = ["%d" if column.dtype.kind in "iu" else "%.17g" for column in values]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        np.savetxt(handle, np.column_stack(values), fmt=fmt, delimiter=",",
                   header=",".join(columns), comments="")
    print(f"wrote {path}")


def _emit_manifest(command: str, cfg, syn, out_dir: str) -> bool:
    checks = check_invariants(syn.plant, syn)
    passed = all(c.passed for c in checks)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "config": cfg,
        "synthesis": {
            "P": syn.P.tolist(),
            "rho": syn.rho,
            "c": syn.c,
            "Eps": syn.Eps.tolist(),
            "W": syn.W.tolist(),
            "riccati_iterations": syn.riccati_iterations,
        },
        "checks": [
            {"name": c.name, "passed": bool(c.passed),
             "value": float(c.value), "limit": float(c.limit)}
            for c in checks
        ],
        "all_checks_passed": passed,
    })
    return passed


def cmd_synthesize(cfg, out_dir: str) -> int:
    syn = config_mod.run_synthesis(cfg)
    ok = _emit_manifest("synthesize", cfg, syn, out_dir)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_simulate(cfg, out_dir: str) -> int:
    setup = config_mod.build_setup(cfg)
    trace = run_trial(setup.plant, setup.horizon, setup.synthesis, setup.solver,
                      setup.x0, setup.steps, cfg["seed"], p_drop=setup.p_drop,
                      lam=setup.lam)
    _write_csv(os.path.join(out_dir, "trace.csv"), {
        "k": np.arange(setup.steps + 1), "norm_x": trace.norm_x, "l0_u": trace.l0,
        "dropped": trace.dropped, "input": trace.inputs,
        "design_time_us": trace.design_time_us})
    ok = _emit_manifest("simulate", cfg, setup.synthesis, out_dir)
    return EXIT_OK if ok else EXIT_NUMERIC


def _summary(result: dict[str, SolverAggregate]) -> dict:
    return {
        solver: {
            "log_decay_slope": log_decay_slope(agg.mean_norm_x),
            # the last row holds the final state only, with no design
            "mean_l0": float(agg.mean_l0[:-1].mean()),
            "mean_design_time_us": agg.mean_design_time_us,
        }
        for solver, agg in result.items()
    }


def cmd_montecarlo(cfg, out_dir: str, workers: int) -> int:
    setup = config_mod.build_setup(cfg)
    result = run_montecarlo(setup, cfg["trials"], cfg["seed"], workers=workers)
    ok = _emit_manifest("montecarlo", cfg, setup.synthesis, out_dir)
    columns = {"k": np.arange(setup.steps + 1)}
    for solver, agg in result.items():
        columns.update(zip(AGGREGATE_COLUMNS[solver], (agg.mean_norm_x, agg.mean_l0)))
    _write_csv(os.path.join(out_dir, "aggregate.csv"), columns)
    _write_json(os.path.join(out_dir, "summary.json"), _summary(result))
    return EXIT_OK if ok else EXIT_NUMERIC


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # config-error path so exit codes keep their documented meaning
    def error(self, message):
        raise ConfigError(message)


@functools.cache     # one parser per process, built on first use: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="experiment JSON path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--trials", type=int, default=None,
                        help="override the config trial count")
    common.add_argument("--solver", choices=config_mod.SOLVER_CHOICES,
                        default=None, help="override the config solver")
    parser = _Parser(prog="sppc",
                     description="sparsely packetized predictive control")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synthesize", parents=[common],
                   help="design stability parameters and check them")
    sub.add_parser("simulate", parents=[common],
                   help="run one closed-loop trial")
    mc = sub.add_parser("montecarlo", parents=[common],
                        help="run averaged trials")
    mc.add_argument("--workers", type=int, default=1,
                    help="worker processes for trials (output is identical "
                         "for any worker count)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_mod.load_config(args.config, seed=args.seed,
                                     trials=args.trials, solver=args.solver)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "synthesize":
            return cmd_synthesize(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        return cmd_montecarlo(cfg, args.out, args.workers)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except BufferExhausted as exc:
        return _fail(exc, EXIT_SIMULATION)
    except SppcError as exc:
        return _fail(exc, EXIT_NUMERIC)
    except OSError as exc:
        return _fail(exc, EXIT_CONFIG)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code
