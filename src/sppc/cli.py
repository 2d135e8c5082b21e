"""Command-line front end.

Three subcommands drive the library from one JSON config: `synthesize`
writes a manifest with the designed parameters and their invariant
checks, `simulate` adds a single closed-loop trace as CSV, and
`montecarlo` adds averaged curves plus a summary. Outputs are plain
files; plotting is left to whatever consumes the CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as config_mod
from .errors import BufferExhausted, ConfigError, SppcError
from .netsim import (SOLVER_NAMES, MonteCarloResult, log_decay_slope,
                     run_montecarlo, run_trial)
from .synthesis import check_invariants

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_SIMULATION = 3

TRACE_HEADER = "k,norm_x,l0_u,dropped,input,design_time_us"


def _fmt(value: float) -> str:
    # 17 significant digits keep the CSV round-trippable to the exact double
    return format(float(value), ".17g")


def _matrix_rows(m) -> list:
    return [[float(v) for v in row] for row in np.asarray(m)]


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _manifest(command: str, cfg, plant, syn) -> dict:
    checks = check_invariants(plant, syn)
    return {
        "command": command,
        "config": config_mod.to_dict(cfg),
        "synthesis": {
            "P": _matrix_rows(syn.P),
            "rho": syn.rho,
            "c": syn.c,
            "Eps": _matrix_rows(syn.Eps),
            "W": _matrix_rows(syn.W),
            "alpha": syn.alpha,
            "riccati_iterations": syn.riccati_iterations,
            "riccati_residual": syn.riccati_residual,
        },
        "checks": [
            {"name": c.name, "passed": bool(c.passed),
             "value": float(c.value), "limit": float(c.limit)}
            for c in checks
        ],
        "all_checks_passed": all(c.passed for c in checks),
    }


def _emit_manifest(command: str, cfg, plant, syn, out_dir: str) -> bool:
    document = _manifest(command, cfg, plant, syn)
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, document)
    print(f"wrote {path}")
    return document["all_checks_passed"]


def cmd_synthesize(cfg, out_dir: str) -> int:
    plant, syn = config_mod.run_synthesis(cfg)
    ok = _emit_manifest("synthesize", cfg, plant, syn, out_dir)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_simulate(cfg, out_dir: str) -> int:
    if cfg.solver not in SOLVER_NAMES:
        raise ConfigError(f"simulate needs a single solver, one of {SOLVER_NAMES}")
    setup = config_mod.build_setup(cfg)
    ok = _emit_manifest("simulate", cfg, setup.plant, setup.synthesis, out_dir)
    trace = run_trial(setup.plant, setup.horizon, setup.synthesis, cfg.solver,
                      setup.x0, cfg.steps, cfg.seed, p_drop=cfg.p_drop,
                      lam=cfg.lam)
    lines = [TRACE_HEADER]
    for k in range(cfg.steps + 1):
        lines.append(",".join([
            str(k),
            _fmt(trace.norm_x[k]),
            str(int(trace.l0[k])),
            str(int(trace.dropped[k])),
            _fmt(trace.inputs[k]),
            _fmt(trace.design_time_us[k]),
        ]))
    path = os.path.join(out_dir, "trace.csv")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_NUMERIC


def _aggregate_lines(result: MonteCarloResult) -> list[str]:
    columns: list[tuple[str, np.ndarray]] = []
    for agg in result.aggregates:
        if agg.solver == "omp":
            columns.append(("mean_norm_x_omp", agg.mean_norm_x))
            columns.append(("mean_l0_omp", agg.mean_l0))
        else:
            columns.append(("mean_norm_x_l1", agg.mean_norm_x))
            columns.append(("mean_l1_l0", agg.mean_l0))
    lines = ["k," + ",".join(name for name, _ in columns)]
    for k in range(result.steps + 1):
        row = [str(k)] + [_fmt(values[k]) for _, values in columns]
        lines.append(",".join(row))
    return lines


def _summary(result: MonteCarloResult) -> dict:
    document = {}
    for agg in result.aggregates:
        document[agg.solver] = {
            "log_decay_slope": log_decay_slope(agg.mean_norm_x),
            "mean_l0": float(agg.mean_l0[:result.steps].mean()),
            "mean_design_time_us": agg.mean_design_time_us,
        }
    return document


def cmd_montecarlo(cfg, out_dir: str, workers: int) -> int:
    setup = config_mod.build_setup(cfg)
    ok = _emit_manifest("montecarlo", cfg, setup.plant, setup.synthesis, out_dir)
    result = run_montecarlo(setup, cfg.trials, cfg.seed, workers=workers)
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    _write_lines(aggregate_path, _aggregate_lines(result))
    print(f"wrote {aggregate_path}")
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, _summary(result))
    print(f"wrote {summary_path}")
    return EXIT_OK if ok else EXIT_NUMERIC


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # config-error path so exit codes keep their documented meaning
    def error(self, message):
        raise ConfigError(message)


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_mod.load_config(args.config)
        cfg = config_mod.apply_overrides(cfg, seed=args.seed,
                                         trials=args.trials,
                                         solver=args.solver)
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


if __name__ == "__main__":
    sys.exit(main())
