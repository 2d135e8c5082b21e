"""Experiment configuration: one JSON document describes a whole run.

The document is canonicalized on parse (complex poles become [re, im]
pairs, matrices become nested float lists) so parse -> serialize ->
parse is the identity, and the resolved form is embedded verbatim in
every run manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError
from .lifting import build_horizon
from .netsim import SOLVER_NAMES, ExperimentSetup
from .plant import PlantModel, from_poles
from .synthesis import C_INTERPRETATIONS, SynthesisResult, synthesize

SOLVER_CHOICES = SOLVER_NAMES + ("both",)

_KNOWN_KEYS = {
    "plant", "N", "Q", "alpha", "c_interpretation", "solver", "lambda",
    "x0", "p_drop", "steps", "trials", "seed",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, JSON-shaped experiment description."""

    plant: dict
    N: int
    Q: object = "identity"
    alpha: float = 0.5
    c_interpretation: str = "column_lift"
    solver: str = "omp"
    lam: float | None = None
    x0: list | None = None
    p_drop: float = 0.5
    steps: int = 100
    trials: int = 1
    seed: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_float(value, name: str) -> float:
    _require(isinstance(value, Real) and not isinstance(value, bool),
             f"{name} must be a real number, got {value!r}")
    value = float(value)
    _require(np.isfinite(value), f"{name} must be finite")
    return value


def _as_int(value, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return value


def _canon_matrix(value, name: str) -> list:
    _require(isinstance(value, list) and value
             and all(isinstance(row, list) and row for row in value),
             f"{name} must be a non-empty nested list of rows")
    width = len(value[0])
    _require(all(len(row) == width for row in value),
             f"{name} rows have inconsistent lengths")
    return [[_as_float(entry, f"{name} entry") for entry in row] for row in value]


def _canon_plant(value) -> dict:
    _require(isinstance(value, dict), "plant must be an object")
    has_explicit = "A" in value or "B" in value
    has_poles = "poles" in value
    _require(has_explicit != has_poles,
             "plant must specify exactly one of (A, B) or poles")
    extra = set(value) - {"A", "B", "poles"}
    _require(not extra, f"unknown plant keys: {sorted(extra)}")
    if has_poles:
        poles = value["poles"]
        _require(isinstance(poles, list) and poles, "poles must be a non-empty list")
        canon = []
        for pole in poles:
            if isinstance(pole, Real) and not isinstance(pole, bool):
                canon.append(_as_float(pole, "pole"))
            elif (isinstance(pole, list) and len(pole) == 2):
                canon.append([_as_float(pole[0], "pole real part"),
                              _as_float(pole[1], "pole imaginary part")])
            else:
                raise ConfigError(
                    f"pole must be a number or a [re, im] pair, got {pole!r}"
                )
        return {"poles": canon}
    _require("A" in value and "B" in value, "explicit plant needs both A and B")
    a = _canon_matrix(value["A"], "plant A")
    _require(len(a) == len(a[0]), "plant A must be square")
    b_raw = value["B"]
    if isinstance(b_raw, list) and b_raw and not isinstance(b_raw[0], list):
        b = [[_as_float(entry, "plant B entry")] for entry in b_raw]
    else:
        b = _canon_matrix(b_raw, "plant B")
    _require(len(b) == len(a) and len(b[0]) == 1,
             "plant B must be a single column matching A")
    return {"A": a, "B": b}


def from_dict(document: dict) -> ExperimentConfig:
    """Validate and canonicalize a raw JSON object."""
    _require(isinstance(document, dict), "config root must be an object")
    unknown = set(document) - _KNOWN_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("plant" in document, "config requires a plant")
    _require("N" in document, "config requires a horizon N")

    plant = _canon_plant(document["plant"])
    n = len(plant["A"]) if "A" in plant else len(plant["poles"])

    horizon = _as_int(document["N"], "N")
    _require(horizon >= 1, f"N must be >= 1, got {horizon}")

    q = document.get("Q", "identity")
    if q != "identity":
        q = _canon_matrix(q, "Q")
        _require(len(q) == n and len(q[0]) == n,
                 f"Q must be {n}x{n} to match the plant")

    alpha = _as_float(document.get("alpha", 0.5), "alpha")
    _require(0.0 < alpha < 1.0, f"alpha must lie in (0, 1), got {alpha}")

    interp = document.get("c_interpretation", "column_lift")
    _require(interp in C_INTERPRETATIONS,
             f"c_interpretation must be one of {C_INTERPRETATIONS}, got {interp!r}")

    solver = document.get("solver", "omp")
    _require(solver in SOLVER_CHOICES,
             f"solver must be one of {SOLVER_CHOICES}, got {solver!r}")

    lam = document.get("lambda")
    if lam is not None:
        lam = _as_float(lam, "lambda")
        _require(lam > 0.0, f"lambda must be positive, got {lam}")

    x0 = document.get("x0")
    if x0 is not None:
        _require(isinstance(x0, list) and len(x0) == n,
                 f"x0 must be a list of {n} numbers")
        x0 = [_as_float(entry, "x0 entry") for entry in x0]

    p_drop = _as_float(document.get("p_drop", 0.5), "p_drop")
    _require(0.0 <= p_drop <= 1.0, f"p_drop must lie in [0, 1], got {p_drop}")

    steps = _as_int(document.get("steps", 100), "steps")
    _require(steps >= 0, f"steps must be >= 0, got {steps}")

    trials = _as_int(document.get("trials", 1), "trials")
    _require(trials >= 1, f"trials must be >= 1, got {trials}")

    seed = _as_int(document.get("seed", 0), "seed")
    _require(0 <= seed < 2 ** 64, f"seed must fit in 64 bits, got {seed}")

    return ExperimentConfig(plant=plant, N=horizon, Q=q, alpha=alpha,
                            c_interpretation=interp, solver=solver, lam=lam,
                            x0=x0, p_drop=p_drop, steps=steps, trials=trials,
                            seed=seed)


def to_dict(config: ExperimentConfig) -> dict:
    """Serialize back to the canonical JSON shape."""
    document = {
        "plant": config.plant,
        "N": config.N,
        "Q": config.Q,
        "alpha": config.alpha,
        "c_interpretation": config.c_interpretation,
        "solver": config.solver,
        "x0": config.x0,
        "p_drop": config.p_drop,
        "steps": config.steps,
        "trials": config.trials,
        "seed": config.seed,
    }
    if config.lam is not None:
        document["lambda"] = config.lam
    if config.x0 is None:
        del document["x0"]
    return document


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(document)


def apply_overrides(config: ExperimentConfig, *, seed: int | None = None,
                    trials: int | None = None,
                    solver: str | None = None) -> ExperimentConfig:
    """Fold command-line overrides into the document and re-validate it."""
    overrides = {"seed": seed, "trials": trials, "solver": solver}
    return from_dict({**to_dict(config),
                      **{k: v for k, v in overrides.items() if v is not None}})


def build_plant(config: ExperimentConfig) -> PlantModel:
    if "poles" in config.plant:
        poles = [pole if isinstance(pole, float) else complex(pole[0], pole[1])
                 for pole in config.plant["poles"]]
        return from_poles(poles)
    return PlantModel(A=np.array(config.plant["A"]),
                      B=np.array(config.plant["B"]))


def q_matrix(config: ExperimentConfig, n: int) -> np.ndarray:
    if config.Q == "identity":
        return np.eye(n)
    return np.array(config.Q, dtype=float)


def run_synthesis(config: ExperimentConfig) -> tuple[PlantModel, SynthesisResult]:
    plant = build_plant(config)
    result = synthesize(plant, q_matrix(config, plant.n), config.N, config.alpha,
                        c_interpretation=config.c_interpretation)
    return plant, result


def build_setup(config: ExperimentConfig) -> ExperimentSetup:
    """Resolve the document into simulation-ready objects."""
    plant, result = run_synthesis(config)
    _require(config.x0 is not None, "simulation requires x0")
    if config.solver in ("l1", "both"):
        _require(config.lam is not None, "l1 solver requires lambda")
    horizon = build_horizon(plant, result.Q, result.P, config.N)
    return ExperimentSetup(plant=plant, horizon=horizon, synthesis=result,
                           solver=config.solver,
                           x0=np.array(config.x0, dtype=float),
                           steps=config.steps, p_drop=config.p_drop,
                           lam=config.lam)
