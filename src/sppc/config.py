"""Experiment configuration: one JSON document describes a whole run.

The document is canonicalized on parse (complex poles become [re, im]
pairs, matrices become nested float lists) so parse -> serialize ->
parse is the identity, and the resolved form is embedded verbatim in
every run manifest.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError
from .netsim import SOLVER_NAMES, ExperimentSetup
from .numerics import as_int, as_real
from .plant import PlantModel, from_poles
from .synthesis import SynthesisResult, synthesize

SOLVER_CHOICES = SOLVER_NAMES + ("both",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, JSON-shaped experiment description.

    Each field is the document key of the same name, except lam, which is
    "lambda"; the field order is the serialized key order.
    """

    plant: dict
    N: int
    Q: object = "identity"
    alpha: float = 0.5
    solver: str = "omp"
    x0: list | None = None
    p_drop: float = 0.5
    steps: int = 100
    trials: int = 1
    seed: int = 0
    lam: float | None = None


_KEYS = {f.name: "lambda" if f.name == "lam" else f.name
         for f in fields(ExperimentConfig)}
_DEFAULTS = {_KEYS[f.name]: f.default for f in fields(ExperimentConfig)
             if f.default is not MISSING}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _canon_matrix(value, name: str) -> list:
    _require(isinstance(value, list) and value
             and all(isinstance(row, list) and row for row in value),
             f"{name} must be a non-empty nested list of rows")
    width = len(value[0])
    _require(all(len(row) == width for row in value),
             f"{name} rows have inconsistent lengths")
    return [[as_real(entry, f"{name} entry") for entry in row] for row in value]


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
            if isinstance(pole, list):
                _require(len(pole) == 2, f"complex pole must be [re, im], got {pole!r}")
                canon.append([as_real(pole[0], "pole real part"),
                              as_real(pole[1], "pole imaginary part")])
            else:
                canon.append(as_real(pole, "pole"))
        return {"poles": canon}
    _require("A" in value and "B" in value, "explicit plant needs both A and B")
    a = _canon_matrix(value["A"], "plant A")
    _require(len(a) == len(a[0]), "plant A must be square")
    b_raw = value["B"]
    if isinstance(b_raw, list) and b_raw and not isinstance(b_raw[0], list):
        b = [[as_real(entry, "plant B entry")] for entry in b_raw]
    else:
        b = _canon_matrix(b_raw, "plant B")
    _require(len(b) == len(a) and len(b[0]) == 1,
             "plant B must be a single column matching A")
    return {"A": a, "B": b}


def from_dict(document: dict) -> ExperimentConfig:
    """Validate and canonicalize a raw JSON object."""
    _require(isinstance(document, dict), "config root must be an object")
    # a key left from when c had two readings: its one remaining value is dropped
    document = {key: value for key, value in document.items()
                if (key, value) != ("c_interpretation", "column_lift")}
    unknown = set(document) - set(_KEYS.values())
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("plant" in document, "config requires a plant")
    _require("N" in document, "config requires a horizon N")
    document = {**_DEFAULTS, **document}

    plant = _canon_plant(document["plant"])
    n = len(plant["A"]) if "A" in plant else len(plant["poles"])

    horizon = as_int(document["N"], "N", 1)

    q = document["Q"]
    if q != "identity":
        q = _canon_matrix(q, "Q")
        _require(len(q) == n and len(q[0]) == n,
                 f"Q must be {n}x{n} to match the plant")

    alpha = as_real(document["alpha"], "alpha")
    _require(0.0 < alpha < 1.0, f"alpha must lie in (0, 1), got {alpha}")

    solver = document["solver"]
    _require(solver in SOLVER_CHOICES,
             f"solver must be one of {SOLVER_CHOICES}, got {solver!r}")

    lam = document["lambda"]
    if lam is not None:
        lam = as_real(lam, "lambda")
        _require(lam > 0.0, f"lambda must be positive, got {lam}")

    x0 = document["x0"]
    if x0 is not None:
        _require(isinstance(x0, list) and len(x0) == n,
                 f"x0 must be a list of {n} numbers")
        x0 = [as_real(entry, "x0 entry") for entry in x0]

    p_drop = as_real(document["p_drop"], "p_drop")
    _require(0.0 <= p_drop <= 1.0, f"p_drop must lie in [0, 1], got {p_drop}")

    steps = as_int(document["steps"], "steps", 0)
    trials = as_int(document["trials"], "trials", 1)
    seed = as_int(document["seed"], "seed", 0, 2 ** 64)

    return ExperimentConfig(plant=plant, N=horizon, Q=q, alpha=alpha,
                            solver=solver, lam=lam, x0=x0, p_drop=p_drop,
                            steps=steps, trials=trials, seed=seed)


def to_dict(config: ExperimentConfig) -> dict:
    """Serialize back to the canonical JSON shape; unset optionals are omitted."""
    document = {key: getattr(config, name) for name, key in _KEYS.items()}
    return {key: value for key, value in document.items() if value is not None}


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Read a config file, fold in the overrides that are set, validate once."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(document, dict):
        document.update((k, v) for k, v in overrides.items() if v is not None)
    return from_dict(document)


def build_plant(config: ExperimentConfig) -> PlantModel:
    if "poles" in config.plant:
        poles = [pole if isinstance(pole, float) else complex(pole[0], pole[1])
                 for pole in config.plant["poles"]]
        return from_poles(poles)
    return PlantModel(**config.plant)


def run_synthesis(config: ExperimentConfig) -> tuple[PlantModel, SynthesisResult]:
    plant = build_plant(config)
    q = None if config.Q == "identity" else config.Q
    return plant, synthesize(plant, q, config.N, config.alpha)


def build_setup(config: ExperimentConfig) -> ExperimentSetup:
    """Resolve the document into simulation-ready objects."""
    plant, result = run_synthesis(config)
    _require(config.x0 is not None, "simulation requires x0")
    if config.solver in ("l1", "both"):
        _require(config.lam is not None, "l1 solver requires lambda")
    return ExperimentSetup(plant=plant, synthesis=result, solver=config.solver,
                           x0=np.array(config.x0, dtype=float),
                           steps=config.steps, p_drop=config.p_drop,
                           lam=config.lam)
