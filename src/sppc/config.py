"""Experiment configuration: one JSON document describes a whole run.

The document is canonicalized on parse (complex poles become [re, im]
pairs, matrices become nested float lists) so parse -> serialize ->
parse is the identity, and the resolved form is embedded verbatim in
every run manifest. Arrays pass the library's own checks (PlantModel for
A and B, as_array for the rest); a misshapen one too is a ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError, DimensionMismatch
from .netsim import SOLVER_NAMES, ExperimentSetup
from .numerics import as_array, as_int, as_real
from .plant import PlantModel, from_poles
from .solvers import _l1_weight
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


def _canon_plant(value) -> dict:
    _require(isinstance(value, dict) and set(value) in ({"A", "B"}, {"poles"}),
             "plant must be an object with keys A and B, or poles alone")
    if "A" in value:
        plant = PlantModel(value["A"], value["B"])
        return {"A": plant.A.tolist(), "B": plant.B.tolist()}
    poles = value["poles"]
    _require(isinstance(poles, list) and poles, "poles must be a non-empty list")
    return {"poles": [as_array(pole, "complex pole", (2,)).tolist()
                      if isinstance(pole, list) else as_real(pole, "pole")
                      for pole in poles]}


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
    horizon = as_int(document["N"], "N", 1)

    try:
        plant = _canon_plant(document["plant"])
        n = len(plant["A"]) if "A" in plant else len(plant["poles"])
        q, x0 = document["Q"], document["x0"]
        if not isinstance(q, str) or q != "identity":
            q = as_array(q, "Q", (n, n)).tolist()
        if x0 is not None:
            x0 = as_array(x0, "x0", (n,)).tolist()
    except DimensionMismatch as exc:
        raise ConfigError(str(exc)) from exc

    alpha = as_real(document["alpha"], "alpha")
    _require(0.0 < alpha < 1.0, f"alpha must lie in (0, 1), got {alpha}")

    solver = document["solver"]
    _require(solver in SOLVER_CHOICES,
             f"solver must be one of {SOLVER_CHOICES}, got {solver!r}")

    lam = document["lambda"]
    if lam is not None:
        lam = _l1_weight(lam)

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


def run_synthesis(config: ExperimentConfig) -> SynthesisResult:
    """Synthesize for the config's plant; the result holds that plant."""
    q = None if config.Q == "identity" else config.Q
    return synthesize(build_plant(config), q, config.N, config.alpha)


def build_setup(config: ExperimentConfig) -> ExperimentSetup:
    """Resolve the document into simulation-ready objects."""
    result = run_synthesis(config)
    _require(config.x0 is not None, "simulation requires x0")
    if config.solver in ("l1", "both"):
        _require(config.lam is not None, "l1 solver requires lambda")
    return ExperimentSetup(synthesis=result, solver=config.solver, x0=config.x0,
                           steps=config.steps, p_drop=config.p_drop, lam=config.lam)
