"""Experiment configuration: one JSON document describes a whole run.

A config is its canonical document, a plain dict that every run manifest
embeds as it is. from_dict returns it with plant and N first and the
optional keys after them in _DEFAULTS' order, each default filled in and
the unset ones (x0, lambda) left out; complex poles become [re, im]
pairs and matrices nested float lists, so from_dict of the document is
the document. Arrays pass the library's own checks (PlantModel for A
and B, as_array for the rest), and a misshapen one too is a ConfigError;
alpha, lambda and p_drop pass the rules of the functions that take them.
"""

from __future__ import annotations

import json

from .errors import ConfigError, DimensionMismatch
from .netsim import SOLVER_NAMES, ExperimentSetup, _p_drop
from .numerics import as_array, as_int, as_real
from .plant import PlantModel, from_poles
from .solvers import _l1_weight
from .synthesis import SynthesisResult, _alpha, synthesize

SOLVER_CHOICES = SOLVER_NAMES + ("both",)

# the optional keys in document order, with their defaults; None is unset
_DEFAULTS = {"Q": "identity", "alpha": 0.5, "solver": "omp", "x0": None, "p_drop": 0.5,
             "steps": 100, "trials": 1, "seed": 0, "lambda": None}


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


def from_dict(document: dict) -> dict:
    """Validate a raw JSON object and return its canonical document."""
    _require(isinstance(document, dict), "config root must be an object")
    # a key left from when c had two readings: its one remaining value is dropped
    document = {key: value for key, value in document.items()
                if (key, value) != ("c_interpretation", "column_lift")}
    unknown = set(document) - {"plant", "N", *_DEFAULTS}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("plant" in document, "config requires a plant")
    _require("N" in document, "config requires a horizon N")
    # a key keeps its place when its value is replaced, so this is the document order
    cfg = {"plant": None, "N": None, **_DEFAULTS, **document}
    cfg["N"] = as_int(cfg["N"], "N", 1)

    try:
        plant = cfg["plant"] = _canon_plant(cfg["plant"])
        n = len(plant["A"]) if "A" in plant else len(plant["poles"])
        if not isinstance(cfg["Q"], str) or cfg["Q"] != "identity":
            cfg["Q"] = as_array(cfg["Q"], "Q", (n, n)).tolist()
        if cfg["x0"] is not None:
            cfg["x0"] = as_array(cfg["x0"], "x0", (n,)).tolist()
    except DimensionMismatch as exc:
        raise ConfigError(str(exc)) from exc

    cfg["alpha"] = _alpha(cfg["alpha"])
    _require(cfg["solver"] in SOLVER_CHOICES,
             f"solver must be one of {SOLVER_CHOICES}, got {cfg['solver']!r}")
    if cfg["lambda"] is not None:
        cfg["lambda"] = _l1_weight(cfg["lambda"])
    cfg["p_drop"] = _p_drop(cfg["p_drop"])
    cfg["steps"] = as_int(cfg["steps"], "steps", 0)
    cfg["trials"] = as_int(cfg["trials"], "trials", 1)
    cfg["seed"] = as_int(cfg["seed"], "seed", 0, 2 ** 64)
    return {key: value for key, value in cfg.items() if value is not None}


def load_config(path: str, **overrides) -> dict:
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


def build_plant(config: dict) -> PlantModel:
    if "poles" in config["plant"]:
        poles = [pole if isinstance(pole, float) else complex(pole[0], pole[1])
                 for pole in config["plant"]["poles"]]
        return from_poles(poles)
    return PlantModel(**config["plant"])


def run_synthesis(config: dict) -> SynthesisResult:
    """Synthesize for the config's plant; the result holds that plant."""
    q = None if config["Q"] == "identity" else config["Q"]
    return synthesize(build_plant(config), q, config["N"], config["alpha"])


def build_setup(config: dict) -> ExperimentSetup:
    """Resolve the document into simulation-ready objects."""
    result = run_synthesis(config)
    _require("x0" in config, "simulation requires x0")
    if config["solver"] in ("l1", "both"):
        _require("lambda" in config, "l1 solver requires lambda")
    return ExperimentSetup(synthesis=result, solver=config["solver"], x0=config["x0"],
                           steps=config["steps"], p_drop=config["p_drop"],
                           lam=config.get("lambda"))
