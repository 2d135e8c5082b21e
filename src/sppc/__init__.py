"""Sparsely packetized predictive control.

Design sparse control packets by orthogonal matching pursuit under a
state-dependent feasibility bound, synthesize the stability parameters
that make the bound valid, and simulate the closed loop over an erasure
channel with bounded consecutive dropouts.
"""

from .errors import (
    BufferExhausted,
    ConfigError,
    DegenerateInput,
    DimensionMismatch,
    Infeasible,
    NoConvergence,
    NonConjugatePoles,
    NonSymmetric,
    NotPositiveDefinite,
    NotReachable,
    RankDeficient,
    SppcError,
)
from .lifting import HorizonData, build_horizon
from .netsim import (
    ExperimentSetup,
    SimTrace,
    log_decay_slope,
    run_montecarlo,
    run_trial,
)
from .plant import PlantModel, from_poles, is_reachable, reachability_matrix, step
from .solvers import ControlPacket, l1_design, omp_design
from .synthesis import (
    SynthesisResult,
    check_invariants,
    compute_c,
    compute_rho,
    solve_riccati,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BufferExhausted",
    "ConfigError",
    "ControlPacket",
    "DegenerateInput",
    "DimensionMismatch",
    "ExperimentSetup",
    "HorizonData",
    "Infeasible",
    "NoConvergence",
    "NonConjugatePoles",
    "NonSymmetric",
    "NotPositiveDefinite",
    "NotReachable",
    "PlantModel",
    "RankDeficient",
    "SimTrace",
    "SppcError",
    "SynthesisResult",
    "build_horizon",
    "check_invariants",
    "compute_c",
    "compute_rho",
    "from_poles",
    "is_reachable",
    "l1_design",
    "log_decay_slope",
    "omp_design",
    "reachability_matrix",
    "run_montecarlo",
    "run_trial",
    "solve_riccati",
    "step",
    "synthesize",
    "__version__",
]
