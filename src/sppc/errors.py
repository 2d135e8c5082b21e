"""Exception hierarchy shared across the package.

Grouped under a single base class so the CLI can map failures to exit
codes: configuration problems, numeric/synthesis failures, and simulation
contract violations.
"""


class SppcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SppcError):
    """Invalid or inconsistent experiment configuration."""


class DimensionMismatch(SppcError):
    """Array argument holds other than ints or floats, is misshapen or non-finite."""


class NonSymmetric(ConfigError):
    """A symmetric-matrix argument violates the symmetry tolerance."""


class NotPositiveDefinite(SppcError):
    """Matrix is not positive definite (a Cholesky pivot collapsed)."""


class RankDeficient(SppcError):
    """Least-squares matrix does not have full column rank."""


class NonConjugatePoles(ConfigError):
    """Complex poles are not closed under conjugation."""


class NotReachable(SppcError):
    """The (A, B) pair fails the reachability rank test."""


class DegenerateInput(SppcError):
    """A scalar pivot quantity underflowed or a value left its valid range."""


class NoConvergence(SppcError):
    """An iteration hit its cap, broke down, or stalled above its residual limit."""


class Infeasible(SppcError):
    """No coefficient vector satisfies the quadratic constraint; indicates
    broken synthesis parameters, not a property of valid inputs."""


class BufferExhausted(SppcError):
    """Playout buffer ran past its last element; the channel violated the
    bounded-dropout contract."""
