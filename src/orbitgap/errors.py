"""Exception types shared across the package."""


class OrbitgapError(Exception):
    """Base class for all orbitgap domain errors."""


class DimensionMismatch(OrbitgapError):
    """Vector, weight, or operator dimensions do not agree."""


class ZeroOrbit(OrbitgapError):
    """The orbit reached the zero vector, so no further powers exist."""

    def __init__(self, n, message=None, step=None):
        self.n = n
        self.step = step
        super().__init__(message or f"orbit died at power n={n}")


class SolverFailure(OrbitgapError):
    """A distance solver did not reach its tolerance within budget."""


class TruncationTooSmall(OrbitgapError):
    """The operator would move mass out of the truncation (a forward shift onto coordinate N)."""


class EmptyTargets(OrbitgapError):
    """A target set must contain at least one target."""


class LinearDependence(OrbitgapError):
    """x and Tx are (numerically) linearly dependent; extraction cannot start."""


class HorizonExhausted(OrbitgapError):
    """No candidate power within the horizon passed the distance test."""

    def __init__(self, n_start, horizon, step=None, detail=""):
        self.n_start = n_start
        self.horizon = horizon
        self.step = step
        at_step = "" if step is None else f" at step {step}"
        super().__init__(f"no qualifying index in ({n_start}, {horizon}]{at_step}{detail}")


class ConfigError(OrbitgapError):
    """Invalid run configuration (a field out of range, or a theta step 1 cannot clear)."""


class UsageError(OrbitgapError):
    """Command line or config file input is malformed."""
