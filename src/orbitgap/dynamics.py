"""Construction of near-dense projective orbits and density measurement.

The builder places scaled copies of each target on disjoint coordinate
blocks, x = sum_j lam^(-m_j) S^(m_j) t_j, so that (lam B)^(m_j) x recovers
t_j up to the tails of the later blocks.  Offsets are chosen greedily:
each new block sits at the smallest offset that keeps every earlier
target's accumulated tail bound within its epsilon.  Density is then
certified only on the finite target set; nothing here claims density of
the full projective orbit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTargets,
    TruncationTooSmall,
)
from .operators import OperatorSpec, invariant_prefix, orbit_stream, ZeroOrbitMarker
from .space import NormSpec, L2, norm
from .subspace import best_scalar


@dataclass(frozen=True, eq=False)
class TargetSet:
    """Finite list of approximation targets with per-target tolerances."""

    targets: tuple
    epsilons: tuple

    def __post_init__(self):
        if len(self.targets) == 0:
            raise EmptyTargets("target set is empty")
        dims = {t.shape[0] for t in self.targets}
        if len(dims) != 1:
            raise DimensionMismatch(f"targets mix dimensions {sorted(dims)}")
        if len(self.epsilons) != len(self.targets):
            raise ConfigError("epsilons and targets have different lengths")
        for j, t in enumerate(self.targets):
            if not np.any(t):
                raise ConfigError(f"target {j} is the zero vector")
        for j, eps in enumerate(self.epsilons):
            if not (eps > 0.0 and math.isfinite(eps)):
                raise ConfigError(f"epsilon {j} must be a positive real, got {eps}")

    @property
    def dim(self) -> int:
        return self.targets[0].shape[0]

    @classmethod
    def uniform(cls, targets, epsilon: float) -> "TargetSet":
        targets = tuple(np.asarray(t) for t in targets)
        return cls(targets=targets, epsilons=(float(epsilon),) * len(targets))


def default_target_set(dim: int, count: int = 8, epsilon: float = 1e-3) -> TargetSet:
    """Binary-counting 0/1 combinations of the first basis vectors.

    Target j (1-based) has ones exactly at the bit positions of j, so the
    list starts e_0, e_1, e_0+e_1, e_2, e_0+e_2, ... and exhausts all
    nonzero patterns on ever more coordinates.
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    top_bit = count.bit_length()
    if dim < top_bit:
        raise DimensionMismatch(f"dimension {dim} cannot hold {count} patterns")
    targets = []
    for j in range(1, count + 1):
        t = np.zeros(dim)
        for b in range(j.bit_length()):
            if j >> b & 1:
                t[b] = 1.0
        t.flags.writeable = False
        targets.append(t)
    return TargetSet(targets=tuple(targets), epsilons=(float(epsilon),) * count)


@dataclass(frozen=True)
class BuildPlanEntry:
    target_index: int
    offset: int
    bounded_error: float


@dataclass(frozen=True, eq=False)
class BuildResult:
    x: np.ndarray
    plan: tuple
    lam: float
    norm_spec: NormSpec


def _support_length(t: np.ndarray) -> int:
    return int(np.flatnonzero(t)[-1]) + 1


def build_supercyclic_vector(
    lam: float, targets: TargetSet, N: int, spec: NormSpec = L2
) -> BuildResult:
    """x = sum_j lam^(-m_j) S^(m_j) t_j with certified per-target bounds.

    Applying (lam B)^(m_j) to x annihilates the earlier blocks (their
    supports end before coordinate m_j) and returns t_j plus the later
    blocks scaled by lam^(m_j - m_i), so

        norm((lam B)^(m_j) x - t_j) <= sum over i > j of
            lam^(m_j - m_i) * norm(t_i) <= epsilons[j].

    The offset m_l is the smallest integer at or past the previous block's
    end that keeps every accumulated tail bound within its epsilon; the
    bound relies on the forward shift being an isometry, which holds for
    every unweighted p-norm but not for weighted ones.
    """
    if not (lam > 1.0 and math.isfinite(lam)):
        raise ConfigError(f"lam must be a real greater than 1, got {lam}")
    if spec.weights is not None:
        raise ConfigError("builder tail bounds need an unweighted norm")
    if targets.dim != N:
        raise DimensionMismatch(f"targets have dimension {targets.dim}, truncation is {N}")

    tnorms = [norm(t, spec) for t in targets.targets]
    lengths = [_support_length(t) for t in targets.targets]
    eps = list(targets.epsilons)
    J = len(tnorms)

    offsets = [0]
    accumulated = [0.0]  # accumulated[j] = current tail bound charged to target j
    for l in range(1, J):
        m = offsets[l - 1] + lengths[l - 1]
        for j in range(l):
            slack = eps[j] - accumulated[j]
            if slack <= 0.0:
                raise TruncationTooSmall(
                    f"tolerance budget for target {j} is exhausted before target {l}"
                )
            if tnorms[l] > slack:  # needs decay, push m past the analytic floor
                need = offsets[j] + math.log(tnorms[l] / slack) / math.log(lam)
                m = max(m, math.ceil(need - 1e-12))
        while any(
            lam ** (offsets[j] - m) * tnorms[l] > eps[j] - accumulated[j]
            for j in range(l)
        ):
            m += 1
        offsets.append(m)
        for j in range(l):
            accumulated[j] += lam ** (offsets[j] - m) * tnorms[l]
        accumulated.append(0.0)

    if offsets[-1] + lengths[-1] > N:
        raise TruncationTooSmall(
            f"last block ends at {offsets[-1] + lengths[-1]}, truncation is {N}"
        )

    dtype = np.result_type(*[t.dtype for t in targets.targets], np.float64)
    x = np.zeros(N, dtype=dtype)
    for j, t in enumerate(targets.targets):
        coef = lam ** (-offsets[j])
        if coef == 0.0 or not math.isfinite(coef):
            raise TruncationTooSmall(
                f"block scale lam^(-{offsets[j]}) leaves floating-point range"
            )
        x[offsets[j] : offsets[j] + lengths[j]] += coef * t[: lengths[j]]
    x.flags.writeable = False

    plan = tuple(
        BuildPlanEntry(target_index=j, offset=offsets[j], bounded_error=accumulated[j])
        for j in range(J)
    )
    for entry in plan:
        if entry.bounded_error > eps[entry.target_index]:
            raise TruncationTooSmall(
                f"tail bound {entry.bounded_error} exceeds epsilon for target {entry.target_index}"
            )
    return BuildResult(x=x, plan=plan, lam=lam, norm_spec=spec)


@dataclass(frozen=True)
class DensityRecord:
    target_index: int
    best_n: int
    best_c: object
    error: float


@dataclass(frozen=True, eq=False)
class DensityReport:
    records: tuple
    horizon: int
    norm_spec: NormSpec
    orbit_exhausted_at: int | None = None


def density_check(
    T: OperatorSpec, x: np.ndarray, targets: TargetSet, horizon: int, spec: NormSpec = L2
) -> DensityReport:
    """Best scalar orbit approximation of each target over n in [0, horizon].

    For each target the report records the first n attaining the minimum of
    min over c of norm(c T^n x - t, spec), the distance from t to the span
    of T^n x, scoring all targets per power in one best_scalar call (closed
    form at p = 2, bisection on the real field, the distance solvers on the
    complex field), on the prefix that holds x and the targets and that T
    maps into itself (invariant_prefix).  A dying orbit is not an error
    here: remaining powers are skipped and flagged.
    """
    if not np.any(x):
        raise ConfigError("density check needs a nonzero x")
    if horizon < 0:
        raise ConfigError(f"horizon must be nonnegative, got {horizon}")
    if x.shape[0] != targets.dim:
        raise DimensionMismatch(f"x has dimension {x.shape[0]}, targets {targets.dim}")

    stack = np.stack(targets.targets)
    m, Tm, spec_m = invariant_prefix(T, stack.any(axis=0) | (x != 0), spec)
    stack = stack[:, :m]
    best = [None] * len(stack)
    best_err = np.full(len(stack), np.inf)
    exhausted_at = None
    for elem in orbit_stream(Tm, x[:m], 0, horizon, spec_m):
        if isinstance(elem, ZeroOrbitMarker):
            exhausted_at = elem.n
            break
        gamma, err = best_scalar(stack, elem.direction, spec_m)
        for j in np.flatnonzero(err < best_err):  # strict: the first power wins ties
            best[j] = (elem.n, gamma[j].item() * math.exp(-elem.log_scale), err[j].item())
            best_err[j] = err[j]
    records = tuple(
        DensityRecord(target_index=j, best_n=b[0], best_c=b[1], error=b[2])
        for j, b in enumerate(best)
    )
    return DensityReport(
        records=records, horizon=horizon, norm_spec=spec, orbit_exhausted_at=exhausted_at
    )
