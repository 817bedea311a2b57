"""Operator models and orbit generation.

All operators act on the N-dimensional truncation, read as the vectors of
l^p(N) supported on 0..N-1.  apply never loses mass: a backward shift writes
0 into coordinate N-1, and a forward shift raises TruncationTooSmall on a
vector whose last entry is nonzero.  So every orbit is exact in l^p(N),
except that a dense matrix means something in R^N (or C^N) only.

Orbits are stored renormalized: each element carries a unit-norm direction
plus the natural log of ||T^n x||.  Norms of hypercyclic-type orbits grow
geometrically and would overflow by n around 1000 if stored raw; spans are
scale-invariant, so consumers work with directions and reconstruct
magnitudes from the log scale when they need them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TruncationTooSmall
from .space import NormSpec, L2, norm

MAX_SHIFT_WEIGHT = 1e12


@dataclass(frozen=True)
class BackwardShift:
    """Weighted backward shift: (B_w v)_n = w_{n+1} v_{n+1}."""

    weights: tuple

    def __post_init__(self):
        if any(np.iscomplexobj(x) for x in self.weights):
            raise ValueError("shift weights must be real")
        w = tuple(float(x) for x in self.weights)
        if len(w) < 2:
            raise ValueError("weight list must cover at least dimension 2")
        for x in w:
            if not math.isfinite(abs(x)):
                raise ValueError("shift weights must be finite")
            if abs(x) > MAX_SHIFT_WEIGHT:
                raise ValueError(f"shift weight magnitude exceeds bound {MAX_SHIFT_WEIGHT}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def unit(cls, length: int) -> "BackwardShift":
        return cls(weights=(1.0,) * length)


@dataclass(frozen=True)
class RolewiczMultiple:
    """lam * B with lam > 1: the classical hypercyclic multiple of the backward shift."""

    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 1.0):
            raise ValueError(f"Rolewicz multiple requires lam > 1, got {self.lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class ForwardShift:
    """Isometric forward shift: (S v)_n = v_{n-1}."""


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Arbitrary N x N matrix operator."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"dense operator must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("dense operator entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class Diagonal:
    """Diagonal operator: (D v)_n = d_n v_n."""

    d: tuple

    def __post_init__(self):
        d = tuple(complex(x) if np.iscomplexobj(x) else float(x) for x in self.d)
        for x in d:
            if not math.isfinite(abs(x)):
                raise ValueError("diagonal entries must be finite")
        object.__setattr__(self, "d", d)


OperatorSpec = BackwardShift | RolewiczMultiple | ForwardShift | DenseMatrix | Diagonal


def _check_dimension(T: OperatorSpec, n: int):
    """Raise DimensionMismatch when T cannot act on vectors of dimension n."""
    if isinstance(T, BackwardShift) and len(T.weights) < n:
        raise DimensionMismatch(f"backward shift has {len(T.weights)} weights, needs >= {n}")
    if isinstance(T, DenseMatrix) and T.entries.shape[0] != n:
        raise DimensionMismatch(f"operator is {T.entries.shape[0]}-dimensional, vector is {n}")
    if isinstance(T, Diagonal) and len(T.d) != n:
        raise DimensionMismatch(f"diagonal has length {len(T.d)}, vector is {n}")


def apply(T: OperatorSpec, v: np.ndarray) -> np.ndarray:
    """Apply the operator once.  Linear in v; boundary rules and refusal as documented above."""
    n = v.shape[0]
    _check_dimension(T, n)
    if isinstance(T, BackwardShift):
        w = np.asarray(T.weights[:n])
        out = np.zeros(n, dtype=np.result_type(v.dtype, w.dtype))
        out[:-1] = w[1:] * v[1:]
    elif isinstance(T, RolewiczMultiple):
        out = np.zeros(n, dtype=v.dtype)
        out[:-1] = T.lam * v[1:]
    elif isinstance(T, ForwardShift):
        if v[-1] != 0:
            raise TruncationTooSmall(f"forward shift would move mass out of the truncation, N={n}")
        out = np.zeros(n, dtype=v.dtype)
        out[1:] = v[:-1]
    elif isinstance(T, DenseMatrix):
        out = T.entries @ v
    elif isinstance(T, Diagonal):
        out = np.asarray(T.d) * v
    else:
        raise TypeError(f"unknown operator spec {type(T).__name__}")
    out = np.asarray(out)
    out.flags.writeable = False
    return out


def invariant_prefix(T: OperatorSpec, v, spec: NormSpec = L2):
    """(m, T_m, spec_m): T and spec restricted to the coordinates 0..m-1.

    m >= 2 is the shortest prefix length that holds the support of v (a
    vector, a stack of them or a support mask, of dimension N) and that T
    maps into itself, as lam B, weighted backward shifts and diagonals map
    every prefix; a dense matrix is cut only there, and only when
    entries[m:, :m] is zero.  An orbit of a vector supported there stays
    there, so its norms, spans and distances are those of T_m and spec_m.
    Returns (N, T, spec) when no shorter prefix qualifies, always for the
    forward shift; raises the DimensionMismatch of apply or spec at N.
    """
    support = np.atleast_2d(v).any(axis=0)
    n = support.shape[0]
    _check_dimension(T, n)
    spec.weight_array(n)
    nz = np.flatnonzero(support)
    m = max(2, int(nz[-1]) + 1 if nz.size else 0)
    if m >= n:
        return n, T, spec
    if isinstance(T, RolewiczMultiple):
        Tm = T
    elif isinstance(T, BackwardShift):
        Tm = BackwardShift(weights=T.weights[:m])
    elif isinstance(T, Diagonal):
        Tm = Diagonal(d=T.d[:m])
    elif isinstance(T, DenseMatrix) and not T.entries[m:, :m].any():
        Tm = DenseMatrix(entries=T.entries[:m, :m])
    else:
        return n, T, spec
    return m, Tm, spec if spec.weights is None else NormSpec(spec.p, spec.weights[:m])


@dataclass(frozen=True)
class OrbitElement:
    """Renormalized orbit member: T^n x = exp(log_scale) * direction."""

    n: int
    direction: np.ndarray
    log_scale: float


@dataclass(frozen=True)
class ZeroOrbitMarker:
    """End-of-stream marker: T^n x is exactly zero at this power."""

    n: int


def orbit_stream(T, x, n_from, n_to, spec: NormSpec = L2):
    """Yield OrbitElement for each n in [n_from, n_to] with T^n x != 0.

    If the orbit dies inside the range (the truncation of a shift ran out of
    support), the stream ends with a single ZeroOrbitMarker at the first dead
    power instead of raising mid-iteration.
    """
    if n_from < 0 or n_from > n_to:
        raise ValueError(f"invalid power range [{n_from}, {n_to}]")
    nrm = norm(x, spec)
    if nrm == 0.0:
        raise ValueError("orbit base vector must be nonzero")
    u = x / nrm
    u.flags.writeable = False
    log_scale = math.log(nrm)
    for n in range(0, n_to + 1):
        if n >= n_from:
            yield OrbitElement(n=n, direction=u, log_scale=log_scale)
        if n == n_to:
            return
        w = apply(T, u)
        wn = norm(w, spec)
        if wn == 0.0:
            # first dead power, even when it lies before n_from
            yield ZeroOrbitMarker(n=n + 1)
            return
        u = w / wn
        u.flags.writeable = False
        log_scale += math.log(wn)
