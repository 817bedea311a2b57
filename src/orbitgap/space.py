"""Truncated vectors and weighted l^p norms.

Vectors are plain 1-D numpy arrays of length N >= 2, real (float64) or
complex (complex128) depending on the run-level scalar field.  Every entry
must be finite; mismatched dimensions are always errors, never silently
padded or truncated.  vector() enforces this, and every vector decoded from
a record or the command line is built by it.

A weighted norm scales entry i by weights[i] before taking the ordinary
l^p norm, i.e. norm(v) = || (w_0 v_0, ..., w_{N-1} v_{N-1}) ||_p.  With
this convention the chain norm_inf <= norm_2 <= norm_1 holds for every
vector, weighted or not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


@dataclass(frozen=True)
class NormSpec:
    """Norm selector: p in {1, 2, inf} or any real p > 1, plus optional weights."""

    p: float = 2.0
    weights: tuple | None = None

    def __post_init__(self):
        p = float(self.p)
        if not (p == math.inf or p >= 1.0):
            raise ValueError(f"norm exponent must be >= 1 or inf, got {self.p}")
        object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) == 0:
                raise ValueError("weights must be nonempty when given")
            if not all(math.isfinite(x) and x > 0.0 for x in w):
                raise ValueError("weights must be positive and finite")
            object.__setattr__(self, "weights", w)

    @property
    def is_euclidean(self):
        return self.p == 2.0 and self.weights is None

    def weight_array(self, n: int) -> np.ndarray | None:
        if self.weights is None:
            return None
        if len(self.weights) != n:
            raise DimensionMismatch(
                f"norm has {len(self.weights)} weights but vector has dimension {n}"
            )
        return np.asarray(self.weights, dtype=np.float64)


L1 = NormSpec(1.0)
L2 = NormSpec(2.0)
LINF = NormSpec(math.inf)


def field_of(v: np.ndarray) -> str:
    return COMPLEX if np.iscomplexobj(v) else REAL


def vector(entries, field: str = REAL) -> np.ndarray:
    """Build a validated vector: 1-D, length >= 2, all entries finite.

    The returned array is marked read-only; every operation in this package
    treats vectors as immutable values.
    """
    if field not in _DTYPES:
        raise ValueError(f"unknown scalar field {field!r}")
    try:
        v = np.asarray(entries, dtype=_DTYPES[field])
    except OverflowError:  # an integer beyond the float range
        raise ValueError("vector entries must be finite") from None
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if v.shape[0] < 2:
        raise DimensionMismatch(f"truncation dimension must be >= 2, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


def basis_vector(i: int, dim: int, field: str = REAL) -> np.ndarray:
    if not 0 <= i < dim:
        raise DimensionMismatch(f"basis index {i} outside dimension {dim}")
    v = np.zeros(dim, dtype=_DTYPES[field])
    v[i] = 1.0
    v.flags.writeable = False
    return v


def norm(v: np.ndarray, spec: NormSpec = L2) -> float:
    """Weighted l^p norm of v.  Returns 0 exactly when v is the zero vector."""
    a = np.abs(np.asarray(v))
    w = spec.weight_array(a.shape[0])
    if w is not None:
        a = w * a
    if spec.p == math.inf:
        return float(a.max())
    if spec.p == 1.0:
        return float(a.sum())
    if spec.p == 2.0:
        return float(np.linalg.norm(a))
    # general p: factor out the max to avoid overflow of a**p
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(((a / m) ** spec.p).sum() ** (1.0 / spec.p))
