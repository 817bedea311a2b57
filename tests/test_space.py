import math

import numpy as np
import pytest

from orbitgap import L1, L2, LINF, NormSpec, norm
from orbitgap.space import basis_vector, field_of, vector
from orbitgap.errors import DimensionMismatch


def test_norm_spec_validation():
    NormSpec(1.5)
    NormSpec(math.inf)
    with pytest.raises(ValueError):
        NormSpec(0.5)
    with pytest.raises(ValueError):
        NormSpec(-1.0)
    with pytest.raises(ValueError):
        NormSpec(2.0, weights=(1.0, 0.0))
    with pytest.raises(ValueError):
        NormSpec(2.0, weights=(1.0, -2.0))


def test_norm_spec_euclidean_flag():
    assert L2.is_euclidean
    assert not L1.is_euclidean
    assert not NormSpec(2.0, weights=(1.0, 2.0)).is_euclidean


def test_hand_norms():
    v = np.array([3.0, -4.0])
    assert norm(v, L2) == pytest.approx(5.0, abs=1e-15)
    assert norm(v, L1) == pytest.approx(7.0, abs=1e-15)
    assert norm(v, LINF) == pytest.approx(4.0, abs=1e-15)
    assert norm(v, NormSpec(3.0)) == pytest.approx((27.0 + 64.0) ** (1.0 / 3.0), rel=1e-14)


def test_weighted_norm_is_diagonal_scaling():
    spec = NormSpec(2.0, weights=(2.0, 3.0))
    v = np.array([1.0, 1.0])
    # weights scale each coordinate before the plain p-norm
    assert norm(v, spec) == pytest.approx(math.sqrt(4.0 + 9.0), rel=1e-14)


def test_complex_norm():
    v = np.array([3.0 + 4.0j, 0.0])
    assert norm(v, L2) == pytest.approx(5.0, abs=1e-14)
    assert norm(v, L1) == pytest.approx(5.0, abs=1e-14)


def test_norm_ordering_seeded():
    # norm(v, inf) <= norm(v, 2) <= norm(v, 1), 1e-12 relative slack
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(1, 40))
        ninf, n2, n1 = norm(v, LINF), norm(v, L2), norm(v, L1)
        slack = 1e-12 * max(1.0, n1)
        assert ninf <= n2 + slack
        assert n2 <= n1 + slack


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(11)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        spec = NormSpec(p)
        for _ in range(50):
            u = rng.standard_normal(12)
            v = rng.standard_normal(12)
            c = float(rng.standard_normal())
            assert norm(c * u, spec) == pytest.approx(abs(c) * norm(u, spec), rel=1e-12, abs=1e-14)
            assert norm(u + v, spec) <= norm(u, spec) + norm(v, spec) + 1e-12


def test_vector_constructors():
    assert field_of(np.zeros(3)) == "real"
    assert field_of(np.zeros(3, dtype=complex)) == "complex"
    e = basis_vector(2, 5)
    assert e[2] == 1.0 and norm(e, L1) == 1.0
    v = vector([1, 2, 3])
    assert v.dtype == np.float64


def test_weight_array_dim_check():
    spec = NormSpec(2.0, weights=(1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        norm(np.zeros(3), spec)
