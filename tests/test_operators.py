import math

import numpy as np
import pytest

from orbitgap import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    ForwardShift,
    L2,
    RolewiczMultiple,
    apply,
    orbit_stream,
)
from orbitgap.operators import OrbitElement, ZeroOrbitMarker
from orbitgap.space import basis_vector
from orbitgap.errors import DimensionMismatch, TruncationTooSmall


def test_backward_shift_on_basis():
    e2 = basis_vector(2, 4)
    B = BackwardShift.unit(4)
    out = apply(B, e2)
    assert np.array_equal(out, basis_vector(1, 4))
    assert not np.any(apply(B, basis_vector(0, 4)))


def test_weighted_backward_shift():
    # (Bw v)_i = w_{i+1} v_{i+1}
    w = (2.0, 3.0, 5.0)
    v = np.array([1.0, 1.0, 1.0, 1.0])
    out = apply(BackwardShift(weights=w + (7.0,)), v)
    assert np.array_equal(out[:3], np.array([3.0, 5.0, 7.0]))
    with pytest.raises(DimensionMismatch):
        apply(BackwardShift(weights=w), v)
    # a certificate records real weights only, so complex ones are refused
    for z in (2.0 + 1.0j, np.complex64(1.0), np.complex128(3.0)):
        with pytest.raises(ValueError, match="must be real"):
            BackwardShift(weights=w + (z,))


def test_rolewicz_is_scaled_backward_shift():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    lam = 2.5
    a = apply(RolewiczMultiple(lam), v)
    b = lam * apply(BackwardShift.unit(16), v)
    assert np.allclose(a, b, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        RolewiczMultiple(1.0)


def test_forward_shift_refuses_mass_at_the_boundary():
    v = np.random.default_rng(1).standard_normal(16)
    with pytest.raises(TruncationTooSmall, match="N=16"):
        apply(ForwardShift(), v)


def test_forward_shift_isometry():
    v = np.random.default_rng(1).standard_normal(16)
    v[-1] = 0.0
    out = apply(ForwardShift(), v)
    assert out[0] == 0.0
    assert np.array_equal(out[1:], v[:-1])
    assert float(np.linalg.norm(out)) == pytest.approx(float(np.linalg.norm(v)), rel=1e-15)


def test_dense_and_diagonal():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = np.array([2.0, 3.0])
    assert np.array_equal(apply(DenseMatrix(m), v), np.array([3.0, 2.0]))
    d = np.array([2.0, -1.0])
    assert np.array_equal(apply(Diagonal(d), v), np.array([4.0, -3.0]))
    # every complex dtype keeps its imaginary part, complex64 included
    dc = Diagonal(np.array([1 + 1j, 2j], dtype=np.complex64))
    assert dc.d == (1 + 1j, 2j)
    with pytest.raises(DimensionMismatch):
        apply(DenseMatrix(m), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        DenseMatrix(np.zeros((2, 3)))


def test_orbit_stream_renormalized():
    T = RolewiczMultiple(2.0)
    x = np.array([1.0, 0.5, 0.25, 0.125])
    elems = list(orbit_stream(T, x, 0, 2, L2))
    assert [e.n for e in elems] == [0, 1, 2]
    for e in elems:
        assert isinstance(e, OrbitElement)
        assert float(np.linalg.norm(e.direction)) == pytest.approx(1.0, abs=1e-14)
    # direction * exp(log_scale) reconstructs T^n x
    t2 = apply(T, apply(T, x))
    rec = elems[2].direction * math.exp(elems[2].log_scale)
    assert np.allclose(rec, t2, rtol=1e-13, atol=1e-15)


def test_orbit_stream_marks_death_once():
    T = RolewiczMultiple(2.0)
    x = np.array([1.0, 1.0, 0.0, 0.0])  # support 2, orbit dies at n = 2
    elems = list(orbit_stream(T, x, 0, 6, L2))
    assert [e.n for e in elems[:2]] == [0, 1]
    assert isinstance(elems[2], ZeroOrbitMarker)
    assert elems[2].n == 2
    assert len(elems) == 3


def test_orbit_stream_range_validation():
    T = ForwardShift()
    x = basis_vector(0, 4)
    assert [e.n for e in orbit_stream(T, x, 3, 3)] == [3]
    with pytest.raises(ValueError):
        list(orbit_stream(T, x, 2, 1))
    with pytest.raises(ValueError):
        list(orbit_stream(T, x, -1, 1))


def test_orbit_stream_huge_scale_stays_finite():
    # 2^600 overflows a float; the log-scale storage must not
    T = Diagonal(np.full(8, 2.0))
    x = np.ones(8)
    last = None
    for e in orbit_stream(T, x, 0, 600):
        last = e
    assert isinstance(last, OrbitElement)
    assert last.n == 600
    assert np.all(np.isfinite(last.direction))
    assert last.log_scale == pytest.approx(600.0 * math.log(2.0) + 0.5 * math.log(8.0), rel=1e-12)
