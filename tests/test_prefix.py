"""Runs on the coordinate prefix that the operator keeps (operators.invariant_prefix).

extract_subsequence, verify_certificate and density_check work on the
shortest prefix that holds their vectors and that T maps into itself.  Each
result must match the same run on all N coordinates, which these tests get
by patching the helper to return (N, T, spec).
"""

import dataclasses
import math

import numpy as np
import pytest

from orbitgap import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    ExtractionConfig,
    ForwardShift,
    L2,
    NormSpec,
    RolewiczMultiple,
    TargetSet,
    build_supercyclic_vector,
    default_target_set,
    density_check,
    extract_subsequence,
    verify_certificate,
)
from orbitgap import dynamics, extractor, operators
from orbitgap.errors import DimensionMismatch
from orbitgap.operators import invariant_prefix


def _full(T, v, spec=L2):
    return np.atleast_2d(v).shape[1], T, spec


def _pipeline(T, x, cfg, targets, horizon):
    cert = extract_subsequence(T, x, cfg)
    return cert, verify_certificate(cert, T, x), density_check(T, x, targets, horizon, cfg.norm_spec)


def _builder(p, weighted=False):
    N = 128
    targets = default_target_set(N, count=6, epsilon=1e-3)
    x = build_supercyclic_vector(2.0, targets, N, NormSpec(p)).x
    weights = tuple(np.random.default_rng(3).uniform(0.5, 2.0, N)) if weighted else None
    cfg = ExtractionConfig(horizon=48, max_steps=8, theta=1.01, norm_spec=NormSpec(p, weights))
    return RolewiczMultiple(2.0), x, cfg, targets, 40


def _backward_shift():
    rng = np.random.default_rng(3)
    x = np.zeros(64)
    x[:24] = rng.uniform(0.5, 1.5, 24)
    targets = TargetSet.uniform([np.eye(64)[0], np.eye(64)[1] + np.eye(64)[2]], 0.5)
    return BackwardShift(tuple(rng.uniform(1.5, 2.5, 64))), x, ExtractionConfig(20, 6), targets, 20


def _complex_diagonal(p):
    rng = np.random.default_rng(4)
    x = np.zeros(40, dtype=complex)
    x[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40)) * rng.uniform(0.9, 1.3, 40)
    targets = TargetSet.uniform([np.eye(40)[0], 1j * np.eye(40)[3]], 0.5)
    return Diagonal(d), x, ExtractionConfig(30, 3, norm_spec=NormSpec(p)), targets, 20


def _dense_kept():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((48, 48)) / 3.0
    M[16:, :16] = 0.0
    x = np.zeros(48)
    x[:16] = rng.standard_normal(16)
    targets = TargetSet.uniform([np.eye(48)[0], np.eye(48)[5]], 0.5)
    return DenseMatrix(M), x, ExtractionConfig(30, 3), targets, 20


CASES = {
    "builder-l1": lambda: _builder(1.0),
    "builder-p1.5": lambda: _builder(1.5),
    "builder-l2": lambda: _builder(2.0),
    "builder-p3": lambda: _builder(3.0),
    "builder-linf": lambda: _builder(math.inf),
    "weighted-p3": lambda: _builder(3.0, weighted=True),
    "backward-shift": _backward_shift,
    "complex-diagonal-l2": lambda: _complex_diagonal(2.0),
    "complex-diagonal-p1.5": lambda: _complex_diagonal(1.5),
    "dense-kept": _dense_kept,
}


def _close(a, b, rtol=1e-15):
    return abs(a - b) <= rtol * abs(b)


@pytest.mark.parametrize("name", sorted(CASES))
def test_prefix_run_matches_the_full_run(monkeypatch, name):
    T, x, cfg, targets, horizon = CASES[name]()
    m = invariant_prefix(T, x, cfg.norm_spec)[0]
    assert m < x.shape[0]
    cert, report, density = _pipeline(T, x, cfg, targets, horizon)
    monkeypatch.setattr(extractor, "invariant_prefix", _full)
    monkeypatch.setattr(dynamics, "invariant_prefix", _full)
    ref_cert, ref_report, ref_density = _pipeline(T, x, cfg, targets, horizon)

    assert cert.indices == ref_cert.indices
    assert cert.operator is T and cert.norm_spec == cfg.norm_spec
    assert cert.scaled_x.shape == x.shape and not cert.scaled_x[m:].any()
    assert np.allclose(cert.scaled_x, ref_cert.scaled_x, rtol=1e-15, atol=0.0)
    assert _close(cert.lambda_scale, ref_cert.lambda_scale)
    assert all(map(_close, cert.distances, ref_cert.distances))

    assert report.ok and ref_report.ok
    assert all(map(_close, report.recomputed_distances, ref_report.recomputed_distances))

    # the L1 profile can be flat at its minimum: there the error, not the
    # point, is what is pinned; complex rows at p != 2 read c off the
    # distance solver's residual, whose stop is relative
    p = cfg.norm_spec.p
    complex_fit = p != 2.0 and np.iscomplexobj(x)
    assert density.orbit_exhausted_at == ref_density.orbit_exhausted_at
    for rec, ref in zip(density.records, ref_density.records, strict=True):
        assert rec.best_n == ref.best_n
        assert _close(rec.error, ref.error)
        # best_c carries exp(-log_scale), a sum of best_n logarithms
        c_rtol = 1e-9 if complex_fit else 1e-15 * (1 + rec.best_n)
        assert p == 1.0 or _close(rec.best_c, ref.best_c, c_rtol)


def test_invariant_prefix_per_operator():
    N, m = 32, 10
    x = np.zeros(N)
    x[[0, m - 1]] = 1.0
    rng = np.random.default_rng(6)
    w = tuple(rng.uniform(1.0, 2.0, N))
    spec = NormSpec(3.0, w)

    T = RolewiczMultiple(2.0)
    assert invariant_prefix(T, x, spec) == (m, T, NormSpec(3.0, w[:m]))
    assert invariant_prefix(T, x) == (m, T, L2)
    assert invariant_prefix(BackwardShift(w), x)[1] == BackwardShift(w[:m])
    assert invariant_prefix(Diagonal(w), x)[1] == Diagonal(w[:m])
    M = rng.standard_normal((N, N))
    M[m:, :m] = 0.0
    assert np.array_equal(invariant_prefix(DenseMatrix(M), x)[1].entries, M[:m, :m])

    # no shorter prefix: the forward shift leaves every prefix, and so does
    # a dense matrix with one entry below the prefix
    M[m + 3, 2] = 1.0
    for T in (ForwardShift(), DenseMatrix(M)):
        assert invariant_prefix(T, x, spec) == (N, T, spec)
    x[-1] = 1.0
    T = RolewiczMultiple(2.0)
    assert invariant_prefix(T, x, spec) == (N, T, spec)

    # m >= 2, and a stack or a mask counts the union of its supports
    assert invariant_prefix(T, np.eye(N)[0])[0] == 2
    assert invariant_prefix(T, np.stack([np.eye(N)[0], np.eye(N)[12]]))[0] == 13
    assert invariant_prefix(T, np.arange(N) == 20)[0] == 21


def test_orbits_run_on_the_kept_prefix_only(monkeypatch):
    dims = []
    real_apply = operators.apply

    def spy(T, v):
        dims.append(v.shape[0])
        return real_apply(T, v)

    monkeypatch.setattr(operators, "apply", spy)
    monkeypatch.setattr(extractor, "apply", spy)
    N, m = 48, 12
    rng = np.random.default_rng(7)
    x = np.zeros(N)
    x[:m] = rng.standard_normal(m)
    targets = TargetSet.uniform([np.eye(N)[0]], 0.5)
    M = 2.0 * np.eye(N, k=1)  # lam B, but for one entry below the prefix
    M[m + 1, 0] = 1e-3
    for T, dim in ((RolewiczMultiple(2.0), m), (ForwardShift(), N), (DenseMatrix(M), N)):
        dims.clear()
        cert = extract_subsequence(T, x, ExtractionConfig(horizon=8, max_steps=2))
        assert verify_certificate(cert, T, x).ok
        density_check(T, x, targets, 4)
        assert dims and set(dims) == {dim}, type(T).__name__


def test_full_dimension_errors_are_kept():
    N = 64
    targets = default_target_set(N, count=4)
    x = build_supercyclic_vector(2.0, targets, N).x
    assert invariant_prefix(RolewiczMultiple(2.0), x)[0] < N - 1
    cfg = ExtractionConfig(horizon=16, max_steps=4)
    cert = extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    M = np.eye(N + 1)
    short = NormSpec(2.0, (1.0,) * (N - 1))
    # each prefix holds x, yet each operator or norm is wrong for dimension N
    for T, spec in ((BackwardShift.unit(N - 1), L2), (Diagonal((2.0,) * (N - 1)), L2),
                    (Diagonal((2.0,) * (N + 1)), L2), (DenseMatrix(M), L2),
                    (RolewiczMultiple(2.0), short)):
        with pytest.raises(DimensionMismatch):
            invariant_prefix(T, x, spec)
        with pytest.raises(DimensionMismatch):
            extract_subsequence(T, x, dataclasses.replace(cfg, norm_spec=spec))
        with pytest.raises(DimensionMismatch):
            density_check(T, x, targets, 8, spec)
        report = verify_certificate(dataclasses.replace(cert, norm_spec=spec), T, x)
        assert report.failed_check == "internal" and "DimensionMismatch" in report.message
