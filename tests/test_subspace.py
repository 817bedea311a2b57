import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from orbitgap import (
    L1,
    L2,
    LINF,
    ExtractionConfig,
    NormSpec,
    RolewiczMultiple,
    SpanBasis,
    best_scalar,
    build_supercyclic_vector,
    default_target_set,
    distance,
    distance_batch_oracle,
    distance_convex_descent,
    distance_if_extended,
    extend,
    extract_subsequence,
    norm,
    orbit_stream,
    verify_certificate,
)
from orbitgap import subspace
from orbitgap.subspace import DEPENDENCY_TOL, _pnorm_and_grad, prefix_distances
from orbitgap.errors import DimensionMismatch, SolverFailure

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rand_span(rng, dim, rank, field="real"):
    gens = []
    for _ in range(rank):
        v = rng.standard_normal(dim)
        if field == "complex":
            v = v + 1j * rng.standard_normal(dim)
        gens.append(v)
    return gens, SpanBasis.from_vectors(gens)


def test_worked_example_l2():
    # e = (1,1,1) against span{(1,2,0), (0,1,3)}: distance sqrt(8/23)
    Y = SpanBasis.from_vectors([np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 3.0])])
    d = distance(np.array([1.0, 1.0, 1.0]), Y, L2)
    assert d == pytest.approx(math.sqrt(8.0 / 23.0), rel=1e-14)


def test_empty_span_distance_is_norm():
    e = np.array([3.0, -4.0])
    Y = SpanBasis(np.zeros((0, 2)))
    assert distance(e, Y, L2) == pytest.approx(5.0, abs=1e-15)
    assert distance(e, Y, L1) == pytest.approx(7.0, abs=1e-15)


def test_orthonormality_and_dependence():
    # a dependent generator leaves the span as the very same object
    rng = np.random.default_rng(3)
    v1 = rng.standard_normal(10)
    v2 = rng.standard_normal(10)
    spans = [SpanBasis.from_vectors([v1])]
    for v in (v2, v1 + v2, rng.standard_normal(10)):
        spans.append(extend(spans[-1], v))
    assert [Y.rank for Y in spans] == [1, 2, 2, 3]
    assert [b is a for a, b in zip(spans, spans[1:])] == [False, True, False]
    Y = spans[-1]
    assert Y.dim == 10
    Q = np.array(Y.ortho)
    gram = Q.conj() @ Q.T
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_from_vectors_needs_a_vector():
    with pytest.raises(DimensionMismatch):
        SpanBasis.from_vectors([])


def test_extend_is_incremental_from_vectors():
    rng = np.random.default_rng(4)
    gens = [rng.standard_normal(8) for _ in range(5)]
    whole = SpanBasis.from_vectors(gens)
    Y = SpanBasis(np.zeros((0, 8)))
    for g in gens:
        Y = extend(Y, g)
    assert Y.rank == whole.rank
    assert np.allclose(np.array(Y.ortho), np.array(whole.ortho), atol=1e-12)


def test_dependency_tolerance_boundary():
    v = np.array([1.0, 0.0])
    Y = SpanBasis.from_vectors([v])
    # exactly parallel, tiny: dependent, the span comes back unchanged
    assert extend(Y, 1e-3 * v) is Y
    # nearly parallel but above tolerance: independent
    Y3 = extend(Y, v + np.array([0.0, 10.0 * DEPENDENCY_TOL]))
    assert Y3.rank == 2


def test_extend_dim_mismatch():
    Y = SpanBasis(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        extend(Y, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        distance(np.zeros(4), Y)
    # distance_if_extended relies on those two checks
    with pytest.raises(DimensionMismatch):
        distance_if_extended(np.zeros(3), Y, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        distance_if_extended(np.zeros(4), Y, np.zeros(3))


def test_membership_gives_zero():
    rng = np.random.default_rng(5)
    gens, Y = rand_span(rng, 12, 4)
    inside = gens[0] * 0.7 - 2.0 * gens[2]
    for spec in (L2, L1, LINF, NormSpec(1.7)):
        assert distance(inside, Y, spec) <= 1e-10
        assert distance_batch_oracle(inside, gens, spec) <= 1e-8


@pytest.mark.parametrize("field", ["real", "complex"])
def test_inside_span_points_skip_the_descent(monkeypatch, field):
    # span membership is checked before any descent on either field, so no
    # route may reach the optimizer for an O(1) point inside the span
    def refuse(*args, **kwargs):
        raise AssertionError("a descent ran on a point inside the span")

    monkeypatch.setattr("scipy.optimize.minimize", refuse)
    monkeypatch.setattr(subspace, "_newton_smooth", refuse)
    rng = np.random.default_rng(12)
    for spec in (L1, NormSpec(1.5), NormSpec(3.0), LINF):
        for _ in range(6):
            dim, rank = int(rng.integers(4, 33)), int(rng.integers(1, 8))
            gens, Y = rand_span(rng, dim, rank, field)
            coef = rng.standard_normal(rank)
            if field == "complex":
                coef = coef + 1j * rng.standard_normal(rank)
            inside = sum(c * g for c, g in zip(coef, gens))
            assert distance(inside, Y, spec) <= 1e-10, (spec, dim, rank)
            assert distance_batch_oracle(inside, gens, spec) <= 1e-10, (spec, dim, rank)
            assert distance_convex_descent(inside, gens, spec) <= 1e-10, (spec, dim, rank)


def test_oracle_ignores_dependent_generators():
    # a repeated generator must not shrink the span at any p
    s = 1.0 / math.sqrt(2.0)
    v, w = np.array([1.0, 0.0, 0.0]), np.array([s, s, 0.0])
    rng = np.random.default_rng(7)
    points = [np.array([0.0, 1.0, 0.0]), 0.3 * v - 2.0 * w, rng.standard_normal(3)]
    for spec in (L1, LINF, NormSpec(3.0)):
        for e in points:
            d = distance_batch_oracle(e, [v, v, w], spec)
            assert d == pytest.approx(distance_batch_oracle(e, [v, w], spec), abs=1e-9)
        assert distance_batch_oracle(points[0], [v, v, w], spec) == pytest.approx(0.0, abs=1e-9)
        assert distance_batch_oracle(points[1], [v, v, w], spec) == pytest.approx(0.0, abs=1e-9)
        assert distance_batch_oracle(points[2], [v, v, w], spec) == pytest.approx(
            abs(points[2][2]), rel=1e-9
        )


@pytest.fixture
def qr_modes(monkeypatch):
    """The modes of the np.linalg.qr calls made while a test runs."""
    modes = []
    numpy_qr = np.linalg.qr

    def recording(a, mode="reduced"):
        modes.append(mode)
        return numpy_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return modes


def oracle_prefixes(e, gens, spec):
    return [distance_batch_oracle(e, gens[:k], spec) for k in range(1, len(gens) + 1)]


@pytest.mark.parametrize("spec,rtol",
                         [(L2, 1e-12), (NormSpec(3.0), 1e-6), (L1, 1e-9), (LINF, 1e-9)],
                         ids=["l2", "p3", "l1", "linf"])
def test_prefix_distances_on_builder_vectors(monkeypatch, qr_modes, spec, rtol):
    # the verifier's inputs on the builder's vector, whose entries run from
    # 1 down to ~1e-23 at N=128: the one-QR prefixes must match the oracle
    # run on each prefix separately, without falling back to it; p = 2
    # reads R alone from numpy's QR, any other p takes scipy's Q
    T = RolewiczMultiple(2.0)
    x = build_supercyclic_vector(2.0, default_target_set(128, count=8), 128, spec).x
    assert 0.0 < np.abs(x[x != 0]).min() < 1e-20
    cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
    cert = extract_subsequence(T, x, cfg)
    stream = orbit_stream(T, cert.scaled_x, 1, cert.indices[-1], spec)
    gens = [el.direction for el in stream if el.n in cert.indices]
    expected = oracle_prefixes(cert.scaled_x, gens, spec)
    monkeypatch.setattr(subspace, "distance_batch_oracle", None)
    qr_modes.clear()
    got = prefix_distances(cert.scaled_x, gens, spec)
    assert got == pytest.approx(expected, rel=rtol, abs=0.0)
    assert qr_modes == (["r"] if spec.p == 2.0 else [])


@pytest.mark.parametrize("field", ["weighted", "complex"])
def test_prefix_distances_weighted_and_complex_l2(monkeypatch, qr_modes, field):
    # p = 2 reads every prefix distance off R's last column: numpy's R-only
    # QR, and never scipy's, which forms Q
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's QR ran at p = 2")

    rng = np.random.default_rng(41)
    gens, _ = rand_span(rng, 24, 8, "complex" if field == "complex" else "real")
    e = rng.standard_normal(24) + (1j * rng.standard_normal(24) if field == "complex" else 0.0)
    spec = NormSpec(2.0, tuple(rng.uniform(0.1, 3.0, 24))) if field == "weighted" else L2
    expected = oracle_prefixes(e, gens, spec)
    monkeypatch.setattr(subspace, "distance_batch_oracle", None)
    monkeypatch.setattr("scipy.linalg.qr", refuse)
    assert prefix_distances(e, gens, spec) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert qr_modes == ["r"]


@pytest.mark.parametrize("spec", [L2, L1, NormSpec(3.0)], ids=["l2", "l1", "p3"])
def test_prefix_distances_dependent_generators_fall_back(monkeypatch, qr_modes, spec):
    # a repeated generator leaves the span as it is, so every prefix must
    # come from the oracle, not from a Householder step on a noise column
    s = 1.0 / math.sqrt(2.0)
    v, w = np.array([1.0, 0.0, 0.0, 0.0]), np.array([s, s, 0.0, 0.0])
    e = np.array([0.3, -1.0, 2.0, 0.5])
    expected = oracle_prefixes(e, [v, v, w], spec)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return distance_batch_oracle(*args)

    monkeypatch.setattr(subspace, "distance_batch_oracle", counted)
    assert prefix_distances(e, [v, v, w], spec) == expected
    assert calls == [1, 2, 3]
    # at p = 2 the dependence test reads numpy's R-only QR
    assert qr_modes == (["r"] if spec.p == 2.0 else [])


def test_prefix_distances_of_no_generators():
    assert prefix_distances(np.ones(4), [], L2) == []
    assert prefix_distances(np.ones(4), [], L1) == []


def test_prefix_distances_with_as_many_generators_as_entries():
    # K = N leaves no row of R for the point's residual: the oracle answers
    rng = np.random.default_rng(43)
    gens, e = [rng.standard_normal(3) for _ in range(3)], rng.standard_normal(3)
    for spec in (L2, L1):
        got = prefix_distances(e, gens, spec)
        assert got == pytest.approx(oracle_prefixes(e, gens, spec), rel=1e-12, abs=1e-12)
        assert got[-1] == pytest.approx(0.0, abs=1e-12)


def _lp_calls(monkeypatch):
    """The constraint matrices of the solve_standard_lp calls made while a test runs."""
    calls = []
    solve = subspace.solve_standard_lp

    def counted(c, A, b, *, upper=None):
        calls.append(A)
        return solve(c, A, b, upper=upper)

    monkeypatch.setattr(subspace, "solve_standard_lp", counted)
    return calls


def _prefix_qr(e, gens, spec):
    """(e_hat, Q[:, :K]) as prefix_distances factors them."""
    from scipy.linalg import qr

    e_hat, A = subspace._scaled_columns(e, gens, spec)
    return e_hat, qr(np.column_stack([A, e_hat]), mode="economic")[0][:, : len(gens)]


def test_one_block_dual_model_is_the_dense_model():
    # distance's LP must keep its bytes: one block, assembled as CSC, holds
    # exactly the entries scipy reads off the dense model (zeros dropped)
    from scipy.sparse import csc_array

    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n))
        A = rng.standard_normal((n, k)) * (rng.random((n, k)) < 0.6)
        e = rng.standard_normal(n)
        for p in (1.0, math.inf):
            c, A_eq, b, upper = subspace._dual_model(e, [A], p)
            dense = np.hstack([A.T, -A.T])
            if p == math.inf:
                dense = np.block([[dense, np.zeros((k, 1))], [np.ones((1, 2 * n + 1))]])
            ref = csc_array(dense)
            assert all(np.array_equal(getattr(A_eq, f), getattr(ref, f))
                       for f in ("indptr", "indices", "data"))
            assert A_eq.indices.dtype == ref.indices.dtype and A_eq.shape == ref.shape
            assert np.array_equal(c, np.concatenate([-e, e, [0.0] * (p == math.inf)]))
            assert np.array_equal(b, [0.0] * k + [1.0] * (p == math.inf))
            assert upper == (1.0 if p == 1.0 else None)


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_verify_solves_every_prefix_lp_in_one_call(monkeypatch, spec):
    # verify cuts the builder's vector to its invariant prefix (79 entries
    # at L1, 74 at L-inf), where all 16 prefixes fit one block-diagonal
    # model of at most 2^15 nonzeros
    T = RolewiczMultiple(2.0)
    x = build_supercyclic_vector(2.0, default_target_set(128, count=8), 128, spec).x
    cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
    cert = extract_subsequence(T, x, cfg)
    assert len(cert.indices) == 16
    calls = _lp_calls(monkeypatch)
    report = verify_certificate(cert, T, x)
    assert report.ok and report.max_rel_deviation <= 1e-12, report.message
    assert len(calls) == 1 and calls[0].nnz <= 2**15
    assert calls[0].shape[0] == 16 * 17 // 2 + 16 * (spec.p == math.inf)


@pytest.mark.parametrize("p", [1.0, math.inf], ids=["l1", "linf"])
def test_prefix_lps_are_grouped_by_nonzeros(monkeypatch, p):
    # 2 n k nonzeros per prefix (plus a 2n + 1 sum row at p = inf) at
    # n = 128, K = 24 is 2.3 times the cap: prefixes fill one model in
    # order while its total stays within 2^15
    rng = np.random.default_rng(45)
    n, K = 128, 24
    gens, e = list(rng.standard_normal((K, n))), rng.standard_normal(n)
    groups, size = [[]], 0
    for k in range(1, K + 1):
        nnz = 2 * n * k + (2 * n + 1) * (p == math.inf)
        if groups[-1] and size + nnz > 2**15:
            groups, size = groups + [[]], 0
        groups[-1].append(k)
        size += nnz
    assert len(groups) >= 3
    calls = _lp_calls(monkeypatch)
    got = prefix_distances(e, gens, NormSpec(p))
    assert [A.shape[0] for A in calls] == [sum(g) + len(g) * (p == math.inf) for g in groups]
    assert all(A.nnz <= 2**15 for A in calls)
    calls.clear()
    e_hat, Q = _prefix_qr(e, gens, NormSpec(p))
    expected = [subspace._lp_distance(e_hat, Q[:, :k], p)[0] for k in range(1, K + 1)]
    assert len(calls) == K
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_block_prefix_lps_match_one_lp_per_prefix():
    # each block's value, read as -fsum(c_k z_k), against the prefix's own LP
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(8, 129))
        K = int(rng.integers(2, min(16, n - 1) + 1))
        gens, e = list(rng.standard_normal((K, n))), rng.standard_normal(n)
        for p in (1.0, math.inf):
            e_hat, Q = _prefix_qr(e, gens, NormSpec(p))
            expected = [subspace._lp_distance(e_hat, Q[:, :k], p)[0] for k in range(1, K + 1)]
            got = prefix_distances(e, gens, NormSpec(p))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (n, K, p)


def test_points_inside_the_span_read_positive_zero():
    # max(-0.0, 0.0) is -0.0, so a clamped zero could reach a record as -0.0
    e = np.array([1.0, 2.0, 3.0])
    gens = [2.0 * e, np.array([0.0, 1.0, 0.0])]
    for spec in (L1, LINF, L2, NormSpec(3.0)):
        values = [
            distance(e, SpanBasis.from_vectors(gens), spec),
            distance_batch_oracle(e, gens, spec),
            distance_batch_oracle(e, gens[:1], spec),
            distance_convex_descent(e, gens, spec),
            *prefix_distances(np.append(e, 0.0), list(np.eye(4)), spec)[2:],
            # K < N: at p in {1, inf} this prefix is a block of one LP model
            prefix_distances(np.append(e, [0.0, 0.0]), list(np.eye(5)[:3]), spec)[2],
            *prefix_distances(np.zeros(5), list(np.eye(5)[:3]), spec),
        ]
        assert max(values) <= 1e-14, spec
        assert [math.copysign(1.0, d) for d in values] == [1.0] * len(values), (spec, values)


def test_distance_if_extended_matches_extend():
    rng = np.random.default_rng(6)
    for spec in (L2, L1, LINF, NormSpec(2.5)):
        _, Y = rand_span(rng, 10, 3)
        e = rng.standard_normal(10)
        v = rng.standard_normal(10)
        d1 = distance_if_extended(e, Y, v, spec)
        d2 = distance(e, extend(Y, v), spec)
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)


def test_incremental_vs_batch_small_sweep():
    rng = np.random.default_rng(7)
    for spec in (L2, L1, LINF):
        for _ in range(15):
            dim = int(rng.integers(2, 20))
            rank = int(rng.integers(1, min(dim, 6) + 1))
            gens, Y = rand_span(rng, dim, rank)
            e = rng.standard_normal(dim)
            a = distance(e, Y, spec)
            b = distance_batch_oracle(e, gens, spec)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-11)


def test_lp_vs_descent_real():
    rng = np.random.default_rng(8)
    for spec in (L1, LINF):
        for _ in range(10):
            gens, Y = rand_span(rng, 14, 4)
            e = rng.standard_normal(14)
            a = distance(e, Y, spec)
            c = distance_convex_descent(e, gens, spec)
            assert a == pytest.approx(c, rel=1e-12, abs=0.0)


def _lp_witness_case(seed, dim, rank):
    rng = np.random.default_rng([seed, dim])
    gens = [rng.standard_normal(dim) for _ in range(rank)]
    return rng.standard_normal(dim), gens


@pytest.mark.parametrize("seed,dim,rank", [
    (1590, 16, 4), (2199, 16, 4),
    (409, 32, 8), (1210, 32, 8), (1435, 32, 8), (1928, 32, 8), (1997, 32, 8),
])
def test_lp_witness_on_draws_that_stall_slsqp(seed, dim, rank):
    # real L1 draws on which SLSQP on the epigraph form does not converge
    e, gens = _lp_witness_case(seed, dim, rank)
    d = distance(e, SpanBasis.from_vectors(gens), L1)
    assert distance_convex_descent(e, gens, L1) == pytest.approx(d, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
@pytest.mark.parametrize("witness", ["perturbed", "random", "unconstrained"])
def test_lp_witness_never_exceeds_the_distance(monkeypatch, spec, witness):
    # any y orthogonal to the span bounds the distance below (Holder), so a
    # wrong maximizer from the LP can only make the cross-check read low;
    # "unconstrained" is the maximizer for ||e_hat||_p itself, which would
    # claim the whole norm if it were not projected off the span
    rng = np.random.default_rng(44)
    cases = [_lp_witness_case(s, dim, rank) for s in range(6) for dim, rank in ((16, 4), (40, 9))]
    oracle = [distance_batch_oracle(e, gens, spec) for e, gens in cases]
    lp_distance = subspace._lp_distance

    def wrong(e_hat, A, p):
        value, y = lp_distance(e_hat, A, p)
        if witness == "perturbed":
            return value, y + 0.3 * rng.standard_normal(y.shape[0])
        if witness == "random":
            return value, rng.standard_normal(y.shape[0])
        if p == 1.0:
            return value, np.sign(e_hat)
        j = int(np.argmax(np.abs(e_hat)))
        return value, np.sign(e_hat[j]) * np.eye(y.shape[0])[j]

    monkeypatch.setattr(subspace, "_lp_distance", wrong)
    for (e, gens), d in zip(cases, oracle):
        assert distance_convex_descent(e, gens, spec) <= d + 1e-12 * np.linalg.norm(e, spec.p)


def test_lp_witness_runs_no_descent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a descent ran at real p in {1, inf}")

    monkeypatch.setattr("scipy.optimize.minimize", refuse)
    monkeypatch.setattr(subspace, "_newton_smooth", refuse)
    for spec in (L1, LINF):
        for seed in range(5):
            e, gens = _lp_witness_case(seed, 24, 6)
            d = distance_batch_oracle(e, gens, spec)
            assert d > 0.1
            assert distance_convex_descent(e, gens, spec) == pytest.approx(d, rel=1e-12, abs=0.0)


def test_lp_witness_with_dependent_generators():
    # an unpivoted QR of [v, v, w] spends a column on a direction outside
    # the span, which would project every witness to zero
    s = 1.0 / math.sqrt(2.0)
    v, w = np.array([1.0, 0.0, 0.0]), np.array([s, s, 0.0])
    e = np.array([0.3, -1.0, 1.0])
    for spec in (L1, LINF):
        assert distance_convex_descent(e, [v, v, w], spec) == pytest.approx(1.0, rel=1e-12)


def test_general_p_between_neighbors():
    # p = 1.5 distance sits between the p = 1 and p = 2 distances
    rng = np.random.default_rng(9)
    for _ in range(10):
        _, Y = rand_span(rng, 10, 3)
        e = rng.standard_normal(10)
        d1 = distance(e, Y, L1)
        d15 = distance(e, Y, NormSpec(1.5))
        d2 = distance(e, Y, L2)
        assert d2 - 1e-9 <= d15 <= d1 + 1e-9


def test_weighted_distance():
    # weights fold into the vectors: dist_w(e, Y) = dist(w*e, w*Y)
    rng = np.random.default_rng(10)
    w = tuple(rng.uniform(0.5, 2.0, 9))
    wa = np.asarray(w)
    for p in (1.0, 2.0, math.inf):
        spec = NormSpec(p, weights=w)
        plain = NormSpec(p)
        gens = [rng.standard_normal(9) for _ in range(3)]
        e = rng.standard_normal(9)
        a = distance(e, SpanBasis.from_vectors(gens), spec)
        b = distance(wa * e, SpanBasis.from_vectors([wa * g for g in gens]), plain)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_complex_distances():
    # seeded dims 4-32 and ranks 1-7; each instance has a point off the span
    # and one inside it, and all three routes must agree
    rng = np.random.default_rng(11)
    for spec in (L2, L1, LINF, NormSpec(1.5), NormSpec(3.0)):
        for _ in range(8):
            dim, rank = int(rng.integers(4, 33)), int(rng.integers(1, 8))
            gens, Y = rand_span(rng, dim, rank, field="complex")
            coef = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            inside = sum(c * g for c, g in zip(coef, gens))
            outside = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for e in (outside, inside):
                a = distance(e, Y, spec)
                b = distance_batch_oracle(e, gens, spec)
                c = distance_convex_descent(e, gens, spec)
                assert a == pytest.approx(b, rel=1e-7, abs=1e-9), (spec, dim, rank)
                assert a == pytest.approx(c, rel=1e-6, abs=1e-9), (spec, dim, rank)
            assert a <= 1e-9, (spec, dim, rank)


def three_routes(e, gens, spec):
    return [distance(e, SpanBasis.from_vectors(gens), spec),
            distance_batch_oracle(e, gens, spec),
            distance_convex_descent(e, gens, spec)]


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_complex_cone_routes_agree(spec):
    # the three routes reach one barrier solver, on bases that differ only
    # by rounding, so they meet far below the solver's 1e-10 gap bound
    rng = np.random.default_rng(2024)
    for _ in range(40):
        dim = int(rng.integers(4, 33))
        gens, _ = rand_span(rng, dim, int(rng.integers(1, min(8, dim - 1) + 1)), "complex")
        e = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        a, b, c = three_routes(e, gens, spec)
        assert b == pytest.approx(a, rel=1e-12, abs=0.0), (dim, len(gens))
        assert c == pytest.approx(a, rel=1e-12, abs=0.0), (dim, len(gens))


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_complex_cone_distance_scales_with_the_point(spec):
    # d(c e) = c d(e): the inside-span test and the barrier's stopping
    # test are both relative, so neither tiny nor huge points read high
    rng = np.random.default_rng(8)
    gens, _ = rand_span(rng, 12, 3, "complex")
    e = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    unit = three_routes(e, gens, spec)
    for c in (1e-20, 1e20):
        assert np.array(three_routes(c * e, gens, spec)) / c == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_complex_cone_distance_near_the_span(spec):
    # a point 1e-9 off the span keeps its relative accuracy: only the
    # rounding of the span element itself (1e-16 / 1e-9) is lost
    rng = np.random.default_rng(9)
    gens, _ = rand_span(rng, 16, 4, "complex")
    e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    inside = sum((rng.standard_normal() + 1j * rng.standard_normal()) * g for g in gens)
    d = distance_batch_oracle(e, gens, spec)
    assert three_routes(inside + 1e-9 * e, gens, spec) == pytest.approx([1e-9 * d] * 3, rel=1e-6)


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_complex_cone_distance_with_dependent_raw_columns(spec):
    # distance_convex_descent takes the raw columns: a repeated one, or a
    # zero one, must leave the span and the distance as they are
    rng = np.random.default_rng(10)
    g, h = (rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2))
    e = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = distance_batch_oracle(e, [g, h], spec)
    assert distance_convex_descent(e, [g, g, h], spec) == pytest.approx(d, rel=1e-12)
    assert distance_convex_descent(e, [g, 2j * g, h], spec) == pytest.approx(d, rel=1e-12)
    zero = np.zeros(6, dtype=complex)
    assert distance_convex_descent(e, [zero], spec) == pytest.approx(norm(e, spec), rel=1e-15)


def test_complex_cone_distance_hand_values():
    # e = (1+i, 2-i) against span{(i, 1)}: with a = 2 - i - w the residual is
    # (i (w - 1), w), so the distance is min |w - 1| + |w| = 1 at p = 1 and
    # min max(|w - 1|, |w|) = 1/2 at p = inf
    e, gens = np.array([1 + 1j, 2 - 1j]), [np.array([1j, 1.0])]
    assert three_routes(e, gens, L1) == pytest.approx([1.0] * 3, rel=1e-12)
    assert three_routes(e, gens, LINF) == pytest.approx([0.5] * 3, rel=1e-12)


@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
@pytest.mark.parametrize("newton", ["nan", "raises"])
def test_complex_cone_distance_fails_closed(monkeypatch, spec, newton):
    # a Newton system that yields no finite step ends the solve with a
    # SolverFailure naming p, never with a value or a numpy error
    lstsq = np.linalg.lstsq

    def broken(a, b, rcond=None):
        if a.shape[0] != a.shape[1]:  # the least-squares start, not a Newton system
            return lstsq(a, b, rcond=rcond)
        if newton == "raises":
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        return (np.full(a.shape[1], np.nan),)

    monkeypatch.setattr(np.linalg, "lstsq", broken)
    rng = np.random.default_rng(12)
    gens, Y = rand_span(rng, 8, 2, "complex")
    e = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    with pytest.raises(SolverFailure, match=f"p={spec.p}"):
        distance(e, Y, spec)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 3.0, 4.0])
def test_smooth_newton_scales_with_the_point(p, field):
    # d(c e) = c d(e) at smooth p: r0 is scaled to max-abs 1 and both the
    # Newton and the L-BFGS stops are relative, so neither tiny nor huge
    # points read high
    rng = np.random.default_rng(8)
    gens, _ = rand_span(rng, 12, 3, field)
    e = rng.standard_normal(12)
    if field == "complex":
        e = e + 1j * rng.standard_normal(12)
    spec = NormSpec(p)
    unit = three_routes(e, gens, spec)
    for c in (1e-20, 1e20):
        assert np.array(three_routes(c * e, gens, spec)) / c == pytest.approx(unit, rel=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_smooth_newton_fails_closed(monkeypatch, field):
    # a Newton system with no finite step leaves the least-squares start,
    # whose Holder gap is far above 1e-9: SolverFailure naming p, not a value
    lstsq = np.linalg.lstsq

    def broken(a, b, rcond=None):
        if a.shape[0] != a.shape[1]:  # the least-squares start, not a Newton system
            return lstsq(a, b, rcond=rcond)
        return (np.full(a.shape[1], np.nan),)

    monkeypatch.setattr(np.linalg, "lstsq", broken)
    rng = np.random.default_rng(12)
    gens, Y = rand_span(rng, 8, 2, field)
    e = rng.standard_normal(8) + (1j * rng.standard_normal(8) if field == "complex" else 0.0)
    with pytest.raises(SolverFailure, match=r"p=3\.0\) stopped after 0 steps with Holder gap"):
        distance(e, Y, NormSpec(3.0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_smooth_lbfgs_fails_closed(monkeypatch, field):
    # an L-BFGS run that reports no success at a = 0 is accepted only on a
    # Holder gap of at most 1e-9, and the least-squares point's is far above
    def stalled(fun, x0, **kwargs):
        return SimpleNamespace(x=np.zeros_like(x0), success=False)

    monkeypatch.setattr("scipy.optimize.minimize", stalled)
    rng = np.random.default_rng(12)
    gens, Y = rand_span(rng, 8, 2, field)
    e = rng.standard_normal(8) + (1j * rng.standard_normal(8) if field == "complex" else 0.0)
    with pytest.raises(SolverFailure, match=r"p=1\.5\) stopped with Holder gap"):
        distance(e, Y, NormSpec(1.5))


SEED_70362_DRAW = """
import numpy as np
import orbitgap as og
rng = np.random.default_rng(70362)
dim, rank = int(rng.integers(4, 33)), int(rng.integers(1, 8))
gens = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(rank)]
e = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
print(og.distance(e, og.SpanBasis.from_vectors(gens), og.L1),
      og.distance_batch_oracle(e, gens, og.L1), og.distance_convex_descent(e, gens, og.L1))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_complex_l1_draw_that_depended_on_blas_threads(threads):
    # dim 32, rank 7: a draw on which a cone solver that depended on the
    # BLAS reduction order failed with one thread and passed with two; the
    # thread count is fixed at start-up, so each runs in a fresh interpreter
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SEED_70362_DRAW], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    values = [float(v) for v in done.stdout.split()]
    assert values == pytest.approx([37.8941032351] * 3, rel=1e-10)
    assert max(values) - min(values) <= 1e-12 * values[0]


def test_pnorm_gradient_on_complex_residuals():
    # the complex smooth descent follows g_j = (d/d Re + i d/d Im) ||rho||_p,
    # checked here against central differences, including entries whose
    # real or imaginary part is zero
    rng = np.random.default_rng(5)
    rho = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    rho[2], rho[3] = -0.7, 0.4j
    h = 1e-7
    for p in (1.5, 3.0):
        _, g = _pnorm_and_grad(rho, p)
        for j in range(6):
            step = np.zeros(6, dtype=complex)
            step[j] = h
            d_re = (np.linalg.norm(rho + step, p) - np.linalg.norm(rho - step, p)) / (2 * h)
            d_im = (np.linalg.norm(rho + 1j * step, p) - np.linalg.norm(rho - 1j * step, p)) / (2 * h)
            assert g[j] == pytest.approx(complex(d_re, d_im), abs=1e-6), (p, j)


def test_complex_l2_hand_value():
    # span{(1, i)} in C^2, e = (1, 0): projection halves the norm
    Y = SpanBasis.from_vectors([np.array([1.0, 1.0j])])
    d = distance(np.array([1.0 + 0.0j, 0.0j]), Y, L2)
    assert d == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)


def test_pythagoras_l2():
    rng = np.random.default_rng(12)
    for _ in range(30):
        _, Y = rand_span(rng, 12, 4)
        e = rng.standard_normal(12)
        d = distance(e, Y, L2)
        Q = np.array(Y.ortho)
        proj = Q.T @ (Q.conj() @ e)
        lhs = d * d + float(np.linalg.norm(proj)) ** 2
        rhs = float(np.linalg.norm(e)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_best_scalar_l2_closed_form():
    rng = np.random.default_rng(13)
    t = rng.standard_normal(7)
    u = rng.standard_normal(7)
    c, err = best_scalar(t, u, L2)
    assert c == pytest.approx(float(t @ u) / float(u @ u), rel=1e-13)
    # stationarity: nudging c cannot help
    for dc in (1e-6, -1e-6):
        assert float(np.linalg.norm(t - (c + dc) * u)) >= err - 1e-15


def test_best_scalar_general_p_beats_grid():
    rng = np.random.default_rng(14)
    t = rng.standard_normal(6)
    u = rng.standard_normal(6)
    for spec in (L1, LINF, NormSpec(1.3)):
        c, err = best_scalar(t, u, spec)
        grid = np.linspace(-5.0, 5.0, 4001)
        brute = min(norm(t - g * u, spec) for g in grid)
        assert err <= brute + 1e-15 * norm(t, spec)
    # complex rows: a 2-D grid around the l2 coefficient c2, and c2 itself;
    # the error is the one attained at the c returned
    t = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c2 = np.vdot(u, t) / np.vdot(u, u).real
    steps = np.linspace(-2.0, 2.0, 401)
    grid = (c2 + steps[:, None] + 1j * steps).ravel()
    for spec in (L1, NormSpec(1.5), NormSpec(3.0), LINF):
        c, err = best_scalar(t, u, spec)
        assert type(c) is complex and err == norm(t - c * u, spec)
        brute = np.linalg.norm(t - grid[:, None] * u, spec.p, axis=1).min()
        assert err <= min(brute, norm(t - c2 * u, spec)) + 1e-15 * norm(t, spec), spec


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p, branch", [
    (3.0, None), (1.0, "_cone_distance"), (math.inf, "_cone_distance"),
    (3.0, "_newton_smooth"), (1.5, "_descent_smooth"),
], ids=["inside-span", "cone-l1", "cone-linf", "newton-p3", "lbfgs-p1.5"])
def test_descent_returns_the_residual_it_measures(monkeypatch, field, p, branch):
    # every branch returns (value, r) with r = e_hat - A a for some a and
    # norm(r) the value: best_scalar reads its coefficient off r
    ran = []

    def spy(name, solver):
        def run(*args):
            ran.append(name)
            return solver(*args)
        return run

    for name in ("_cone_distance", "_newton_smooth", "_descent_smooth"):
        monkeypatch.setattr(subspace, name, spy(name, getattr(subspace, name)))
    rng = np.random.default_rng(16)
    gens, _ = rand_span(rng, 12, 4, field)
    e = gens.pop() if branch else 0.5 * gens[0] - 2.0 * gens[2]
    e_hat, A = subspace._scaled_columns(e, gens, NormSpec(p))
    value, r = subspace._descent(e_hat, A, p)
    assert ran == ([branch] if branch else [])
    assert abs(norm(r, NormSpec(p)) - value) <= 1e-15 * value
    coef, *_ = np.linalg.lstsq(A, e_hat - r, rcond=None)
    assert np.linalg.norm(e_hat - r - A @ coef) <= 1e-13 * np.linalg.norm(e_hat)


def exact_one_column(t, u, p):
    """Exact min over real c of ||t - c u||_p, p in {1, inf}, as a Fraction.

    The profile is convex and piecewise linear in c, so the minimum sits at
    a kink: a ratio a_i = t_i / u_i, or at p = inf a crossing of two of the
    lines |u_i| |c - a_i|, at c = (|u_i| a_i + |u_j| a_j) / (|u_i| + |u_j|).
    """
    t = [Fraction(x) for x in t]
    u = [Fraction(x) for x in u]
    kinks = [(ti / ui, abs(ui)) for ti, ui in zip(t, u) if ui != 0]
    candidates = {a for a, _ in kinks}
    if p == math.inf:
        candidates |= {(si * ai + sj * aj) / (si + sj) for ai, si in kinks for aj, sj in kinks}
    residuals = ([abs(ti - c * ui) for ti, ui in zip(t, u)] for c in candidates)
    return min(sum(r) if p == 1 else max(r) for r in residuals)


@st.composite
def dyadic_pairs(draw):
    """Target and direction with entries +-2^-m, m <= 75, as the builder makes."""
    dim = draw(st.integers(4, 24))
    m = draw(arrays(np.int64, (2, dim), elements=st.integers(0, 75)))
    sign = draw(arrays(np.bool_, (2, dim)))
    return np.where(sign, 1.0, -1.0) * np.ldexp(1.0, -m)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(dyadic_pairs())
def test_best_scalar_is_exact_on_dyadic_pairs(pair):
    t, u = pair
    for spec in (L1, LINF):
        _, err = best_scalar(t, u, spec)
        gap = Fraction(err) - exact_one_column(t, u, spec.p)
        assert abs(gap) <= Fraction(1e-15) * Fraction(norm(t, spec))


def test_best_scalar_zero_direction():
    t = np.array([1.0, 2.0])
    c, err = best_scalar(t, np.zeros(2), L2)
    assert c == 0.0
    assert err == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_distance_scale_invariance_of_span():
    # scaling the generators never moves the span
    rng = np.random.default_rng(15)
    gens = [rng.standard_normal(9) for _ in range(3)]
    e = rng.standard_normal(9)
    for spec in (L2, L1, LINF):
        a = distance_batch_oracle(e, gens, spec)
        b = distance_batch_oracle(e, [1e6 * g for g in gens], spec)
        assert a == pytest.approx(b, rel=1e-8)


@st.composite
def dyadic_instances(draw):
    """Point and generators with entries +-2^-m, m <= 75, as the builder makes."""
    dim = draw(st.integers(4, 64))
    rank = draw(st.integers(1, min(16, dim - 1)))
    m = draw(arrays(np.int64, (rank + 1, dim), elements=st.integers(0, 75)))
    sign = draw(arrays(np.bool_, (rank + 1, dim)))
    rows = np.where(sign, 1.0, -1.0) * np.ldexp(1.0, -m)
    return rows[0], list(rows[1:])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(dyadic_instances())
def test_lp_distances_bracket_l2_on_dyadic_vectors(instance):
    # norm equivalence in dimension N carries over to distances:
    # d2/sqrt(N) <= dinf <= d2 <= d1 <= sqrt(N) d2, with d2 the exact
    # orthogonal projection, so the LP values need no solver to check
    e, gens = instance
    Y = SpanBasis.from_vectors(gens)
    root = math.sqrt(e.shape[0])
    d2 = distance(e, Y, L2)
    dinf, d1 = distance(e, Y, LINF), distance(e, Y, L1)
    tol = 1e-6 * float(np.abs(e).sum())
    assert d2 / root <= dinf + tol, (d2, dinf)
    assert dinf <= d2 + tol, (dinf, d2)
    assert d2 <= d1 + tol, (d2, d1)
    assert d1 <= root * d2 + tol, (d1, d2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(dyadic_instances())
def test_lp_witness_below_the_least_squares_residual(instance):
    # the least-squares residual is a point of e + span, so its p-norm bounds
    # the distance above with no solver involved
    e, gens = instance
    A = np.stack(gens, axis=1)
    coef, *_ = np.linalg.lstsq(A, e, rcond=None)
    for p in (1.0, math.inf):
        upper = float(np.linalg.norm(e - A @ coef, p))
        witness = distance_convex_descent(e, gens, NormSpec(p))
        assert witness <= upper + 1e-15 * float(np.linalg.norm(e, p)), (p, witness, upper)
