import math

import numpy as np
import pytest

from orbitgap import (
    Diagonal,
    L1,
    L2,
    LINF,
    NormSpec,
    RolewiczMultiple,
    TargetSet,
    ZeroOrbitMarker,
    apply,
    best_scalar,
    build_supercyclic_vector,
    default_target_set,
    density_check,
    norm,
    orbit_stream,
)
from orbitgap import dynamics, subspace
from orbitgap.space import basis_vector
from orbitgap.operators import BackwardShift
from orbitgap.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTargets,
    SolverFailure,
    TruncationTooSmall,
)


def orbit_power(T, x, n):
    v = x
    for _ in range(n):
        v = apply(T, v)
    return v


def test_target_set_validation():
    with pytest.raises(EmptyTargets):
        TargetSet(targets=(), epsilons=())
    with pytest.raises(DimensionMismatch):
        TargetSet.uniform([np.ones(3), np.ones(4)], 0.1)
    with pytest.raises(ConfigError):
        TargetSet.uniform([np.zeros(3)], 0.1)
    with pytest.raises(ConfigError):
        TargetSet(targets=(np.ones(3),), epsilons=(0.0,))
    with pytest.raises(ConfigError):
        TargetSet(targets=(np.ones(3),), epsilons=(0.1, 0.2))


def test_default_target_set_supports():
    ts = default_target_set(16, count=8, epsilon=1e-3)
    assert len(ts.targets) == 8
    assert ts.dim == 16
    assert all(e == 1e-3 for e in ts.epsilons)
    # support of target j encodes the bits of j + 1
    for j, t in enumerate(ts.targets):
        support = tuple(int(i) for i in np.flatnonzero(t))
        bits = tuple(i for i in range(16) if (j + 1) >> i & 1)
        assert support == bits


def test_build_single_target_is_identity():
    ts = TargetSet.uniform([basis_vector(0, 32)], 1e-3)
    res = build_supercyclic_vector(2.0, ts, 32)
    assert np.array_equal(res.x, basis_vector(0, 32))
    assert len(res.plan) == 1
    assert res.plan[0].offset == 0
    assert res.plan[0].bounded_error == 0.0


def test_build_two_target_offsets():
    # lam = 2, targets e_0 and e_0 + e_1, eps = 2^-10 each: the second
    # block lands at offset 11 since 2^-11 * sqrt(2) = 6.905e-4 <= 2^-10
    eps = 2.0 ** -10
    ts = TargetSet.uniform([basis_vector(0, 64), np.array([1.0, 1.0] + [0.0] * 62)], eps)
    res = build_supercyclic_vector(2.0, ts, 64)
    assert [p.offset for p in res.plan] == [0, 11]
    assert res.plan[0].bounded_error == pytest.approx(2.0 ** -11 * math.sqrt(2.0), rel=1e-12)
    assert res.plan[0].bounded_error <= eps
    assert res.plan[1].bounded_error == 0.0


def test_build_bound_is_sound():
    # norm((lam B)^{m_j} x - t_j) never exceeds the reported bound + 1e-10
    rng = np.random.default_rng(21)
    targets = []
    for _ in range(5):
        t = np.zeros(512)
        k = int(rng.integers(1, 5))
        t[:k] = rng.uniform(-2.0, 2.0, k)
        if not np.any(t):
            t[0] = 1.0
        targets.append(t)
    ts = TargetSet.uniform(targets, 1e-4)
    res = build_supercyclic_vector(2.0, ts, 512)
    T = RolewiczMultiple(2.0)
    for entry, t in zip(res.plan, ts.targets):
        reached = orbit_power(T, res.x, entry.offset)
        err = float(np.linalg.norm(reached - t))
        assert err <= entry.bounded_error + 1e-10
        assert entry.bounded_error <= 1e-4


def test_build_offsets_strictly_increasing_and_disjoint():
    ts = default_target_set(256, count=8, epsilon=1e-3)
    res = build_supercyclic_vector(2.0, ts, 256)
    offs = [p.offset for p in res.plan]
    assert offs == sorted(set(offs))
    lengths = [int(np.flatnonzero(t)[-1]) + 1 for t in ts.targets]
    for (a, la), b in zip(zip(offs, lengths), offs[1:]):
        assert a + la <= b  # shifted blocks never overlap


def test_build_errors():
    ts = TargetSet.uniform([basis_vector(0, 8)], 1e-3)
    with pytest.raises(ConfigError):
        build_supercyclic_vector(1.0, ts, 8)
    with pytest.raises(ConfigError):
        build_supercyclic_vector(2.0, ts, 8, spec=NormSpec(2.0, weights=(1.0,) * 8))
    with pytest.raises(DimensionMismatch):
        build_supercyclic_vector(2.0, ts, 16)
    tight = default_target_set(16, count=8, epsilon=1e-6)
    with pytest.raises(TruncationTooSmall):
        build_supercyclic_vector(2.0, tight, 16)


def test_density_exact_orbit_multiple():
    # t = 3 T^5 x: density must find n = 5, c = 3, error ~ 0
    rng = np.random.default_rng(22)
    x = rng.uniform(0.5, 1.5, 32)
    T = RolewiczMultiple(2.0)
    t = 3.0 * orbit_power(T, x, 5)
    report = density_check(T, x, TargetSet.uniform([t], 1e-6), 12)
    rec = report.records[0]
    assert rec.best_n == 5
    assert rec.best_c == pytest.approx(3.0, rel=1e-10)
    assert rec.error <= 1e-10


def test_density_backward_shift_basis():
    # B^3 e_3 = e_0
    report = density_check(
        BackwardShift.unit(8), basis_vector(3, 8), TargetSet.uniform([basis_vector(0, 8)], 1e-9), 6
    )
    rec = report.records[0]
    assert rec.best_n == 3
    assert rec.best_c == pytest.approx(1.0, abs=1e-12)
    assert rec.error <= 1e-12


def test_density_horizon_zero():
    x = np.array([1.0, 0.5, 0.25, 0.0])
    report = density_check(RolewiczMultiple(2.0), x, TargetSet.uniform([x], 0.5), 0)
    rec = report.records[0]
    assert rec.best_n == 0
    assert rec.best_c == pytest.approx(1.0, rel=1e-12)
    assert rec.error <= 1e-14


def test_density_dying_orbit_flagged():
    x = np.array([1.0, 1.0, 0.0, 0.0])
    report = density_check(
        RolewiczMultiple(2.0), x, TargetSet.uniform([basis_vector(0, 4)], 1.0), 10
    )
    assert report.orbit_exhausted_at == 2
    assert report.records[0].best_n <= 1


def test_density_scalar_freedom():
    # per-n infimum over c is invariant under x -> c x
    rng = np.random.default_rng(23)
    x = rng.uniform(0.5, 1.5, 24)
    ts = TargetSet.uniform([rng.standard_normal(24) for _ in range(3)], 1.0)
    T = RolewiczMultiple(2.0)
    for spec in (L2, L1, LINF):
        a = density_check(T, x, ts, 8, spec)
        b = density_check(T, 7.5 * x, ts, 8, spec)
        for ra, rb in zip(a.records, b.records):
            assert ra.error == pytest.approx(rb.error, abs=1e-10)
            assert ra.best_n == rb.best_n


def test_density_best_c_is_local_minimum():
    rng = np.random.default_rng(24)
    x = rng.uniform(0.5, 1.5, 16)
    ts = TargetSet.uniform([rng.standard_normal(16) for _ in range(2)], 1.0)
    T = RolewiczMultiple(2.0)
    for spec in (L2, L1, LINF, NormSpec(3.0)):
        report = density_check(T, x, ts, 6, spec)
        for rec, t in zip(report.records, ts.targets):
            u = orbit_power(T, x, rec.best_n)
            for bump in (1.001, 0.999):
                assert norm(t - rec.best_c * bump * u, spec) >= rec.error - 1e-12


def test_density_validation():
    ts = TargetSet.uniform([np.ones(4)], 1.0)
    with pytest.raises(ConfigError):
        density_check(RolewiczMultiple(2.0), np.zeros(4), ts, 5)
    with pytest.raises(ConfigError):
        density_check(RolewiczMultiple(2.0), np.ones(4), ts, -1)
    with pytest.raises(DimensionMismatch):
        density_check(RolewiczMultiple(2.0), np.ones(5), ts, 5)


@pytest.mark.parametrize("spec", [L1, NormSpec(3.0), LINF], ids=["l1", "p3", "linf"])
def test_builder_density_is_exact_at_real_p(spec):
    # README pipeline at N=256: the last block is target 7 = e_3 alone, so
    # powers 74..77 bring its one entry onto e_3, e_2, e_1, e_0 (targets 7,
    # 3, 1, 0) with nothing left behind it, an exact hit
    ts = default_target_set(256, count=8, epsilon=1e-3)
    res = build_supercyclic_vector(2.0, ts, 256)
    report = density_check(RolewiczMultiple(2.0), res.x, ts, 100, spec)
    for j in (0, 1, 3, 7):
        assert report.records[j].error <= 1e-15
    if spec is L1:  # power 64 gives target 6 plus 2^(64-74) e_3 from the last block
        assert report.records[6].error <= 2.0 ** -10 + 1e-15 * norm(ts.targets[6], L1)


def test_built_vector_density_meets_epsilons():
    ts = default_target_set(512, count=8, epsilon=1e-3)
    res = build_supercyclic_vector(2.0, ts, 512)
    tail = max(p.offset for p in res.plan) + 16
    report = density_check(RolewiczMultiple(2.0), res.x, ts, tail)
    for rec, eps in zip(report.records, ts.epsilons):
        assert rec.error <= eps


def per_pair_density(T, x, targets, horizon, spec):
    """(best_n, best_c, error) per target from one best_scalar call per (power, target)."""
    best = [None] * len(targets.targets)
    for elem in orbit_stream(T, x, 0, horizon, spec):
        if isinstance(elem, ZeroOrbitMarker):
            break
        for j, t in enumerate(targets.targets):
            gamma, err = best_scalar(t, elem.direction, spec)
            if best[j] is None or err < best[j][2]:
                best[j] = (elem.n, gamma * math.exp(-elem.log_scale), err)
    return best


def _weighted_case():
    rng = np.random.default_rng(51)
    ts = TargetSet.uniform([rng.standard_normal(24) for _ in range(5)], 1.0)
    spec = NormSpec(2.0, tuple(rng.uniform(0.2, 4.0, 24)))
    return RolewiczMultiple(2.0), rng.uniform(0.5, 1.5, 24), ts, 20, spec


def _complex_case(spec=L2):
    rng = np.random.default_rng(52)
    draws = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(4)]
    ts = TargetSet.uniform(draws, 1.0)
    return RolewiczMultiple(1.5), rng.standard_normal(16) + 1j * rng.standard_normal(16), ts, 12, spec


def _dying_case():
    ts = TargetSet.uniform([basis_vector(0, 4), np.array([1.0, -1.0, 0.0, 0.0])], 1.0)
    return RolewiczMultiple(2.0), np.array([1.0, 1.0, 0.0, 0.0]), ts, 10, L2


def _tie_case():
    # T^2 = I and x has unit norm exactly, so powers 1 and 3 give the same
    # direction bit for bit: the first of them must win
    ts = TargetSet.uniform([np.array([1.0, -1.0, 1.0, -0.9]), np.array([1.0, 1.0, 0.9, 1.0])], 1.0)
    return Diagonal((1.0, -1.0, 1.0, -1.0)), np.full(4, 0.5), ts, 3, L2


def _real_case(p, weighted):
    rng = np.random.default_rng(53)
    ts = TargetSet.uniform([rng.standard_normal(24) for _ in range(5)], 1.0)
    spec = NormSpec(p, tuple(rng.uniform(0.2, 4.0, 24)) if weighted else None)
    return RolewiczMultiple(2.0), rng.uniform(0.5, 1.5, 24), ts, 20, spec


@pytest.mark.parametrize("case", [
    _weighted_case, _complex_case, _dying_case, _tie_case,
    lambda: _real_case(1.0, True), lambda: _real_case(math.inf, False), lambda: _real_case(3.0, False),
    lambda: _complex_case(LINF),
], ids=["weighted", "complex", "dying", "tie", "weighted-l1", "linf", "p3", "complex-linf"])
def test_density_matches_per_pair_reference(case):
    T, x, ts, horizon, spec = case()
    report = density_check(T, x, ts, horizon, spec)
    # at smooth p the stacked rows go through numpy's power kernel at other
    # buffer positions, which may round differently
    c_tol = 1e-15 if spec.p in (1.0, 2.0, math.inf) else 1e-12
    for rec, (n, c, err) in zip(report.records, per_pair_density(T, x, ts, horizon, spec)):
        assert rec.best_n == n
        assert type(rec.best_c) is type(c) and type(rec.error) is float
        assert abs(rec.best_c - c) <= c_tol * abs(c)
        assert abs(rec.error - err) <= 1e-15 * err
    if case is _tie_case:
        assert [rec.best_n for rec in report.records] == [1, 0]
    if case is _dying_case:
        assert report.orbit_exhausted_at == 2


@pytest.mark.parametrize("spec, solver", [
    (L1, "_cone_distance"), (NormSpec(3.0), "_newton_smooth"), (LINF, "_cone_distance"),
], ids=["l1", "p3", "linf"])
def test_complex_density_propagates_a_solver_failure(monkeypatch, spec, solver):
    # a complex fit at p != 2 is a distance solve: its SolverFailure ends
    # density_check, never a record with a best guess
    def fail(r0, U, p):
        raise SolverFailure(f"stalled (p={p})")

    monkeypatch.setattr(subspace, solver, fail)
    T, x, ts, horizon, _ = _complex_case(spec)
    with pytest.raises(SolverFailure, match=f"p={spec.p}"):
        density_check(T, x, ts, horizon, spec)


def test_density_scores_all_targets_per_power(monkeypatch):
    calls = []

    def counted(t, u, spec):
        calls.append(np.shape(t))
        return best_scalar(t, u, spec)

    monkeypatch.setattr(dynamics, "best_scalar", counted)
    ts = default_target_set(256, count=8, epsilon=1e-3)
    res = build_supercyclic_vector(2.0, ts, 256)
    density_check(RolewiczMultiple(2.0), res.x, ts, 40)
    assert len(calls) <= 41
    # the stack is cut to the prefix that holds x (the targets sit inside it)
    m = int(np.flatnonzero(res.x)[-1]) + 1
    assert m < 256
    assert calls[0] == (8, m)
