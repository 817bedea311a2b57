import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest

from orbitgap import (
    BackwardShift,
    Certificate,
    DenseMatrix,
    Diagonal,
    ExtractionConfig,
    ForwardShift,
    L1,
    L2,
    LINF,
    NormSpec,
    RolewiczMultiple,
    SpanBasis,
    apply,
    build_supercyclic_vector,
    default_target_set,
    distance,
    extract_subsequence,
    norm,
    rescale_for_extraction,
    verify_certificate,
)
from orbitgap import extractor, operators, subspace
from orbitgap import records as rec
from orbitgap.space import basis_vector
from orbitgap.errors import (
    ConfigError,
    HorizonExhausted,
    LinearDependence,
    TruncationTooSmall,
    ZeroOrbit,
)


DATA = pathlib.Path(__file__).parent / "data"


def test_config_validation():
    ExtractionConfig(horizon=10, max_steps=4)
    with pytest.raises(ConfigError):
        ExtractionConfig(horizon=10, max_steps=4, theta=0.9)
    with pytest.raises(ConfigError):
        ExtractionConfig(horizon=10, max_steps=4, margin=0.0)
    with pytest.raises(ConfigError):
        ExtractionConfig(horizon=4, max_steps=4)
    with pytest.raises(ConfigError):
        ExtractionConfig(horizon=10, max_steps=0)
    with pytest.raises(ConfigError):
        ExtractionConfig(horizon=10, max_steps=4, strict_tol=0.0)


def test_rescale_properties():
    rng = np.random.default_rng(31)
    T = RolewiczMultiple(2.0)
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, 24) * rng.choice([-1.0, 1.0], 24)
        lam, xp = rescale_for_extraction(x, T, L2, margin=0.5)
        assert np.allclose(xp, lam * x, rtol=1e-14, atol=0)
        assert norm(xp, L2) >= 1.5 - 1e-12
        tx = apply(T, xp)
        d = distance(xp, SpanBasis.from_vectors([tx]), L2)
        assert d >= 1.5 - 1e-9
        # the minimum of the two quantities lands exactly on 1 + margin
        assert min(norm(xp, L2), d) == pytest.approx(1.5, rel=1e-9)


def test_rescale_rejects_degenerate_x():
    T = RolewiczMultiple(2.0)
    with pytest.raises(LinearDependence):
        rescale_for_extraction(np.zeros(8), T)
    # e_0 has Tx = 0
    with pytest.raises(LinearDependence):
        rescale_for_extraction(basis_vector(0, 8), RolewiczMultiple(2.0))
    # eigenvector: Tx parallel to x
    with pytest.raises(LinearDependence):
        rescale_for_extraction(basis_vector(1, 4), Diagonal(np.array([1.0, 2.0, 3.0, 4.0])))
    with pytest.raises(ConfigError):
        rescale_for_extraction(np.ones(4), T, margin=0.0)


def test_forward_shift_certificate_exact():
    # orthonormal orbit: every distance is exactly 1 + margin
    cfg = ExtractionConfig(horizon=64, max_steps=8, theta=1.2, margin=0.5)
    cert = extract_subsequence(ForwardShift(), basis_vector(0, 128), cfg)
    assert cert.indices == tuple(range(1, 9))
    for d in cert.distances:
        assert d == pytest.approx(1.5, abs=1e-12)
    assert cert.lambda_scale == pytest.approx(1.5, abs=1e-12)
    report = verify_certificate(cert, ForwardShift(), basis_vector(0, 128))
    assert report.ok, report.message


def test_forward_shift_window():
    # K/N does not matter while the orbit stays inside the truncation...
    cfg = ExtractionConfig(horizon=300, max_steps=32)
    cert = extract_subsequence(ForwardShift(), basis_vector(0, 128), cfg)
    assert cert.indices == tuple(range(1, 33))
    # ...and a run whose orbit reaches coordinate N-1 is refused, not truncated
    with pytest.raises(TruncationTooSmall, match="N=128"):
        extract_subsequence(ForwardShift(), basis_vector(100, 128), cfg)
    # at N=64 this x verified with a last distance 0.18% below its l2(N) value
    x = np.random.default_rng(5).standard_normal(64)
    cfg = ExtractionConfig(horizon=60, max_steps=8, theta=1.01)
    with pytest.raises(TruncationTooSmall):
        extract_subsequence(ForwardShift(), x, cfg)
    # a hand-built certificate whose orbit leaks fails its own named check
    leaking = Certificate(
        scaled_x=basis_vector(6, 8),
        lambda_scale=1.0,
        operator=ForwardShift(),
        indices=(1, 2),
        distances=(1.0, 1.0),
        theta=1.0,
        norm_spec=L2,
    )
    report = verify_certificate(leaking, ForwardShift(), basis_vector(6, 8))
    assert report.failed_check == "truncation", report.message


def test_theta_unreachable_at_step_one():
    # margin guarantees only 1 + margin; theta above that must refuse
    cfg = ExtractionConfig(horizon=64, max_steps=4, theta=1.6, margin=0.5)
    with pytest.raises(ConfigError):
        extract_subsequence(ForwardShift(), basis_vector(0, 128), cfg)


def test_orbit_death_reports_step():
    x = np.zeros(32)
    x[:3] = (1.0, 0.5, 0.25)  # support 3: orbit dies at n = 3
    cfg = ExtractionConfig(horizon=16, max_steps=3)
    with pytest.raises(ZeroOrbit) as exc:
        extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    assert exc.value.step == 3


def test_orbit_dying_at_n_1_is_the_scans_zero_orbit():
    # Tx is nonzero, but T x' underflows: n_1 = 1 is the scan's first
    # candidate, so its death is the scan's own ZeroOrbit at step 1
    d = np.full(4, 1e-300)
    d[-1] = 2e-300
    cfg = ExtractionConfig(horizon=8, max_steps=2)
    with pytest.raises(ZeroOrbit) as exc:
        extract_subsequence(Diagonal(d=d), 1e150 * np.ones(4), cfg)
    assert exc.value.step == 1
    assert str(exc.value) == "orbit died at power n=1 before any candidate qualified at step 1"



def test_failure_names_the_closest_miss():
    # an honest ZeroOrbit: every step-4 candidate stays below theta, the
    # best at n=21 (the seed-902 round-270 random-linf x of perfbench's nonl2)
    x = rec.decode_vector(rec.read_record(DATA / "linf-short.x.json"))
    cfg = ExtractionConfig(horizon=32, max_steps=4, theta=1.01, norm_spec=LINF)
    with pytest.raises(ZeroOrbit) as exc:
        extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    assert exc.value.step == 4
    message = str(exc.value)
    assert message.startswith("orbit died at power n=32 before any candidate qualified at step 4")
    assert "best candidate n=21 at distance 1.00707978100" in message
    assert "theta + strictTol = 1.010000001" in message
    # a horizon below 21 ends the scan first; the best miss is then n=15
    cfg = dataclasses.replace(cfg, horizon=20)
    with pytest.raises(HorizonExhausted) as exc:
        extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    assert str(exc.value).startswith("no qualifying index in (3, 20] at step 4; best candidate n=15")


def _pad(v):
    return np.concatenate([v, np.zeros_like(v)])


@pytest.mark.parametrize("name", ["rolewicz", "weighted-shift", "complex-diagonal"])
def test_golden_certificates_hold_after_zero_padding(name):
    # these operators map span{e_0..e_(N-1)} into itself, so a certificate
    # is a statement in l^p(N): padding x to 2N and extending the weights or
    # d arbitrarily must change nothing
    cert = rec.decode_certificate(rec.read_record(DATA / f"{name}.cert.json"))
    x = rec.decode_vector(rec.read_record(DATA / f"{name}.x.json"))
    T = cert.operator
    if isinstance(T, BackwardShift):
        T = BackwardShift(weights=T.weights * 2)
    elif isinstance(T, Diagonal):
        T = Diagonal(d=T.d * 2)
    padded = dataclasses.replace(cert, scaled_x=_pad(cert.scaled_x))
    report = verify_certificate(padded, T, _pad(x))
    assert report.ok, report.message
    base = verify_certificate(cert, cert.operator, x)
    assert report.recomputed_distances == pytest.approx(base.recomputed_distances, rel=1e-12)
    cfg = ExtractionConfig(horizon=x.shape[0] - 1, max_steps=len(cert.indices),
                           theta=cert.theta, norm_spec=cert.norm_spec)
    again = extract_subsequence(T, _pad(x), cfg)
    assert again.indices == cert.indices
    assert again.distances == pytest.approx(cert.distances, rel=1e-12)


@pytest.mark.parametrize("spec", [L1, L2, NormSpec(3.0), LINF], ids=["l1", "l2", "l3", "linf"])
def test_readme_pipeline_is_unchanged_by_zero_padding(spec):
    T = RolewiczMultiple(2.0)
    x = build_supercyclic_vector(2.0, default_target_set(256, count=8), 256).x
    cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
    a = extract_subsequence(T, x, cfg)
    b = extract_subsequence(T, _pad(x), cfg)
    assert a.indices == b.indices
    assert b.distances == pytest.approx(a.distances, rel=1e-12)


def test_index_at_the_horizon_exhausts_it():
    # n_3 = 6 = horizon while a step remains: nothing is left to scan
    x = np.random.default_rng(0).standard_normal(64)
    cfg = ExtractionConfig(horizon=6, max_steps=4, theta=1.49)
    with pytest.raises(HorizonExhausted) as exc:
        extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    assert (exc.value.n_start, exc.value.horizon, exc.value.step) == (6, 6, 4)


def test_monotone_ledger_and_threshold():
    rng = np.random.default_rng(33)
    x = rng.uniform(0.5, 1.5, 64)
    cfg = ExtractionConfig(horizon=48, max_steps=6, theta=1.0)
    cert = extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    assert all(d > 1.0 for d in cert.distances)
    for a, b in zip(cert.distances, cert.distances[1:]):
        assert b <= a + 1e-12


def test_linf_ledger_does_not_rise_on_solver_noise():
    # HiGHS's 1e-7 tolerances put this x's raw step-4 LP value 8e-10 above
    # step 3's, although nested spans cannot raise the distance
    x = rec.decode_vector(rec.read_record(DATA / "linf-rise.x.json"))
    T = RolewiczMultiple(2.0)
    cfg = ExtractionConfig(horizon=32, max_steps=4, theta=1.01, norm_spec=LINF)
    cert = extract_subsequence(T, x, cfg)
    assert cert.indices == (1, 2, 3, 4)
    assert all(b <= a for a, b in zip(cert.distances, cert.distances[1:]))
    report = verify_certificate(cert, T, x)
    assert report.ok, report.message


def test_scale_equivariance():
    rng = np.random.default_rng(35)
    x = rng.uniform(0.5, 1.5, 64)
    cfg = ExtractionConfig(horizon=48, max_steps=5)
    a = extract_subsequence(RolewiczMultiple(2.0), x, cfg)
    b = extract_subsequence(RolewiczMultiple(2.0), 3.0 * x, cfg)
    assert a.indices == b.indices
    assert b.lambda_scale == pytest.approx(a.lambda_scale / 3.0, rel=1e-12)
    for da, db in zip(a.distances, b.distances):
        assert da == pytest.approx(db, rel=1e-9)


def test_verify_detects_tampering():
    rng = np.random.default_rng(36)
    x = rng.uniform(0.5, 1.5, 64)
    T = RolewiczMultiple(2.0)
    cert = extract_subsequence(T, x, ExtractionConfig(horizon=48, max_steps=6))
    assert verify_certificate(cert, T, x).ok

    swapped = list(cert.indices)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    bad = dataclasses.replace(cert, indices=tuple(swapped))
    assert verify_certificate(bad, T, x).failed_check == "indices"

    bad = dataclasses.replace(cert, indices=(2,) + cert.indices[1:])
    assert verify_certificate(bad, T, x).failed_check == "indices"

    dists = list(cert.distances)
    dists[3] = 0.4
    bad = dataclasses.replace(cert, distances=tuple(dists))
    report = verify_certificate(bad, T, x)
    assert not report.ok
    assert report.failed_check in ("distance-deviation", "threshold")

    bad = dataclasses.replace(cert, lambda_scale=cert.lambda_scale * 1.01)
    assert verify_certificate(bad, T, x).failed_check == "scaled-vector"

    bad = dataclasses.replace(cert, theta=max(cert.distances) + 0.5)
    assert verify_certificate(bad, T, x).failed_check == "threshold"

    # verifying against a different original vector must fail too
    report = verify_certificate(cert, T, x + 0.1)
    assert report.failed_check == "scaled-vector"


def test_verify_rejects_inflated_ledger():
    rng = np.random.default_rng(37)
    x = rng.uniform(0.5, 1.5, 64)
    T = RolewiczMultiple(2.0)
    cert = extract_subsequence(T, x, ExtractionConfig(horizon=48, max_steps=6))
    dists = list(cert.distances)
    dists[2] = dists[1] + 0.3  # breaks both deviation and monotonicity
    bad = dataclasses.replace(cert, distances=tuple(dists))
    report = verify_certificate(bad, T, x)
    assert not report.ok


def _nearly_dependent_orbit():
    # T e0 = e1 and T e1 = e1 + 2^-36 e0, so span{T x', T^2 x'} = span{e0, e1}
    # holds x' = 1.5 e0 and d_2 = 0, while every later power adds nothing
    M = np.zeros((3, 3))
    M[1, 0] = M[1, 1] = M[2, 2] = 1.0
    M[0, 1] = 2.0**-36
    return DenseMatrix(M), np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("spec", [L1, L2, NormSpec(3.0), LINF], ids=["l1", "l2", "p3", "linf"])
def test_extraction_keeps_a_nearly_dependent_direction(spec):
    # extend keeps the 2^-36 direction, as least squares does, so T^2 x'
    # scores 0 and no power qualifies at step 2
    T, x = _nearly_dependent_orbit()
    cfg = ExtractionConfig(horizon=4, max_steps=2, theta=1.01, norm_spec=spec)
    with pytest.raises(HorizonExhausted, match="n=2 at distance 0.0"):
        extract_subsequence(T, x, cfg)


@pytest.mark.parametrize("spec", [L1, L2, NormSpec(3.0), LINF], ids=["l1", "l2", "p3", "linf"])
def test_verify_refuses_a_span_that_holds_the_point(spec):
    # the certificate a scan that dropped the 2^-36 direction would emit:
    # d_2 = 1.5 where the oracle, keeping every direction least squares
    # keeps, at every p, recomputes d_2 = 0
    T, x = _nearly_dependent_orbit()
    lam, x_prime = rescale_for_extraction(x, T, spec)
    cert = Certificate(scaled_x=x_prime, lambda_scale=lam, operator=T, indices=(1, 2),
                       distances=(1.5, 1.5), theta=1.01, norm_spec=spec)
    report = verify_certificate(cert, T, x)
    assert report.failed_check == "distance-deviation"
    assert report.recomputed_distances[1] < 1e-4


def _readme_certificate():
    T = RolewiczMultiple(2.0)
    built = build_supercyclic_vector(2.0, default_target_set(256, count=4), 256)
    cert = extract_subsequence(T, built.x, ExtractionConfig(horizon=48, max_steps=6, theta=1.01))
    assert cert.distances == (1.5,) * 6
    return T, built.x, cert


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
def test_verify_refuses_non_finite_lambda(lam):
    T, x, cert = _readme_certificate()
    with np.errstate(invalid="ignore"):  # inf * 0 on x's zero tail
        report = verify_certificate(dataclasses.replace(cert, lambda_scale=lam), T, x)
    assert report.failed_check == "scaled-vector", report.message


@pytest.mark.parametrize("x,lam", [
    (np.linspace(2.0, 2.31, 32), 1e308),  # finite lambda, lambda * x overflows
    (np.random.default_rng(0).uniform(0.5, 1.5, 64), math.inf),  # no zero entry: no inf * 0
], ids=["overflow", "inf"])
def test_verify_refuses_an_infinite_scaled_vector(x, lam):
    # max(1, |lambda x|) = inf would let any scaledX pass within 1e-12 * inf
    T = RolewiczMultiple(2.0)
    cert = extract_subsequence(T, x, ExtractionConfig(horizon=24, max_steps=4, theta=1.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or divide RuntimeWarning either
        report = verify_certificate(dataclasses.replace(cert, lambda_scale=lam), T, x)
    assert report.failed_check == "scaled-vector", report.message
    assert report.message == "lambdaScale times the original x is not finite"
    rec.dumps_record(rec.encode_verification(report))  # the report stays JSON


def test_verify_refuses_nan_recomputed_distances(monkeypatch):
    # max() drops a NaN that is not first, and NaN > 1e-8 is False: the
    # check and the reported deviation must both see the NaN
    T, x, cert = _readme_certificate()
    d1 = cert.distances[0]
    monkeypatch.setattr(extractor, "prefix_distances", lambda *args: [d1] + [math.nan] * 5)
    report = verify_certificate(cert, T, x)
    assert report.failed_check == "distance-deviation", report.message
    assert report.message.startswith("distance 2 deviates")
    assert math.isnan(report.max_rel_deviation)


def test_verify_reports_a_failed_prefix_lp(monkeypatch):
    # the L1 prefix LPs go to HiGHS as one block-diagonal model; an
    # infeasible copy of it must come back as a report naming the status
    # and the model's shape, not as an exception
    T = RolewiczMultiple(2.0)
    x = build_supercyclic_vector(2.0, default_target_set(128, count=8), 128, L1).x
    cert = extract_subsequence(T, x, ExtractionConfig(horizon=96, max_steps=16, theta=1.01,
                                                      norm_spec=L1))
    solve, shapes = subspace.solve_standard_lp, []

    def infeasible(c, A, b, *, upper=None):
        shapes.append(A.shape)
        return solve(c, A, b + 1.0, upper=0.0)

    monkeypatch.setattr(subspace, "solve_standard_lp", infeasible)
    report = verify_certificate(cert, T, x)
    assert not report.ok and report.failed_check == "internal"
    (m, n), = shapes
    assert report.message.startswith(f"SolverFailure: HiGHS status 2 on A of shape {m}x{n}: ")


def test_verify_refuses_a_plateau_rise():
    # d_4 sits 5e-9 above d_3: within the deviation bound, above 1e-12
    T, x, cert = _readme_certificate()
    dists = list(cert.distances)
    dists[3] *= 1 + 5e-9
    report = verify_certificate(dataclasses.replace(cert, distances=tuple(dists)), T, x)
    assert report.failed_check == "monotonicity"
    assert report.message == "distance increases from step 3 to 4"
    assert 0 < report.max_rel_deviation <= 1e-8



def test_verify_never_raises_on_garbage():
    cert = Certificate(
        scaled_x=np.ones(4),
        lambda_scale=1.0,
        operator=ForwardShift(),
        indices=(),
        distances=(),
        theta=1.0,
        norm_spec=L2,
    )
    report = verify_certificate(cert, ForwardShift(), np.ones(4))
    assert not report.ok
    assert report.failed_check == "indices"


@pytest.mark.parametrize("N", [128, 1024])
@pytest.mark.parametrize("spec", [L1, LINF], ids=["l1", "linf"])
def test_builder_pipeline_at_lp_norms(spec, N):
    # the README pipeline on the builder's geometrically scaled vectors,
    # whose entries reach ~1e-23 at N=128: every LP distance must solve
    T = RolewiczMultiple(2.0)
    built = build_supercyclic_vector(2.0, default_target_set(N, count=8), N, spec)
    cfg = ExtractionConfig(horizon=96, max_steps=min(16, N // 8), theta=1.01, norm_spec=spec)
    cert = extract_subsequence(T, built.x, cfg)
    assert len(cert.indices) == cfg.max_steps
    report = verify_certificate(cert, T, built.x)
    assert report.ok, report.message
    assert report.max_rel_deviation <= 1e-8


def test_scan_scores_each_power_once(monkeypatch):
    # README pipeline: the run rejects n = 11, so powers 1..n_K are each
    # scored once, by one extend whose span the winner keeps, and the orbit
    # is generated once (plus Tx in the rescale)
    T = RolewiczMultiple(2.0)
    built = build_supercyclic_vector(2.0, default_target_set(1024, count=8), 1024)
    calls = {"extend": 0, "from_vectors": 0, "apply": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(extractor, "extend", counted("extend", extractor.extend))
    # SpanBasis.from_vectors extends through the subspace module's binding
    monkeypatch.setattr(subspace, "extend", counted("from_vectors", subspace.extend))
    counted_apply = counted("apply", operators.apply)
    monkeypatch.setattr(operators, "apply", counted_apply)
    monkeypatch.setattr(extractor, "apply", counted_apply)
    cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01)
    cert = extract_subsequence(T, built.x, cfg)
    n_K = cert.indices[-1]
    assert 11 not in cert.indices and n_K > 11
    # one extend per scored power, n_1 = 1 included, plus the rescale's
    # dependence test of x
    assert calls["extend"] == n_K + 1
    # span{Tx} in the rescale; the run starts from the empty span
    assert calls["from_vectors"] == 1
    assert calls["apply"] == n_K + 1


def test_verify_reads_every_prefix_from_one_qr(monkeypatch):
    # independent L2 generators: the verifier never loops the batch oracle
    def refuse(*args, **kwargs):
        raise AssertionError("verify_certificate ran the per-prefix oracle")

    T = RolewiczMultiple(2.0)
    built = build_supercyclic_vector(2.0, default_target_set(1024, count=8), 1024)
    cert = extract_subsequence(T, built.x, ExtractionConfig(horizon=96, max_steps=16, theta=1.01))
    # the extractor module no longer binds the oracle, so patching subspace covers both
    assert not hasattr(extractor, "distance_batch_oracle")
    monkeypatch.setattr(subspace, "distance_batch_oracle", refuse)
    report = verify_certificate(cert, T, built.x)
    assert report.ok, report.message
    assert len(report.recomputed_distances) == 16
    assert report.max_rel_deviation <= 1e-12


@pytest.mark.parametrize("count", range(6, 11))
def test_verify_accepts_builder_certificates_at_p_1_5(count):
    # at lam = 3 the raw orbit directions have condition numbers 5e3-4e4,
    # on which the oracle's descent stopped at 1.5 against a true 1.49999966
    spec = NormSpec(1.5)
    T = RolewiczMultiple(3.0)
    built = build_supercyclic_vector(3.0, default_target_set(256, count=count), 256, spec)
    cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
    cert = extract_subsequence(T, built.x, cfg)
    report = verify_certificate(cert, T, built.x)
    assert report.ok, report.message
