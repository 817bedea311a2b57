"""Acceptance gate: one test per numbered criterion, each printing a
single PASS line with its runtime against the stated budget."""

import json
import pathlib
import time

import numpy as np
import pytest

from orbitgap import (
    DenseMatrix,
    ExtractionConfig,
    ForwardShift,
    L1,
    L2,
    LINF,
    RolewiczMultiple,
    SpanBasis,
    build_supercyclic_vector,
    default_target_set,
    density_check,
    distance,
    distance_batch_oracle,
    distance_convex_descent,
    extract_subsequence,
    orbit_stream,
    verify_certificate,
)
from orbitgap import records as rec
from orbitgap.operators import ZeroOrbitMarker
from orbitgap.space import basis_vector
from orbitgap.errors import HorizonExhausted

DATA = pathlib.Path(__file__).parent / "data"

_pipeline_cache = {}


def pipeline_certificate():
    """Shared pipeline run for criteria 3 and 4."""
    if "cert" not in _pipeline_cache:
        ts = default_target_set(1024, count=8, epsilon=1e-3)
        built = build_supercyclic_vector(2.0, ts, 1024)
        _pipeline_cache["targets"] = ts
        _pipeline_cache["built"] = built
        cfg = ExtractionConfig(horizon=96, max_steps=16, theta=1.01)
        _pipeline_cache["cert"] = extract_subsequence(RolewiczMultiple(2.0), built.x, cfg)
    return _pipeline_cache


def report(num, name, elapsed, budget):
    print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_orthonormal_orbit_exactness():
    t0 = time.perf_counter()
    x = basis_vector(0, 256).astype(float)
    cfg = ExtractionConfig(horizon=256, max_steps=64, theta=1.2, margin=0.5)
    cert = extract_subsequence(ForwardShift(), x, cfg)
    assert cert.indices == tuple(range(1, 65))
    for d in cert.distances:
        assert abs(d - 1.5) <= 1e-12
    report(1, "orthonormal-orbit exactness", time.perf_counter() - t0, 1.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    specs = [L1, L2, LINF]
    for i in range(200):
        rng = np.random.default_rng(7000 + i)
        dim = int(rng.integers(4, 65))
        rank = int(rng.integers(1, min(16, dim - 1) + 1))
        spec = specs[i % 3]
        gens = [rng.standard_normal(dim) for _ in range(rank)]
        e = rng.standard_normal(dim)
        a = distance(e, SpanBasis.from_vectors(gens), spec)
        b = distance_batch_oracle(e, gens, spec)
        assert abs(a - b) <= 1e-9 * max(1e-12, abs(b)), (i, spec.p, a, b)
        if spec.p != 2.0:
            c = distance_convex_descent(e, gens, spec)
            assert abs(a - c) <= 1e-6 * max(1e-12, abs(c)), (i, spec.p, a, c)
    report(2, "oracle equivalence, 200 instances", time.perf_counter() - t0, 30.0)


def test_criterion_3_full_pipeline():
    t0 = time.perf_counter()
    state = pipeline_certificate()
    ts, built, cert = state["targets"], state["built"], state["cert"]
    horizon = max(p.offset for p in built.plan) + 24
    density = density_check(RolewiczMultiple(2.0), built.x, ts, horizon)
    for record, eps in zip(density.records, ts.epsilons):
        assert record.error <= eps, (record.target_index, record.error, eps)
    assert len(cert.indices) == 16
    assert all(d > 1.01 for d in cert.distances)
    ver = verify_certificate(cert, RolewiczMultiple(2.0), built.x)
    assert ver.ok, ver.message
    assert ver.max_rel_deviation < 1e-8
    report(3, "full pipeline on the Rolewicz operator", time.perf_counter() - t0, 10.0)


def test_criterion_4_greedy_minimality_audit():
    t0 = time.perf_counter()
    cert = pipeline_certificate()["cert"]
    directions = {}
    for elem in orbit_stream(RolewiczMultiple(2.0), cert.scaled_x, 1, max(cert.indices), cert.norm_spec):
        if not isinstance(elem, ZeroOrbitMarker):
            directions[elem.n] = elem.direction
    generators = []
    audited = 0
    for k, nk in enumerate(cert.indices):
        previous = cert.indices[k - 1] if k else 0
        for m in range(previous + 1, nk):
            d = distance_batch_oracle(
                cert.scaled_x, generators + [directions[m]], cert.norm_spec
            )
            assert d <= cert.theta + 1e-9, (m, d)
            audited += 1
        generators.append(directions[nk])
    assert audited >= 1  # the pipeline certificate does skip indices
    report(4, "greedy minimality audit", time.perf_counter() - t0, 20.0)


def test_criterion_5_finite_dimensional_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(32)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    T = DenseMatrix(q * np.sign(np.diag(r)))
    x = rng.standard_normal(8)
    cfg = ExtractionConfig(horizon=120, max_steps=16)
    with pytest.raises(HorizonExhausted) as exc:
        extract_subsequence(T, x, cfg)
    assert exc.value.step <= 9
    report(5, "finite-dimensional sanity", time.perf_counter() - t0, 1.0)


def test_criterion_6_invariant_suites():
    t0 = time.perf_counter()
    T = RolewiczMultiple(2.0)
    cfg = ExtractionConfig(horizon=40, max_steps=4)

    # monotone distance ledger
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        x = rng.uniform(0.5, 1.5, 48) * rng.choice([-1.0, 1.0], 48)
        cert = extract_subsequence(T, x, cfg)
        for a, b in zip(cert.distances, cert.distances[1:]):
            assert b <= a + 1e-12

    # scale equivariance: x vs 3x
    for seed in range(100):
        rng = np.random.default_rng(6100 + seed)
        x = rng.uniform(0.5, 1.5, 48) * rng.choice([-1.0, 1.0], 48)
        a = extract_subsequence(T, x, cfg)
        b = extract_subsequence(T, 3.0 * x, cfg)
        assert a.indices == b.indices
        assert abs(b.lambda_scale - a.lambda_scale / 3.0) <= 1e-12 * a.lambda_scale

    # norm ordering of distances
    for seed in range(100):
        rng = np.random.default_rng(6300 + seed)
        dim = int(rng.integers(4, 25))
        rank = int(rng.integers(1, min(6, dim - 1) + 1))
        Y = SpanBasis.from_vectors([rng.standard_normal(dim) for _ in range(rank)])
        e = rng.standard_normal(dim)
        dinf, d2, d1 = distance(e, Y, LINF), distance(e, Y, L2), distance(e, Y, L1)
        assert dinf <= d2 + 1e-10
        assert d2 <= d1 + 1e-10

    # Pythagoras at p = 2
    for seed in range(100):
        rng = np.random.default_rng(6400 + seed)
        dim = int(rng.integers(4, 25))
        rank = int(rng.integers(1, min(6, dim - 1) + 1))
        Y = SpanBasis.from_vectors([rng.standard_normal(dim) for _ in range(rank)])
        e = rng.standard_normal(dim)
        d = distance(e, Y, L2)
        Q = np.array(Y.ortho)
        proj = Q.T @ (Q.conj() @ e)
        lhs = d * d + float(np.linalg.norm(proj)) ** 2
        rhs = float(np.linalg.norm(e)) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    report(6, "invariant suites, 4 x 100 seeds", time.perf_counter() - t0, 60.0)


def test_criterion_7_serialization_and_goldens():
    t0 = time.perf_counter()
    golden = sorted(DATA.glob("*.cert.json"))
    assert len(golden) >= 4
    for cert_path in golden:
        raw = cert_path.read_bytes()
        record = json.loads(raw)
        cert = rec.decode_certificate(record)
        # byte-identical re-encoding
        assert rec.dumps_record(rec.encode_certificate(cert)) == raw, cert_path.name
        x_path = cert_path.with_name(cert_path.name.replace(".cert.", ".x."))
        x = rec.decode_vector(rec.read_record(x_path))
        ver = verify_certificate(cert, cert.operator, x)
        assert ver.ok, (cert_path.name, ver.failed_check, ver.message)

    # fresh certificate round-trips byte-identically as well
    rng = np.random.default_rng(77)
    x = rng.uniform(0.5, 1.5, 64)
    cert = extract_subsequence(
        RolewiczMultiple(2.0), x, ExtractionConfig(horizon=48, max_steps=6)
    )
    text = rec.canonical_text(rec.encode_certificate(cert))
    again = rec.canonical_text(rec.encode_certificate(rec.decode_certificate(json.loads(text))))
    assert again == text
    report(7, "serialization and golden closure", time.perf_counter() - t0, 30.0)
