import json
import math

import numpy as np
import pytest

from orbitgap import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    ExtractionConfig,
    ForwardShift,
    L1,
    LINF,
    NormSpec,
    RolewiczMultiple,
    TargetSet,
    build_supercyclic_vector,
    default_target_set,
    density_check,
    extract_subsequence,
    verify_certificate,
)
from orbitgap import records as rec
from orbitgap.space import basis_vector
from orbitgap.errors import HorizonExhausted, UsageError


def roundtrip_bytes(record):
    text = rec.canonical_text(record)
    again = rec.canonical_text(json.loads(text))
    assert again == text
    return text


def test_float_encoding_shortest_roundtrip():
    assert rec.canonical_text({"a": 0.1}) == '{"a":0.1}\n'
    assert rec.canonical_text({"a": 1.0}) == '{"a":1.0}\n'
    assert rec.canonical_text({"a": 1e-3}) == '{"a":0.001}\n'
    third = 1.0 / 3.0
    assert json.loads(rec.canonical_text({"a": third}))["a"] == third


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        rec.canonical_text({"a": math.inf})
    with pytest.raises(ValueError):
        rec.canonical_text({"a": math.nan})


def test_bool_before_int():
    assert rec.canonical_text({"a": True, "b": 1}) == '{"a":true,"b":1}\n'


def test_vector_roundtrip_real_and_complex():
    v = np.array([1.5, -0.25, 1e-17])
    out = rec.decode_vector(json.loads(roundtrip_bytes(rec.encode_vector(v))))
    assert np.array_equal(out, v)
    z = np.array([1.0 + 2.0j, -0.5j])
    out = rec.decode_vector(json.loads(roundtrip_bytes(rec.encode_vector(z))))
    assert np.array_equal(out, z)
    assert out.dtype == np.complex128


def test_norm_spec_roundtrip():
    for spec in (L1, LINF, NormSpec(2.5), NormSpec(2.0, weights=(1.0, 0.5))):
        out = rec.decode_norm_spec(json.loads(roundtrip_bytes(rec.encode_norm_spec(spec))))
        assert out == spec
    # p = inf crosses as the string "inf"
    assert '"inf"' in rec.canonical_text(rec.encode_norm_spec(LINF))


def test_operator_roundtrip_all_kinds():
    ops = [
        RolewiczMultiple(2.5),
        ForwardShift(),
        BackwardShift.unit(6),
        BackwardShift(weights=tuple(float(i + 1) for i in range(5))),
        Diagonal((1.0, -2.0, 0.5)),
        Diagonal((1.0 + 1.0j, 2.0j)),
        DenseMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        DenseMatrix(np.array([[1.0j, 0.0], [0.0, 1.0]])),
    ]
    for T in ops:
        out = rec.decode_operator(json.loads(roundtrip_bytes(rec.encode_operator(T))))
        assert type(out) is type(T)
        if isinstance(T, DenseMatrix):
            assert np.array_equal(out.entries, T.entries)
        else:
            assert out == T


def test_targets_roundtrip():
    ts = default_target_set(12, count=5, epsilon=2e-3)
    out = rec.decode_targets(json.loads(roundtrip_bytes(rec.encode_targets(ts))))
    assert out.epsilons == ts.epsilons
    for a, b in zip(out.targets, ts.targets):
        assert np.array_equal(a, b)


def test_certificate_roundtrip_byte_identical():
    rng = np.random.default_rng(41)
    x = rng.uniform(0.5, 1.5, 64)
    T = RolewiczMultiple(2.0)
    cert = extract_subsequence(T, x, ExtractionConfig(horizon=48, max_steps=6))
    record = rec.encode_certificate(cert)
    text = roundtrip_bytes(record)
    back = rec.decode_certificate(json.loads(text))
    assert rec.canonical_text(rec.encode_certificate(back)) == text
    assert back.indices == cert.indices
    assert back.distances == cert.distances
    assert back.theta == cert.theta
    assert np.array_equal(back.scaled_x, cert.scaled_x)
    # decoded certificate still verifies against the original vector
    assert verify_certificate(back, T, x).ok


def test_certificate_field_order():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.5, 1.5, 32)
    cert = extract_subsequence(RolewiczMultiple(2.0), x, ExtractionConfig(horizon=24, max_steps=3))
    keys = list(rec.encode_certificate(cert).keys())
    assert keys == [
        "kind",
        "scaledX",
        "lambdaScale",
        "operator",
        "indices",
        "distances",
        "theta",
        "normSpec",
    ]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["lambdaScale", "theta", "distances", "epsilons", "weights"])
def test_decoders_refuse_non_finite_numbers(key, value):
    # json.loads reads NaN, Infinity and -Infinity; no record may carry them
    x = np.random.default_rng(42).uniform(0.5, 1.5, 32)
    cert = extract_subsequence(RolewiczMultiple(2.0), x, ExtractionConfig(horizon=24, max_steps=3))
    record, decode = rec.encode_certificate(cert), rec.decode_certificate
    if key == "epsilons":
        record, decode = rec.encode_targets(default_target_set(16, count=2)), rec.decode_targets
        record["epsilons"][0] = value
    elif key == "weights":
        record["normSpec"]["weights"] = [1.0, 1.0, value] + [1.0] * 29
    elif key == "distances":
        record["distances"][1] = value
    else:
        record[key] = value
    with pytest.raises(ValueError, match=f"values of '{key}' must be finite"):
        decode(json.loads(json.dumps(record)))


def test_build_roundtrip():
    ts = default_target_set(256, count=6, epsilon=1e-3)
    res = build_supercyclic_vector(2.0, ts, 256)
    out = rec.decode_build(json.loads(roundtrip_bytes(rec.encode_build(res))))
    assert np.array_equal(out.x, res.x)
    assert out.lam == res.lam
    assert [p.offset for p in out.plan] == [p.offset for p in res.plan]


def test_density_and_verification_encode():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    report = density_check(RolewiczMultiple(2.0), x, TargetSet.uniform([x], 0.5), 2)
    roundtrip_bytes(rec.encode_density(report))
    rng = np.random.default_rng(43)
    y = rng.uniform(0.5, 1.5, 32)
    cert = extract_subsequence(RolewiczMultiple(2.0), y, ExtractionConfig(horizon=24, max_steps=3))
    ver = verify_certificate(cert, RolewiczMultiple(2.0), y)
    out = roundtrip_bytes(rec.encode_verification(ver))
    assert '"ok":true' in out


def test_error_record_carries_step():
    err = HorizonExhausted(3, 50, step=4)
    record = rec.encode_error(err)
    assert record["kind"] == "error"
    assert record["error"] == "HorizonExhausted"
    assert record["step"] == 4
    roundtrip_bytes(record)


def test_read_record_requires_kind(tmp_path):
    p = tmp_path / "r.json"
    p.write_bytes(b'{"no": 1}\n')
    with pytest.raises(UsageError):
        rec.read_record(p)
    rec.write_record(p, rec.encode_vector(basis_vector(0, 3)))
    assert rec.read_record(p)["kind"] == "vector"


def test_file_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(44)
    x = rng.uniform(0.5, 1.5, 48)
    cert = extract_subsequence(RolewiczMultiple(2.0), x, ExtractionConfig(horizon=32, max_steps=4))
    p = tmp_path / "cert.json"
    rec.write_record(p, rec.encode_certificate(cert))
    raw = p.read_bytes()
    back = rec.decode_certificate(rec.read_record(p))
    p2 = tmp_path / "cert2.json"
    rec.write_record(p2, rec.encode_certificate(back))
    assert p2.read_bytes() == raw
