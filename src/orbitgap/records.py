"""Canonical on-disk records.

One format for everything: a self-describing JSON object whose "kind"
field names the record type.  Writing is canonical — field order is fixed
by the encoders below, floats are emitted as their shortest round-trip
decimal (repr), complex numbers as [re, im] pairs, and p = inf as the
string "inf" — so serialize, parse, serialize is byte-identical and the
files are usable as goldens.

Record kinds:
  vector        {kind, field, entries}
  vectors       {kind, field, vectors}
  targets       {kind, field, targets, epsilons}
  certificate   {kind, scaledX, lambdaScale, operator, indices, distances,
                 theta, normSpec}
  verification  {kind, ok, failedCheck, message, maxRelDeviation,
                 recomputedDistances}
  build         {kind, lam, normSpec, plan, x}
  density       {kind, horizon, normSpec, orbitExhaustedAt, records}
  distance      {kind, normSpec, value, batchOracle, convexDescent?, spread}
                (written by the dist command; convexDescent only for a real
                point and span at p in {1, inf})
  error         {kind, error, message, step}
"""

import json
import math

import numpy as np

from .errors import UsageError
from .operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    ForwardShift,
    RolewiczMultiple,
)
from .space import COMPLEX, REAL, NormSpec, field_of, vector
from .dynamics import BuildPlanEntry, BuildResult, DensityRecord, DensityReport, TargetSet
from .extractor import Certificate, VerificationReport


def canonical_text(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"


def dumps_record(record: dict) -> bytes:
    return canonical_text(record).encode("ascii")


def write_record(path, record: dict):
    with open(path, "wb") as fh:
        fh.write(dumps_record(record))


def read_record(path) -> dict:
    with open(path, "rb") as fh:
        loaded = json.loads(fh.read().decode("ascii"))
    if not isinstance(loaded, dict) or "kind" not in loaded:
        raise UsageError(f"{path}: not a record (missing kind field)")
    return loaded


def _json_number(value, key: str, kind=float):
    """kind(value) for a JSON number, or a JSON integer when kind is int:
    float() and int() alone would read true as 1, "3" as 3 and 2.5 as 2.
    An integer beyond the float range is refused like a wrong type."""
    if type(value) is int or (kind is float and type(value) is float):
        try:
            return kind(value)
        except OverflowError:
            raise ValueError(f"values of {key!r} must fit a float") from None
    name = "integers" if kind is int else "numbers"
    raise TypeError(f"values of {key!r} must be JSON {name}, got {value!r}")


def _entries(v: np.ndarray, field: str):
    if field == COMPLEX:
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(a) for a in v]


def encode_vector(v: np.ndarray) -> dict:
    field = field_of(v)
    return {"kind": "vector", "field": field, "entries": _entries(v, field)}


def _vector_from(entries, field: str) -> np.ndarray:
    """Decoded entries through space.vector's checks: json.loads lets NaN and Infinity in.
    Each entry, or part of a complex pair, must first pass _json_number's rule,
    as np.asarray would read true as 1.0 and "3" as 3.0."""
    parts = entries
    if field == COMPLEX:
        try:
            parts = [x for re, im in entries for x in (re, im)]
        except (TypeError, ValueError):
            raise ValueError("complex entries must be [re, im] pairs of numbers") from None
    if not {int, float}.issuperset(map(type, parts)):
        raise TypeError("vector entries must be JSON numbers, not true, false, null or strings")
    if field == COMPLEX:
        entries = vector(parts).view(np.complex128)
    return vector(entries, field)


def decode_vector(record: dict) -> np.ndarray:
    return _vector_from(record["entries"], record["field"])


def encode_vectors(vectors) -> dict:
    vectors = [np.asarray(v) for v in vectors]
    field = COMPLEX if any(np.iscomplexobj(v) for v in vectors) else REAL
    return {
        "kind": "vectors",
        "field": field,
        "vectors": [_entries(v.astype(np.complex128 if field == COMPLEX else np.float64), field) for v in vectors],
    }


def decode_vectors(record: dict):
    return [_vector_from(row, record["field"]) for row in record["vectors"]]


def encode_targets(targets: TargetSet) -> dict:
    vecs = encode_vectors(targets.targets)
    return {
        "kind": "targets",
        "field": vecs["field"],
        "targets": vecs["vectors"],
        "epsilons": [float(e) for e in targets.epsilons],
    }


def decode_targets(record: dict) -> TargetSet:
    vecs = [_vector_from(row, record["field"]) for row in record["targets"]]
    return TargetSet(targets=tuple(vecs), epsilons=tuple(_json_number(e, "epsilons") for e in record["epsilons"]))


def encode_norm_spec(spec: NormSpec) -> dict:
    p = "inf" if spec.p == math.inf else float(spec.p)
    weights = None if spec.weights is None else [float(w) for w in spec.weights]
    return {"p": p, "weights": weights}


def decode_norm_spec(record: dict) -> NormSpec:
    p = math.inf if record["p"] == "inf" else _json_number(record["p"], "p")
    weights = record.get("weights")
    return NormSpec(p=p, weights=None if weights is None else tuple(_json_number(w, "weights") for w in weights))


def encode_operator(T) -> dict:
    if isinstance(T, RolewiczMultiple):
        return {"type": "rolewicz", "lam": float(T.lam)}
    if isinstance(T, BackwardShift):
        return {"type": "backward-shift", "weights": [float(w) for w in T.weights]}
    if isinstance(T, ForwardShift):
        return {"type": "forward-shift"}
    if isinstance(T, Diagonal):
        vec = np.asarray(T.d)
        field = field_of(vec)
        return {"type": "diagonal", "field": field, "d": _entries(vec, field)}
    if isinstance(T, DenseMatrix):
        m = np.asarray(T.entries)
        field = field_of(m)
        return {
            "type": "dense",
            "field": field,
            "rows": [_entries(row, field) for row in m],
        }
    raise TypeError(f"cannot encode operator {type(T).__name__}")


def decode_operator(record: dict):
    kind = record.get("type")
    if kind == "rolewicz":
        return RolewiczMultiple(lam=_json_number(record["lam"], "lam"))
    if kind == "backward-shift":
        return BackwardShift(weights=tuple(_json_number(w, "weights") for w in record["weights"]))
    if kind == "forward-shift":
        return ForwardShift()
    if kind == "diagonal":
        return Diagonal(d=_vector_from(record["d"], record["field"]))
    if kind == "dense":
        rows = [_vector_from(row, record["field"]) for row in record["rows"]]
        return DenseMatrix(entries=np.array(rows))
    raise UsageError(f"unknown operator type {kind!r}")


def encode_certificate(cert: Certificate) -> dict:
    return {
        "kind": "certificate",
        "scaledX": encode_vector(np.asarray(cert.scaled_x)),
        "lambdaScale": float(cert.lambda_scale),
        "operator": encode_operator(cert.operator),
        "indices": [int(n) for n in cert.indices],
        "distances": [float(d) for d in cert.distances],
        "theta": float(cert.theta),
        "normSpec": encode_norm_spec(cert.norm_spec),
    }


def decode_certificate(record: dict) -> Certificate:
    return Certificate(
        scaled_x=decode_vector(record["scaledX"]),
        lambda_scale=_json_number(record["lambdaScale"], "lambdaScale"),
        operator=decode_operator(record["operator"]),
        indices=tuple(_json_number(n, "indices", int) for n in record["indices"]),
        distances=tuple(_json_number(d, "distances") for d in record["distances"]),
        theta=_json_number(record["theta"], "theta"),
        norm_spec=decode_norm_spec(record["normSpec"]),
    )


def encode_verification(report: VerificationReport) -> dict:
    return {
        "kind": "verification",
        "ok": bool(report.ok),
        "failedCheck": report.failed_check,
        "message": report.message,
        "maxRelDeviation": float(report.max_rel_deviation),
        "recomputedDistances": [float(d) for d in report.recomputed_distances],
    }


def _scalar_entry(c):
    if isinstance(c, complex):
        return [float(c.real), float(c.imag)]
    return float(c)


def encode_build(result: BuildResult) -> dict:
    return {
        "kind": "build",
        "lam": float(result.lam),
        "normSpec": encode_norm_spec(result.norm_spec),
        "plan": [
            {
                "targetIndex": int(p.target_index),
                "offset": int(p.offset),
                "boundedError": float(p.bounded_error),
            }
            for p in result.plan
        ],
        "x": encode_vector(np.asarray(result.x)),
    }


def decode_build(record: dict) -> BuildResult:
    return BuildResult(
        x=decode_vector(record["x"]),
        plan=tuple(
            BuildPlanEntry(
                target_index=_json_number(p["targetIndex"], "targetIndex", int),
                offset=_json_number(p["offset"], "offset", int),
                bounded_error=_json_number(p["boundedError"], "boundedError"),
            )
            for p in record["plan"]
        ),
        lam=_json_number(record["lam"], "lam"),
        norm_spec=decode_norm_spec(record["normSpec"]),
    )


def encode_density(report: DensityReport) -> dict:
    return {
        "kind": "density",
        "horizon": int(report.horizon),
        "normSpec": encode_norm_spec(report.norm_spec),
        "orbitExhaustedAt": report.orbit_exhausted_at,
        "records": [
            {
                "targetIndex": int(r.target_index),
                "bestN": int(r.best_n),
                "bestC": _scalar_entry(r.best_c),
                "error": float(r.error),
            }
            for r in report.records
        ],
    }


def encode_error(exc: Exception) -> dict:
    step = getattr(exc, "step", None)
    return {
        "kind": "error",
        "error": type(exc).__name__,
        "message": str(exc),
        "step": step,
    }
