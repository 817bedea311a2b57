"""Command dispatch: extract | verify | density | build | dist.

Exit contract: 0 success, 1 domain error (a structured error record goes
to stderr) or verification failure, 2 usage and configuration errors.
Flags override config-file values, which pass their flags' own type and
choices; unknown config keys are rejected.
Machine output is always the canonical record format from records.py;
stdout carries a short human summary unless --format record is chosen.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import records
from .dynamics import (
    TargetSet,
    build_supercyclic_vector,
    default_target_set,
    density_check,
)
from .errors import ConfigError, DimensionMismatch, OrbitgapError, UsageError
from .extractor import ExtractionConfig, extract_subsequence, verify_certificate
from .operators import BackwardShift, DenseMatrix, Diagonal, ForwardShift, RolewiczMultiple
from .space import COMPLEX, REAL, NormSpec
from .subspace import (
    SpanBasis,
    distance,
    distance_batch_oracle,
    distance_convex_descent,
)

_SHARED = {
    "operator": dict(help="rolewicz:<lam> | forward-shift | backward-shift[:file] | dense:<file> | diagonal:<file>"),
    "dim": dict(type=int, help="truncation dimension N"),
    "norm": dict(help="l1 | l2 | linf | p:<value> (default l2)"),
    "field": dict(choices=[REAL, COMPLEX], help="field for inline vectors (default real)"),
    "x": dict(help="vector source: record file, or inline JSON list"),
    "targets": dict(help="targets record file, or default:<count>"),
    "eps": dict(type=float, help="uniform epsilon for generated targets (default 1e-3)"),
    "seed": dict(type=int, help="seed for the generated instance"),
}


def _add_flags(p, names):
    """--config, --out, --format and the named _SHARED flags: a command
    takes only the flags its handler reads."""
    p.add_argument("--config", help="JSON file of defaults, overridden by flags")
    for name in names.split():
        p.add_argument("--" + name, **_SHARED[name])
    p.add_argument("--out", help="write the canonical result record here")
    p.add_argument("--format", dest="fmt", choices=["text", "record"], help="stdout style (default text)")


def _build_parser():
    top = argparse.ArgumentParser(prog="orbitgap")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the extraction and emit a certificate")
    _add_flags(p, "operator dim norm field x targets eps")
    p.add_argument("--steps", type=int, help="number of indices K (default 8)")
    p.add_argument("--theta", type=float, help="distance threshold (default 1.0)")
    p.add_argument("--margin", type=float, help="rescale margin (default 0.5)")
    p.add_argument("--horizon", type=int, help="candidate cap (default dim)")
    p.add_argument("--strict-tol", dest="strict_tol", type=float, help="strictness slack (default 1e-9)")

    p = sub.add_parser("verify", help="re-check a certificate from scratch, in its own norm")
    p.add_argument("record", help="certificate record file")
    _add_flags(p, "operator dim field x targets eps")

    p = sub.add_parser("density", help="best orbit approximation per target")
    _add_flags(p, "operator dim norm field x targets eps")
    p.add_argument("--horizon", type=int, help="largest power to survey (default dim)")

    p = sub.add_parser("build", help="construct a vector approximating the targets")
    _add_flags(p, "operator dim norm targets eps")

    p = sub.add_parser("dist", help="distance from a point to a span, all routes")
    _add_flags(p, "dim norm field x seed")
    p.add_argument("--span", help="vectors record file of span generators")
    p.add_argument("--rank", type=int, help="generator count for seeded instances (default 4)")
    return top, sub.choices


def _config_value(action, key, value):
    """value through its flag's own conversion and choices.  JSON values are
    typed, so the conversion must keep them (16 for --steps, not "16")."""
    try:
        converted = (action.type or str)(value)
    except (TypeError, ValueError):
        converted = None
    if not isinstance(value, bool) and converted == value and (
            action.choices is None or converted in action.choices):
        return converted
    raise UsageError(f"config key {key!r}: {value!r} is not a valid value for --{key}")


def _merge_config(ns, config_text, commands):
    """File values fill in flags left unset.  A key is a long flag of some
    command other than --config and --help; unknown keys are rejected."""
    if config_text is None:
        return
    try:
        loaded = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise UsageError('config file must be a JSON object, e.g. {"steps": 16}')
    flags = {name: p._option_string_actions for name, p in commands.items()}
    for key, value in loaded.items():
        if key in ("config", "help") or not any("--" + key in f for f in flags.values()):
            raise UsageError(f'unknown config key {key!r}; example: {{"steps": 16}}')
        action = flags[ns.command].get("--" + key)
        if action is None:
            raise UsageError(f"config key {key!r} does not apply to this command")
        if getattr(ns, action.dest) is None:
            setattr(ns, action.dest, _config_value(action, key, value))


def parse_config(argv, config_text=None):
    """argv -> populated namespace; flags beat config-file values."""
    top, commands = _build_parser()
    ns = top.parse_args(argv)
    if config_text is None and getattr(ns, "config", None):
        if not os.path.isfile(ns.config):
            raise UsageError(f"config file {ns.config} does not exist")
        with open(ns.config) as fh:
            config_text = fh.read()
    _merge_config(ns, config_text, commands)
    return ns


def _parse_norm(text) -> NormSpec:
    if text is None or text == "l2":
        return NormSpec(2.0)
    if text == "l1":
        return NormSpec(1.0)
    if text == "linf":
        return NormSpec(math.inf)
    if isinstance(text, str) and text.startswith("p:"):
        try:
            return NormSpec(float(text[2:]))
        except (ValueError, ConfigError) as exc:
            raise UsageError(f"bad --norm {text!r}: {exc}") from None
    raise UsageError(f"unknown --norm {text!r}; expected l1, l2, linf, or p:<value>")


def _require_file(path, what):
    if not os.path.isfile(path):
        raise UsageError(f"{what} file {path} does not exist")
    return path


def _read_decoded(path, what, decoders):
    """Decode the record at path with decoders[kind].

    A file that is not JSON, a record of another kind, a missing field
    (KeyError), a value of the wrong JSON type (TypeError) or one that the
    decoder or the object it builds refuses (ValueError or DimensionMismatch:
    space.vector and the operator and certificate constructors validate their
    fields that way) is a usage error; any other exception keeps its traceback.
    """
    try:
        rec = records.read_record(_require_file(path, what))
        if rec["kind"] not in decoders:
            raise UsageError(f"{path}: expected a {' or '.join(decoders)} record, got {rec['kind']!r}")
        return decoders[rec["kind"]](rec)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise UsageError(f"{path}: malformed {what} record: {exc!r}") from None


def _parse_operator(text, dim):
    if text is None:
        raise UsageError("missing --operator; example: --operator rolewicz:2")
    if text.startswith("rolewicz:"):
        try:
            return RolewiczMultiple(float(text.split(":", 1)[1]))
        except (ValueError, ConfigError) as exc:
            raise UsageError(f"bad operator {text!r}: {exc}") from None
    if text == "forward-shift":
        return ForwardShift()
    if text == "backward-shift":
        if dim is None:
            raise UsageError("backward-shift needs --dim for its unit weights")
        return BackwardShift.unit(dim)
    name, _, path = text.partition(":")
    if name == "backward-shift" and path:
        return _read_decoded(path, "weights", {
            "vector": lambda rec: BackwardShift(weights=tuple(records.decode_vector(rec)))})
    if name == "diagonal":
        return _read_decoded(path, name, {"vector": lambda rec: Diagonal(d=records.decode_vector(rec))})
    if name == "dense":
        return _read_decoded(path, name, {
            "vectors": lambda rec: DenseMatrix(entries=np.array(records.decode_vectors(rec)))})
    raise UsageError(f"unknown operator {text!r}; example: --operator rolewicz:2")


def _parse_inline_vector(text, field):
    try:
        entries = json.loads(text)
    except json.JSONDecodeError:
        raise UsageError(
            f"--x {text!r} is neither a file nor an inline JSON list; example: --x '[1,0,2]'"
        ) from None
    if not isinstance(entries, list):
        raise UsageError("inline vector must be a JSON list")
    try:
        return records.decode_vector({"kind": "vector", "field": field, "entries": entries})
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise UsageError(f"bad inline vector --x {text!r}: {exc}") from None


def _load_vector_file(path):
    return _read_decoded(path, "vector", {
        "vector": records.decode_vector, "build": lambda rec: records.decode_build(rec).x})


def _resolve_targets(ns, dim):
    name, colon, count = (ns.targets or "default").partition(":")
    if name != "default":
        return _read_decoded(ns.targets, "targets", {"targets": records.decode_targets})
    if dim is None:
        raise UsageError("generated targets need --dim")
    try:
        count = int(count) if colon else 8
    except ValueError:
        raise UsageError(f"bad --targets {ns.targets!r}; example: --targets default:8") from None
    return default_target_set(dim, count, 1e-3 if ns.eps is None else ns.eps)


def _resolve_x(ns, T, dim):
    """Exactly one vector source: --x file, --x inline, or builder parameters."""
    if ns.x is not None:
        if os.path.isfile(ns.x):
            return _load_vector_file(ns.x)
        return _parse_inline_vector(ns.x, ns.field or REAL)
    if isinstance(T, RolewiczMultiple):
        if dim is None:
            raise UsageError("builder vector source needs --dim")
        built = build_supercyclic_vector(T.lam, _resolve_targets(ns, dim), dim)
        return built.x
    raise UsageError("missing vector source: give --x (file or inline list), "
                     "or use a rolewicz operator so x can be built from targets")


def _emit(ns, record, human_lines):
    text = records.canonical_text(record)
    if ns.out:
        records.write_record(ns.out, record)
    if getattr(ns, "fmt", None) == "record":
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _cmd_extract(ns):
    spec = _parse_norm(ns.norm)
    T = _parse_operator(ns.operator, ns.dim)
    x = _resolve_x(ns, T, ns.dim)
    steps = 8 if ns.steps is None else ns.steps
    horizon = ns.horizon if ns.horizon is not None else max(x.shape[0], steps + 1)
    cfg = ExtractionConfig(
        horizon=horizon,
        max_steps=steps,
        theta=1.0 if ns.theta is None else ns.theta,
        margin=0.5 if ns.margin is None else ns.margin,
        norm_spec=spec,
        strict_tol=1e-9 if ns.strict_tol is None else ns.strict_tol,
    )
    cert = extract_subsequence(T, x, cfg)
    record = records.encode_certificate(cert)
    _emit(ns, record, [
        f"extracted {len(cert.indices)} indices: {list(cert.indices)}",
        f"final distance {cert.distances[-1]!r} > theta = {cert.theta!r}",
        f"lambda scale {cert.lambda_scale!r}",
    ] + ([f"certificate written to {ns.out}"] if ns.out else []))
    return 0


def _cmd_verify(ns):
    cert = _read_decoded(ns.record, "certificate", {"certificate": records.decode_certificate})
    T = cert.operator if ns.operator is None else _parse_operator(ns.operator, ns.dim)
    if ns.x is not None or isinstance(T, RolewiczMultiple) and ns.targets is not None:
        x = _resolve_x(ns, T, ns.dim or cert.scaled_x.shape[0])
    else:
        # structural fallback: the original is reconstructed from the
        # certificate itself, so the scaled-vector check cannot fail
        x = np.asarray(cert.scaled_x) / cert.lambda_scale
    report = verify_certificate(cert, T, x)
    record = records.encode_verification(report)
    if report.ok:
        _emit(ns, record, [f"PASS  max relative deviation {report.max_rel_deviation:.3e}"])
        return 0
    _emit(ns, record, [f"FAIL  {report.failed_check}: {report.message}"])
    return 1


def _cmd_density(ns):
    spec = _parse_norm(ns.norm)
    T = _parse_operator(ns.operator, ns.dim)
    x = _resolve_x(ns, T, ns.dim)
    targets = _resolve_targets(ns, ns.dim or x.shape[0])
    horizon = ns.horizon if ns.horizon is not None else x.shape[0]
    report = density_check(T, x, targets, horizon, spec)
    record = records.encode_density(report)
    lines = [f"horizon {report.horizon}"]
    if report.orbit_exhausted_at is not None:
        lines.append(f"orbit died at power {report.orbit_exhausted_at}; later powers skipped")
    lines.append("target  best_n  error         epsilon")
    for r, eps in zip(report.records, targets.epsilons):
        flag = "ok" if r.error <= eps else "MISS"
        lines.append(f"{r.target_index:6d}  {r.best_n:6d}  {r.error:.6e}  {eps:.1e}  {flag}")
    _emit(ns, record, lines)
    return 0


def _cmd_build(ns):
    spec = _parse_norm(ns.norm)
    T = _parse_operator(ns.operator, ns.dim)
    if not isinstance(T, RolewiczMultiple):
        raise UsageError("build needs a rolewicz:<lam> operator")
    if ns.dim is None:
        raise UsageError("build needs --dim")
    targets = _resolve_targets(ns, ns.dim)
    result = build_supercyclic_vector(T.lam, targets, ns.dim, spec)
    record = records.encode_build(result)
    lines = [f"built x of dimension {ns.dim} from {len(result.plan)} targets"]
    lines.append("target  offset  bounded_error")
    for p in result.plan:
        lines.append(f"{p.target_index:6d}  {p.offset:6d}  {p.bounded_error:.6e}")
    _emit(ns, record, lines)
    return 0


def _cmd_dist(ns):
    spec = _parse_norm(ns.norm)
    if ns.x is None and ns.seed is None:
        raise UsageError("missing vector source: give --x, or --seed for a generated instance")
    if ns.span is not None:
        if ns.x is None:
            raise UsageError("missing vector source: --span needs --x as the point")
        gens = _read_decoded(ns.span, "span", {"vectors": records.decode_vectors})
        e = _resolve_x(ns, None, ns.dim)
    elif ns.seed is not None:
        dim = ns.dim if ns.dim is not None else 16
        rank = ns.rank if ns.rank is not None else 4
        rng = np.random.default_rng(ns.seed)
        gens = [rng.standard_normal(dim) for _ in range(rank)]
        e = rng.standard_normal(dim) if ns.x is None else _resolve_x(ns, None, dim)
    else:
        raise UsageError("dist needs --span <file> or --seed <n> to define the span")
    d_inc = distance(e, SpanBasis.from_vectors(gens), spec)
    d_oracle = distance_batch_oracle(e, gens, spec)
    record = {
        "kind": "distance",
        "normSpec": records.encode_norm_spec(spec),
        "value": float(d_inc),
        "batchOracle": float(d_oracle),
    }
    lines = [f"incremental  {d_inc!r}", f"batch oracle {d_oracle!r}"]
    if spec.p in (1.0, math.inf) and not any(np.iscomplexobj(v) for v in (e, *gens)):
        d_desc = distance_convex_descent(e, gens, spec)
        record["convexDescent"] = float(d_desc)
        lines.append(f"descent      {d_desc!r}")
    spread = max(abs(record.get("convexDescent", d_oracle) - d_inc), abs(d_oracle - d_inc))
    record["spread"] = float(spread)
    lines.append(f"spread       {spread:.3e}")
    _emit(ns, record, lines)
    return 0


_HANDLERS = {
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "density": _cmd_density,
    "build": _cmd_build,
    "dist": _cmd_dist,
}


def run(ns) -> int:
    return _HANDLERS[ns.command](ns)


def main(argv=None) -> int:
    try:
        ns = parse_config(argv)
        return run(ns)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrbitgapError as exc:
        sys.stderr.write(records.canonical_text(records.encode_error(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
