import json
import math
import pathlib
import shlex

import numpy as np
import pytest

from orbitgap import records as rec
from orbitgap.cli import main, parse_config
from orbitgap.errors import UsageError
from orbitgap.space import basis_vector

DATA = pathlib.Path(__file__).resolve().parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_norm_forms():
    from orbitgap.cli import _parse_norm

    assert _parse_norm("linf").p == float("inf")
    assert _parse_norm("l1").p == 1.0
    assert _parse_norm("p:2.5").p == 2.5
    with pytest.raises(UsageError):
        _parse_norm("l3")


def test_parse_config_unknown_key():
    with pytest.raises(UsageError) as exc:
        parse_config(["extract", "--operator", "rolewicz:2"], config_text='{"stepz": 4}')
    assert "stepz" in str(exc.value)


def test_workers_is_no_longer_an_option(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"workers": 2}')
    code, _, err = run_cli(capsys, "extract", "--operator", "rolewicz:2", "--config", str(config))
    assert code == 2 and "unknown config key 'workers'" in err
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--operator", "rolewicz:2", "--workers", "2"])
    assert exc.value.code == 2


def test_allow_deep_is_no_longer_an_option():
    # no K/N ratio to override: apply refuses the one operator that loses mass
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--operator", "rolewicz:2", "--allow-deep"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag,value", [
    ("extract", "seed", 1),
    ("verify", "seed", 1),
    ("density", "seed", 1),
    ("build", "seed", 1),
    # verify checks a certificate in the norm it records
    ("verify", "norm", "l2"),
    ("build", "x", "[1,0,0,0]"),
    ("build", "field", "real"),
    ("dist", "operator", "rolewicz:2"),
    ("dist", "targets", "default:2"),
    ("dist", "eps", 0.1),
])
def test_flags_a_command_does_not_read_are_refused(capsys, tmp_path, command, flag, value):
    args = [command, "cert.json"] if command == "verify" else [command]
    with pytest.raises(SystemExit) as exc:
        main([*args, f"--{flag}", str(value)])
    assert exc.value.code == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag: value}))
    code, _, err = run_cli(capsys, *args, "--config", str(config))
    assert code == 2 and f"config key {flag!r} does not apply to this command" in err


def test_readme_commands_parse():
    # a flag removed from the CLI cannot stay in README's command block
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line)[1:] for line in readme.splitlines()
                if line.startswith("orbitgap ")]
    assert commands
    for argv in commands:
        try:
            parse_config(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: orbitgap {shlex.join(argv)}")


def test_config_file_fills_only_missing(tmp_path):
    ns = parse_config(
        ["extract", "--operator", "rolewicz:2", "--steps", "6"],
        config_text='{"steps": 4, "theta": 1.05}',
    )
    assert ns.steps == 6  # flag wins
    assert ns.theta == 1.05  # file fills the gap


@pytest.mark.parametrize("config,flags,message", [
    ({"steps": "16"}, [], "config key 'steps'"),
    ({"theta": "1.2"}, [], "config key 'theta'"),
    ({"allow-deep": True}, [], "unknown config key 'allow-deep'"),
    (None, ["--targets", "default:abc"], "'default:abc'"),
], ids=["steps-string", "theta-string", "allow-deep-true", "targets-count"])
def test_bad_values_are_usage_errors(capsys, tmp_path, config, flags, message):
    # config values pass the same conversion and choices as their flags
    args = ["extract", "--operator", "rolewicz:2", "--dim", "64", *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and err.startswith("error:") and message in err


def test_extract_verify_closure(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(
        capsys,
        "extract",
        "--operator",
        "rolewicz:2",
        "--dim",
        "1024",
        "--targets",
        "default:8",
        "--steps",
        "8",
        "--theta",
        "1.01",
        "--out",
        str(cert_path),
    )
    assert code == 0, err
    assert "8 indices" in out
    code, out, err = run_cli(
        capsys, "verify", str(cert_path), "--targets", "default:8"
    )
    assert code == 0, err
    assert out.startswith("PASS")


def test_verify_structural_fallback(capsys, tmp_path):
    # no vector source given: verify falls back to scaledX / lambdaScale
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "extract", "--operator", "forward-shift", "--x", "[1,0,0,0,0,0,0,0]",
        "--steps", "1", "--horizon", "6", "--out", str(cert_path),
    )
    assert code == 0, err
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert out.startswith("PASS")


def test_verify_tampered_fails(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2", "--dim", "256",
        "--targets", "default:4", "--steps", "4", "--out", str(cert_path),
    )
    assert code == 0, err
    record = json.loads(cert_path.read_text())
    record["distances"][2] = 0.4
    cert_path.write_text(json.dumps(record))
    code, out, _ = run_cli(capsys, "verify", str(cert_path), "--targets", "default:4")
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_overflowing_lambda_scale_fails_scaled_vector(capsys, tmp_path):
    # a finite lambdaScale whose product with x overflows: the report names
    # scaled-vector and encodes, where it was a JSON traceback
    x, cert_path = json.dumps(np.linspace(2.0, 2.31, 32).tolist()), tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2", "--x", x,
        "--steps", "4", "--horizon", "24", "--theta", "1.01", "--out", str(cert_path),
    )
    assert code == 0, err
    record = json.loads(cert_path.read_text())
    record["lambdaScale"] = 1e308
    cert_path.write_text(json.dumps(record))
    code, out, _ = run_cli(capsys, "verify", str(cert_path), "--x", x)
    assert code == 1
    assert out.startswith("FAIL  scaled-vector: lambdaScale times the original x is not finite")


def test_extract_record_format_is_canonical(capsys):
    code, out, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2", "--dim", "512",
        "--targets", "default:4", "--steps", "4", "--format", "record",
    )
    assert code == 0, err
    cert = rec.decode_certificate(json.loads(out))
    assert rec.canonical_text(rec.encode_certificate(cert)) == out


def test_build_then_extract_from_record(capsys, tmp_path):
    build_path = tmp_path / "build.json"
    code, _, err = run_cli(
        capsys, "build", "--operator", "rolewicz:2", "--dim", "512",
        "--targets", "default:8", "--out", str(build_path),
    )
    assert code == 0, err
    assert rec.read_record(build_path)["kind"] == "build"
    code, out, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2", "--x", str(build_path),
        "--steps", "8", "--theta", "1.01",
    )
    assert code == 0, err


def test_density_subcommand(capsys, tmp_path):
    t_path = tmp_path / "targets.json"
    x = np.array([1.0, 0.5, 0.25, 0.0])
    from orbitgap import TargetSet

    rec.write_record(t_path, rec.encode_targets(TargetSet.uniform([x], 0.5)))
    code, out, err = run_cli(
        capsys, "density", "--operator", "rolewicz:2", "--x", "[1,0.5,0.25,0]",
        "--targets", str(t_path), "--horizon", "0",
    )
    assert code == 0, err
    assert "ok" in out


def test_density_targets_file_named_like_default(capsys, tmp_path, monkeypatch):
    # only "default" and "default:<count>" name the generated set; a record
    # file whose name starts with "default" is read like any other
    from orbitgap import TargetSet

    monkeypatch.chdir(tmp_path)
    target = TargetSet.uniform([np.array([0.0, 1.0, 0.0, 0.0])], 0.5)
    rec.write_record("default_targets.json", rec.encode_targets(target))
    code, out, err = run_cli(
        capsys, "density", "--operator", "rolewicz:2", "--x", "[1,0.5,0.25,0]",
        "--targets", "default_targets.json", "--horizon", "0", "--format", "record",
    )
    assert code == 0, err
    records = json.loads(out)["records"]
    assert len(records) == 1
    assert records[0]["bestN"] == 0
    assert records[0]["error"] == pytest.approx(np.sqrt(1.0 - 0.5**2 / 1.3125))


def test_dist_span_mode(capsys, tmp_path):
    span_path = tmp_path / "span.json"
    gens = [basis_vector(1, 3).astype(float), np.array([0.0, 0.0, 2.0])]
    rec.write_record(span_path, rec.encode_vectors(gens))
    code, out, err = run_cli(
        capsys, "dist", "--span", str(span_path), "--x", "[1,1,1]",
    )
    assert code == 0, err
    # dist((1,1,1), span{e_1, e_2}) = 1 in l2
    assert "1.0" in out


def test_dist_inside_the_span_reads_positive_zero(capsys, tmp_path):
    # the real L1/Linf LP clamps its value at zero; a point in the span must
    # read 0.0, not -0.0, in the summary and in the record
    span_path = tmp_path / "span.json"
    rec.write_record(span_path, rec.encode_vectors([np.array([2.0, 4.0, 6.0]),
                                                    np.array([0.0, 1.0, 0.0])]))
    for norm in ("l1", "linf"):
        args = ["dist", "--span", str(span_path), "--x", "[1,2,3]", "--norm", norm]
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        assert "-0.0" not in out
        code, out, err = run_cli(capsys, *args, "--format", "record")
        assert code == 0, err
        record = json.loads(out)
        for key in ("value", "batchOracle", "convexDescent"):
            assert math.copysign(1.0, record[key]) == 1.0, (norm, key, record[key])


def test_dist_seeded_routes_agree(capsys):
    for norm in ("l1", "linf"):
        code, out, err = run_cli(capsys, "dist", "--seed", "5", "--norm", norm, "--dim", "12", "--rank", "3")
        assert code == 0, err
        assert "descent" in out
        lines = [ln for ln in out.splitlines() if "spread" in ln]
        assert lines
        spread = float(lines[0].split()[-1])
        assert spread < 1e-12, (norm, spread)


def test_dist_complex_point_has_no_witness_line(capsys):
    # the LP witness exists only when the point and the span are both real;
    # a complex point takes the descent route, which is no witness bound
    code, out, err = run_cli(capsys, "dist", "--field", "complex", "--x", "[[1,0],[0,1],[1,1],[2,0]]",
                             "--seed", "1", "--dim", "4", "--rank", "2", "--norm", "l1",
                             "--format", "record")
    assert code == 0, err
    record = json.loads(out)
    assert "convexDescent" not in record
    assert record["spread"] == abs(record["batchOracle"] - record["value"])


@pytest.mark.parametrize("args", [
    ["dist", "--seed", "1", "--dim", "-3"],
    ["dist", "--seed", "1", "--dim", "0"],
    ["dist", "--seed", "1", "--dim", "1"],
    ["extract", "--operator", "backward-shift", "--dim", "-2", "--x", "[1,2,3]"],
], ids=["dist-negative", "dist-zero", "dist-one", "backward-shift-negative"])
def test_dim_below_two_is_a_usage_error(capsys, tmp_path, args):
    # a vector has at least 2 entries (space.vector): a shorter --dim is
    # refused before it reaches numpy or an operator, from a flag or a config file
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--dim must be >= 2" in err
    i = args.index("--dim")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dim": int(args[i + 1])}))
    code, _, err = run_cli(capsys, *args[:i], *args[i + 2:], "--config", str(config))
    assert code == 2 and err.startswith("error:") and "--dim must be >= 2" in err


def test_exit_codes(capsys, tmp_path):
    # usage error: no subcommand input
    code, _, err = run_cli(capsys, "extract", "--operator", "rolewicz:2")
    assert code == 2
    assert err.startswith("error:")
    # domain failure: a forward shift would push x[-1] out of the truncation
    code, _, err = run_cli(
        capsys, "extract", "--operator", "forward-shift", "--x", "[1,0,0,1]",
        "--steps", "2", "--horizon", "3",
    )
    assert code == 1
    record = json.loads(err)
    assert record["kind"] == "error"
    assert record["error"] == "TruncationTooSmall"
    # domain failure: orbit dies -> canonical error record on stderr
    code, _, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2",
        "--x", "[1,0.5,0.25,0,0,0,0,0,0,0,0,0,0,0,0,0]",
        "--steps", "3", "--horizon", "8",
    )
    assert code == 1
    record = json.loads(err)
    assert record["kind"] == "error"
    assert record["error"] == "ZeroOrbit"
    assert record["step"] == 3


def test_density_solver_failure_is_a_domain_error(capsys, tmp_path, monkeypatch):
    # a complex fit at p != 2 runs the distance solvers: a SolverFailure
    # there exits 1 with an error record naming it
    from orbitgap import TargetSet, subspace
    from orbitgap.errors import SolverFailure

    def fail(r0, U, p):
        raise SolverFailure(f"cone barrier (p={p}) stalled")

    monkeypatch.setattr(subspace, "_cone_distance", fail)
    x = np.array([1.0 + 1.0j, 0.5, 0.25j, 0.0])
    rec.write_record(tmp_path / "x.json", rec.encode_vector(x))
    rec.write_record(tmp_path / "t.json", rec.encode_targets(TargetSet.uniform([x[::-1]], 0.5)))
    code, _, err = run_cli(
        capsys, "density", "--operator", "rolewicz:2", "--x", str(tmp_path / "x.json"),
        "--targets", str(tmp_path / "t.json"), "--horizon", "2", "--norm", "l1",
    )
    assert code == 1
    record = json.loads(err)
    assert record["kind"] == "error"
    assert record["error"] == "SolverFailure"
    assert "p=1.0" in record["message"]


def _operator_files(tmp_path):
    """Record files for every file-backed operator form, dimension 16."""
    files = {
        "weights": rec.encode_vector(np.full(16, 2.0)),
        "complex-weights": rec.encode_vector(np.full(16, 2.0 + 1.0j)),
        "diagonal": rec.encode_vector(np.arange(1.0, 17.0)),
        "cyclic": rec.encode_vectors(list(np.roll(np.eye(16), 1, axis=0))),
    }
    for name, record in files.items():
        rec.write_record(tmp_path / f"{name}.json", record)
    return tmp_path


@pytest.mark.parametrize("operator", [
    "backward-shift", "backward-shift:weights", "diagonal:diagonal", "dense:cyclic",
])
def test_operator_forms_extract_and_verify(capsys, tmp_path, operator):
    name, _, stem = operator.partition(":")
    op = f"{name}:{_operator_files(tmp_path) / stem}.json" if stem else name
    x = json.dumps([0.5 ** j for j in range(16)])
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "extract", "--operator", op, "--dim", "16", "--x", x,
        "--steps", "2", "--horizon", "8", "--out", str(cert_path),
    )
    assert code == 0, err
    code, out, err = run_cli(capsys, "verify", str(cert_path), "--operator", op, "--dim", "16", "--x", x)
    assert code == 0, err
    assert out.startswith("PASS")


@pytest.mark.parametrize("operator,message", [
    ("backward-shift:complex-weights", "shift weights must be real"),
    ("diagonal:cyclic", "expected a vector record, got 'vectors'"),
    ("dense:weights", "expected a vectors record, got 'vector'"),
])
def test_operator_record_errors_are_usage_errors(capsys, tmp_path, operator, message):
    name, _, stem = operator.partition(":")
    op = f"{name}:{_operator_files(tmp_path) / stem}.json"
    x = json.dumps([0.5 ** j for j in range(16)])
    code, _, err = run_cli(capsys, "extract", "--operator", op, "--dim", "16", "--x", x,
                           "--steps", "2", "--horizon", "8")
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("edit,message", [
    (lambda record: record.pop("scaledX"), "KeyError('scaledX')"),
    (lambda record: record["operator"].update(lam=0.5), "requires lam > 1"),
    # a JSON value of the wrong type: float(None), iterating None, a dict of entries
    (lambda record: record.update(lambdaScale=None), "TypeError("),
    (lambda record: record.update(indices=None), "TypeError("),
    (lambda record: record["normSpec"].update(p=None), "TypeError("),
    (lambda record: record.update(distances=[None] * 4), "TypeError("),
    (lambda record: record["scaledX"].update(entries={"0": 1.0}), "TypeError("),
    # int() would read these as indices 2 and 1
    (lambda record: record["indices"].__setitem__(1, 2.5), "must be JSON integers"),
    (lambda record: record["indices"].__setitem__(1, True), "must be JSON integers"),
    # a JSON integer beyond the float range: float() raises OverflowError
    (lambda record: record.update(lambdaScale=10**400), "'lambdaScale' must fit a float"),
    (lambda record: record["distances"].__setitem__(0, -10**400), "'distances' must fit a float"),
    # json.loads reads NaN and Infinity, which no record may carry
    (lambda record: record.update(lambdaScale=math.nan), "'lambdaScale' must be finite"),
    (lambda record: record.update(theta=math.inf), "'theta' must be finite"),
    (lambda record: record["distances"].__setitem__(1, -math.inf), "'distances' must be finite"),
])
def test_verify_malformed_certificate_is_usage_error(capsys, tmp_path, edit, message):
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "extract", "--operator", "rolewicz:2", "--dim", "256",
        "--targets", "default:4", "--steps", "4", "--out", str(cert_path),
    )
    assert code == 0, err
    record = json.loads(cert_path.read_text())
    edit(record)
    cert_path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("edit", [
    lambda record: record["plan"][0].update(offset=2.5),
    lambda record: record["plan"][0].update(targetIndex=True),
], ids=["offset-2.5", "targetIndex-true"])
def test_build_record_refuses_non_integers(capsys, tmp_path, edit):
    # int() would read these as offset 2 and target index 1
    build_path = tmp_path / "build.json"
    code, _, err = run_cli(capsys, "build", "--operator", "rolewicz:2", "--dim", "64",
                           "--targets", "default:2", "--out", str(build_path))
    assert code == 0, err
    record = json.loads(build_path.read_text())
    edit(record)
    build_path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "extract", "--operator", "rolewicz:2", "--x", str(build_path),
                           "--steps", "2", "--horizon", "8")
    assert code == 2
    assert err.startswith("error:") and "must be JSON integers" in err


@pytest.mark.parametrize("edit", [
    lambda record: record["normSpec"].update(p=True),
    lambda record: record["normSpec"].update(p="3"),
    lambda record: record.update(theta=True),
    lambda record: record["distances"].__setitem__(0, "1.5"),
], ids=["p-true", "p-string", "theta-true", "distance-string"])
def test_certificate_refuses_non_numbers(capsys, tmp_path, edit):
    # float() would read true as L1 or theta = 1.0 and "3" as p = 3; the
    # golden certificate claims theta = 1.01 and verifies as it is
    record = json.loads((DATA / "rolewicz.cert.json").read_text())
    edit(record)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 2
    assert err.startswith("error:") and "must be JSON numbers" in err


_VECTOR_COMMANDS = {
    "extract": ["--operator", "rolewicz:2", "--steps", "2", "--horizon", "3"],
    "density": ["--operator", "rolewicz:2", "--targets", "default:2", "--horizon", "3"],
    "dist": ["--seed", "1", "--dim", "4", "--rank", "1", "--norm", "l1"],
}


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize("field,entries,message", [
    ("real", "[1, NaN, 0.5, 0.25]", "vector entries must be finite"),
    ("real", "[Infinity, 1, 0.5, 0.25]", "vector entries must be finite"),
    ("real", "[1]", "truncation dimension must be >= 2"),
    ("complex", "[1, 0.5, 0.25, 0.125]", "[re, im] pairs"),
    # np.asarray and complex() would read these as 1.0, 3.0 and 1+0j
    ("real", "[true, 0.5, 0.25, 0.125]", "must be JSON numbers"),
    ("real", '[1, "3", 0.25, 0.125]', "must be JSON numbers"),
    ("complex", "[[true, 0], [0.5, 0], [0.25, 0], [0.125, 0]]", "must be JSON numbers"),
    # np.asarray raises OverflowError on an integer beyond the float range
    ("real", f"[{10**400}, 1, 2, 3]", "vector entries must be finite"),
    ("complex", f"[[1, {10**400}], [0.5, 0], [0.25, 0], [0.125, 0]]", "vector entries must be finite"),
], ids=["nan", "infinity", "short", "complex-unpaired", "true", "string", "complex-true", "huge-int",
        "complex-huge-int"])
@pytest.mark.parametrize("command", sorted(_VECTOR_COMMANDS))
def test_invalid_vectors_are_usage_errors(capsys, tmp_path, command, field, entries, message,
                                          source):
    # json.loads accepts NaN and Infinity; every vector read goes through space.vector
    x = entries
    if source == "file":
        x = tmp_path / "x.json"
        x.write_text('{"kind":"vector","field":"%s","entries":%s}\n' % (field, entries))
    code, _, err = run_cli(capsys, command, "--x", str(x), "--field", field,
                           *_VECTOR_COMMANDS[command])
    assert code == 2
    assert err.startswith("error:") and message in err
