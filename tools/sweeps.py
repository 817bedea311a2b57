"""Named result sweeps, and a comparison of two of their outputs.

    python tools/sweeps.py run builder --src src > after.json
    python tools/sweeps.py run builder --src ../parent/src > before.json
    python tools/sweeps.py compare before.json after.json

run imports orbitgap from --src (the src/ directory of any checkout), runs
the named sweep and prints one JSON document: per case, the certified
indices and distances, the verifier's recomputed distances and report
fields, or the exception the case raised, and for a sweep that runs
density_check its best_n, best_c and errors (or its exception).  It records
no timing, so two runs on one commit print the same bytes.  compare prints,
over the cases the two files share, how many keep their indices and, for
the certified and the recomputed distances apart, how many values went up
and how many down and the largest relative moves, then the failed cases on
each side; where cases ran density, how many keep every best_n, the same
moves for the density errors, and the density failures.  It reports per
group of cases (the first word of a case's name: every sweep groups by p).

Sweeps:
  builder          builder vectors for seeds 900-911 at N=256, K=16,
                   horizon 96, theta=1.01, p in {1, 1.2, 1.5, 1.8, 3, inf},
                   extracted and verified
  complex-diagonal complex Diagonal operators for seeds 0-39, p in
                   {1, 1.5, 3, inf}: N from integers(12, 41), entries
                   uniform(0.5, 1.5) e^(2 pi i random()), a complex Gaussian
                   x, extracted (horizon 40, K=8, theta=1.01) and verified;
                   then density_check of 3 complex Gaussian targets over
                   horizon 20
  routes           distance, distance_batch_oracle ("oracle") and
                   distance_convex_descent ("descent") at p in
                   {1, 1.5, 3, inf}, with the p-norm of the least-squares
                   residual e - A a_ls (numpy's lstsq, default rcond), a
                   point of e + span:
                   gaussian  300 draws of default_rng(17), dim from
                             integers(8, 65), rank from integers(1, 17) below
                             dim, Gaussian generators and point, complex on
                             every third draw
                   near      40 draws of default_rng(4), dim 9, rank 8, +-1
                             generators and point, the last generator the
                             one before it plus 2^-34 (+-1 per entry)
                   compare reports each route's moves and failures, and how
                   many distance and oracle values sit above the
                   least-squares point's norm by more than 1e-9 ||e||_p

This is a tool for comparing commits, not a test: nothing here runs in the
test suite or the benchmark.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def _certify(og, T, x, cfg):
    """The certificate's fields and its verification report, or the exception."""
    try:
        cert = og.extract_subsequence(T, x, cfg)
        report = og.verify_certificate(cert, T, x)
    except Exception as exc:  # a failed case is a result, not a crash
        return _error(exc)
    return {
        "indices": list(cert.indices),
        "distances": list(cert.distances),
        "recomputed": list(report.recomputed_distances),
        "ok": report.ok,
        "failed_check": report.failed_check,
        "max_rel_deviation": report.max_rel_deviation,
    }


def builder_cases(og):
    """Builder vectors as tests/test_record_digests.py draws them, seeds 900-911."""
    import numpy as np

    for p in (1.0, 1.2, 1.5, 1.8, 3.0, math.inf):
        spec = og.NormSpec(p)
        for seed in range(900, 912):
            rng = np.random.default_rng(seed)
            lam = float(rng.choice([1.5, 2.0, 3.0]))
            count = int(rng.integers(6, 11))
            eps = float(rng.choice([1e-3, 1e-4]))
            try:
                targets = og.default_target_set(256, count=count, epsilon=eps)
                x = og.build_supercyclic_vector(lam, targets, 256, spec).x
            except Exception as exc:
                case = _error(exc)
            else:
                cfg = og.ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
                case = _certify(og, og.RolewiczMultiple(lam), x, cfg)
            yield f"p={p} seed={seed}", case


def complex_diagonal_cases(og):
    """Complex Diagonal operators, seeds 0-39: a certificate, then density."""
    import numpy as np

    for p in (1.0, 1.5, 3.0, math.inf):
        spec = og.NormSpec(p)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            N = int(rng.integers(12, 41))
            T = og.Diagonal(tuple(rng.uniform(0.5, 1.5, N) * np.exp(2j * np.pi * rng.random(N))))
            x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            targets = og.TargetSet.uniform(
                [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(3)], 0.5)
            cfg = og.ExtractionConfig(horizon=40, max_steps=8, theta=1.01, norm_spec=spec)
            case = _certify(og, T, x, cfg)
            try:
                density = og.density_check(T, x, targets, 20, spec)
            except Exception as exc:
                case["density"] = _error(exc)
            else:
                case["density"] = {
                    "best_n": [r.best_n for r in density.records],
                    "best_c": [[r.best_c.real, r.best_c.imag] for r in density.records],
                    "errors": [r.error for r in density.records],
                }
            yield f"p={p} seed={seed}", case


def _routes(og, e, gens, spec):
    """Each distance route's value (or its exception) and the least-squares point's p-norm."""
    import numpy as np

    routes = {}
    for name, route in (("distance", lambda: og.distance(e, og.SpanBasis.from_vectors(gens), spec)),
                        ("oracle", lambda: og.distance_batch_oracle(e, gens, spec)),
                        ("descent", lambda: og.distance_convex_descent(e, gens, spec))):
        try:
            routes[name] = route()
        except Exception as exc:
            routes[name] = _error(exc)
    A = np.stack(gens, axis=1)
    a_ls = np.linalg.lstsq(A, e, rcond=None)[0]
    return {"routes": routes, "lsq": og.norm(e - A @ a_ls, spec), "norm": og.norm(e, spec)}


def routes_cases(og):
    """Gaussian and nearly dependent +-1 distance problems on every route."""
    import numpy as np

    problems = []
    rng = np.random.default_rng(17)
    for draw in range(300):
        dim = int(rng.integers(8, 65))
        rank = int(rng.integers(1, min(17, dim)))
        if draw % 3 == 2:
            gens = list(rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim)))
            e = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            gens, e = list(rng.standard_normal((rank, dim))), rng.standard_normal(dim)
        problems.append((f"gaussian draw={draw:03d}", e, gens))
    rng = np.random.default_rng(4)
    for draw in range(40):
        gens = list(rng.choice([-1.0, 1.0], (8, 9)))
        gens[-1] = gens[-2] + 2.0**-34 * rng.choice([-1.0, 1.0], 9)
        problems.append((f"near draw={draw:02d}", rng.choice([-1.0, 1.0], 9), gens))
    for p in (1.0, 1.5, 3.0, math.inf):
        spec = og.NormSpec(p)
        for name, e, gens in problems:
            kind, _, draw = name.partition(" ")
            yield f"{kind}:p={p} {draw}", _routes(og, e, gens, spec)


SWEEPS = {"builder": builder_cases, "complex-diagonal": complex_diagonal_cases, "routes": routes_cases}


def run(name, src):
    sys.path.insert(0, str(Path(src).resolve()))
    import orbitgap as og

    cases = dict(SWEEPS[name](og))
    return json.dumps({"sweep": name, "cases": cases}, indent=1, sort_keys=True)


def _failed(case):
    if "error" in case:
        return case["error"]
    return None if case["ok"] else f"verify: {case['failed_check']}"


def _relative_move(u, v, where):
    """(relative move, where) from value u of A to value v of B."""
    return ((v - u) / abs(u) if u else v - u, f"{where} {u!r} -> {v!r}")


def _relative_moves(pairs, label):
    """_relative_move for each pair of values (u, v) of A and B."""
    return [_relative_move(u, v, f"{label}[{k}]") for k, (u, v) in enumerate(pairs)]


def _report_moves(group, field, found):
    up = sum(rel > 0.0 for rel, _ in found)
    down = sum(rel < 0.0 for rel, _ in found)
    rise = max(found, key=lambda m: m[0], default=(0.0, None))  # the first of equal moves
    fall = min(found, key=lambda m: m[0], default=(0.0, None))
    lines = [f"[{group}] {field} compared: {len(found)}; went up: {up}; went down: {down}"]
    for label, (rel, where) in (("rise", rise), ("fall", (-fall[0], fall[1]))):
        lines.append(f"[{group}] {field} largest relative {label}: {max(rel, 0.0) + 0.0:.3e}"
                     + (f" ({where})" if rel > 0.0 else ""))
    return lines


def _compare_certificates(group, names, ca, cb):
    lines, same, moves = [], 0, {"distances": [], "recomputed": []}  # (relative move, where) per field
    for name in names:
        x, y = ca[name], cb[name]
        if "error" in x or "error" in y or x["indices"] != y["indices"]:
            continue
        same += 1
        for field, found in moves.items():
            found += _relative_moves(zip(x[field], y[field]), f"{name} {field}")
    lines.append(f"[{group}] indices agree: {same} of {len(names)}")
    for field, found in moves.items():
        lines += _report_moves(group, field, found)
    for side, cases in (("A", ca), ("B", cb)):
        failures = [(name, why) for name in names if (why := _failed(cases[name]))]
        lines.append(f"[{group}] failures in {side}: {len(failures)}")
        lines += [f"  {name}: {why}" for name, why in failures]
    dens = [name for name in names if "density" in ca[name] and "density" in cb[name]]
    if not dens:
        return lines
    same, found = 0, []
    for name in dens:
        x, y = ca[name]["density"], cb[name]["density"]
        if "error" in x or "error" in y:
            continue
        same += x["best_n"] == y["best_n"]
        found += _relative_moves(zip(x["errors"], y["errors"]), f"{name} density errors")
    lines.append(f"[{group}] density best_n agree: {same} of {len(dens)}")
    lines += _report_moves(group, "density errors", found)
    for side, cases in (("A", ca), ("B", cb)):
        failures = [(name, cases[name]["density"]["error"]) for name in dens
                    if "error" in cases[name]["density"]]
        lines.append(f"[{group}] density failures in {side}: {len(failures)}")
        lines += [f"  {name}: {why}" for name, why in failures]
    return lines


def _compare_routes(group, names, ca, cb):
    lines = []
    for route in ("distance", "oracle", "descent"):
        found = []
        for name in names:
            u, v = ca[name]["routes"][route], cb[name]["routes"][route]
            if not isinstance(u, dict) and not isinstance(v, dict):
                found.append(_relative_move(u, v, f"{name} {route}"))
        lines += _report_moves(group, route, found)
        for side, cases in (("A", ca), ("B", cb)):
            failures = [(name, value["error"]) for name in names
                        if isinstance(value := cases[name]["routes"][route], dict)]
            lines.append(f"[{group}] {route} failures in {side}: {len(failures)}")
            lines += [f"  {name}: {why}" for name, why in failures]
    for route in ("distance", "oracle"):
        for side, cases in (("A", ca), ("B", cb)):
            # the least-squares residual is a point of e + span: a minimum
            # over the span may sit above its norm by rounding only
            excess = [((c["routes"][route] - c["lsq"]) / c["norm"], name) for name in names
                      if not isinstance((c := cases[name])["routes"][route], dict)]
            above = sum(rel > 1e-9 for rel, _ in excess)
            rel, where = max(excess, default=(0.0, None))
            lines.append(f"[{group}] {route} above the least-squares point by more than 1e-9 ||e|| "
                         f"in {side}: {above} of {len(excess)}; largest excess {max(rel, 0.0) + 0.0:.3e} ||e||"
                         + (f" ({where})" if rel > 0.0 else ""))
    return lines


def compare(a, b):
    """Lines describing how sweep output b moved from sweep output a, per
    group of cases (the first word of a case's name)."""
    ca, cb = a["cases"], b["cases"]
    shared = [name for name in ca if name in cb]
    lines = [f"sweep {a['sweep']} -> {b['sweep']}: {len(shared)} shared cases"]
    lines += [f"only in A: {name}" for name in ca if name not in cb]
    lines += [f"only in B: {name}" for name in cb if name not in ca]
    for group in sorted({name.split()[0] for name in shared}):
        names = [name for name in shared if name.split()[0] == group]
        compare_group = _compare_routes if "routes" in ca[names[0]] else _compare_certificates
        lines += compare_group(group, names, ca, cb)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a named sweep and print its JSON")
    p_run.add_argument("name", choices=sorted(SWEEPS))
    p_run.add_argument("--src", required=True, help="directory holding the orbitgap package")
    p_cmp = sub.add_parser("compare", help="compare two sweep outputs")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        print(run(args.name, args.src))
    else:
        a, b = (json.loads(Path(f).read_text()) for f in (args.a, args.b))
        print("\n".join(compare(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
