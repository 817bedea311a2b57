"""Named result sweeps, and a comparison of two of their outputs.

    python tools/sweeps.py run builder --src src > after.json
    python tools/sweeps.py run builder --src ../parent/src > before.json
    python tools/sweeps.py compare before.json after.json

run imports orbitgap from --src (the src/ directory of any checkout), runs
the named sweep and prints one JSON document: per case, the certified
indices and distances, the verifier's recomputed distances and report
fields, or the exception the case raised.  It records no timing, so two
runs on one commit print the same bytes.  compare prints, over the cases
the two files share, how many keep their indices and, for the certified
and the recomputed distances apart, how many values went up and how many
down and the largest relative moves, then the failed cases on each side,
per group of cases (the first word of a case's name: builder groups by p).

Sweeps:
  builder  builder vectors for seeds 900-911 at N=256, K=16, horizon 96,
           theta=1.01, p in {1, 1.5, 3, inf}, extracted and verified

This is a tool for comparing commits, not a test: nothing here runs in the
test suite or the benchmark.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def builder_cases(og):
    """Builder vectors as tests/test_record_digests.py draws them, seeds 900-911."""
    import numpy as np

    for p in (1.0, 1.5, 3.0, math.inf):
        spec = og.NormSpec(p)
        for seed in range(900, 912):
            rng = np.random.default_rng(seed)
            lam = float(rng.choice([1.5, 2.0, 3.0]))
            count = int(rng.integers(6, 11))
            eps = float(rng.choice([1e-3, 1e-4]))
            name = f"p={p} seed={seed}"
            try:
                targets = og.default_target_set(256, count=count, epsilon=eps)
                x = og.build_supercyclic_vector(lam, targets, 256, spec).x
                T = og.RolewiczMultiple(lam)
                cfg = og.ExtractionConfig(horizon=96, max_steps=16, theta=1.01, norm_spec=spec)
                cert = og.extract_subsequence(T, x, cfg)
                report = og.verify_certificate(cert, T, x)
            except Exception as exc:  # a failed case is a result, not a crash
                yield name, {"error": f"{type(exc).__name__}: {exc}"}
                continue
            yield name, {
                "indices": list(cert.indices),
                "distances": list(cert.distances),
                "recomputed": list(report.recomputed_distances),
                "ok": report.ok,
                "failed_check": report.failed_check,
                "max_rel_deviation": report.max_rel_deviation,
            }


SWEEPS = {"builder": builder_cases}


def run(name, src):
    sys.path.insert(0, str(Path(src).resolve()))
    import orbitgap as og

    cases = dict(SWEEPS[name](og))
    return json.dumps({"sweep": name, "cases": cases}, indent=1, sort_keys=True)


def _failed(case):
    if "error" in case:
        return case["error"]
    return None if case["ok"] else f"verify: {case['failed_check']}"


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
        same, moves = 0, {"distances": [], "recomputed": []}  # (relative move, where) per field
        for name in names:
            x, y = ca[name], cb[name]
            if "error" in x or "error" in y or x["indices"] != y["indices"]:
                continue
            same += 1
            for field, found in moves.items():
                for k, (u, v) in enumerate(zip(x[field], y[field])):
                    rel = (v - u) / abs(u) if u else v - u
                    found.append((rel, f"{name} {field}[{k}] {u!r} -> {v!r}"))
        lines.append(f"[{group}] indices agree: {same} of {len(names)}")
        for field, found in moves.items():
            up = sum(rel > 0.0 for rel, _ in found)
            down = sum(rel < 0.0 for rel, _ in found)
            rise = max(found, key=lambda m: m[0], default=(0.0, None))  # the first of equal moves
            fall = min(found, key=lambda m: m[0], default=(0.0, None))
            lines.append(f"[{group}] {field} compared: {len(found)}; went up: {up}; went down: {down}")
            for label, (rel, where) in (("rise", rise), ("fall", (-fall[0], fall[1]))):
                lines.append(f"[{group}] {field} largest relative {label}: {max(rel, 0.0) + 0.0:.3e}"
                             + (f" ({where})" if rel > 0.0 else ""))
        for side, cases in (("A", ca), ("B", cb)):
            failures = [(name, why) for name in names if (why := _failed(cases[name]))]
            lines.append(f"[{group}] failures in {side}: {len(failures)}")
            lines += [f"  {name}: {why}" for name, why in failures]
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
