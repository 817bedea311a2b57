"""scipy is loaded only when a route needs it.

An L2 run takes no LP, no descent and no pivoted QR: its prefix distances
read the R factor of numpy's QR.  So a fresh interpreter that imports
orbitgap, runs the L2 pipeline (build, density, extract, verify), an L2
distance on both routes, a certificate's encode -> decode round trip and an
L2 `orbitgap extract` must never import a scipy module: scipy.linalg alone
is most of a short process's start-up time and a third of its memory.  The
complex L1 and Linf barrier is numpy alone too, and so is the Newton
descent at p > 2, so `distance` at complex p in {1, inf} and at p = 3 on
either field loads no scipy module either, and neither does a complex
`density_check` at those p, whose fits run the same solvers.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

L2_RUN = """
import json
import sys
import numpy as np
import orbitgap as og
from orbitgap import records
from orbitgap.cli import main
targets = og.default_target_set(128, count=6, epsilon=1e-3)
x = og.build_supercyclic_vector(2.0, targets, 128).x
T = og.RolewiczMultiple(2.0)
og.density_check(T, x, targets, 40)
cert = og.extract_subsequence(T, x, og.ExtractionConfig(horizon=48, max_steps=8, theta=1.01))
assert og.verify_certificate(cert, T, x).ok
rng = np.random.default_rng(3)
gens = [rng.standard_normal(16) for _ in range(4)]
e = rng.standard_normal(16)
og.distance(e, og.SpanBasis.from_vectors(gens))
og.distance_batch_oracle(e, gens)
enc = records.dumps_record(records.encode_certificate(cert))
back = records.decode_certificate(json.loads(enc.decode("ascii")))
assert records.dumps_record(records.encode_certificate(back)) == enc
assert main(["extract", "--operator", "rolewicz:2", "--dim", "128", "--steps", "6"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


COMPLEX_CONE_DISTANCE = """
import sys
import numpy as np
import orbitgap as og
rng = np.random.default_rng(5)
gens = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(4)]
e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
Y = og.SpanBasis.from_vectors(gens)
assert og.distance(e, Y, og.L1) > og.distance(e, Y, og.LINF) > 0.0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


SMOOTH_NEWTON_DISTANCE = """
import sys
import numpy as np
import orbitgap as og
rng = np.random.default_rng(5)
for draw in (lambda: rng.standard_normal(16),
             lambda: rng.standard_normal(16) + 1j * rng.standard_normal(16)):
    gens = [draw() for _ in range(4)]
    assert og.distance(draw(), og.SpanBasis.from_vectors(gens), og.NormSpec(3.0)) > 0.0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


COMPLEX_DENSITY = """
import sys
import numpy as np
import orbitgap as og
rng = np.random.default_rng(7)
T = og.Diagonal(tuple(rng.uniform(0.5, 1.5, 16) * np.exp(2j * np.pi * rng.random(16))))
x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
targets = og.TargetSet.uniform([rng.standard_normal(16) + 1j * rng.standard_normal(16)], 0.5)
for p in (1.0, 3.0, float("inf")):
    assert og.density_check(T, x, targets, 6, og.NormSpec(p)).records[0].error > 0.0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def scipy_modules_after(snippet):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1]


def test_l2_run_leaves_scipy_unloaded():
    assert scipy_modules_after(L2_RUN) == "[]"


def test_complex_cone_distance_leaves_scipy_unloaded():
    assert scipy_modules_after(COMPLEX_CONE_DISTANCE) == "[]"


def test_smooth_newton_distance_leaves_scipy_unloaded():
    assert scipy_modules_after(SMOOTH_NEWTON_DISTANCE) == "[]"


def test_complex_density_leaves_scipy_unloaded():
    assert scipy_modules_after(COMPLEX_DENSITY) == "[]"
