"""scipy.optimize is loaded only when a solver needs it.

An L2 run takes no LP and no descent, so a fresh interpreter that runs the
L2 pipeline must never import scipy.optimize: its import is a large part of
a short process's start-up time and memory.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

L2_PIPELINE = """
import sys
import orbitgap as og
targets = og.default_target_set(128, count=6, epsilon=1e-3)
x = og.build_supercyclic_vector(2.0, targets, 128).x
T = og.RolewiczMultiple(2.0)
og.density_check(T, x, targets, 40)
cert = og.extract_subsequence(T, x, og.ExtractionConfig(horizon=48, max_steps=8, theta=1.01))
assert og.verify_certificate(cert, T, x).ok
print("scipy.optimize" in sys.modules)
"""


def test_l2_pipeline_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", L2_PIPELINE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"
