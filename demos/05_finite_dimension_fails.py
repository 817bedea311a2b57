"""Why the construction needs room: extraction in R^8 must die.

The span-avoidance argument selects orbit elements whose span never
captures the base vector.  That requires an infinite-dimensional space;
in R^8 any nine vectors are dependent, so after at most eight accepted
indices the span has swallowed everything and no candidate can keep the
distance above theta.  The extractor surfaces this honestly as
HorizonExhausted rather than quietly returning a short certificate.

A shift on an 8-dimensional truncation is a different matter: it is a
window onto l^p(N), and its certificates hold there, however many indices
they have relative to N, as long as no orbit element leaves the window.
apply checks exactly that: a forward shift that would push mass past the
last coordinate raises TruncationTooSmall instead of dropping it.
"""

import numpy as np

from orbitgap import DenseMatrix, ExtractionConfig, ForwardShift, extract_subsequence
from orbitgap.errors import HorizonExhausted, TruncationTooSmall
from orbitgap.space import basis_vector

# The forward-shift orbit of e_0 is e_1, ..., e_7, then it would leave R^8.
try:
    extract_subsequence(ForwardShift(), basis_vector(0, 8), ExtractionConfig(horizon=120, max_steps=16))
except TruncationTooSmall as err:
    print("forward shift refused:", err)

rng = np.random.default_rng(32)
q, r = np.linalg.qr(rng.standard_normal((8, 8)))
T = DenseMatrix(q * np.sign(np.diag(r)))  # a random rotation of R^8
x = rng.standard_normal(8)

# A rotation never leaves R^8, so nothing is refused: the honest scan
# exhausts the horizon once the span fills the space.
try:
    extract_subsequence(T, x, ExtractionConfig(horizon=120, max_steps=16))
except HorizonExhausted as err:
    print(f"extraction died at step {err.step}: no qualifying index in (n_{err.step - 1}, {err.horizon}]")
    assert err.step <= 9
