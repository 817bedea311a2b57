"""One subspace, many norms, two independent solvers per norm.

Distance from a point to a finite-dimensional subspace is the package's
workhorse quantity.  At p = 2 it is a least-squares residual; at p = 1
and p = infinity it is an exact linear program, the dual of the
minimum-norm problem, solved by HiGHS; at other p it is smooth convex
descent.  Every incremental result can be cross-checked against a
cold-start batch oracle.  For the LP norms the third column is the LP's
own witness: the dual maximizer y, made orthogonal to the span, bounds the
distance below by <e, y> / ||y||_q, a bound that holds whatever the solver
did, so it cannot let an LP value that is too high through.  The routes
agreeing to twelve digits is the everyday evidence that the numbers mean
what they claim.
"""

import math

import numpy as np

from orbitgap import (
    L1,
    L2,
    LINF,
    NormSpec,
    SpanBasis,
    distance,
    distance_batch_oracle,
    distance_convex_descent,
)

rng = np.random.default_rng(12345)
dim, rank = 40, 8
Y = SpanBasis.from_vectors([rng.standard_normal(dim) for _ in range(rank)])
e = rng.standard_normal(dim)

print(f"point in R^{dim}, span of rank {Y.rank}\n")
print(f"{'norm':>8}  {'incremental':>16}  {'batch oracle':>16}  {'descent|witness':>16}")
for label, spec in [("l1", L1), ("l2", L2), ("linf", LINF), ("p=1.5", NormSpec(1.5)), ("p=3", NormSpec(3.0))]:
    a = distance(e, Y, spec)
    b = distance_batch_oracle(e, Y.generators, spec)
    c = distance_convex_descent(e, Y.generators, spec)
    print(f"{label:>8}  {a:16.12f}  {b:16.12f}  {c:16.12f}")

# The distances are ordered like the norms themselves.
dinf, d2, d1 = distance(e, Y, LINF), distance(e, Y, L2), distance(e, Y, L1)
assert dinf <= d2 <= d1
print("\nordering d_inf <= d_2 <= d_1 holds:", (round(dinf, 6), round(d2, 6), round(d1, 6)))

# Weighted norms fold into the vectors as a diagonal scaling.
w = tuple(rng.uniform(0.5, 2.0, dim))
spec_w = NormSpec(2.0, weights=w)
a = distance(e, Y, spec_w)
wa = np.asarray(w)
b = distance(wa * e, SpanBasis.from_vectors([wa * g for g in Y.generators]), L2)
print(f"weighted l2 distance {a:.12f} equals plain l2 after scaling {b:.12f}")

# Complex field: same API, real-embedded solvers underneath.
Z = SpanBasis.from_vectors([rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)])
z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
for label, spec in [("l1", L1), ("l2", L2), ("linf", LINF)]:
    a = distance(z, Z, spec)
    b = distance_batch_oracle(z, Z.generators, spec)
    print(f"complex {label:>4}: incremental {a:.12f}  oracle {b:.12f}")
