"""Standard-form linear programs, solved by HiGHS.

Solves    min c.z   subject to   A z = b,  0 <= z <= upper
with HiGHS (Huangfu & Hall, Math. Prog. Comp. 10, 2018), called through
scipy's milp with no integrality.  milp passes HiGHS the same model as
linprog and returns the same z and value bit for bit, through a thinner
Python wrapper.  Under cProfile on a 2-core host, 1,322 of these LPs (30
rounds of the benchmark's nonl2 workload) took 2.96 s through linprog, of
which HiGHS's own run was 0.34 s; the rest was input parsing, five option
checks per call and result packaging.  Through milp they took 2.23 s.
The only caller is the dual distance LP in subspace.py, which has one
equality row per spanning vector and box-bounded variables.  It passes A as
a scipy CSC array: one dual LP for a distance, or the dual LPs of
consecutive span prefixes as one block-diagonal model, for verification.
milp reads a dense A through csc_array, so a CSC array holding the same
entries is the same model and gives the same z and value.

Presolve is off.  On dual LPs built from vectors with entries +-2^-m,
m <= 75 (the scales the builder produces), presolve occasionally ends with
HiGHS model status Unknown or Not Set, neither optimal nor infeasible, on a
problem the plain simplex solves: 2 of 3,000 such LPs with presolve on,
none with it off.
"""

import numpy as np

from .errors import SolverFailure


def solve_standard_lp(c, A, b, *, upper=None):
    """Return (z, value) for min c.z s.t. A z = b, 0 <= z <= upper.

    A is dense or a scipy sparse array.  upper is one bound for every
    variable; None leaves z unbounded above.
    Raises SolverFailure on any non-optimal HiGHS status.  All formulations
    built in this package are feasible and bounded, so SolverFailure here
    signals a genuine numerical breakdown.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp  # loaded only when an LP runs
    from scipy.sparse import issparse

    if not issparse(A):
        A = np.asarray(A, dtype=np.float64)
    res = milp(c, constraints=LinearConstraint(A, b, b),
               bounds=Bounds(0.0, np.inf if upper is None else upper),
               options={"presolve": False})
    if res.status != 0:
        m, n = A.shape
        raise SolverFailure(f"HiGHS status {res.status} on A of shape {m}x{n}: {res.message}")
    return res.x, float(res.fun)
