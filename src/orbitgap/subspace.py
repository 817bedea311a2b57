"""Growing spans and distances from a point to a span.

A SpanBasis is nothing but its l^2-orthonormal basis Q, one rank x N
array built by classical Gram-Schmidt applied twice per extension (twice is
enough to hold orthonormality near machine precision at these sizes).
extend returns the same SpanBasis for a dependent vector, so callers that
need the generators keep their own list.  Q always uses the l^2 inner
product, whatever the ambient norm: span membership does not depend on the
norm, only the distance value does.

Distance routes, one table (_route_table), chosen by p and field:
  p = 2                    least squares on the diagonally scaled columns
  p in {1, inf}, real      exact dual linear program, solved by HiGHS
  anything else            _descent: the least-squares residual's p-norm
                           inside the span (either field), otherwise
    p in {1, inf}, complex   a log-barrier method on the modulus cones
                             |r_j| <= t_j (_cone_distance; |r_j| is not linear)
    2 < p < inf              Newton's method on sum |r_j|^p, stopped on the
                             Holder gap of y = |r|^(p-2) r (_newton_smooth)
    1 < p < 2                L-BFGS from the least-squares point, accepted
                             on success or on the Holder gap (_descent_smooth)
distance() on the unweighted Euclidean norm skips the table: the residual
against the orthonormal basis is already exact.  best_scalar fits a complex
row at p != 2 by _descent, as its distance to the span of one vector.

distance_batch_oracle runs the same table with no incremental state and
serves as ground truth in verification and tests: at p = 2 on the raw
generators, at any other p on their _range_basis.  Every rank decision here
(_range_basis, extend, _holder_bound, the prefix_distances fallback) asks
_independent, lstsq's rule.  prefix_distances gives the oracle's value at
every prefix from one unpivoted numpy QR of [A | e_hat]: ||R[k:, K]|| from
the R-only QR at p = 2; at real p in {1, inf} the dual LPs of every
Q[:, :k], stacked as block-diagonal models of at most _LP_NONZEROS nonzeros
(_prefix_lp_distances), so a verify pays scipy's per-call LP wrapper once
per model, not once per prefix; the route table on Q[:, :k] else.  It runs
the oracle per prefix instead when a generator is dependent.  scipy is
imported only inside the functions that run an LP or L-BFGS.
distance_convex_descent runs _descent on the raw columns, but at real p in
{1, inf} it gives _holder_bound of the LP's maximizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SolverFailure
from .simplex import solve_standard_lp
from .space import NormSpec, L2, norm

_LP_NONZEROS = 2**15  # cap on one block-diagonal prefix LP (_prefix_lp_distances)


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """Immutable span; ortho is Q, its orthonormal basis as one read-only
    rank x dim array, built once per extend."""

    ortho: np.ndarray

    @property
    def dim(self) -> int:
        return self.ortho.shape[1]

    @property
    def rank(self) -> int:
        return self.ortho.shape[0]

    @classmethod
    def from_vectors(cls, vecs) -> "SpanBasis":
        vecs = list(vecs)
        if not vecs:
            raise DimensionMismatch("cannot infer dimension from an empty list")
        Q = np.zeros((0, vecs[0].shape[0]))
        Q.flags.writeable = False
        basis = cls(Q)
        for v in vecs:
            basis = extend(basis, v)
        return basis


def _project_residual(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residual of v against the orthonormal rows of Q, two Gram-Schmidt passes."""
    r = v.astype(np.result_type(v.dtype, Q.dtype), copy=True)
    for _ in range(2):
        r = r - Q.T @ (Q.conj() @ r)
    return r


def _independent(part, whole, shape):
    """lstsq's rank rule (default rcond; Golub & Van Loan, 4th ed., 5.4): a
    direction of size part counts when it is above eps * max(shape) * whole."""
    return part > np.finfo(float).eps * max(shape) * whole


def extend(Y: SpanBasis, v: np.ndarray) -> SpanBasis:
    """SpanBasis of span(Y and v); Y itself when v is dependent: when its
    residual fails _independent against ||v|| for shape (dim, rank + 1)."""
    if v.shape[0] != Y.dim:
        raise DimensionMismatch(f"generator has dimension {v.shape[0]}, span has {Y.dim}")
    r = _project_residual(Y.ortho, v)
    rn = float(np.linalg.norm(r))
    if not _independent(rn, float(np.linalg.norm(v)), (Y.dim, Y.rank + 1)):
        return Y
    Q = np.vstack([Y.ortho, r / rn])
    Q.flags.writeable = False
    return SpanBasis(Q)


def _scaled_columns(e, vectors, spec):
    """Column matrix of spanning vectors and the point, diagonally scaled.

    Returns (e_hat, A) with A of shape (N, k): minimizing ||e_hat - A a||_p
    over coefficient vectors a gives the ambient weighted distance.  Columns
    are normalized to unit length (the span does not move) so that callers
    may pass generators of any magnitude without degrading the solvers.
    Both come back complex128 when either side is complex.
    """
    for v in vectors:
        if v.shape[0] != e.shape[0]:
            raise DimensionMismatch("generator dimension differs from the point")
    A = np.stack([np.asarray(v) for v in vectors], axis=1)
    w = spec.weight_array(e.shape[0])
    e_hat = np.asarray(e).copy() if w is None else w * np.asarray(e)
    if w is not None:
        A = w[:, None] * A
    cn = np.linalg.norm(A, axis=0)
    keep = cn > 0.0
    A = A[:, keep] / cn[keep]
    if np.iscomplexobj(A) or np.iscomplexobj(e_hat):
        return e_hat.astype(np.complex128), A.astype(np.complex128)
    return e_hat, A


def _nonnegative(value):
    """max(value, 0.0) but never -0.0 (max keeps the first of equal arguments); NaN stays NaN."""
    return max(value, 0.0) + 0.0


def _dual_model(e, blocks, p):
    """The dual LP of _lp_distance for the point e (scaled to max-abs 1)
    against each column block, as one block-diagonal model for
    solve_standard_lp: returns (c, A_eq, b_eq, upper), A_eq a scipy CSC
    array.  Block i has the variables (y_plus, y_minus), plus the slack s at
    p = inf, and the rows A_i^T y_plus - A_i^T y_minus = 0, plus the row
    sum(y_plus + y_minus) + s = 1 at p = inf.  The CSC is assembled as
    scipy's csc_array(dense) would read the dense model (exact zeros
    dropped, rows in order), so one block hands HiGHS the same bytes.
    """
    from scipy.sparse import csc_array  # loaded only when an LP runs

    n, inf = e.shape[0], int(p == math.inf)
    data, rows, counts, b = [], [], [], []
    row = 0
    for A in blocks:
        k = A.shape[1]
        # row j of vals is the block's variable j (y_plus, y_minus, then
        # the slack s) over the block's rows (k, then the sum row)
        vals = np.zeros((2 * n + inf, k + inf))
        vals[:n, :k], vals[n : 2 * n, :k] = A, -A
        vals[:, k:] = 1.0  # the sum row; no column at p = 1
        nonzero = vals != 0.0
        data.append(vals[nonzero])
        block_rows = np.arange(row, row + k + inf, dtype=np.int32)
        rows.append(np.broadcast_to(block_rows, vals.shape)[nonzero])
        counts.append(np.count_nonzero(nonzero, axis=1))
        b.append(np.concatenate([np.zeros(k), np.ones(inf)]))
        row += k + inf
    counts = np.concatenate(counts)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    A_eq = csc_array((np.concatenate(data), np.concatenate(rows), indptr), shape=(row, counts.size))
    c = np.tile(np.concatenate([-e, e, np.zeros(inf)]), len(blocks))
    return c, A_eq, np.concatenate(b), None if inf else 1.0


def _lp_distance(e_hat, A, p):
    """Exact min_a ||e_hat - A a||_p, p in {1, inf}, via the dual LP.

    By minimum-norm duality the distance equals max <e_hat, y> over
    A^T y = 0, ||y||_q <= 1 with 1/p + 1/q = 1 (Luenberger, Optimization by
    Vector Space Methods, 1969, 5.8).  With y = y_plus - y_minus >= 0 that
    is k equality rows; q = inf (p = 1) bounds y_plus, y_minus by 1, and
    q = 1 (p = inf) adds the row sum(y_plus + y_minus) + s = 1 (_dual_model).
    e_hat is scaled to max-abs 1 first, as HiGHS's tolerances are absolute.
    Returns (value, y).
    """
    n = A.shape[0]
    scale = float(np.abs(e_hat).max())
    if scale == 0.0:
        return 0.0, np.zeros(n)
    c, A_eq, b_eq, upper = _dual_model(e_hat / scale, [A], p)
    z, value = solve_standard_lp(c, A_eq, b_eq, upper=upper)
    return _nonnegative(-value * scale), z[:n] - z[n : 2 * n]


def _prefix_lp_distances(e_hat, Q, p):
    """_lp_distance(e_hat, Q[:, :k], p)'s value for k = 1..K, from few LPs.

    Consecutive prefixes share one block-diagonal model (_dual_model) while
    it holds at most _LP_NONZEROS nonzeros: each milp call costs far more
    in scipy's wrapper than in HiGHS, but HiGHS's pricing grows with the
    whole model, so one model for every prefix loses at large K.  HiGHS
    reports one objective for the model, so block k's value is read as
    -fsum(c_k * z_k), scaled back.
    """
    n, K = Q.shape
    scale = float(np.abs(e_hat).max())
    if scale == 0.0:
        return [0.0] * K
    inf = p == math.inf
    groups, size = [[]], 0
    for k in range(1, K + 1):
        nnz = 2 * n * k + inf * (2 * n + 1)
        if groups[-1] and size + nnz > _LP_NONZEROS:
            groups, size = groups + [[]], 0
        groups[-1].append(k)
        size += nnz
    values = []
    for group in groups:
        c, A_eq, b_eq, upper = _dual_model(e_hat / scale, [Q[:, :k] for k in group], p)
        z, _ = solve_standard_lp(c, A_eq, b_eq, upper=upper)
        cz = (c * z).reshape(len(group), -1)
        values += [_nonnegative(-math.fsum(row) * scale) for row in cz]
    return values


def _pnorm_and_grad(rho, p):
    """Stable ||rho||_p and g_j = (d/d Re rho_j + i d/d Im rho_j) ||rho||_p;
    the unit phase rho_j / |rho_j| in g is exactly +-1 for a real entry."""
    a = np.abs(rho)
    m = float(a.max())
    if m == 0.0:
        return 0.0, np.zeros_like(a)
    f = m * float(((a / m) ** p).sum() ** (1.0 / p))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(a > 0.0, rho / a * (a / f) ** (p - 1.0), 0.0)
    return f, g


def _holder_bound(r0, U, y, p):
    """Re<r0, y'> / ||y'||_q, y' = y - U U^H y and 1/p + 1/q = 1 (q = inf at
    p = 1, q = 1 at p = inf).  y' vanishes on the span of U's orthonormal
    columns, so by Holder this bounds min_a ||r0 - U a||_p below for any y,
    with equality at the optimum for y = |r|^(p-2) r at smooth p and for the
    dual LP's maximizer at p in {1, inf} (minimum-norm duality, _lp_distance).
    It is 0 when ||y'|| fails _independent against ||y|| for U's shape: y
    is in the span, and what is left of it is rounding."""
    y_off = y - U @ (U.conj().T @ y)
    if not _independent(np.linalg.norm(y_off), np.linalg.norm(y), U.shape):
        return 0.0
    q = math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)
    return float(np.vdot(y_off, r0).real) / norm(y_off, NormSpec(q))


def _descent_smooth(r0, U, p):
    """min_a ||r0 - U a||_p, 1 < p < 2, by L-BFGS from a = 0.

    Returns (value, r), r the residual where it stops.  U has orthonormal
    columns and r0 has max-abs 1 (_descent), so a = 0 is the least-squares
    point; complex a is taken as [Re a, Im a], with the gradient
    -[Re(U^H g), Im(U^H g)] and g from _pnorm_and_grad.  64 correction
    pairs cover the 2k unknowns of a complex span of 16 generators (with
    scipy's default of 10, builder values at p = 1.2 stopped up to 1e-9
    high).  The objective loses second differentiability at zero residual
    coordinates when p < 2, where the line search can fail at the optimum:
    a stop L-BFGS does not call a success is accepted on a Holder gap
    (_holder_bound of g, a positive multiple of y = |r|^(p-2) r) of at most
    1e-9 * value, and raises SolverFailure otherwise.
    """
    from scipy.optimize import minimize  # loaded only when a descent runs

    k = U.shape[1]
    complex_field = np.iscomplexobj(U)

    def residual(a):
        return r0 - U @ (a[:k] + 1j * a[k:] if complex_field else a)

    def fun(a):
        f, g = _pnorm_and_grad(residual(a), p)
        h = U.conj().T @ g
        return f, -(np.concatenate([h.real, h.imag]) if complex_field else h)

    res = minimize(fun, np.zeros((1 + complex_field) * k), jac=True, method="L-BFGS-B",
                   options={"maxiter": 1000, "maxcor": 64, "ftol": 1e-16, "gtol": 1e-12})
    r = residual(res.x)
    value, g = _pnorm_and_grad(r, p)
    gap = 0.0 if res.success else (value - _holder_bound(r0, U, g, p)) / value
    if not gap <= 1e-9:
        raise SolverFailure(f"L-BFGS descent (p={p}) stopped with Holder gap {gap:.3g} of the value")
    return value, r


def _range_basis(A):
    """Orthonormal basis of A's columns from one SVD, keeping the singular
    values that _independent keeps against the largest (raw columns may be
    dependent or tiny); shared by _descent and the oracle."""
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    return np.ascontiguousarray(U[:, _independent(sv, sv[:1], A.shape)])


def _newton_smooth(r0, U, p):
    """min_a ||r0 - U a||_p, 2 < p < inf, by Newton's method with a Holder-gap stop.

    Returns (value, r), r the iterate of smallest p-norm.  U has
    orthonormal columns and r0 has max-abs 1 (_descent).  Newton steps
    minimize F = sum_j |r_j|^p over r = r0 - U a: the gradient is
    -p U^H y with y = |r|^(p-2) r, and the Hessian has weight
    p (p-1) |r_j|^(p-2) along u_j = r_j / |r_j| and p |r_j|^(p-2) along
    i u_j (complex a taken as its real and imaginary parts).  Each step
    solves with lstsq on the unscaled Hessian: scaled to unit diagonal,
    directions whose weight underflows (|r_j|^(p-2) ~ 1e-36 at p = 4) get
    huge steps that no backtracking repairs.  Armijo backtracking (1e-4,
    40 halvings) accepts a step only if F falls.

    Every iterate is feasible, and y bounds the distance below
    (_holder_bound), equal at the optimum.  Before each step the gap
    between the smallest value seen and the largest bound is checked: the
    solve ends once it is at most 1e-15 * value, when no step lowers F, or
    after 60 steps, and a gap above 1e-9 * value raises SolverFailure.
    """
    Uc, complex_field = U.conj(), np.iscomplexobj(U)
    spec = NormSpec(p)
    r = r0
    rho = np.abs(r)
    f = float((rho**p).sum())
    value, bound = math.inf, 0.0
    for steps in range(61):
        wr = rho ** (p - 2.0)
        y = wr * r
        if (v := norm(r, spec)) < value:
            value, best = v, r
        bound = max(bound, _holder_bound(r0, U, y, p))
        if value - bound <= 1e-15 * value or steps == 60:
            break
        Uy = Uc.T @ y
        if complex_field:
            B = Uc * np.exp(1j * np.angle(r))[:, None]
            K = np.vstack([B.view(np.float64), (1j * B).view(np.float64)])
            w = p * np.concatenate([(p - 1.0) * wr, wr])
            g = -p * Uy.view(np.float64)
        else:
            K, w, g = U, p * (p - 1.0) * wr, -p * Uy
        H = K.T @ (K * w[:, None])
        dz = np.linalg.lstsq(H, -g, rcond=1e-12)[0]
        du = U @ (dz.view(np.complex128) if complex_field else dz)
        slope, t = float(g @ dz), 1.0
        for _ in range(40):
            r_new = r - t * du
            rho_new = np.abs(r_new)
            f_new = float((rho_new**p).sum())
            if f_new < f and f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no step lowers F
        r, rho, f = r_new, rho_new, f_new
    if not value - bound <= 1e-9 * value:
        raise SolverFailure(f"Newton descent (p={p}) stopped after {steps} steps "
                            f"with Holder gap {(value - bound) / value:.3g} of the value")
    return value, best


def _cone_distance(r0, U, p):
    """min_a ||r0 - U a||_p over complex a, p in {1, inf}, by a log-barrier method.

    Returns (value, r), the last iterate's residual r and its p-norm.  U
    has orthonormal columns and r0 has max-abs 1 (_descent).  Each stage
    minimizes tau * (sum_j t_j at p = 1, t at p = inf) minus
    sum_j log(t_j^2 - |r_j|^2) over z, the real and imaginary parts of a,
    by damped Newton steps z += dz / (1 + lam), lam^2 = -grad . dz (Boyd &
    Vandenberghe, Convex Optimization, 9.6 and 11.3).  No line search: an
    Armijo test cannot see a decrease below the barrier's rounding.  A point
    centred to lam^2 <= 1e-6 is within 2n / tau (the barrier parameter 2n
    over tau) of the optimum, so the last stage centres that far, and ends
    once 2n / tau <= 1e-10 * max(1, value); earlier stages only need to
    start the next one near the central path, and stop at lam^2 <= 0.1.
    tau starts at 2n and grows x100 per stage, but to at most twice the
    value the stopping test needs, as the rounding floor of lam^2 grows
    with tau.  The Hessian K^T diag(w) K has every w > 0, K holding each
    cone's directions along u_j = r_j / |r_j| and along i u_j in z; written
    as I / t_j minus a rank-one term, the small curvature along u_j is lost
    to rounding.  At p = 1 each t_j is minimized out, t_j = (1 + s_j) / tau with
    s_j = sqrt(1 + tau^2 |r_j|^2), leaving w = tau / (t_j s_j) along u_j and
    tau / t_j along i u_j.  At p = inf t is one more unknown, the log splits
    into the slacks t -+ |r_j| with w = 1 / slack^2 (both must stay
    positive, which keeps t off the nappe t < -|r_j|), and i u_j has
    w = 2 / (t^2 - |r_j|^2).  The Hessian's condition grows like tau^2: it
    is scaled to unit diagonal, and lstsq drops the directions lost to
    rounding, where solve steps out of the cone.  A stage that does not
    centre in 60 steps, or an iterate that leaves the cone or is not finite,
    raises SolverFailure.
    """
    n, k = U.shape
    Uc = U.conj()
    inf = p == math.inf
    K = np.zeros(((2 + inf) * n, 2 * k + inf))
    # at p = inf the rows of K are d(t - |r_j|), -d(t + |r_j|) and i u_j, all
    # over d(z, t); sign restores the second block's sign in the gradient
    K[:n, 2 * k :], K[n : 2 * n, 2 * k :] = 1.0, -1.0
    sign = np.repeat([1.0, -1.0], n)
    a, t = np.zeros(k, dtype=np.complex128), 2.0
    tau, steps = 2.0 * n, 0
    while True:
        r = r0 - U @ a
        rho = np.abs(r)
        B = Uc * np.exp(1j * np.angle(r))[:, None]
        K[-n:, : 2 * k] = (1j * B).view(np.float64)
        if inf:
            sig = np.concatenate([t - rho, t + rho])
            if not sig.min() > 0.0:
                break
            K[:n, :-1] = K[n : 2 * n, :-1] = B.view(np.float64)
            inv = sign / sig
            grad = -(K[: 2 * n].T @ inv)
            grad[-1] += tau
            w = np.concatenate([inv * inv, -2.0 * inv[:n] * inv[n:]])
        else:
            s = np.sqrt(1.0 + (tau * rho) ** 2)
            tj = (1.0 + s) / tau
            K[:n] = B.view(np.float64)
            grad = -tau * (K[:n].T @ (rho / tj))
            w = tau * np.concatenate([1.0 / (tj * s), 1.0 / tj])
        H = K.T @ (K * w[:, None])
        d = np.diag(H) ** -0.5
        try:
            dz = d * np.linalg.lstsq(H * d * d[:, None], -grad * d, rcond=None)[0]
        except np.linalg.LinAlgError:  # its SVD did not converge: H is not finite
            break
        lam2 = float(-grad @ dz)
        if lam2 <= 0.1:
            value = float(rho.sum() if p == 1.0 else rho.max())
            need = 2.0 * n / (1e-10 * max(1.0, value))  # the tau that passes the stopping test
            if tau < need:
                tau, steps = min(100.0 * tau, 2.0 * need), 0
                continue
            if lam2 <= 1e-6:
                return value, r
        if not (math.isfinite(lam2) and steps < 60):
            break
        step = dz / (1.0 + math.sqrt(lam2))
        a, t, steps = a + step[: 2 * k].view(np.complex128), t + step[-1] * inf, steps + 1
    raise SolverFailure(f"cone barrier (p={p}) stalled with gap bound {2.0 * n / tau:.3g} x max|r0|")


def _descent(e_hat, A, p):
    """min_a ||e_hat - A a||_p and the residual e_hat - A a that attains it,
    at smooth p or at complex p in {1, inf} (real ones take the LP).

    One prologue serves every solver: U = _range_basis(A), one SVD, and the
    least-squares residual r0 = e_hat - U U^H e_hat.  An r0 within
    1e-13 * max|e_hat| of zero puts e_hat in the span, whatever p, and is
    returned: there the p-norm's gradient stays O(1) and no descent would
    settle.  Else r0, scaled to max-abs 1 so that it is at least 1 / sqrt(n)
    from the span and points near it keep their digits, goes with U (steps
    do not depend on coordinates) to _cone_distance at p in {1, inf}, to
    _descent_smooth at 1 < p < 2 and to _newton_smooth at p > 2, whose
    stopping tests are relative.
    """
    U = _range_basis(A)
    r0 = e_hat - U @ (U.conj().T @ e_hat)
    scale = float(np.abs(r0).max())
    if scale <= 1e-13 * float(np.abs(e_hat).max()):
        return norm(r0, NormSpec(p)), r0
    solve = (_cone_distance if p in (1.0, math.inf)
             else _descent_smooth if p < 2.0 else _newton_smooth)
    value, r = solve(r0 / scale, U, p)
    return value * scale, r * scale


def _route_table(e_hat, A, p) -> float:
    """min_a ||e_hat - A a||_p on columns prepared by _scaled_columns."""
    if p == 2.0:
        return float(np.linalg.norm(e_hat - A @ np.linalg.lstsq(A, e_hat, rcond=None)[0]))
    if p in (1.0, math.inf) and not np.iscomplexobj(A):
        return _lp_distance(e_hat, A, p)[0]
    return _descent(e_hat, A, p)[0]


def distance(e: np.ndarray, Y: SpanBasis, spec: NormSpec = L2) -> float:
    """min over y in span Y of norm(e - y, spec).

    Incremental path: works on the maintained orthonormal basis (the span
    of the generators, much better conditioned than they are).
    """
    if e.shape[0] != Y.dim:
        raise DimensionMismatch(f"point has dimension {e.shape[0]}, span has {Y.dim}")
    if Y.rank == 0:
        return norm(e, spec)
    if spec.is_euclidean:
        return float(np.linalg.norm(_project_residual(Y.ortho, e)))
    return _route_table(*_scaled_columns(e, list(Y.ortho), spec), spec.p)


def distance_if_extended(e: np.ndarray, Y: SpanBasis, v: np.ndarray, spec: NormSpec = L2) -> float:
    """distance(e, extend(Y, v), spec) without keeping the extended span."""
    return distance(e, extend(Y, v), spec)


def distance_batch_oracle(e: np.ndarray, generators, spec: NormSpec = L2) -> float:
    """Ground-truth distance recomputed from the raw generators.

    No incremental state.  p = 2 is a full least-squares solve on them.  Any
    other p runs the route table on _range_basis of the scaled columns: it
    keeps every direction least squares keeps, by extend's rule too, and
    is well conditioned, where descent on raw orbit directions (condition
    ~1e4) can stop short of the minimum.
    """
    generators = list(generators)
    if not generators:
        return norm(e, spec)
    e_hat, A = _scaled_columns(e, generators, spec)
    if spec.p != 2.0:
        A = _range_basis(A)
    return _route_table(e_hat, A, spec.p)


def prefix_distances(e: np.ndarray, generators, spec: NormSpec = L2) -> list:
    """[distance_batch_oracle(e, generators[:k], spec) for k = 1..K] from one QR.

    One unpivoted Householder QR of [A | e_hat] serves every prefix: at
    p = 2 the k-th distance is ||R[k:, K]|| (Golub & Van Loan, 4th ed., 5.3),
    read from numpy's mode="r" QR with no Q formed.  Any other p takes Q
    from numpy's reduced QR.  At real p in {1, inf} _prefix_lp_distances
    solves _lp_distance's model for every Q[:, :k], consecutive prefixes
    sharing one block-diagonal LP; its values agree with one LP per prefix
    to HiGHS's tolerances, not to the bit.  At any other p the route table
    runs on Q[:, :k].  A dropped zero column, K >= N or an |R_ii| that fails
    _independent against 1 (the columns are unit) for M's shape falls back
    to the oracle per prefix: a Householder step on a dependent column
    would add to Q a direction that is not in the span.
    """
    generators = list(generators)
    K = len(generators)
    if K:
        e_hat, A = _scaled_columns(e, generators, spec)
        if A.shape[1] == K < A.shape[0]:
            M = np.column_stack([A, e_hat])
            if spec.p == 2.0:
                R = np.linalg.qr(M, mode="r")
            else:
                Q, R = np.linalg.qr(M)
            if _independent(np.abs(np.diag(R)[:K]).min(), 1.0, M.shape):
                if spec.p == 2.0:
                    return np.hypot.accumulate(np.abs(R[:0:-1, K]))[::-1].tolist()
                if spec.p in (1.0, math.inf) and not np.iscomplexobj(Q):
                    return _prefix_lp_distances(e_hat, Q[:, :K], spec.p)
                return [_route_table(e_hat, Q[:, :k], spec.p) for k in range(1, K + 1)]
    return [distance_batch_oracle(e, generators[:k], spec) for k in range(1, K + 1)]


def _bisect_real(tw, uw, nu, p):
    """argmin over real c of ||tw_j - c uw||_p for every row j at once; p != 2, nu = ||uw||_p > 0.

    Only coordinates with uw_i != 0 depend on c, and there |c uw_i - tw_i| =
    |uw_i| |c - a_i| with a = tw / uw: each profile is convex, so the sign of
    a subgradient at c says on which side its minimizers lie.  They lie
    between the extreme ratios and, c = 0 being competitive, within
    2 ||tw||_1 / nu of 0; the profile is nu-Lipschitz, so 100 halvings leave
    an excess of at most 4 ||tw||_1 2^-100.  The subgradient is
    sum_i uw_i sgn(r_i) |r_i / R|^(p-1) with r = c uw - tw and R = max |r_i|:
    the scale keeps the power in range, and leaves only the largest |r_i| at
    p = inf.
    """
    keep = uw != 0.0
    uk = uw[keep]
    tk = tw[:, keep]
    a = tk / uk
    bound = 2.0 * np.abs(tw).sum(axis=1) / nu
    lo = np.maximum(a.min(axis=1), -bound)
    hi = np.minimum(a.max(axis=1), bound)
    for _ in range(100):
        c = 0.5 * (lo + hi)
        r = c[:, None] * uk - tk
        R = np.maximum(np.abs(r).max(axis=1, keepdims=True), np.finfo(float).tiny)
        g = (uk * np.sign(r) * np.abs(r / R) ** (p - 1.0)).sum(axis=1)
        hi = np.where(g > 0.0, c, hi)
        lo = np.where(g > 0.0, lo, c)
    return 0.5 * (lo + hi)


def best_scalar(t: np.ndarray, u: np.ndarray, spec: NormSpec = L2):
    """Best single-vector approximation: argmin over c of norm(t - c u, spec).

    t is one target (N,) or a stack of targets (J, N).  Returns (c, error):
    Python scalars for one target, length-J arrays for a stack.  Every row
    at once in closed form at p = 2, and at any other p on the real field by
    _bisect_real.  A complex row at p != 2 is a distance to span{u}:
    _descent returns the residual r it attains, and c = <u, t - r> / ||u||^2
    (weights applied) reads its coefficient off.  The error is always
    norm(t - c u, spec), attained at the c returned.
    """
    rows = np.atleast_2d(t)
    if t.ndim > 2 or rows.shape[1:] != u.shape:
        raise DimensionMismatch("target and direction have different dimensions")
    nu = norm(u, spec)
    w = spec.weight_array(u.shape[0])
    uw = u if w is None else w * u
    tw = rows if w is None else w * rows
    uu = float(np.real(np.vdot(uw, uw)))
    if nu == 0.0:
        c = np.zeros(len(rows))
    elif spec.p == 2.0:
        c = (tw * uw.conj()).sum(axis=1) / uu  # one pairwise sum per row: no row depends on J
    elif np.iscomplexobj(t) or np.iscomplexobj(u):
        tw, uw = tw.astype(np.complex128), uw.astype(np.complex128)
        fits = np.array([row - _descent(row, uw[:, None], spec.p)[1] for row in tw])
        c = (fits * uw.conj()).sum(axis=1) / uu
    else:
        c = _bisect_real(tw, uw, nu, spec.p)
    resid = rows - c[:, None] * u
    if spec.p == 2.0:
        err = np.linalg.norm(resid if w is None else w * resid, axis=1)
    else:
        err = np.array([norm(r, spec) for r in resid])
    return (c[0].item(), err[0].item()) if t.ndim == 1 else (c, err)


def distance_convex_descent(e: np.ndarray, generators, spec: NormSpec = L2) -> float:
    """Second route to the same distance, on the raw scaled columns: _descent,
    except at real p in {1, inf}, where the dual LP's maximizer y bounds it
    below by _holder_bound on _range_basis of the columns, equal at the
    optimum.  Any such y is a valid bound, so meeting the LP rules out a
    too-high LP value."""
    generators = list(generators)
    if not generators:
        return norm(e, spec)
    e_hat, A = _scaled_columns(e, generators, spec)
    if spec.p not in (1.0, math.inf) or np.iscomplexobj(A):
        return _descent(e_hat, A, spec.p)[0]
    _, y = _lp_distance(e_hat, A, spec.p)
    return _nonnegative(_holder_bound(e_hat, _range_basis(A), y, spec.p))
