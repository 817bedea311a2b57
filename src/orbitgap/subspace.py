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
    p in {1, inf}, complex   SLSQP on the modulus cone (|r_j| is not linear)
    any other p              L-BFGS on the smooth p-norm
distance() on the unweighted Euclidean norm skips the table: the residual
against the orthonormal basis is already exact.

distance_batch_oracle runs the same table with no incremental state and
serves as ground truth in verification and tests: at p = 2 on the raw
generators, at any other p on a column-pivoted Householder QR basis of them.
prefix_distances gives the oracle's value at every prefix from one unpivoted
QR of [A | e_hat] (||R[k:, K]|| at p = 2, the route table on Q[:, :k] else),
and runs the oracle per prefix instead when a generator is dependent.
distance_convex_descent runs _descent on the raw columns, but at real p in
{1, inf} it gives the Holder bound <e_hat, y> / ||y||_q of the LP's maximizer.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .errors import DimensionMismatch, SolverFailure
from .simplex import solve_standard_lp
from .space import NormSpec, L2, norm

DEPENDENCY_TOL = 1e-10


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


def extend(Y: SpanBasis, v: np.ndarray) -> SpanBasis:
    """SpanBasis of span(Y and v); Y itself when v is dependent, that is
    when its residual is below DEPENDENCY_TOL * ||v||."""
    if v.shape[0] != Y.dim:
        raise DimensionMismatch(f"generator has dimension {v.shape[0]}, span has {Y.dim}")
    nv = float(np.linalg.norm(v))
    r = _project_residual(Y.ortho, v)
    rn = float(np.linalg.norm(r))
    if nv == 0.0 or rn < DEPENDENCY_TOL * nv:
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


def _lstsq_distance(e_hat, A):
    coef, *_ = np.linalg.lstsq(A, e_hat, rcond=None)
    return float(np.linalg.norm(e_hat - A @ coef))


def _lp_distance(e_hat, A, p):
    """Exact min_a ||e_hat - A a||_p, p in {1, inf}, via the dual LP.

    By minimum-norm duality the distance equals max <e_hat, y> over
    A^T y = 0, ||y||_q <= 1 with 1/p + 1/q = 1 (Luenberger, Optimization by
    Vector Space Methods, 1969, 5.8).  With y = y_plus - y_minus >= 0 that
    is k equality rows; q = inf (p = 1) bounds y_plus, y_minus by 1, and
    q = 1 (p = inf) adds the row sum(y_plus + y_minus) + s = 1.  e_hat is
    scaled to max-abs 1 first, as HiGHS's tolerances are absolute.  Returns (value, y).
    """
    n, k = A.shape
    scale = float(np.abs(e_hat).max())
    if scale == 0.0:
        return 0.0, np.zeros(n)
    c = np.concatenate([-e_hat, e_hat]) / scale
    A_eq = np.hstack([A.T, -A.T])
    b_eq = np.zeros(k)
    if p == 1.0:
        z, value = solve_standard_lp(c, A_eq, b_eq, upper=1.0)
    else:
        A_eq = np.block([[A_eq, np.zeros((k, 1))], [np.ones((1, 2 * n + 1))]])
        z, value = solve_standard_lp(np.append(c, 0.0), A_eq, np.append(b_eq, 1.0))
    return max(-value * scale, 0.0), z[:n] - z[n : 2 * n]


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


def _descent_smooth(e_hat, A, p, starts):
    """L-BFGS on the smooth objective ||e_hat - A a||_p, 1 < p < inf.

    Complex columns take real coefficients stacked as [Re a, Im a], and the
    gradient is -[Re(A^H g), Im(A^H g)] with g from _pnorm_and_grad.  The
    objective is convex but loses second differentiability at zero
    residual coordinates when p < 2, so convergence is accepted when the
    solver reports success or when independent starts meet at one value.
    """
    from scipy.optimize import minimize  # loaded only when a descent runs

    k = A.shape[1]
    complex_field = np.iscomplexobj(A)

    def fun(a):
        r = e_hat - A @ (a[:k] + 1j * a[k:] if complex_field else a)
        f, g = _pnorm_and_grad(r, p)
        if not complex_field:
            return f, -A.T @ g
        h = A.conj().T @ g
        return f, -np.concatenate([h.real, h.imag])

    values = []
    any_ok = False
    for a0 in starts:
        res = minimize(
            fun,
            a0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 1000, "ftol": 1e-16, "gtol": 1e-12},
        )
        any_ok = any_ok or bool(res.success)
        values.append(float(fun(res.x)[0]))
    best = min(values)
    agree = len(values) > 1 and max(values) - best <= 1e-8 * max(1.0, best)
    if not (any_ok or agree):
        raise SolverFailure(f"descent (p={p}) missed tolerance within budget")
    return max(best, 0.0)


def _irls_l1_complex(rho0, M, n):
    """Iteratively reweighted least squares for min sum_j |r_j|, complex r.

    Works in the real embedding; the smoothing delta is annealed so each
    step is a well-posed weighted lstsq.  Returns the coefficient point.
    """
    beta, *_ = np.linalg.lstsq(M, rho0, rcond=None)
    rho = rho0 - M @ beta
    m = np.sqrt(rho[:n] ** 2 + rho[n:] ** 2)
    delta = max(float(m.max()) * 0.1, 1e-12)
    for _ in range(160):
        rho = rho0 - M @ beta
        m2 = rho[:n] ** 2 + rho[n:] ** 2
        w = np.sqrt(1.0 / np.sqrt(m2 + delta * delta))
        sw = np.concatenate([w, w])
        beta, *_ = np.linalg.lstsq(sw[:, None] * M, sw * rho0, rcond=None)
        delta = max(delta * 0.6, 1e-13)
    return beta


def _descent_complex(e_hat, A, p, starts):
    """Complex l1 / linf distance via the real embedding, p in {1, inf}.

    The modulus cone |r_j| <= s_j is written with the smooth constraint
    s_j^2 - |r_j|^2 >= 0, s_j >= 0 (the same convex set), and SLSQP
    minimizes the linear objective over it from each start; at p = 1 an
    IRLS point joins the starts to guard against stalls.  Every start and
    every SLSQP result is scored by its true objective, so the reported
    value is the best certified upper bound among them.
    """
    from scipy.optimize import minimize  # loaded only when a descent runs

    # real stacking: residual pairs (Re r_j, Im r_j) over real coefficients
    n, k = A.shape
    M = np.block([[A.real, -A.imag], [A.imag, A.real]])
    rho0 = np.concatenate([e_hat.real, e_hat.imag])

    def moduli(beta):
        rho = rho0 - M @ beta
        return rho, np.sqrt(rho[:n] ** 2 + rho[n:] ** 2)

    def value_of(beta):
        _, m = moduli(beta)
        return float(m.max()) if p == math.inf else float(m.sum())

    nslack = 1 if p == math.inf else n
    dim = 2 * k + nslack

    def split(z):
        return z[: 2 * k], z[2 * k :]

    def cone(z):
        beta, s = split(z)
        rho, m = moduli(beta)
        t = np.full(n, s[0]) if p == math.inf else s
        return rho, m, t

    def cons_fun(z):
        _, m, t = cone(z)
        return t * t - m * m

    def cons_jac(z):
        rho, m, t = cone(z)
        dbeta = 2.0 * (rho[:n, None] * M[:n, :] + rho[n:, None] * M[n:, :])
        ds = np.zeros((n, nslack))
        if p == math.inf:
            ds[:, 0] = 2.0 * t
        else:
            ds[np.arange(n), np.arange(n)] = 2.0 * t
        return np.hstack([dbeta, ds])

    def objective(z):
        return float(np.sum(split(z)[1]))

    def obj_jac(z):
        g = np.zeros(dim)
        g[2 * k :] = 1.0
        return g

    candidates = list(starts)
    if p == 1.0:
        candidates.append(_irls_l1_complex(rho0, M, n))

    bounds = [(None, None)] * (2 * k) + [(0.0, None)] * nslack
    values = [value_of(b) for b in candidates]
    any_ok = False
    for b0 in candidates:
        _, m_at = moduli(b0)
        s0 = np.full(1, m_at.max()) if p == math.inf else m_at
        z0 = np.concatenate([b0, s0 * 1.001 + 1e-9])
        res = minimize(objective, z0, jac=obj_jac, bounds=bounds,
                       constraints=[{"type": "ineq", "fun": cons_fun, "jac": cons_jac}],
                       method="SLSQP", options={"maxiter": 800, "ftol": 1e-14})
        any_ok = any_ok or bool(res.success)
        values.append(value_of(split(res.x)[0]))
    ordered = sorted(values)
    best = ordered[0]
    # SLSQP can stall in the linesearch exactly at the optimum; two routes
    # meeting at the minimum is the convexity-backed acceptance for that
    agree = len(ordered) > 1 and ordered[1] - best <= 1e-7 * max(1.0, best)
    if not (any_ok or agree):
        raise SolverFailure(f"descent (p={p}) did not converge within budget")
    return max(best, 0.0)


def _descent(e_hat, A, p) -> float:
    """min_a ||e_hat - A a||_p at smooth p, or at p in {1, inf} on complex
    columns (real ones take the LP), from the least-squares and zero starts,
    complex coefficients stacked as (Re, Im).  A least-squares residual within
    1e-13 * max(1, max|e_hat|) of zero puts e_hat in the span, whatever p:
    its p-norm is returned, since there the p-norm's gradient stays O(1) and
    the cone constraints degenerate, so no descent would settle."""
    coef, *_ = np.linalg.lstsq(A, e_hat, rcond=None)
    r0 = e_hat - A @ coef
    if float(np.abs(r0).max()) <= 1e-13 * max(1.0, float(np.abs(e_hat).max())):
        return norm(r0, NormSpec(p))
    if np.iscomplexobj(coef):
        coef = np.concatenate([coef.real, coef.imag])
    starts = [coef, np.zeros_like(coef)]
    if p not in (1.0, math.inf):
        return _descent_smooth(e_hat, A, p, starts)
    return _descent_complex(e_hat, A, p, starts)


def _route_table(e_hat, A, p) -> float:
    """min_a ||e_hat - A a||_p on columns prepared by _scaled_columns."""
    if p == 2.0:
        return _lstsq_distance(e_hat, A)
    if p in (1.0, math.inf) and not np.iscomplexobj(A):
        return _lp_distance(e_hat, A, p)[0]
    return _descent(e_hat, A, p)


def _pivoted_basis(A):
    """Pivoted-QR orthonormal basis of A's columns, cut at |R_ii| <= DEPENDENCY_TOL * |R_00|."""
    Q, R, _ = qr(A, mode="economic", pivoting=True)
    r = np.abs(np.diag(R))
    return Q[:, : int(np.count_nonzero(r > DEPENDENCY_TOL * r[:1]))]


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
    other p runs the route table on a column-pivoted Householder QR basis of
    the scaled columns, cut at the numerical rank (|R_ii| > DEPENDENCY_TOL *
    |R_00|): the same span even with dependent generators, independent of
    SpanBasis, and well conditioned, where descent on raw orbit directions
    (condition ~1e4) can stop short of the minimum.
    """
    generators = list(generators)
    if not generators:
        return norm(e, spec)
    e_hat, A = _scaled_columns(e, generators, spec)
    if spec.p != 2.0:
        A = _pivoted_basis(A)
    return _route_table(e_hat, A, spec.p)


def prefix_distances(e: np.ndarray, generators, spec: NormSpec = L2) -> list:
    """[distance_batch_oracle(e, generators[:k], spec) for k = 1..K] from one QR.

    One unpivoted Householder QR of [A | e_hat] serves every prefix: at
    p = 2 the k-th distance is ||R[k:, K]||, and at any other p the route
    table runs on Q[:, :k].  A dropped zero column, K >= N or |R_ii| <=
    DEPENDENCY_TOL (the columns are unit, so this is extend's test) falls
    back to the oracle per prefix: a Householder step on a dependent column
    would add to Q a direction that is not in the span.
    """
    generators = list(generators)
    K = len(generators)
    if K:
        e_hat, A = _scaled_columns(e, generators, spec)
        if A.shape[1] == K < A.shape[0]:
            Q, R = qr(np.column_stack([A, e_hat]), mode="economic")
            if np.abs(np.diag(R)[:K]).min() > DEPENDENCY_TOL:
                if spec.p == 2.0:
                    return np.hypot.accumulate(np.abs(R[:0:-1, K]))[::-1].tolist()
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
    _bisect_real; complex rows at p != 2 take Nelder-Mead one at a time,
    started at the l2 coefficient.
    """
    rows = np.atleast_2d(t)
    if t.ndim > 2 or rows.shape[1:] != u.shape:
        raise DimensionMismatch("target and direction have different dimensions")
    complex_field = np.iscomplexobj(t) or np.iscomplexobj(u)
    if t.ndim == 2 and spec.p != 2.0 and complex_field:
        c, err = zip(*(best_scalar(r, u, spec) for r in t))
        return np.array(c), np.array(err)
    nu = norm(u, spec)
    w = spec.weight_array(u.shape[0])
    uw = u if w is None else w * u
    tw = rows if w is None else w * rows
    if spec.p == 2.0:
        # one pairwise sum per row, so a row's value does not depend on J
        c = (tw * uw.conj()).sum(axis=1)
        c = c / float(np.real(np.vdot(uw, uw))) if nu > 0.0 else np.zeros(len(rows))
        resid = rows - c[:, None] * u
        err = np.linalg.norm(resid if w is None else w * resid, axis=1)
    elif complex_field and nu > 0.0:
        from scipy.optimize import minimize  # loaded only when a descent runs

        c2 = complex(np.vdot(uw, tw[0])) / float(np.real(np.vdot(uw, uw)))

        def f(ab):
            return norm(t - complex(ab[0], ab[1]) * u, spec)

        res = minimize(f, np.array([c2.real, c2.imag]), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 2000})
        c = complex(res.x[0], res.x[1])
        return c, norm(t - c * u, spec)
    else:
        c = _bisect_real(tw, uw, nu, spec.p) if nu > 0.0 else np.zeros(len(rows))
        err = np.array([norm(r, spec) for r in rows - c[:, None] * u])
    return (c[0].item(), err[0].item()) if t.ndim == 1 else (c, err)


def distance_convex_descent(e: np.ndarray, generators, spec: NormSpec = L2) -> float:
    """Second route to the same distance, on the raw scaled columns: _descent,
    except at real p in {1, inf}, where the dual LP's maximizer y, made
    orthogonal to the span by a pivoted QR basis, bounds it below by
    <e_hat, y> / ||y||_q (Holder), equal at the optimum.  Any such y is a
    valid bound, so meeting the LP rules out a too-high LP value."""
    generators = list(generators)
    if not generators:
        return norm(e, spec)
    e_hat, A = _scaled_columns(e, generators, spec)
    if spec.p not in (1.0, math.inf) or np.iscomplexobj(A):
        return _descent(e_hat, A, spec.p)
    _, y = _lp_distance(e_hat, A, spec.p)
    Q = _pivoted_basis(A)
    y_off = y - Q @ (Q.T @ y)
    if np.linalg.norm(y_off) <= DEPENDENCY_TOL * np.linalg.norm(y):
        return 0.0  # y = 0, or in the span by extend's test: what is left is rounding
    q = 1 if spec.p == math.inf else math.inf
    return max(float(e_hat @ y_off) / float(np.linalg.norm(y_off, q)), 0.0)
