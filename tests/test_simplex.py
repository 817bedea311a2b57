import numpy as np
import pytest
from scipy.optimize import linprog

from orbitgap.errors import SolverFailure
from orbitgap.simplex import solve_standard_lp


def test_textbook_lp():
    # max 3a + 5b st a <= 4, 2b <= 12, 3a + 2b <= 18 -> optimum 36 at (2, 6).
    # Standard form with slacks: min -3a - 5b.
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    A = np.array(
        [
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0, 0.0],
            [3.0, 2.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([4.0, 12.0, 18.0])
    x, val = solve_standard_lp(c, A, b)
    assert val == pytest.approx(-36.0, abs=1e-10)
    assert x[0] == pytest.approx(2.0, abs=1e-10)
    assert x[1] == pytest.approx(6.0, abs=1e-10)


def test_equality_lp_needing_phase_one():
    c = np.array([1.0, 1.0, 0.0])
    A = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, -1.0]])
    b = np.array([4.0, 2.0])
    x, val = solve_standard_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert val == pytest.approx(ref.fun, abs=1e-9)
    assert np.allclose(A @ x, b, atol=1e-9)
    assert np.all(x >= -1e-12)


def test_infeasible_raises():
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(SolverFailure, match=r"HiGHS .* shape 2x2"):
        solve_standard_lp(c, A, b)


def test_unbounded_raises():
    # min -a with only a - b = 0: ray a = b -> infinity
    c = np.array([-1.0, 0.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(SolverFailure, match=r"HiGHS .* shape 1x2"):
        solve_standard_lp(c, A, b)


def test_negative_rhs_normalized():
    # a negative right-hand side must be accepted as given
    c = np.array([1.0, 2.0, 0.0])
    A = np.array([[-1.0, -1.0, -1.0]])
    b = np.array([-3.0])
    x, val = solve_standard_lp(c, A, b)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(A @ x, b, atol=1e-10)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example: the solver must terminate at the optimum
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    x, val = solve_standard_lp(c, A, b)
    assert val == pytest.approx(-0.05, abs=1e-10)


def test_redundant_row_dropped():
    # a duplicated constraint makes A rank-deficient; the solver must not fail
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    x, val = solve_standard_lp(c, A, b)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_upper_bound_caps_the_variables():
    # max a + 2b with a = b: unbounded alone, capped at 3 by upper
    c = np.array([-1.0, -2.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    x, val = solve_standard_lp(c, A, b, upper=3.0)
    assert val == pytest.approx(-9.0, abs=1e-10)
    assert np.allclose(x, [3.0, 3.0], atol=1e-10)


def _dual_distance_lps(rng, count):
    """The two LP shapes subspace._lp_distance builds, on seeded instances:
    p = 1 boxes 0 <= z <= 1, p = inf adds the row sum(z) + s = 1."""
    for i in range(count):
        n = int(rng.integers(2, 257))
        k = int(rng.integers(1, min(16, n - 1) + 1))
        if i % 2:  # the builder's scales: entries +-2^-m
            e, A = (rng.choice([-1.0, 1.0], s) * 2.0 ** -rng.integers(0, 76, s) for s in (n, (n, k)))
        else:
            e, A = rng.standard_normal(n), rng.standard_normal((n, k))
        c = np.concatenate([-e, e]) / np.abs(e).max()
        A_eq = np.hstack([A.T, -A.T])
        yield c, A_eq, np.zeros(k), 1.0
        A_eq = np.block([[A_eq, np.zeros((k, 1))], [np.ones((1, 2 * n + 1))]])
        yield np.append(c, 0.0), A_eq, np.append(np.zeros(k), 1.0), None


def test_dual_distance_lps_match_linprog_bit_for_bit():
    # milp hands HiGHS the model linprog built, so (z, value) keep their bytes
    for c, A, b, upper in _dual_distance_lps(np.random.default_rng(24), 40):
        z, value = solve_standard_lp(c, A, b, upper=upper)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0.0, upper), method="highs",
                      options={"presolve": False})
        assert ref.status == 0
        assert np.array_equal(z, ref.x) and value == ref.fun, A.shape


def test_sparse_constraints_keep_the_model():
    # milp reads a dense A through csc_array, so a CSC A is the same model
    from scipy.sparse import csc_array

    for c, A, b, upper in _dual_distance_lps(np.random.default_rng(27), 20):
        z, value = solve_standard_lp(c, A, b, upper=upper)
        z_csc, value_csc = solve_standard_lp(c, csc_array(A), b, upper=upper)
        assert np.array_equal(z, z_csc) and value == value_csc, A.shape


def test_block_diagonal_lps_match_linprog_bit_for_bit():
    # three dual distance LPs of one kind stacked as one block-diagonal model
    from scipy.sparse import block_diag

    lps = list(_dual_distance_lps(np.random.default_rng(28), 12))
    for kind in (lps[0::2], lps[1::2]):  # p = 1 models, then p = inf models
        for i in range(0, len(kind), 3):
            c, As, b, uppers = zip(*kind[i : i + 3])
            c, b, upper = np.concatenate(c), np.concatenate(b), uppers[0]
            A = block_diag(As, format="csc")
            z, value = solve_standard_lp(c, A, b, upper=upper)
            ref = linprog(c, A_eq=A.toarray(), b_eq=b, bounds=(0.0, upper), method="highs",
                          options={"presolve": False})
            assert ref.status == 0
            assert np.array_equal(z, ref.x) and value == ref.fun, A.shape
