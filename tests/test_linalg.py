import numpy as np
import pytest
import scipy.linalg

from pentalab.linalg import lu_solver


@pytest.mark.parametrize("n", [1, 3, 6])
def test_lu_solver_equals_scipy_lu_solve(rng, n):
    a = rng.standard_normal((n, n))
    solve = lu_solver(a)
    factors = scipy.linalg.lu_factor(a)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 4))):
        got = solve(b)
        assert got.dtype == np.float64
        assert np.array_equal(got, scipy.linalg.lu_solve(factors, b))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lu_solver_rejects_non_finite_right_side(rng, bad):
    solve = lu_solver(rng.standard_normal((3, 3)))
    b = np.ones(3)
    b[1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve(b)


def test_lu_solver_returns_a_plain_function(rng):
    import types

    assert type(lu_solver(rng.standard_normal((2, 2)))) is types.FunctionType
