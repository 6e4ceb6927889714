from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab.linalg import (SingularMatrixError, det_dense, null_bases, solve_dense,
                             stack_solver)


# -- the extended path against exact rational answers ---------------------------

RTOL_EXTENDED = 1e-17  # a float64 answer misses this on non-dyadic solutions


def rational_solve(a, b):
    """(x, det) of integer a @ x = b by Gauss-Jordan over the rationals."""
    n = len(a)
    m = [[Fraction(int(v)) for v in row] + [Fraction(int(v)) for v in rhs]
         for row, rhs in zip(a, b)]
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k] != 0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k] / m[k][k]
                m[i] = [u - f * v for u, v in zip(m[i], m[k])]
    return [[v / m[i][i] for v in m[i][n:]] for i in range(n)], det


def rel_err(got, want):
    """Largest |got - want| over the largest |want|, exactly."""
    got = np.atleast_2d(np.asarray(got).reshape(len(want), -1))
    err = max(abs(Fraction(*g.as_integer_ratio()) - w)
              for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
    return float(err / max(abs(w) for wrow in want for w in wrow))


def integer_systems(rng, count=12):
    for t in range(count):
        n = 2 + t % 4
        a = rng.integers(-3, 4, (n, n)) + 9 * np.eye(n, dtype=int)
        yield a, rng.integers(-5, 6, (n, 2))


def test_extended_solve_and_det_match_rationals(rng):
    worst64 = 0.0
    for a, b in integer_systems(rng):
        want, det = rational_solve(a, b)
        got = solve_dense(a.astype(np.longdouble), b.astype(np.longdouble))
        assert got.dtype == np.longdouble
        assert rel_err(got, want) <= RTOL_EXTENDED
        for j in range(b.shape[1]):
            col = solve_dense(a.astype(np.longdouble),
                              b[:, j].astype(np.longdouble))
            assert rel_err(col, [[w[j]] for w in want]) <= RTOL_EXTENDED
        got_det = det_dense(a.astype(np.longdouble))
        assert got_det.dtype == np.longdouble
        assert rel_err(got_det, [[det]]) <= RTOL_EXTENDED
        worst64 = max(worst64, rel_err(np.linalg.solve(a, b), want))
    assert worst64 > RTOL_EXTENDED  # the tolerance tells the precisions apart


def test_extended_singular_matrix_fails_at_factorization():
    a = np.array([[1, 2], [2, 4]], dtype=np.longdouble)
    with pytest.raises(SingularMatrixError):
        stack_solver(a)
    assert det_dense(a) == 0


# -- one rank rule for the orthogonal complement --------------------------------


@pytest.mark.parametrize("gap", [1e-12, 3e-10, 5e-10, 8e-10, 1e-9, 1e-6])
def test_null_basis_rank_verdict_is_the_same_at_both_dtypes(gap):
    def verdict(dtype):
        a = np.array([[1, 2, 3, 4], [1, 2, 3, 4]], dtype=dtype)
        a[1, 3] += dtype(gap)
        try:
            basis, = null_bases(a[None])
        except SingularMatrixError:
            return "dependent"
        assert basis.dtype == dtype and basis.shape == (2, 4)
        return "independent"

    assert verdict(np.float64) == verdict(np.longdouble)


@pytest.mark.parametrize("shape", [(1, 3), (2, 4)])
def test_null_basis_annihilates_complex_input(shape):
    rng = np.random.default_rng(41)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    basis, = null_bases(a[None])
    assert basis.shape == (shape[1] - shape[0], shape[1])
    assert np.max(np.abs(a @ basis.T)) <= 1e-14


# -- stacks of matrices ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stack_solver_solves_each_matrix(rng, dtype):
    a = (rng.standard_normal((2, 3, 4, 4)) + 4 * np.eye(4)).astype(dtype)
    b = rng.standard_normal((2, 3, 4, 2)).astype(dtype)
    x = stack_solver(a)(b)
    assert x.shape == b.shape and x.dtype == dtype
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(x[i, j], stack_solver(a[i, j])(b[i, j]))
        assert_allclose(np.asarray(a[i, j] @ x[i, j], dtype=float),
                        np.asarray(b[i, j], dtype=float), atol=1e-13)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_stack_solver_rejects_any_bad_matrix_up_front(rng, bad):
    a = rng.standard_normal((3, 2, 2))
    a[1] = [[1.0, 2.0], [2.0, 4.0]] if bad == 0.0 else [[1.0, bad], [0.0, 1.0]]
    with pytest.raises(SingularMatrixError):
        stack_solver(a)


def test_null_bases_of_a_stack_match_each_matrix(rng):
    a = rng.standard_normal((5, 2, 4))
    bases = null_bases(a)
    assert bases.shape == (5, 2, 4)
    for m, basis in zip(a, bases):
        assert np.array_equal(basis, null_bases(m[None])[0])
        assert np.max(np.abs(m @ basis.T)) <= 1e-14
    a[3, 1] = 2 * a[3, 0]
    with pytest.raises(SingularMatrixError, match="numerically dependent"):
        null_bases(a)
