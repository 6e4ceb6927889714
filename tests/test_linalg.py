import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab import cli, linalg
from pentalab.linalg import SingularMatrixError, checked_svd, det_dense, stack_solver


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
        solve = stack_solver(a.astype(np.longdouble))
        got = solve(b.astype(np.longdouble))
        assert got.dtype == np.longdouble
        assert rel_err(got, want) <= RTOL_EXTENDED
        for j in range(b.shape[1]):
            col = solve(b[:, j].astype(np.longdouble))
            assert rel_err(col, [[w[j]] for w in want]) <= RTOL_EXTENDED
        got_det = det_dense(a.astype(np.longdouble))
        assert got_det.dtype == np.longdouble
        assert rel_err(got_det, [[det]]) <= RTOL_EXTENDED
        # the solver's slogdet comes from the same LU
        sign, logdet = solve.slogdet
        assert logdet.dtype == np.longdouble
        assert rel_err(sign * np.exp(logdet), [[det]]) <= RTOL_EXTENDED
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
            _, s, vh = checked_svd(a[None])
        except SingularMatrixError:
            return "dependent"
        # the SVD runs in float64 at either dtype
        assert s.dtype == vh.dtype == np.float64 and vh.shape == (1, 4, 4)
        return "independent"

    assert verdict(np.float64) == verdict(np.longdouble)


@pytest.mark.parametrize("shape", [(1, 3), (2, 4)])
def test_null_basis_annihilates_complex_input(shape):
    rng = np.random.default_rng(41)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vh = checked_svd(a[None])[2][0]
    # the rows of Vᴴ past the rank are the conjugates of null vectors
    basis = vh[shape[0]:].conj()
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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_stack_solver_rejects_any_bad_matrix_up_front(rng, bad, dtype):
    a = rng.standard_normal((3, 2, 2)).astype(dtype)
    a[1] = [[1.0, 2.0], [2.0, 4.0]] if bad == 0.0 else [[1.0, bad], [0.0, 1.0]]
    with pytest.raises(SingularMatrixError):
        stack_solver(a)
    with pytest.raises(SingularMatrixError):  # and the bad matrix alone
        stack_solver(a[1])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_dense_rejects_a_non_finite_matrix(bad, stack, dtype):
    # np.linalg.solve passes a NaN entry on as a NaN solution; one matrix
    # and a stack are refused alike
    a = np.broadcast_to(np.eye(2, dtype=dtype), stack + (2, 2)).copy()
    a.reshape(-1, 2, 2)[-1, 0, 1] = bad
    with pytest.raises(SingularMatrixError, match="infs or NaNs"):
        stack_solver(a)


# -- the LAPACK gufuncs, called without numpy's wrapper ------------------------


def _draw(rng, shape, dtype):
    z = rng.standard_normal(shape)
    if dtype == np.complex128:
        z = z + 1j * rng.standard_normal(shape)
    return z.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("case", ["vector", "matrix", "stack", "broadcast"])
def test_gufunc_solver_equals_numpy(rng, dtype, case):
    # stack_solver calls the gufuncs np.linalg.solve and np.linalg.slogdet
    # run; the bits must be theirs
    n = 4
    if case == "vector":
        a, b = _draw(rng, (n, n), dtype), _draw(rng, (n,), dtype)
    elif case == "matrix":
        a, b = _draw(rng, (n, n), dtype), _draw(rng, (n, 3), dtype)
    elif case == "stack":
        a, b = _draw(rng, (2, 3, n, n), dtype), _draw(rng, (2, 3, n, 2), dtype)
    else:  # one right-hand side, broadcast over the stack as a view
        a = _draw(rng, (5, n, n), dtype)
        b = np.broadcast_to(_draw(rng, (n, 2), dtype), (5, n, 2))
    solve = stack_solver(a)
    x = solve(b)
    want = np.linalg.solve(a, b)
    assert x.dtype == want.dtype and np.array_equal(x, want)
    out = np.empty_like(want)
    assert solve(b, out=out) is out and np.array_equal(out, want)
    sign, logdet = solve.slogdet
    want_sign, want_logdet = np.linalg.slogdet(a)
    assert type(sign) is type(want_sign) and np.array_equal(sign, want_sign)
    assert np.array_equal(logdet, want_logdet)


def test_gufunc_solver_takes_a_complex_right_hand_side(rng):
    a = _draw(rng, (3, 3, 3), np.float64)
    b = _draw(rng, (3, 3, 2), np.complex128)
    x = stack_solver(a)(b)
    assert x.dtype == np.complex128
    assert np.array_equal(x, np.linalg.solve(a, b))


def test_gufunc_solver_warns_of_nothing_numpy_keeps_quiet(rng):
    # numpy's wrapper runs the gufunc with overflow ignored; the gufunc
    # clears the floating-point status itself when it succeeds, so the
    # direct call needs no errstate to stay as quiet
    a = np.diag([1e-300, 1.0])
    b = np.array([[1e308, 1.0], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = stack_solver(a)(b)
    assert np.array_equal(x, np.linalg.solve(a, b))
    assert np.isinf(x[0, 0])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("bad, message", [
    (0.0, "exactly singular matrix"), (np.nan, "infs or NaNs"),
    (np.inf, "infs or NaNs")])
def test_gufunc_solver_refuses_a_bad_matrix_at_check_time(rng, dtype, bad,
                                                          message):
    a = _draw(rng, (3, 2, 2), dtype)
    a[1] = [[1.0, 2.0], [2.0, 4.0]] if bad == 0.0 else [[1.0, bad], [0.0, 1.0]]
    with pytest.raises(SingularMatrixError, match=message):
        stack_solver(a)


def looped_lu_solve(a, b):
    """(x, det) of one matrix by the per-matrix LU the stacked one replaced:
    the reference its members must equal bit for bit."""
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    perm = np.arange(n)
    det = lu.dtype.type(1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            det = -det
        m = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = m
        lu[k + 1:, k + 1:] -= m[:, None] * lu[k, k + 1:]
    for pivot in np.diagonal(lu):
        det *= pivot
    x = b[perm].astype(np.result_type(lu.dtype, b.dtype))
    for k in range(n - 1):
        x[k + 1:] -= lu[k + 1:, k, None] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x, det


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_stacked_lu_equals_the_looped_lu_bit_for_bit(rng, dtype):
    def draw(shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype == np.clongdouble else z

    for n in range(1, 9):
        a = draw((3, 2, n, n)).astype(dtype)
        a[0, 1] = rng.integers(-2, 3, (n, n)) + n * np.eye(n)  # pivot ties
        b = draw((3, 2, n, 2)).astype(dtype)
        x, dets = stack_solver(a)(b), det_dense(a)
        for idx in np.ndindex(3, 2):
            want, det = looped_lu_solve(a[idx], b[idx])
            assert np.array_equal(x[idx], want)
            assert dets[idx] == det


def dominant_systems(rng, n):
    """A (3, 4) stack of integer n x n matrices, each strictly diagonally
    dominant by columns, so partial pivoting never exchanges rows, with
    the rows of members (i, j), i + j odd, reversed, so that it must."""
    off = rng.integers(-3, 4, (3, 4, n, n)) * (1 - np.eye(n, dtype=int))
    sign = rng.choice([-1, 1], (3, 4, n))
    a = off + (np.abs(off).sum(axis=-2) + 1 + rng.integers(0, 3, (3, 4, n))
               )[..., None, :] * sign[..., None, :] * np.eye(n, dtype=int)
    odd = np.add.outer(np.arange(3), np.arange(4)) % 2 == 1
    a[odd] = a[odd][:, ::-1]
    return a, odd


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_lu_pivots_each_member_on_its_own(rng, n):
    a, odd = dominant_systems(rng, n)
    b = rng.integers(-5, 6, (3, 4, n, 2))
    ext = a.astype(np.longdouble)
    # the premise: the reversed members exchange rows, the others do not
    swaps = linalg._lu_ge(ext)[2].reshape(3, 4)
    assert np.all((swaps > 0) == odd)
    solve = stack_solver(ext)
    x_mat = solve(b.astype(np.longdouble))
    x_vec = solve(b[..., :1].astype(np.longdouble))
    dets = det_dense(ext)
    assert dets.shape == (3, 4) and dets.dtype == np.longdouble
    for idx in np.ndindex(3, 4):
        want, det = rational_solve(a[idx], b[idx])
        assert rel_err(x_mat[idx], want) <= RTOL_EXTENDED
        assert rel_err(x_vec[idx], [w[:1] for w in want]) <= RTOL_EXTENDED
        one = stack_solver(ext[idx])
        assert np.array_equal(x_mat[idx], one(b[idx].astype(np.longdouble)))
        assert np.array_equal(x_vec[idx][:, 0],
                              one(b[idx][:, 0].astype(np.longdouble)))
        got_det = det_dense(ext[idx])
        assert got_det == dets[idx]
        assert rel_err(got_det, [[det]]) <= RTOL_EXTENDED


def test_extended_expand_factors_each_stack_once(monkeypatch, capsys):
    # one LU pass per stack_solver call, however many matrices it stacks
    counts, sizes = [], []
    lu_ge, solver = linalg._lu_ge, linalg.stack_solver

    def counting_lu(a):
        counts[-1] += 1
        return lu_ge(a)

    def counting_solver(a):
        counts.append(0)
        sizes.append(np.asarray(a[..., 0, 0]).size)
        return solver(a)

    monkeypatch.setattr(linalg, "_lu_ge", counting_lu)
    monkeypatch.setattr(linalg, "stack_solver", counting_solver)
    assert cli.main(["expand", "--chi", "short-diagonal", "--d", "2",
                     "--kmax", "2", "--precision", "extended"]) == 0
    capsys.readouterr()
    assert counts and set(counts) == {1}
    assert max(sizes) > 1


def test_null_bases_of_a_stack_match_each_matrix(rng):
    a = rng.standard_normal((5, 2, 4))
    u, s, vh = checked_svd(a)
    assert (u.shape, s.shape, vh.shape) == ((5, 2, 2), (5, 2), (5, 4, 4))
    for i, m in enumerate(a):
        for stacked, alone in zip((u, s, vh), checked_svd(m[None])):
            assert np.array_equal(stacked[i], alone[0])
        assert np.max(np.abs(m @ vh[i, 2:].T)) <= 1e-14
    a[3, 1] = 2 * a[3, 0]
    with pytest.raises(SingularMatrixError, match="numerically dependent"):
        checked_svd(a)
