"""Dense linear algebra that works in float64 and in extended precision.

numpy/LAPACK reject np.longdouble, so for it solves and determinants share
one hand-written LU with partial pivoting, adequate for the small (<= 8 x 8)
systems this package produces.  It factors a whole stack (..., n, n) in one
pass of n column steps, each member pivoting on its own, and a solve is n
forward and n back steps over the stack; every member's result is bit for
bit the one a stack of that member alone gives.  A single matrix is a stack
of one.
The nullspace comes from a float64 SVD at every dtype, which is exact
enough: the basis is only a gauge, since the span normals built on it are
solved to every order in the working dtype.  ``checked_svd`` gives that SVD
whole, after the one rank check: the rows of Vᴴ past the rank span the
conjugated nullspace, and a float64 caller can also solve with its U, s
and Vᴴ.

``stack_solver``, ``det_dense`` and ``checked_svd`` take a
stack (..., m, n) of matrices and treat each on its own, in float64 and
complex128 the whole stack in one of numpy's stacked LAPACK calls, in
extended precision in one pass of the hand-written LU.  The solver
``stack_solver`` returns carries each matrix's sign and log|det| from that
same call or pass.

In float64 and complex128 ``stack_solver`` calls the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` directly: ``slogdet`` for the check, and
``solve`` or ``solve1`` for each solve, the signature picked from the
dtypes of the matrix and the right-hand side.  They are the gufuncs
``np.linalg.slogdet`` and ``np.linalg.solve`` run, so the results are the
same bits (``tests/test_linalg.py::test_gufunc_solver_equals_numpy``),
without the wrapper's dtype checks and errstate, which cost more than the
gufunc itself on the few-by-few systems here.  No errstate is needed: a solve's
gufunc clears the floating-point status when it succeeds and raises
invalid only on a singular matrix, which the check has refused already.
Only this module imports the private module (``tests/test_package.py``).
"""

import functools

import numpy as np
from numpy.linalg import _umath_linalg

_NULL_RTOL = 1e-10


class SingularMatrixError(Exception):
    pass


def _is_lapack_friendly(a: np.ndarray) -> bool:
    return a.dtype in (np.float64, np.complex128)


def _lu_ge(a):
    """(lu, perm, swaps, singular) of a stack (..., n, n), flattened to B
    matrices: lu[b] is a[b][perm[b]] = L U with the unit-lower L stored below
    U, swaps[b] its row exchanges and singular[b] whether a column met a zero
    pivot.  One pass of n column steps over the whole stack; a singular
    member goes on with unit pivots so that the others finish undisturbed."""
    n = a.shape[-1]
    lu = a.reshape(-1, n, n).copy()
    members = np.arange(lu.shape[0])
    perm = np.broadcast_to(np.arange(n), lu.shape[:2]).copy()
    swaps = np.zeros(lu.shape[0], dtype=np.int64)
    singular = np.zeros(lu.shape[0], dtype=bool)
    for k in range(n):
        p = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        moved = p != k
        if moved.any():
            # exchange rows k and p of every member in one gather
            rows = np.broadcast_to(np.arange(n), perm.shape).copy()
            rows[:, k] = p
            rows[members, p] = k
            lu = lu[members[:, None], rows]
            perm = perm[members[:, None], rows]
            swaps += moved
        pivot = lu[:, k, k]
        zero = pivot == 0
        if zero.any():
            singular |= zero
            pivot = np.where(zero, 1, pivot)
        m = lu[:, k + 1:, k] / pivot[:, None]
        lu[:, k + 1:, k] = m
        lu[:, k + 1:, k + 1:] -= m[:, :, None] * lu[:, k, None, k + 1:]
    return lu, perm, swaps, singular


def _lu_solve(factors, b, out=None):
    """Solve a @ x = b for each of the B matrices _lu_ge factored, b holding
    one block of n rows per matrix, in order; x has b's shape, and goes
    into out when out is given."""
    lu, perm, _, _ = factors
    b = np.asarray(b)
    count, n = perm.shape
    # every row swap first, then the unit-lower sweep: the stored
    # multipliers moved with their rows, so interleaving the two is wrong
    x = b.reshape(count, n, -1)[np.arange(count)[:, None], perm].astype(
        np.result_type(lu.dtype, b.dtype), copy=False)
    for k in range(n - 1):
        x[:, k + 1:] -= lu[:, k + 1:, k, None] * x[:, k, None]
    for k in range(n - 1, -1, -1):
        # the dot sum in index order, subtracted once: one row times x
        x[:, k] -= (lu[:, k, None, k + 1:] @ x[:, k + 1:])[:, 0]
        x[:, k] /= lu[:, k, k, None]
    if out is None:
        return x.reshape(b.shape)
    out[...] = x.reshape(b.shape)
    return out


def _lapack_solve(a, b, out=None):
    """np.linalg.solve(a, b) of a checked float64 or complex128 stack a, by
    the gufunc it runs, b of shape (n,) or (..., n, k); into out when out
    is given.  The signature is complex when a or b is, as numpy's wrapper
    makes it."""
    gufunc = _umath_linalg.solve1 if np.ndim(b) == 1 else _umath_linalg.solve
    complex_ = a.dtype == np.complex128 or np.iscomplexobj(b)
    return gufunc(a, b, signature="DD->D" if complex_ else "dd->d", out=out)


def stack_solver(a):
    """Check a square matrix, or a stack (..., n, n) of them, once; returns a
    callable solve(b, out=None) solving a @ x = b for b of shape
    (..., n, k), or (n,) or (n, k) with one matrix, into out when given,
    whose ``slogdet`` holds the sign and log|det| of each matrix, each of
    shape (...).

    Raises SingularMatrixError here, when a is checked, not at a solve.  In
    float64 and complex128 the check is LAPACK's stacked slogdet, and each
    solve is one call of LAPACK's stacked solve, which factors again: for
    the few-by-few stacks here that costs less than any loop over stored
    factors.  Both are numpy's own gufuncs, called without numpy's wrapper
    (see the module docstring).  Other dtypes factor the whole stack once
    with the hand-written LU, whose pivots and row swaps give the slogdet,
    and each solve is one forward and one back sweep over the stack.
    """
    a = np.asarray(a)
    # LAPACK's solve would pass a non-finite entry on as NaN
    if not np.all(np.isfinite(a)):
        raise SingularMatrixError("array must not contain infs or NaNs")
    if _is_lapack_friendly(a):
        slogdet = _umath_linalg.slogdet(
            a, signature="D->Dd" if a.dtype == np.complex128 else "d->dd")
        # the sign is 0 exactly when LAPACK meets a zero pivot, which is
        # when the solve would fail
        if np.any(slogdet[0] == 0):
            raise SingularMatrixError("exactly singular matrix")
        solve = functools.partial(_lapack_solve, a)
    else:
        factors = _lu_ge(a)
        lu, _, swaps, singular = factors
        if singular.any():
            raise SingularMatrixError("exactly singular matrix")
        pivots = np.diagonal(lu, axis1=-2, axis2=-1)
        sign = np.where(swaps % 2 == 1, -1, 1) * np.prod(pivots / np.abs(pivots), axis=-1)
        logdet = np.sum(np.log(np.abs(pivots)), axis=-1)
        slogdet = (sign.reshape(a.shape[:-2])[()], logdet.reshape(a.shape[:-2])[()])
        solve = functools.partial(_lu_solve, factors)
    # a partial, not a closure: it takes attributes, and a profiler that
    # wraps the functions a call returns (perfbench's tracer) leaves it be
    solve.slogdet = slogdet
    return solve


def det_dense(a):
    """Determinant of square a, or of each matrix of a stack (..., n, n): the
    sign of the row swaps times the pivots, so 0 for an exactly singular
    matrix; a non-finite entry is not rejected, as np.linalg.det does not."""
    a = np.asarray(a)
    if _is_lapack_friendly(a):
        return np.linalg.det(a)
    lu, _, swaps, singular = _lu_ge(a)
    det = np.where(swaps % 2 == 1, -1, 1).astype(a.dtype)
    for k in range(lu.shape[-1]):
        det *= lu[:, k, k]
    det[singular] = 0
    return det.reshape(a.shape[:-2])[()]


def checked_svd(a):
    """(u, s, vh), the full SVD of a stack (..., m, n) of matrices, m <= n,
    in float64 (or complex128) at any dtype of a: one stacked LAPACK call.
    Raises SingularMatrixError when the rows of any matrix are numerically
    dependent, naming the smallest s_m / max(s_1, 1) over the stack and the
    threshold."""
    a = np.asarray(a)
    m = a.shape[-2]
    work = a
    if not _is_lapack_friendly(a):
        work = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    u, s, vh = np.linalg.svd(work)
    smax = np.maximum(s[..., :1], 1.0)
    if np.any(np.sum(s > _NULL_RTOL * smax, axis=-1) < m):
        worst = np.min(s[..., m - 1] / smax[..., 0])
        raise SingularMatrixError(
            "input rows are numerically dependent: the worst "
            f"s_m/max(s_1, 1) is {worst:.2g}, not above {_NULL_RTOL:g}")
    return u, s, vh

