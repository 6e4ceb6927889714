"""Dense linear algebra that works in float64 and in extended precision.

numpy/LAPACK reject np.longdouble, so for it solves and determinants share
one hand-written LU with partial pivoting, adequate for the small (<= 8 x 8)
systems this package produces.
The nullspace comes from a float64 SVD at every dtype, which is exact
enough: the basis is only a gauge, since the span normals built on it are
solved to every order in the working dtype.

``stack_solver`` and ``null_bases`` take a stack (..., m, n) of matrices and
treat each on its own, the whole stack in one of numpy's stacked LAPACK
calls; in extended precision ``stack_solver`` loops the hand-written LU
over the stack instead.
"""

import numpy as np

_NULL_RTOL = 1e-10


class SingularMatrixError(Exception):
    pass


def _is_lapack_friendly(a: np.ndarray) -> bool:
    return a.dtype in (np.float32, np.float64, np.complex64, np.complex128)


def _lu_ge(a):
    """(lu, perm, swaps): a[perm] = L U with the unit-lower L stored below
    U, and swaps row exchanges; raises SingularMatrixError on a zero pivot."""
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    perm = np.arange(n)
    swaps = 0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise SingularMatrixError(f"zero pivot in column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            swaps += 1
        m = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = m
        lu[k + 1:, k + 1:] -= m[:, None] * lu[k, k + 1:]
    return lu, perm, swaps


def _lu_solve(factors, b):
    """Solve a @ x = b from the factors _lu_ge(a)."""
    lu, perm, _ = factors
    b = np.asarray(b)
    n = lu.shape[0]
    # every row swap first, then the unit-lower sweep: the stored
    # multipliers moved with their rows, so interleaving the two is wrong
    x = b.reshape(n, -1)[perm].astype(np.result_type(lu.dtype, b.dtype),
                                     copy=False)
    for k in range(n - 1):
        x[k + 1:] -= lu[k + 1:, k, None] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x.reshape(b.shape)


def solve_dense(a, b):
    """Solve a @ x = b for square a; raises SingularMatrixError."""
    a = np.asarray(a)
    b = np.asarray(b)
    if _is_lapack_friendly(a) and _is_lapack_friendly(b):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
    return _lu_solve(_lu_ge(a), b)


def stack_solver(a):
    """Check a square matrix, or a stack (..., n, n) of them, once; returns a
    callable solving a @ x = b for b of shape (..., n, k), or (n,) or (n, k)
    with one matrix.

    Raises SingularMatrixError here, when a is checked, not at a solve.  In
    float64 each solve is one call of numpy's stacked LAPACK solve, which
    factors again: for the few-by-few stacks here that costs less than any
    loop over stored factors.  Other dtypes factor each matrix once with the
    hand-written LU and loop over the stack at a solve.
    """
    a = np.asarray(a)
    if _is_lapack_friendly(a):
        if not np.all(np.isfinite(a)):
            raise SingularMatrixError("array must not contain infs or NaNs")
        # the sign is 0 exactly when LAPACK meets a zero pivot, which is
        # when the solve would fail
        if np.any(np.linalg.slogdet(a)[0] == 0):
            raise SingularMatrixError("exactly singular matrix")
        return lambda b: np.linalg.solve(a, b)
    n = a.shape[-1]
    factors = [_lu_ge(m) for m in a.reshape(-1, n, n)]
    if a.ndim == 2:
        return lambda b: _lu_solve(factors[0], b)

    def solve(b):
        b = np.asarray(b)
        cols = b.reshape((-1,) + b.shape[-2:])
        return np.stack([_lu_solve(f, c) for f, c in zip(factors, cols)]
                        ).reshape(b.shape)

    return solve


def det_dense(a):
    """Determinant of square a: the sign of the row swaps times the pivots."""
    a = np.asarray(a)
    if _is_lapack_friendly(a):
        return np.linalg.det(a)
    try:
        lu, _, swaps = _lu_ge(a)
    except SingularMatrixError:
        return a.dtype.type(0)
    det = a.dtype.type(-1 if swaps % 2 else 1)
    for pivot in np.diagonal(lu):
        det *= pivot
    return det


def null_bases(a):
    """Orthonormal bases (rows) of the nullspaces of a stack (..., m, n) of
    matrices, m <= n, as a stack (..., n - m, n): one float64 (or complex128)
    SVD of the stack, cast back to a's dtype.  Raises SingularMatrixError
    when the rows of any matrix are numerically dependent."""
    a = np.asarray(a)
    m = a.shape[-2]
    work = a
    if not _is_lapack_friendly(a):
        work = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    _, s, vt = np.linalg.svd(work)
    smax = np.maximum(s[..., :1], 1.0)
    if np.any(np.sum(s > _NULL_RTOL * smax, axis=-1) < m):
        raise SingularMatrixError("input rows are numerically dependent")
    # the rows of Vᴴ past the rank are the conjugates of null vectors
    return vt[..., m:, :].conj().astype(a.dtype, copy=False)
