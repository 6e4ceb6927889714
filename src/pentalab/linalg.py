"""Dense linear algebra that works in float64 and in extended precision.

numpy/LAPACK routines reject np.longdouble, so the deep-ladder precision mode
needs hand-rolled Gaussian elimination, least squares and nullspace helpers.
For float64 inputs these wrappers defer to numpy/scipy, which are faster and
battle-tested; the longdouble branches use partial or full pivoting and are
adequate for the small (<= 8 x 8) systems this package produces.
"""

import warnings

import numpy as np
import scipy.linalg

_NULL_RTOL = 1e-10


class SingularMatrixError(Exception):
    pass


def _is_lapack_friendly(a: np.ndarray) -> bool:
    return a.dtype in (np.float32, np.float64, np.complex64, np.complex128)


def solve_dense(a, b):
    """Solve a @ x = b for square a; raises SingularMatrixError."""
    a = np.asarray(a)
    b = np.asarray(b)
    if _is_lapack_friendly(a) and _is_lapack_friendly(b):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
    return _solve_ge(a, b)


def lu_solver(a):
    """Factor square a once; returns a callable solving a @ x = b."""
    a = np.asarray(a)
    if _is_lapack_friendly(a):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(a)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularMatrixError(str(exc)) from exc
        if not np.all(np.isfinite(lu)):
            raise SingularMatrixError("non-finite factorization")
        if np.min(np.abs(np.diag(lu))) == 0.0:
            raise SingularMatrixError("exactly singular matrix")

        def solve(b):
            # what scipy.linalg.lu_solve does for one b, without its
            # batching wrapper; getrs itself rejects a b of the wrong length
            b = np.asarray_chkfinite(b)
            getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu, b))
            x, info = getrs(lu, piv, b)
            if info:
                raise ValueError(f"illegal value in argument {-info} of getrs")
            return x

        return solve
    a = a.copy()
    return lambda b: _solve_ge(a, np.asarray(b))


def _solve_ge(a, b):
    """Gaussian elimination with partial pivoting, any real dtype."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    b1d = b.ndim == 1
    x = np.array(b, copy=True).reshape(n, -1).astype(a.dtype, copy=False)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            raise SingularMatrixError(f"zero pivot in column {k}")
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        for i in range(k + 1, n):
            m = a[i, k] / a[k, k]
            if m != 0:
                a[i, k:] -= m * a[k, k:]
                x[i] -= m * x[k]
    for k in range(n - 1, -1, -1):
        x[k] -= a[k, k + 1:] @ x[k + 1:]
        x[k] /= a[k, k]
    return x[:, 0] if b1d else x


def det_dense(a):
    a = np.asarray(a)
    if _is_lapack_friendly(a):
        return np.linalg.det(a)
    a = np.array(a, copy=True)
    n = a.shape[0]
    det = a.dtype.type(1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            return a.dtype.type(0)
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= a[k, k]
        for i in range(k + 1, n):
            a[i, k + 1:] -= (a[i, k] / a[k, k]) * a[k, k + 1:]
            a[i, k] = 0
    return det


def lstsq_dense(a, b):
    """Least-squares solution of a @ x = b (a tall or square, full column rank)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if _is_lapack_friendly(a) and _is_lapack_friendly(b):
        return np.linalg.lstsq(a, b, rcond=None)[0]
    # Normal equations are fine here: every caller scales its basis first.
    return _solve_ge(a.T @ a, a.T @ b)


def null_basis(a):
    """Orthonormal basis (rows) of the nullspace of a (m x n, m <= n)."""
    a = np.asarray(a)
    m, n = a.shape
    if _is_lapack_friendly(a):
        u, s, vt = np.linalg.svd(a)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > _NULL_RTOL * max(smax, 1.0)))
        if rank < m:
            raise SingularMatrixError("input rows are numerically dependent")
        return vt[rank:]
    return _null_basis_ge(a)


def _null_basis_ge(a):
    a = np.array(a, copy=True)
    m, n = a.shape
    scale = max(np.max(np.abs(a)), a.dtype.type(1))
    piv_cols = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if np.abs(a[p, col]) <= _NULL_RTOL * scale:
            continue
        if p != row:
            a[[row, p]] = a[[p, row]]
        a[row] /= a[row, col]
        for i in range(m):
            if i != row and a[i, col] != 0:
                a[i] -= a[i, col] * a[row]
        piv_cols.append(col)
        row += 1
    if row < m:
        raise SingularMatrixError("input rows are numerically dependent")
    free_cols = [c for c in range(n) if c not in piv_cols]
    basis = np.zeros((len(free_cols), n), dtype=a.dtype)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for r, pc in enumerate(piv_cols):
            basis[k, pc] = -a[r, fc]
    # modified Gram-Schmidt for a well-conditioned basis
    for i in range(len(basis)):
        for j in range(i):
            basis[i] -= (basis[i] @ basis[j]) * basis[j]
        nrm = np.sqrt(basis[i] @ basis[i])
        basis[i] /= nrm
    return basis
