"""Least-squares fits along step ladders."""

import numpy as np

from . import linalg


def fit_poly(eps, vals, degree):
    """Least-squares fit vals ~ sum_k c_k eps^k of every column at once.

    vals has shape (n, *tail) for n rungs.  eps is rescaled by its largest
    value before the Vandermonde V is formed, which keeps geometric ladders
    well conditioned.  Sigma is the usual least-squares one: RSS over the
    residual degrees of freedom times the diagonal of (V^T V)^{-1}.
    Returns (coeffs, sigma, max_residual, condition of V); coeffs and sigma
    have shape (degree + 1, *tail).
    """
    eps = np.asarray(eps)
    vals = np.asarray(vals)
    if eps.size <= degree:
        raise ValueError("need more samples than fitted coefficients")
    s = np.max(np.abs(eps))
    v = np.vander(eps / s, degree + 1, increasing=True)
    flat = vals.reshape(eps.size, -1)
    c = linalg.lstsq_dense(v, flat)
    resid = v @ c - flat
    dof = max(eps.size - (degree + 1), 1)
    noise = np.sum(resid * resid, axis=0) / dof
    inv_diag = np.diagonal(
        linalg.solve_dense(v.T @ v, np.eye(degree + 1, dtype=v.dtype)))
    scale = s ** np.arange(degree + 1)[:, None]
    sigma = np.sqrt(np.abs(inv_diag[:, None] * noise)) / scale
    cond = float(np.linalg.cond(np.asarray(v, dtype=np.float64)))
    shape = (degree + 1,) + vals.shape[1:]
    return ((c / scale).reshape(shape), sigma.reshape(shape),
            float(np.max(np.abs(resid))), cond)


def loglog_slope(eps, vals):
    """Least-squares slope of log |vals| against log eps."""
    x = np.log(np.abs(np.asarray(eps, dtype=np.float64)))
    y = np.log(np.abs(np.asarray(vals, dtype=np.float64)))
    x = x - np.mean(x)
    return float(np.dot(x, y) / np.dot(x, x))
