"""Least-squares fits along step ladders."""

import numpy as np

from . import linalg


def fit_poly_coeffs(eps, vals, degree):
    """Coefficients c_k of vals ~ sum c_k eps^k by least squares.

    The variable is rescaled by its largest value before the Vandermonde
    matrix is formed, which keeps the fit well conditioned on geometric
    ladders; the coefficients are scaled back afterwards.
    """
    eps = np.asarray(eps)
    vals = np.asarray(vals)
    if eps.size <= degree:
        raise ValueError("need more samples than fitted coefficients")
    s = np.max(np.abs(eps))
    v = np.vander(eps / s, degree + 1, increasing=True)
    c = linalg.lstsq_dense(v, vals)
    return c / s ** np.arange(degree + 1)


def fit_poly_full(eps, vals, degree):
    """Polynomial fit with residual, per-coefficient sigma, and condition.

    Same scaled Vandermonde as fit_poly_coeffs.  Sigma comes from the usual
    least-squares covariance (RSS over the residual degrees of freedom times
    the diagonal of (V^T V)^{-1}), mapped back through the eps scaling.
    Returns (coeffs, sigma, max_residual, condition).
    """
    eps = np.asarray(eps)
    vals = np.asarray(vals)
    if eps.size <= degree:
        raise ValueError("need more samples than fit coefficients")
    s = np.max(np.abs(eps))
    v = np.vander(eps / s, degree + 1, increasing=True)
    c = linalg.lstsq_dense(v, vals)
    resid = v @ c - vals
    max_resid = float(np.max(np.abs(resid)))
    dof = eps.size - (degree + 1)
    rss = float(resid @ resid)
    noise = rss / dof if dof > 0 else rss
    vtv = v.T @ v
    eye = np.eye(degree + 1, dtype=v.dtype)
    inv_diag = np.array(
        [linalg.solve_dense(vtv, eye[k])[k] for k in range(degree + 1)])
    powers = np.arange(degree + 1)
    sigma = np.sqrt(np.abs(noise * inv_diag)) / s ** powers
    cond = float(np.linalg.cond(np.asarray(v, dtype=np.float64)))
    return c / s ** powers, sigma, max_resid, cond


def loglog_slope(eps, vals):
    """Least-squares slope of log |vals| against log eps."""
    x = np.log(np.abs(np.asarray(eps, dtype=np.float64)))
    y = np.log(np.abs(np.asarray(vals, dtype=np.float64)))
    x = x - np.mean(x)
    return float(np.dot(x, y) / np.dot(x, x))
