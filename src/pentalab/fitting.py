"""Least-squares fits along step ladders."""

import numpy as np

from . import linalg


def fit_poly(eps, vals, degree):
    """Least-squares fit vals ~ sum_k c_k eps^k of every column at once.

    vals has shape (n, *tail) for n rungs.  eps is rescaled by its largest
    value before the Vandermonde matrix is formed, which keeps geometric
    ladders well conditioned.  Returns the coefficients, (degree + 1, *tail).
    """
    eps = np.asarray(eps)
    vals = np.asarray(vals)
    if eps.size <= degree:
        raise ValueError("need more samples than fitted coefficients")
    s = np.max(np.abs(eps))
    v = np.vander(eps / s, degree + 1, increasing=True)
    c = linalg.lstsq_dense(v, vals.reshape(eps.size, -1))
    scale = s ** np.arange(degree + 1)[:, None]
    return (c / scale).reshape((degree + 1,) + vals.shape[1:])


def loglog_slope(eps, vals):
    """Least-squares slope of log |vals| against log eps."""
    x = np.log(np.abs(np.asarray(eps, dtype=np.float64)))
    y = np.log(np.abs(np.asarray(vals, dtype=np.float64)))
    x = x - np.mean(x)
    return float(np.dot(x, y) / np.dot(x, x))
