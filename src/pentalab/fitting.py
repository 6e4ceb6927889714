"""Decay orders along real step ladders, where the order itself is the claim."""

import numpy as np


def loglog_slope(eps, vals):
    """Least-squares slope of log |vals| against log eps."""
    x = np.log(np.abs(np.asarray(eps, dtype=np.float64)))
    y = np.log(np.abs(np.asarray(vals, dtype=np.float64)))
    x = x - np.mean(x)
    return float(np.dot(x, y) / np.dot(x, x))
