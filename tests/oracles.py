"""Reference computations the tests check the package against, which share
no code with it, and the test curves built from the package's own types."""

import numpy as np

from pentalab.curves import CurveSpec
from pentalab.jets import AnalyticFn


def zero_curve_spec(d, dtype=np.float64):
    """The curve with u identically zero: polynomial lift components."""
    u = [AnalyticFn.const(0.0) for _ in range(d)]
    return CurveSpec(d, u, 0.0, np.eye(d + 1), dtype=dtype)


def series_product(a, b):
    """Truncated product of two coefficient arrays (K+1, ...), summed in
    order of j: out[m] = sum_j a[j] b[m-j]."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    for m in range(len(out)):
        for j in range(m + 1):
            out[m] = out[m] + a[j] * b[m - j]
    return out


def cofactor_det(c):
    """Determinant of a matrix series, coefficients (K+1, ..., n, n), by
    cofactor expansion along the first column, every product truncated to
    K+1 terms; a stack of matrices gives a stack of determinants."""
    n = c.shape[-1]
    if n == 1:
        return c[..., 0, 0]
    acc = 0
    for i in range(n):
        minor = cofactor_det(np.delete(c[..., 1:], i, axis=-2))
        acc = acc + (-1) ** i * series_product(c[..., i, 0], minor)
    return acc
