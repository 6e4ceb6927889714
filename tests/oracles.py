"""Reference computations the tests check the package against, which share
no code with it, and the test curves built from the package's own types."""

import math

import numpy as np

from pentalab.curves import CurveSpec
from pentalab.jets import AnalyticFn


def zero_curve_spec(d, dtype=np.float64):
    """The curve with u identically zero: polynomial lift components."""
    u = [AnalyticFn.const(0.0) for _ in range(d)]
    return CurveSpec(d, u, 0.0, np.eye(d + 1), dtype=dtype)


def trig_tree(a0, harmonics):
    """a0 + sum_k (c_k cos(kx) + s_k sin(kx)) as the explicit tree of sin
    and cos nodes, added left to right, zero amplitudes skipped: the tree a
    trig-polynomial node stands for."""
    f = AnalyticFn.const(a0)
    x = AnalyticFn.x()
    for k, (ck, sk) in enumerate(harmonics, start=1):
        if ck:
            f = f + AnalyticFn.const(ck) * (AnalyticFn.const(k) * x).cos()
        if sk:
            f = f + AnalyticFn.const(sk) * (AnalyticFn.const(k) * x).sin()
    return f


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


def evaluate(tree, x):
    """The value of a coefficient tree at a real x, in Python floats."""
    op = tree.op
    if op == "const":
        return tree.value
    if op == "x":
        return x
    if op == "trig_poly":  # a0 + amp cos(k x) + amp sin(k x) + ..., in order
        acc = tree.value
        for k, amp, fn in tree.args:
            acc = acc + amp * getattr(math, fn)(k * x)
        return acc
    if op == "pow":
        return evaluate(tree.args[0], x) ** tree.value
    if op in ("sin", "cos"):
        return getattr(math, op)(evaluate(tree.args[0], x))
    a, b = (evaluate(arg, x) for arg in tree.args)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def alpha11_evenly_spaced(p, r_step, d):
    """The first-order coefficient of an evenly spaced family: the mean of
    the base nodes plus (d - 1) r_step / 2."""
    return (sum(float(v) for v in p) + math.comb(d, 2) * r_step) / d


def alpha_dd_hyperplane(sigma_top, d):
    """alpha_{d,d} of a hyperplane configuration whose groups share the top
    symmetric polynomial sigma_top: (-1)^(d+1) sigma_d / d! (Khesin &
    Soloviev, JEMS 18 (2016))."""
    return (-1) ** (d + 1) * sigma_top / math.factorial(d)


def verify_G2_structure(report, spec, x):
    """Residual of an expansion report's first and second corrections
    against theory.

    The first correction must be a pure first derivative; the second must be
    a22*(D^2 + 2 u_{d-1}/(d+1)) - a11^2 u_{d-1}/(d+1) with the report's a11
    and a22 plugged in.  Returns the worst coefficient mismatch.
    """
    if report.kmax < 2:
        raise ValueError("report must carry at least the second order")
    d = report.d
    u_top = evaluate(spec.u[d - 1], x)
    a11 = report.alpha[1, 1]
    a22 = report.alpha[2, 2]
    predicted = np.zeros(d + 1)
    predicted[2] = a22
    predicted[0] = (2.0 * a22 - a11 ** 2) * u_top / (d + 1)
    resid = float(np.max(np.abs(report.alpha[2] - predicted)))
    off_first = np.abs(np.delete(report.alpha[1], 1))
    return max(resid, float(np.max(off_first)))
