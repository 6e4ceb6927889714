"""Difference-equation coordinates of a discretized curve and their limits.

The points of a nondegenerate curve sampled at step eps satisfy a
(d+2)-term linear recurrence.  Its coefficients come in two bases: a_tilde
multiplies the points themselves, A multiplies iterated forward differences.
Scaled copies of the A recover the continuous coefficients u_i as the step
shrinks, which is what `limit_diagnostics` reads off a Cauchy contour in
the step.
"""

import math

import numpy as np

from . import linalg
from .curves import _SHIFT_ORDER, _lift_coeffs, _shifted_lifts
from .expansion import _contour, _taylor
from .fitting import decay_order


class DiscreteCoords:
    """Both coordinate systems of the one-step recurrence at (x, eps), or at
    each step of an array eps, with a_tilde and A of shape (*eps.shape,
    d+1)."""

    __slots__ = ("d", "x", "eps", "a_tilde", "A")

    def __init__(self, d, x, eps, a_tilde, A):
        self.d = d
        self.x = x
        self.eps = eps
        self.a_tilde = np.asarray(a_tilde)
        self.A = np.asarray(A)


def tilde_from_A(A):
    """Point-basis coefficients of the recurrence with difference basis A,
    or of each of a stack (..., d+1) of them.

    The leading difference coefficient is one, so the i-th point coefficient
    is an alternating binomial sum over A_i..A_{d+1}, summed in order of k.
    """
    A = np.asarray(A)
    d = A.shape[-1] - 1
    dtype = np.result_type(A.dtype, np.float64)
    full = np.concatenate([A.astype(dtype), np.ones(A.shape[:-1] + (1,), dtype)],
                          axis=-1)
    out = np.empty(A.shape, dtype=dtype)
    for i in range(d + 1):
        out[..., i] = sum((-1) ** (k - i + 1) * math.comb(k, i) * full[..., k]
                          for k in range(i, d + 2))
    return out


def coords_from_samples(pts, x, eps):
    """Solve the one-step recurrence from d+2 consecutive curve samples.

    pts may be a stack (..., d+2, d+1) of windows with one step each in
    eps, (...); all of them take one stacked solve, and each member comes
    out bit for bit as it does alone.  The solve happens in the basis of
    forward differences scaled by 1/eps^i: that keeps the matrix
    O(1)-conditioned however small the step, and its solution is
    A_i/eps^{d+1-i} directly, so the tiny A_i are recovered without
    cancellation on top of what the data already carries.
    """
    eps = np.asarray(eps)
    if np.any(eps == 0):
        raise ValueError("eps must be nonzero")
    pts = np.asarray(pts)
    d = pts.shape[-2] - 2
    if pts.shape[-2:] != (d + 2, d + 1):
        raise ValueError("need d+2 samples of a curve in R^{d+1}")
    step = eps[..., None, None]
    diffs = [pts[..., 0, :]]
    tbl = pts
    for _ in range(d + 1):
        tbl = (tbl[..., 1:, :] - tbl[..., :-1, :]) / step
        diffs.append(tbl[..., 0, :])
    cols = np.stack(diffs[: d + 1], axis=-1)
    scaled = linalg.stack_solver(cols)(-diffs[d + 1][..., None])[..., 0]
    A = scaled * eps[..., None] ** (d + 1 - np.arange(d + 1))
    return DiscreteCoords(d, x, eps, tilde_from_A(A), A)


def discrete_coords(spec, x, eps):
    """Recurrence coordinates of the curve itself at (x, eps), sampled as
    shifts k·eps of the lift jet from the identity frame at x: they are
    SL(d+1)-invariant, and no frame is carried out from x0.
    IntegrationFailure when (d+1)·eps passes the jet's radius guard."""
    lift = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)[0][..., 0]
    pts = _shifted_lifts(lift, np.arange(spec.d + 2) * eps, 0)[0]
    return coords_from_samples(pts, x, eps)


class LimitTable:
    """Taylor coefficients in the step of the recurrence coefficients at x,
    with their decay orders and limits.

    A and a_tilde hold the coefficients of ε^0..ε^{d+1}, one row per order.
    A_i = O(ε^{p_i}) with p_i = d+1-i, except for the top coefficient whose
    expansion starts one order later (p_d = 2): orders[i] is the first of
    rows 0..p_i of A_i above the noise floor (p_i + 1 when none is), and
    limits[i] is row p_i, the zero-step value of A_i/ε^{p_i}.  a0_order is
    the order of a_tilde_0 - (-1)^d read the same way on rows 0..3.
    """

    __slots__ = ("d", "x", "A", "a_tilde", "powers", "orders", "limits",
                 "a0_order")

    def __init__(self, d, x, A, a_tilde, powers, orders, limits, a0_order):
        self.d = d
        self.x = x
        self.A = A
        self.a_tilde = a_tilde
        self.powers = powers
        self.orders = orders
        self.limits = limits
        self.a0_order = a0_order


def limit_diagnostics(spec, x):
    """Small-step expansion of the recurrence coefficients at x, read off
    the ε-contour, each window a shift of one lift jet, based at x with the
    identity frame: the recurrence is SL(d+1)-invariant."""
    d = spec.d
    powers = np.array([d + 1 - i if i < d else 2 for i in range(d + 1)])
    offsets = np.arange(d + 2)
    radius, nodes = _contour(offsets, spec.dtype)
    lifts = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)[0]
    windows = _shifted_lifts(lifts[..., 0], nodes[:, None] * offsets, 0)[0]
    coords = coords_from_samples(windows, x, nodes)
    samples = np.concatenate([coords.A, coords.a_tilde], axis=-1)
    # rows above d + 1 are roundoff amplified by radius^-k
    coeffs = _taylor(samples, radius)[:d + 2]
    A, a_tilde = coeffs[:, :d + 1], coeffs[:, d + 1:]
    orders = np.array([decay_order(A[:p + 1, i]) for i, p in enumerate(powers)])
    tail = a_tilde[:4, 0].copy()
    tail[0] -= (-1.0) ** d
    return LimitTable(d, x, A, a_tilde, powers, orders,
                      A[powers, np.arange(d + 1)], decay_order(tail))
