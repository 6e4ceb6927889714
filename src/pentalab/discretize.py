"""Difference-equation coordinates of a discretized curve and their limits.

The points of a nondegenerate curve sampled at step eps satisfy a
(d+2)-term linear recurrence.  Its coefficients come in two bases: a_tilde
multiplies the points themselves, A multiplies iterated forward differences.
Scaled copies of the A recover the continuous coefficients u_i as the step
shrinks, which is what `limit_diagnostics` measures.
"""

import math

import numpy as np

from . import linalg
from .curves import _SHIFT_ORDER, _lift_coeffs, _shifted_lifts
from .expansion import EpsLadder, _contour, _taylor
from .fitting import loglog_slope

_DEFINED_FLOOR = 1e-10
# steps 0.2 * 0.8^k, k < 12: slopes over the last 8
_LADDER = EpsLadder(0.2, 0.8, 12)
_FIT_WINDOW = 8


class DiscreteCoords:
    """Both coordinate systems of the one-step recurrence at (x, eps)."""

    __slots__ = ("d", "x", "eps", "a_tilde", "A")

    def __init__(self, d, x, eps, a_tilde, A):
        self.d = d
        self.x = x
        self.eps = eps
        self.a_tilde = np.asarray(a_tilde)
        self.A = np.asarray(A)


def tilde_from_A(A):
    """Point-basis coefficients of the recurrence with difference basis A.

    The leading difference coefficient is one, so the i-th point coefficient
    is an alternating binomial sum over A_i..A_{d+1}.
    """
    A = np.asarray(A)
    d = A.size - 1
    dtype = np.result_type(A.dtype, np.float64)
    full = np.append(A.astype(dtype), dtype.type(1))
    out = np.empty(d + 1, dtype=dtype)
    for i in range(d + 1):
        out[i] = sum((-1) ** (k - i + 1) * math.comb(k, i) * full[k]
                     for k in range(i, d + 2))
    return out


def coords_from_samples(pts, x, eps):
    """Solve the one-step recurrence from d+2 consecutive curve samples.

    The solve happens in the basis of forward differences scaled by
    1/eps^i: that keeps the matrix O(1)-conditioned however small the step,
    and its solution is A_i/eps^{d+1-i} directly, so the tiny A_i are
    recovered without cancellation on top of what the data already carries.
    """
    if eps == 0:
        raise ValueError("eps must be nonzero")
    pts = np.asarray(pts)
    d = pts.shape[0] - 2
    if pts.shape != (d + 2, d + 1):
        raise ValueError("need d+2 samples of a curve in R^{d+1}")
    diffs = [pts[0]]
    tbl = pts
    for _ in range(d + 1):
        tbl = (tbl[1:] - tbl[:-1]) / eps
        diffs.append(tbl[0])
    cols = np.stack(diffs[: d + 1], axis=1)
    scaled = linalg.solve_dense(cols, -diffs[d + 1])
    A = scaled * np.asarray(eps) ** (d + 1 - np.arange(d + 1))
    return DiscreteCoords(d, x, eps, tilde_from_A(A), A)


def discrete_coords(spec, x, eps):
    """Recurrence coordinates of the curve itself at (x, eps)."""
    pts = spec.frame_at(x + np.arange(spec.d + 2) * eps)[:, 0]
    return coords_from_samples(pts, x, eps)


class LimitTable:
    """Ladder of recurrence coefficients with fitted orders and limits.

    slopes[i] estimates the decay order of A_i; limits[i] is the zero-step
    value of A_i/eps^{p_i}, where p_i = d+1-i except for the top coefficient
    whose expansion starts one order later (p_d = 2).  a0_slope tracks the
    decay of a_tilde_0 - (-1)^d.  ok flags columns whose slope window was
    usable (nonzero and monotone); nothing here is fatal.
    """

    __slots__ = ("d", "x", "eps", "A", "a_tilde", "powers", "slopes",
                 "limits", "ok", "a0_slope", "a0_ok")

    def __init__(self, d, x, eps, A, a_tilde, powers, slopes, limits, ok,
                 a0_slope, a0_ok):
        self.d = d
        self.x = x
        self.eps = eps
        self.A = A
        self.a_tilde = a_tilde
        self.powers = powers
        self.slopes = slopes
        self.limits = limits
        self.ok = ok
        self.a0_slope = a0_slope
        self.a0_ok = a0_ok


def _decay(eps, vals):
    """(log-log slope, strictly falling) of vals over the last _FIT_WINDOW
    rungs, or (nan, False) when no |vals| exceeds _DEFINED_FLOOR."""
    if np.max(np.abs(vals)) <= _DEFINED_FLOOR:
        return np.nan, False
    win = slice(-_FIT_WINDOW, None)
    return (loglog_slope(eps[win], vals[win]),
            bool(np.all(np.diff(np.abs(vals[win])) < 0)))


def limit_diagnostics(spec, x):
    """Small-step limits of the recurrence coefficients at x: slopes on the
    real ladder, where the order is the claim; limits as eps^0 coefficients of
    A_i/eps^{p_i} on the eps-contour, each window a shift of one lift jet."""
    eps = _LADDER.values()
    spec = spec.near(x)  # the recurrence is SL(d+1)-invariant
    coords = [discrete_coords(spec, x, e) for e in eps]
    A = np.stack([c.A for c in coords])
    a_tilde = np.stack([c.a_tilde for c in coords])
    d = spec.d
    powers = np.array([d + 1 - i if i < d else 2 for i in range(d + 1)])
    slopes, ok = (np.array(v) for v in zip(*[_decay(eps, a) for a in A.T]))
    a0_slope, a0_ok = _decay(eps, a_tilde[:, 0] - (-1.0) ** d)
    offsets = np.arange(d + 2)
    radius, nodes = _contour(offsets, spec.dtype)
    lifts = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)[0]
    windows = _shifted_lifts(lifts[..., 0], nodes[:, None] * offsets, 0)[0]
    samples = [coords_from_samples(w, x, e).A / e ** powers
               for e, w in zip(nodes, windows)]
    limits = _taylor(np.array(samples), radius)[0]
    return LimitTable(d, x, eps, A, a_tilde, powers, slopes, limits, ok,
                      a0_slope, a0_ok)
