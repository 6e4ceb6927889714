"""The small-step expansion of the map, read off a Cauchy contour.

The image curve evaluated at the working point is resolved against the frame
Γ, Γ', ..., Γ^(d) there, which is the identity: the curve is lifted from
the identity frame at its working point (``curves._lift_coeffs``).  The map
is analytic in the step ε, so the trapezoidal rule on a circle |ε| = r
gives the Taylor coefficients of each frame coordinate to roundoff over r^k
(Lyness & Moler, SIAM J. Numer. Anal. 4 (1967); Trefethen & Weideman, SIAM
Review 56 (2014)); the coefficient of ε^k on the j-th frame vector is the
operator coefficient α_{k,j}.  The first two corrections are heavily
structured (a bare first derivative, then a Schwarzian like second-order
operator); the checks in this module test the diagonal's constancy in x
and the second-order drift of the invariants.  One
application of the map covers every node of the circle, every working point
of a constancy check, and every probe curve of a third-order check, at once:
each working point's lift is built once (``curves._lift_coeffs``), and the
map takes the stack of them, which may come from different curves.
"""

import numpy as np

from .chimap import chi_map_point
from .curves import _SHIFT_ORDER, _lift_coeffs, _roots_of_unity
from .kdvops import JET_ORDER, kdv_rhs, l_operator

# deepest expansion order a report carries
KMAX = 6
# nodes on the contour; the real map needs only the upper half circle
_NODES = 24
# raw trapezoid coefficients of these orders are the samples' own noise
_NOISE_ORDERS = slice(9, 13)
# the roundoff floor of the uncertainty in units of that noise: on
# short-diagonal d = 2..4, curve seeds 0-7, x in {0.3, 1.1}, kmax 6, the
# error |double - extended| stays within 2.41 times it on all 1,344
# entries; on d = 4, seeds 16-31, x in {-0.2, 0.8, 2.3}, it exceeds 3
# times it on 11 of 1,680 and 4 times it on 3 (5.33 at worst), and the
# uncertainty misses 3 entries, all on that grid (ROADMAP item 3)
_NOISE_FACTOR = 4.0
# |alpha_11| at or below this counts as no first-order term
FIRST_ORDER_TOL = 1e-3


class NotCentralized(ValueError):
    """The configuration has a first-order term where the check needs none."""


def check_kmax(kmax):
    """Raise ValueError unless a report can carry order kmax."""
    if not 0 <= kmax <= KMAX:
        raise ValueError(f"kmax must lie in [0, {KMAX}]")


class ExpansionReport:
    """Expansion coefficients at one working point.

    alpha[k][j] multiplies the j-th frame vector at order ε^k; w holds the
    ε² coefficients of the transformed curve invariants.  uncertainty is
    the gap to the same rule on every other node of the contour, or, where
    it is larger, the column's roundoff floor: _NOISE_FACTOR times the
    largest raw trapezoid coefficient of orders 9..12, over r^k.
    """

    __slots__ = ("x", "d", "kmax", "alpha", "uncertainty", "w")

    def __init__(self, x, d, kmax, alpha, uncertainty, w):
        self.x = float(x)
        self.d = int(d)
        self.kmax = int(kmax)
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.uncertainty = np.asarray(uncertainty, dtype=np.float64)
        self.w = np.asarray(w, dtype=np.float64)

    def to_dict(self):
        return {
            "x": self.x,
            "d": self.d,
            "kmax": self.kmax,
            "alpha": [[float(v) for v in row] for row in self.alpha],
            "uncertainty": [[float(v) for v in row]
                            for row in self.uncertainty],
            "w": [float(v) for v in self.w],
        }

    def csv_rows(self):
        """Flat (k, j, alpha, uncertainty) rows."""
        return [(k, j, float(self.alpha[k, j]), float(self.uncertainty[k, j]))
                for k in range(self.kmax + 1) for j in range(self.d + 1)]


def extract_alphas(spec, chi, x, kmax=2):
    """Taylor coefficients in ε of the frame coordinates of the image curve."""
    return _extract(chi, [x], kmax, _lift(spec, [x])[0])[0]


def _taylor(samples, radius):
    """Taylor coefficients (n, columns) of a function real on the real axis,
    from its samples at radius * exp(2 pi i j / n), j = 0..n/2."""
    n = 2 * (len(samples) - 1)
    return np.fft.hfft(samples, n, axis=0) / n / radius ** np.arange(n)[:, None]


def _contour(offsets, dtype):
    """(radius, the 13 upper-half nodes in dtype) of the contour for samples
    at the node offsets p; the radius keeps every |p ε| within 0.2."""
    radius = 0.2 / max(1.0, max(abs(p) for p in offsets))
    return radius, radius * _roots_of_unity(_NODES, dtype)[:_NODES // 2 + 1]


def _report(x, kmax, radius, points, invariants):
    """The extract_alphas report at x from the image points (node, d+1)
    and invariants (node, d) on the contour nodes, both lifted from the
    identity frame at x, so the points are their own frame coordinates."""
    d = points.shape[1] - 1
    # frame coordinates in columns 0..d, curve invariants after them;
    # a non-finite image point raises ValueError, never NaN coefficients
    samples = np.concatenate([np.asarray_chkfinite(points), invariants], axis=1)
    coeffs = _taylor(samples, radius)
    scale = radius ** np.arange(len(coeffs))[:, None]
    # against the same rule on the even-indexed nodes alone, and the
    # roundoff the samples carry, which the division by r^k amplifies
    gap = np.abs(coeffs[:_NODES // 2] - _taylor(samples[::2], radius))
    noise = _NOISE_FACTOR * np.max(np.abs(coeffs * scale)[_NOISE_ORDERS],
                                   axis=0)
    uncertainty = np.maximum(gap, noise / scale[:_NODES // 2])
    return ExpansionReport(x, d, kmax, coeffs[:kmax + 1, :d + 1],
                           uncertainty[:kmax + 1, :d + 1], coeffs[2, d + 1:])


def _lift(spec, xs):
    """The order-40 lift coefficients at the working points xs, (41, d+1,
    len(xs)), and the u-jets they were built from, cut to JET_ORDER,
    (JET_ORDER+1, d, len(xs)): the cut order-40 jet equals the jet
    evaluated to JET_ORDER bit for bit.  A sequence of specs gives the
    columns of each in turn, from one recursion (``_lift_coeffs``)."""
    lifts, u = _lift_coeffs(spec, np.asarray(xs), _SHIFT_ORDER)
    return lifts, u[:JET_ORDER + 1]


def _extract(chi, xs, kmax, lifts):
    """An extract_alphas report per working point in xs from the lift
    coefficients there, (41, d+1, len(xs)), one column per point, and one
    application of the map to every (x, node) pair.  The columns may come
    from different curves of one d and dtype."""
    check_kmax(kmax)
    radius, eps = _contour([p for g in chi.groups for p in g], lifts.dtype)
    # the least order that renormalizes, 2d + 1: the report reads the
    # image point and its invariants at order 0 alone
    lifted, u = chi_map_point(chi, lifts[..., None], eps,
                              2 * lifts.shape[1] - 1)
    return [_report(x, kmax, radius, *mapped)
            for x, mapped in zip(xs, zip(lifted[0], u[0]))]


def alpha_constancy_check(spec, chi, xs):
    """(report at xs[0], spread of the diagonal coefficients over xs), one
    extraction per working point."""
    if len(set(float(x) for x in xs)) < 3:
        raise ValueError("need at least 3 distinct working points")
    reports = _extract(chi, xs, 2, _lift(spec, xs)[0])
    diag = np.array([np.diag(r.alpha) for r in reports])
    return reports[0], float(np.max(diag.max(axis=0) - diag.min(axis=0)))


def kdv_rhs_check(spec, chi, x):
    """ε² drift of the invariants against the hierarchy commutator.

    Valid only when the first-order term is absent; then the invariants move
    at the ε² timescale with velocity a22 times the commutator coefficients.
    """
    lifts, u = _lift(spec, [x])
    report = _extract(chi, [x], 2, lifts)[0]
    if abs(report.alpha[1, 1]) > FIRST_ORDER_TOL:
        raise NotCentralized("configuration is not centralized at first order")
    flow = kdv_rhs(l_operator(u[..., 0]), 2)
    predicted = report.alpha[2, 2] * flow.c[:, 0]
    return float(np.max(np.abs(report.w - predicted)))
