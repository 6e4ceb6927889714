"""Extraction of the small-step expansion of the map from ladder data.

The image curve evaluated at the working point is resolved against the frame
Γ, Γ', ..., Γ^(d); each frame coordinate, sampled along a geometric ladder of
step sizes, is fitted by a polynomial in ε.  The fitted coefficient of ε^k on
the j-th frame vector is the operator coefficient α_{k,j}.  The first two
corrections are heavily structured (a bare first derivative, then a Schwarzian
like second-order operator), and the checks in this module pin that structure
against the fitted numbers.  One application of the map covers every rung of
the ladder, and every working point of a constancy check, at once; a working
point far from the curve's base point is served from the curve re-based
there (``CurveSpec.near``), which leaves every fitted number invariant.
"""

import numpy as np

from . import fitting
from .chimap import chi_map_point
from .kdvops import JET_ORDER, kdv_rhs, l_operator
from .linalg import solve_dense

# deepest expansion order the step ladder resolves, per precision
KMAX_DOUBLE = 4
KMAX_EXTENDED = 6
# |alpha_11| at or below this counts as no first-order term
FIRST_ORDER_TOL = 1e-3
_COND_LIMIT = 1e8


class NotCentralized(ValueError):
    """The configuration has a first-order term where the check needs none."""


def check_kmax(kmax, dtype):
    """Raise ValueError unless the ladder resolves order kmax at dtype."""
    limit = KMAX_EXTENDED if dtype == np.longdouble else KMAX_DOUBLE
    if not 0 <= kmax <= limit:
        raise ValueError(f"kmax must lie in [0, {limit}] at this precision")


class EpsLadder:
    """Geometric ladder of step sizes used for the coefficient fits."""

    __slots__ = ("eps0", "ratio", "count")

    def __init__(self, eps0=0.2, ratio=0.85, count=14):
        if eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        if count < 8:
            raise ValueError("need at least 8 rungs")
        self.eps0 = float(eps0)
        self.ratio = float(ratio)
        self.count = int(count)

    def values(self, dtype=np.float64):
        base = np.asarray(self.eps0, dtype=dtype)
        return base * np.asarray(self.ratio, dtype=dtype) ** np.arange(self.count)


class ExpansionReport:
    """Fitted expansion coefficients at one working point.

    alpha[k][j] multiplies the j-th frame vector at order ε^k; w holds the
    fitted ε² coefficients of the transformed curve invariants.
    """

    __slots__ = ("x", "d", "kmax", "alpha", "uncertainty", "fit_residual",
                 "w", "flagged")

    def __init__(self, x, d, kmax, alpha, uncertainty, fit_residual, w,
                 flagged):
        self.x = float(x)
        self.d = int(d)
        self.kmax = int(kmax)
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.uncertainty = np.asarray(uncertainty, dtype=np.float64)
        self.fit_residual = float(fit_residual)
        self.w = np.asarray(w, dtype=np.float64)
        self.flagged = bool(flagged)

    def to_dict(self):
        return {
            "x": self.x,
            "d": self.d,
            "kmax": self.kmax,
            "alpha": [[float(v) for v in row] for row in self.alpha],
            "uncertainty": [[float(v) for v in row]
                            for row in self.uncertainty],
            "fit_residual": self.fit_residual,
            "w": [float(v) for v in self.w],
            "flagged": self.flagged,
        }

    def csv_rows(self):
        """Flat (k, j, alpha, uncertainty) rows."""
        rows = []
        for k in range(self.kmax + 1):
            for j in range(self.d + 1):
                rows.append((k, j, float(self.alpha[k, j]),
                             float(self.uncertainty[k, j])))
        return rows


def extract_alphas(spec, chi, x, ladder=None, kmax=2):
    """Fit the frame coordinates of the image curve on a step ladder."""
    return _extract(spec, chi, [x], ladder, kmax)[0][0]


def _extract(spec, chi, xs, ladder, kmax):
    """(an extract_alphas report per working point in xs, the image-curve
    point at each of them on every rung, (len(xs), rungs, d+1), in the
    coordinates of spec.near(x)).

    The working points spec keeps share one application of the map to
    every (x, rung) pair; a far point is mapped on its own re-based spec.
    """
    if ladder is None:
        ladder = EpsLadder()
    check_kmax(kmax, spec.dtype)
    d = spec.d
    eps = ladder.values(spec.dtype)
    bases = [spec.near(x) for x in xs]
    mapped = {}
    for base in dict.fromkeys(bases):  # one application per distinct base
        at = [i for i, b in enumerate(bases) if b is base]
        lifted, u = chi_map_point(base, chi, np.asarray(xs)[at, None], eps,
                                  2 * d + 2)
        mapped.update(zip(at, zip(lifted.value, u.value)))
    reports = []
    for i, (x, base) in enumerate(zip(xs, bases)):
        points, invariants = mapped[i]
        # frame coordinates in columns 0..d, curve invariants after them;
        # a non-finite image point raises ValueError, never NaN coefficients
        coords = solve_dense(base.frame_at(x).T,
                             np.asarray_chkfinite(points.T)).T
        samples = np.concatenate([coords, invariants], axis=1)
        coeffs, sigma, fit_residual, cond = fitting.fit_poly(eps, samples,
                                                             kmax + 2)
        flagged = cond > _COND_LIMIT
        if flagged:
            sigma = sigma * (cond / _COND_LIMIT)
        reports.append(ExpansionReport(
            x, d, kmax, coeffs[:kmax + 1, :d + 1], sigma[:kmax + 1, :d + 1],
            fit_residual, coeffs[2, d + 1:], flagged))
    return reports, np.stack([mapped[i][0] for i in range(len(xs))])


def verify_G2_structure(report, spec, x):
    """Residual of the fitted first and second corrections against theory.

    The first correction must be a pure first derivative; the second must be
    a22*(D^2 + 2 u_{d-1}/(d+1)) - a11^2 u_{d-1}/(d+1) with the fitted a11 and
    a22 plugged in.  Returns the worst coefficient mismatch.
    """
    if report.kmax < 2:
        raise ValueError("report must carry at least the second order")
    d = report.d
    u_top = float(spec.u_jet(x, 0).value[d - 1])
    a11 = report.alpha[1, 1]
    a22 = report.alpha[2, 2]
    predicted = np.zeros(d + 1)
    predicted[2] = a22
    predicted[0] = (2.0 * a22 - a11 ** 2) * u_top / (d + 1)
    resid = float(np.max(np.abs(report.alpha[2] - predicted)))
    off_first = np.abs(np.delete(report.alpha[1], 1))
    return max(resid, float(np.max(off_first)))


def alpha_constancy_check(spec, chi, xs, ladder=None, kmax=2):
    """(report at xs[0], spread of the diagonal coefficients over xs), one
    fit per working point."""
    if len(set(float(x) for x in xs)) < 3:
        raise ValueError("need at least 3 distinct working points")
    reports = _extract(spec, chi, xs, ladder, kmax)[0]
    diag = np.array([[r.alpha[i, i] for i in range(min(2, kmax) + 1)]
                     for r in reports])
    return reports[0], float(np.max(diag.max(axis=0) - diag.min(axis=0)))


def kdv_rhs_check(spec, chi, x, ladder=None, kmax=2):
    """Fitted ε² drift of the invariants against the hierarchy commutator.

    Valid only when the first-order term is absent; then the invariants move
    at the ε² timescale with velocity a22 times the commutator coefficients.
    """
    report = extract_alphas(spec, chi, x, ladder, kmax)
    if abs(report.alpha[1, 1]) > FIRST_ORDER_TOL:
        raise NotCentralized("configuration is not centralized at first order")
    u = spec.u_jet(x, JET_ORDER)
    flow = kdv_rhs(l_operator([u[i] for i in range(spec.d)]), 2)
    predicted = report.alpha[2, 2] * np.array([c.value for c in flow])
    return float(np.max(np.abs(report.w - predicted)))
