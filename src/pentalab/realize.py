"""Plane configurations whose leading evolution is the third-order flow.

For curves in three dimensions the map is built from three plane groups of
three nodes each.  The first two expansion orders vanish exactly when the
three node products agree, and the surviving third-order term is a constant
multiple of the cubic root power (L^{3/4})_+ exactly when one further
polynomial constraint on the nodes holds.  This module checks both
conditions numerically on probe curves, carries the two example families,
the lower bound on how many constraints higher flows require, and a small
derivative-free search for new configurations.
"""

import functools

import numpy as np

from .chimap import DegenerateIntersection
from .configs import ChiConfig, SymTable
from .curves import DegenerateLift
from .expansion import _extract, _lift
from .jets import DegenerateSystem, NonPositiveBase
from .kdvops import l_operator, q_m
from .linalg import SingularMatrixError

_G12_TOL = 1e-4
_G3_TOL = 1e-3
# the geometric failures of one extraction; the descent scores them as a bad
# configuration, and anything else is a bug and propagates
_DEGENERATE = (DegenerateIntersection, DegenerateLift, DegenerateSystem,
               SingularMatrixError, NonPositiveBase)


class DegenerateProbes(RuntimeError):
    """Every probe curve hit a degenerate intersection."""


class NotPlaneConfig(ValueError):
    """A configuration that is not three plane groups in dimension 3."""


class MissingScipy(ImportError):
    """search_34 has to descend, and scipy is not installed."""


def _require_planes(chi):
    if chi.d != 3 or any(chi.q(i) != 2 for i in range(chi.r)):
        raise NotPlaneConfig("need three plane groups in dimension 3")


def dof_lower_bound(m):
    """Minimum number of node constraints for the order-m flow to lead.

    Killing each lower order i < m costs at least (i^2 - 3i + 4)/2
    constraints; the sum telescopes to (m^3 - 6m^2 + 17m - 12)/6, which is
    an exact integer for every m >= 1.
    """
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    value, rem = divmod(m ** 3 - 6 * m ** 2 + 17 * m - 12, 6)
    if rem:
        raise AssertionError("lower-bound polynomial must be integral")
    return value


def mari_beffa_family(a, b, c):
    """Three-parameter family {{-c,a,b},{c,-a,b},{c,-1,ab}} and its residual.

    Every member has equal node products -abc; the residual is the distance
    from the one-parameter slice c - 1 + a(b - 1) = -5(b - c)/4 on which the
    family is known to produce the third-order flow.  Parameter choices that
    collide nodes inside a group raise ValueError.
    """
    a, b, c = float(a), float(b), float(c)
    chi = ChiConfig(3, [[-c, a, b], [c, -a, b], [c, -1.0, a * b]])
    residual = abs(c - 1.0 + a * (b - 1.0) + 5.0 * (b - c) / 4.0)
    return chi, residual


_R_COEFFS = (2480.0, 33006.0, 72121.0, -198036.0, 89280.0)


@functools.cache
def r_poly_roots():
    """Real roots of the quartic gate polynomial, ascending, as one
    read-only array computed on the first call.

    Companion-matrix eigenvalues polished by a few Newton steps; all four
    roots of this particular quartic are real.
    """
    poly = np.array(_R_COEFFS)
    deriv = np.polyder(poly)
    roots = [z.real for z in np.roots(poly) if abs(z.imag) <= 1e-8]
    out = []
    for r in roots:
        for _ in range(4):
            r = r - np.polyval(poly, r) / np.polyval(deriv, r)
        out.append(float(r))
    roots = np.sort(np.array(out))
    roots.flags.writeable = False
    return roots


class Realization34Report:
    """Outcome of the third-order flow check on one configuration."""

    __slots__ = ("chi", "sigma_top", "sigma_equal", "g1_norm", "g2_norm",
                 "g3_match", "c_fit", "skipped")

    def passes(self):
        return bool(self.sigma_equal and self.g1_norm <= _G12_TOL
                    and self.g2_norm <= _G12_TOL and self.g3_match <= _G3_TOL)

    def to_dict(self):
        return {
            "chi": self.chi.to_dict(),
            "sigma_top": [float(v) for v in self.sigma_top],
            "sigma_equal": self.sigma_equal,
            "g1_norm": self.g1_norm,
            "g2_norm": self.g2_norm,
            "g3_match": self.g3_match,
            "c_fit": self.c_fit,
            "skipped": list(self.skipped),
            "passes": self.passes(),
        }


def _probes(curves, x):
    """(lift coefficients, (L^{3/4})_+ rows) of probe curves at x: the
    lifts the expansion maps, one column per curve, each curve's trees
    walked on their own and all of them lifted in one recursion; and per
    curve the target row built from the u-jet its lift was built from."""
    lifts, u = _lift(curves, [x])
    return lifts, [q_m(l_operator(u[..., p]), 3).c[:4, 0]
                   for p in range(len(curves))]


def check_34(chi, probe_curves, x):
    """Test whether the map on chi produces the third-order flow.

    Requires three plane groups in dimension 3 and at least three probe
    curves of one precision.  The node-product condition is exact
    arithmetic; the residuals are read off the expansion of each probe
    curve at x to order 3, and the third-order row is compared against
    c * (L^{3/4})_+ with a single constant shared across probes.  One
    run of the lift recursion and one application of the map cover every
    probe, and each probe comes out bit for bit as its own extraction
    would.  A probe whose intersection degenerates is skipped and
    recorded.
    """
    _require_planes(chi)
    if len(probe_curves) < 3:
        raise ValueError("need at least three probe curves")
    if len({(spec.d, spec.dtype) for spec in probe_curves}) > 1:
        raise ValueError("probe curves must share one dimension and precision")

    table = SymTable(chi)
    top = table.top()
    sigma_equal = table.tops_agree() and abs(float(top[0])) > 0.0

    lifts, targets = _probes(probe_curves, x)
    skipped = []
    try:
        reports = _extract(chi, [x] * len(targets), 3, lifts)
    except DegenerateIntersection:
        # one at a time, to learn which probes degenerate
        reports = []
        for idx in range(len(targets)):
            try:
                reports += _extract(chi, [x], 3, lifts[..., idx, None])
            except DegenerateIntersection:
                skipped.append(idx)
        targets = [t for idx, t in enumerate(targets) if idx not in skipped]
    alphas = [rep.alpha for rep in reports]
    if not alphas:
        raise DegenerateProbes("every probe curve hit a degenerate intersection")

    out = Realization34Report()
    out.chi = chi
    out.sigma_top = np.asarray(top, dtype=np.float64)
    out.sigma_equal = sigma_equal
    out.g1_norm, out.g2_norm, out.g3_match, out.c_fit = _residuals(
        alphas, targets)
    out.skipped = tuple(skipped)
    return out


def _residuals(alphas, targets):
    """(g1, g2, g3, c) over the probes: the largest first- and second-order
    coefficients, and the third-order rows against c (L^{3/4})_+ with the
    least-squares c shared by all probes.

    alphas stacks each probe's (4 x 4) alpha, targets each probe's row of
    (L^{3/4})_+ coefficients, a (probes x 4) stack.
    """
    alphas = np.array(alphas, dtype=np.float64)
    targets = np.array(targets, dtype=np.float64)
    rows = alphas[:, 3]
    c = float(np.sum(rows * targets) / np.sum(targets * targets))
    return (float(np.max(np.abs(alphas[:, 1]))),
            float(np.max(np.abs(alphas[:, 2]))),
            float(np.max(np.abs(rows - c * targets))), c)


def _project_node_products(params):
    """Rescale each group so all three node products match the first."""
    nodes = np.asarray(params, dtype=np.float64).reshape(3, 3)
    products = np.prod(nodes, axis=1)
    if np.min(np.abs(products)) < 1e-12:
        return nodes.ravel()
    factors = np.cbrt(products[0] / products)
    return (nodes * factors[:, None]).ravel()


class Search34Result:
    """Best configuration found by the descent, with its full report."""

    __slots__ = ("chi", "report", "objective", "converged", "improved",
                 "evaluations")

    def to_dict(self):
        return {
            "chi": self.chi.to_dict(),
            "report": self.report.to_dict(),
            "objective": self.objective,
            "converged": self.converged,
            "improved": self.improved,
            "evaluations": self.evaluations,
        }


def search_34(seed_chi, probe_curves, x, max_iters=200):
    """Derivative-free descent toward a third-order flow configuration.

    The nine nodes are the free parameters; the node-product equalities are
    enforced by projection before every evaluation, so the objective is the
    squared residual sum g1^2 + g2^2 + g3^2 measured on the first probe
    curve.  Best-effort: a seed already inside tolerance is returned as is,
    and a run that fails to improve on the seed returns the seed flagged as
    not converged.
    """
    _require_planes(seed_chi)
    if len(probe_curves) < 3:
        raise ValueError("need at least three probe curves")
    # only chi changes along the descent: the first probe is lifted, and
    # its target row built, once
    lifts, [target] = _probes(probe_curves[:1], x)

    params0 = np.array([p for g in seed_chi.groups for p in g])

    evals = [0]
    best = {"f": np.inf, "params": params0}

    def objective(params):
        evals[0] += 1
        projected = _project_node_products(params)
        try:
            chi = ChiConfig(3, projected.reshape(3, 3))
        except ValueError:  # projected nodes that collide
            return 1e6
        try:
            [rep] = _extract(chi, [x], 3, lifts)
        except _DEGENERATE:
            return 1e6
        g1, g2, g3, _ = _residuals([rep.alpha], [target])
        f = g1 * g1 + g2 * g2 + g3 * g3
        if f < best["f"]:
            best["f"] = f
            best["params"] = np.array(params)
        return f

    f0 = objective(params0)
    if f0 > _G3_TOL * _G3_TOL:
        # imported here, its only use: scipy.optimize costs about 0.35 s,
        # and a seed that already passes needs no scipy at all
        try:
            from scipy import optimize
        except ImportError as exc:
            raise MissingScipy("the descent needs scipy, which "
                               'pip install -e ".[test]" brings') from exc

        def stop_when_inside(_xk):
            if best["f"] <= _G3_TOL * _G3_TOL:
                raise StopIteration

        try:
            optimize.minimize(objective, params0, method="Nelder-Mead",
                              callback=stop_when_inside,
                              options={"maxiter": max_iters, "xatol": 1e-10,
                                       "fatol": 1e-14})
        except StopIteration:
            pass

    improved = bool(best["f"] < f0)
    if improved:
        final = _project_node_products(best["params"])
        chi = ChiConfig(3, final.reshape(3, 3))
    else:
        chi = seed_chi
    out = Search34Result()
    out.chi = chi
    out.report = check_34(chi, probe_curves, x)
    out.objective = float(best["f"])
    out.converged = bool(best["f"] <= _G3_TOL * _G3_TOL)
    out.improved = improved
    out.evaluations = evals[0]
    return out
