"""One application of the intersection map.

Each group of a configuration picks curve points near x; their span cuts out
d - q linear conditions, and the stacked conditions of all groups meet in a
single projective point.  Everything is carried as jets in the curve variable
so the output is again a curve germ, which `curves.normalized_lift` rescales
to the unit-Wronskian representative.  A span of q+1 points is one matrix jet
of shape (K+1, q+1, d+1), its rows the lift jets of the points.

One application maps a whole batch of (x, eps) pairs: x and eps may be
arrays that broadcast to a batch shape, and every stage then carries that
shape in the tail ahead of its own axes, (K+1, *batch, q+1, d+1) for a
span.  Every node lift is a Taylor shift of the lift jet at its x, and
each solve, nullspace and determinant is one stacked call, so a whole
contour costs about what one pair did.  A number for x and for eps is the
batch of one pair with no batch axes; eps may be real or complex.
"""

import numpy as np

from . import linalg
from .curves import _SHIFT_ORDER, _lift_coeffs, _shifted_lifts, normalized_lift
from .jets import DegenerateSystem, Jet, jet_solver


class DegenerateIntersection(Exception):
    """Spans that fail to meet in a single point at working precision."""


def build_spans(spec, chi, x, eps, kmax):
    """Jets of the curve points spanning each subspace at step eps.

    The jets are taken in the curve variable itself, so every span (and the
    intersection point computed from them) lives at the common base point x,
    in the lift based at x with the identity frame.
    Arrays x and eps give each span the batch shape they broadcast to ahead
    of its (q+1, d+1) matrix.  Each node lift, at real or complex eps, is a
    Taylor shift h = p eps of the order-40 lift jet at its x
    (``curves._shifted_lifts``, which raises IntegrationFailure when h lies
    outside the lift's radius of convergence); a node that several groups
    share is shifted once per x and eps.
    """
    return _spans(spec, chi, x, eps, kmax,
                  _lift_coeffs(spec, np.ravel(x), _SHIFT_ORDER)[0])


def _spans(spec, chi, x, eps, kmax, lifts):
    """build_spans from the lift coefficients at x, (41, d+1, x.size)."""
    x, eps = np.asarray(x), np.asarray(eps)
    if np.any(eps == 0):
        raise ValueError("eps must be nonzero")
    if chi.d != spec.d:
        raise ValueError("configuration dimension does not match the curve")
    nodes = sorted({p for g in chi.groups for p in g})
    # every node lifted once per x and eps, (K+1, *batch, node, d+1)
    g = lifts.reshape(lifts.shape[:2] + x.shape + (1,))
    rows = _shifted_lifts(g, np.array(nodes) * eps[..., None], kmax)
    return [Jet(rows[..., [nodes.index(p) for p in grp], :], copy=False)
            for grp in chi.groups]


def _span_normals(span):
    """Matrix jet of the d - q covectors vanishing on the span, one per row,
    to every carried order.

    Constant terms come from the orthogonal complement of the constant-term
    span; higher orders are corrected by solving the span completed with its
    own complement, which makes each correction the minimum-norm one and
    gets all the normals of the span from one solve.
    """
    order = span.order
    m, n = span.c.shape[-2:]
    stack = span.c.shape[1:-2]
    want = n - m
    if want == 0:
        return Jet(np.zeros((order + 1,) + stack + (0, n), dtype=span.c.dtype),
                   copy=False)
    try:
        comp = linalg.null_bases(span.value)
    except linalg.SingularMatrixError as exc:
        raise DegenerateIntersection(
            f"span vectors numerically dependent: {exc}") from exc
    dtype = np.result_type(comp.dtype, span.c.dtype)
    a = np.zeros((order + 1,) + stack + (n, n), dtype=dtype)
    a[..., :m, :] = span.c
    a[0, ..., m:, :] = comp
    rhs = np.zeros((order + 1,) + stack + (n, want), dtype=dtype)
    rhs[0, ..., m:, :] = np.eye(want)
    normals = jet_solver(Jet(a, copy=False))(Jet(rhs, copy=False))
    return Jet(np.swapaxes(normals.c, -1, -2), copy=False)


def intersect_spans(spans):
    """The common point of the spans as a (K+1, d+1) jet, or (K+1, *batch,
    d+1) for spans over a batch.

    Each point is gauged so its largest constant-term component equals one;
    callers renormalize afterwards.  Raises DegenerateIntersection when the
    stacked conditions do not cut down to a single point.
    """
    n = spans[0].c.shape[-1]
    d = n - 1
    codim = sum(n - s.c.shape[-2] for s in spans)
    if codim != d:
        raise ValueError(f"constraint count {codim} does not match d = {d}")
    if any(s.c.shape[-1] != n for s in spans):
        raise ValueError("spans live in different ambient spaces")
    order = min(s.order for s in spans)
    rows = np.concatenate([_span_normals(s).c[:order + 1] for s in spans],
                          axis=-2)
    try:
        g0 = linalg.null_bases(rows[0])
    except linalg.SingularMatrixError as exc:
        raise DegenerateIntersection(
            f"stacked constraints are rank deficient: {exc}") from exc
    pivot = np.argmax(np.abs(g0[..., 0, :]), axis=-1)
    a = np.zeros(rows.shape[:-2] + (n, n), dtype=rows.dtype)
    a[..., :d, :] = rows
    a[0, ..., d, :] = np.arange(n) == pivot[..., None]
    rhs = np.zeros(rows.shape[:-2] + (n,), dtype=rows.dtype)
    rhs[0, ..., d] = 1
    try:
        return jet_solver(Jet(a, copy=False))(Jet(rhs, copy=False))
    except DegenerateSystem as exc:
        raise DegenerateIntersection(str(exc)) from exc


def chi_map_point(spec, chi, x, eps, kmax):
    """Apply the map once at x and renormalize.

    Returns (lift, u): the output lift as a (K-d+1, d+1) jet and its d
    coefficients as a (K-2d, d) jet.  kmax must leave enough orders for the
    Wronskian rescaling and the coefficient extraction behind it.  Arrays x
    and eps map the whole batch they broadcast to in one pass, and both jets
    then carry the batch shape ahead of their last axis.
    """
    return _map_lifted(spec, chi, x, eps, kmax,
                       _lift_coeffs(spec, np.ravel(x), _SHIFT_ORDER)[0])


def _map_lifted(spec, chi, x, eps, kmax, lifts):
    """chi_map_point from the lift coefficients at x, (41, d+1, x.size),
    whose row 0 is the curve point that fixes the output lift's sign."""
    if kmax < 2 * spec.d + 2:
        raise ValueError(f"need jet order >= {2 * spec.d + 2} to renormalize")
    point = intersect_spans(_spans(spec, chi, x, eps, kmax, lifts))
    ref = np.moveaxis(lifts[0], 0, -1).reshape(np.shape(x) + (spec.d + 1,))
    return normalized_lift(point, spec.d, ref=ref)
