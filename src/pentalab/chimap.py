"""One application of the intersection map.

Each group of a configuration picks curve points near x; their span cuts out
d - q linear conditions, and the stacked conditions of all groups meet in a
single projective point.  Everything is carried as Taylor coefficient
arrays in the curve variable (see ``jets``), so the output is again a curve
germ, which `curves.normalized_lift` rescales to the unit-Wronskian
representative.  A span of q+1 points is one array of shape (K+1, q+1,
d+1), its rows the lift coefficients of the points.

``chi_map_point`` is the map's one entry point, and it never sees a
curve: it takes the lift coefficients at the working points, each from the
identity frame there (``curves._lift_coeffs``), whose shape gives d.  One
application maps a whole batch of (x, eps) pairs: the lifts' point axes
and eps broadcast to a batch shape, and every stage carries that shape in
the tail ahead of its own axes, (K+1, *batch, q+1, d+1) for a span.  Every
node lift is a Taylor shift of the lift jet at its x, and each solve,
nullspace and determinant is one stacked call, so a whole contour costs
about what one pair did.  The groups of one size go on one more stack axis:
one nullspace, one factorization and one jet solve give the normals of all
of them, put back in group order, so an application makes one span-normal
solve per group size and one for the intersection.  eps may be real or
complex.
"""

import numpy as np

from . import linalg
from .curves import _shifted_lifts, normalized_lift
from .jets import DegenerateSystem, jet_solver


class DegenerateIntersection(Exception):
    """Spans that fail to meet in a single point at working precision."""


def _spans(chi, lifts, eps, kmax):
    """Coefficients of the curve points spanning each subspace at step eps,
    from the lift coefficients at the working points, (N+1, d+1, *shape).

    The jets are taken in the curve variable, so every span (and the point
    the spans meet in) lives at its working point, in the lift based there
    with the identity frame, and carries the batch shape ahead of its
    (q+1, d+1) matrix.  Each node lift is a Taylor shift h = p eps of the
    lift jet at its point (``curves._shifted_lifts``, which raises
    IntegrationFailure when h lies outside the lift's radius of
    convergence); a node that several groups share is shifted once.
    """
    eps = np.asarray(eps)
    if np.any(eps == 0):
        raise ValueError("eps must be nonzero")
    if chi.d != lifts.shape[1] - 1:
        raise ValueError("configuration dimension does not match the curve")
    nodes = sorted({p for g in chi.groups for p in g})
    # every node lifted once per point and eps, (K+1, *batch, node, d+1)
    rows = _shifted_lifts(lifts[..., None], np.array(nodes) * eps[..., None],
                          kmax)
    return [rows[..., [nodes.index(p) for p in grp], :] for grp in chi.groups]


def _span_normals(span):
    """Coefficients of the d - q covectors vanishing on the span, one per
    row, to every carried order.

    Constant terms come from the orthogonal complement of the constant-term
    span; higher orders are corrected by solving the span completed with its
    own complement, which makes each correction the minimum-norm one and
    gets all the normals of the span from one solve.
    """
    m, n = span.shape[-2:]
    want = n - m
    if want == 0:
        return np.zeros(span.shape[:-2] + (0, n), dtype=span.dtype)
    try:
        comp = linalg.null_bases(span[0])
    except linalg.SingularMatrixError as exc:
        raise DegenerateIntersection(
            f"span vectors numerically dependent: {exc}") from exc
    dtype = np.result_type(comp.dtype, span.dtype)
    a = np.zeros(span.shape[:-2] + (n, n), dtype=dtype)
    a[..., :m, :] = span
    a[0, ..., m:, :] = comp
    rhs = np.zeros(span.shape[:-2] + (n, want), dtype=dtype)
    rhs[0, ..., m:, :] = np.eye(want)
    return np.swapaxes(jet_solver(a)(rhs), -1, -2)


def _stacked_normals(spans, order):
    """Every span's normals to the given order, their rows in the order of
    the spans, (order+1, *batch, d, d+1).

    Spans of one size are stacked on one axis and get one _span_normals
    call, whose nullspace, factorization and solves each treat the whole
    stack in one call; every member comes out as it would on its own.
    """
    sizes = [s.shape[-2] for s in spans]
    rows = [None] * len(spans)
    for size in dict.fromkeys(sizes):
        members = [i for i, s in enumerate(sizes) if s == size]
        stack = np.stack([spans[i][:order + 1] for i in members], axis=-3)
        normals = _span_normals(stack)
        for j, i in enumerate(members):
            rows[i] = normals[..., j, :, :]
    return np.concatenate(rows, axis=-2)


def intersect_spans(spans):
    """The coefficients of the spans' common point, (K+1, d+1), or (K+1,
    *batch, d+1) for spans over a batch.

    Each point is gauged so its largest constant-term component equals one;
    callers renormalize afterwards.  Raises DegenerateIntersection when the
    stacked conditions do not cut down to a single point.
    """
    n = spans[0].shape[-1]
    d = n - 1
    codim = sum(n - s.shape[-2] for s in spans)
    if codim != d:
        raise ValueError(f"constraint count {codim} does not match d = {d}")
    if any(s.shape[-1] != n for s in spans):
        raise ValueError("spans live in different ambient spaces")
    rows = _stacked_normals(spans, min(len(s) for s in spans) - 1)
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
        return jet_solver(a)(rhs)
    except DegenerateSystem as exc:
        raise DegenerateIntersection(str(exc)) from exc


def chi_map_point(chi, lifts, eps, kmax):
    """Apply the map once at each working point and renormalize.

    lifts holds the lift coefficients at the working points, (N+1, d+1,
    *shape) with N >= kmax, each from the identity frame there
    (``curves._lift_coeffs``); its row 0, the curve point, fixes the sign
    of the output lift.  Returns (lift, u): the coefficients of the output
    lift, (K-d+1, d+1), and of its d invariants, (K-2d, d), each carrying
    the batch shape that shape and eps broadcast to ahead of its last axis.
    kmax must leave enough orders for the Wronskian rescaling and the
    coefficient extraction behind it.
    """
    d = lifts.shape[1] - 1
    if kmax < 2 * d + 1:
        raise ValueError(f"need jet order >= {2 * d + 1} to renormalize")
    point = intersect_spans(_spans(chi, lifts, eps, kmax))
    return normalized_lift(point, ref=np.moveaxis(lifts[0], 0, -1))
