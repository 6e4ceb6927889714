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
one checked SVD gives the normals of all of them, put back in group order,
so an application makes one span-normal solve per group size and one for
the intersection.  In float64 and complex128 that SVD also solves for the
normals at every order, in the gauge of the Hermitian complement of the
constant-term span (see ``_span_normals``); an extended-precision span
takes it as a gauge only and solves with the jet solve in its own dtype.
The intersection is one LU jet solve.  eps may be real or complex.
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

    The normals X (columns) solve span(t) X(t) = 0 order by order under a
    gauge G X(t) = I, G the rows of Vᴴ past the rank in the one checked SVD
    U S Vᴴ of the constant-term span (``linalg.checked_svd``).  In float64
    and complex128 that SVD also solves: G is the Hermitian complement of
    the span, so X_0 = Gᴴ, and each later order is the minimum-norm
    correction X_k = Vᴴ[:m]ᴴ (S⁻¹ Uᴴ r_k), r_k = -Σ_{j≥1} span_j X_(k-j),
    two stacked matmuls against factors formed once; an SVD solve is
    backward stable (Golub & Van Loan, Matrix Computations, §5.5).  An
    extended-precision span takes the float64 SVD as a gauge only, the
    conjugated complement, and solves the span completed with it by the
    jet solve in its own dtype.
    """
    m, n = span.shape[-2:]
    want = n - m
    if want == 0:
        return np.zeros(span.shape[:-2] + (0, n), dtype=span.dtype)
    try:
        u, s, vh = linalg.checked_svd(span[0])
    except linalg.SingularMatrixError as exc:
        raise DegenerateIntersection(
            f"span vectors numerically dependent: {exc}") from exc
    if vh.dtype != span.dtype:  # extended: the SVD ran in float64
        a = np.zeros(span.shape[:-2] + (n, n), dtype=span.dtype)
        a[..., :m, :] = span
        a[0, ..., m:, :] = vh[..., m:, :].conj()
        rhs = np.zeros(span.shape[:-2] + (n, want), dtype=span.dtype)
        rhs[0, ..., m:, :] = np.eye(want)
        return np.swapaxes(jet_solver(a)(rhs), -1, -2)
    # Vᴴ[:m]ᴴ and S⁻¹ Uᴴ, contiguous so that a stack member's matmuls run
    # as its own call's do
    vm_h = np.ascontiguousarray(np.swapaxes(vh[..., :m, :], -1, -2).conj())
    s_inv_uh = np.ascontiguousarray(np.swapaxes(u, -1, -2).conj()
                                    / s[..., :, None])
    x = np.empty(span.shape[:-2] + (n, want), dtype=span.dtype)
    x[0] = np.swapaxes(vh[..., m:, :], -1, -2).conj()
    # work[0] = 0, work[j] = span_j X_(k-j): one stacked matmul per order,
    # then -span_1 X_(k-1) - ... - span_k X_0 subtracted in order of j
    work = np.zeros(span.shape[:-1] + (want,), dtype=span.dtype)
    for k in range(1, len(span)):
        np.matmul(span[1:k + 1], x[k - 1::-1], out=work[1:k + 1])
        np.matmul(vm_h, s_inv_uh @ np.subtract.reduce(work[:k + 1], axis=0),
                  out=x[k])
    return np.swapaxes(x, -1, -2)


def _stacked_normals(spans):
    """Every span's normals to the order of the shortest span, their rows in
    the order of the spans, (K+1, *batch, d, d+1).

    Spans of one size are stacked on one axis and get one _span_normals
    call, whose SVD and solves each treat the whole stack in one call;
    every member comes out as it would on its own.
    """
    orders = min(len(s) for s in spans)
    sizes = [s.shape[-2] for s in spans]
    rows = [None] * len(spans)
    for size in dict.fromkeys(sizes):
        members = [i for i, s in enumerate(sizes) if s == size]
        stack = np.stack([spans[i][:orders] for i in members], axis=-3)
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
    rows = _stacked_normals(spans)
    try:
        vh = linalg.checked_svd(rows[0])[2]
    except linalg.SingularMatrixError as exc:
        raise DegenerateIntersection(
            f"stacked constraints are rank deficient: {exc}") from exc
    # the row of Vᴴ past the rank is the conjugated null vector; its
    # largest magnitude, taken in the rows' dtype, picks the gauge
    pivot = np.argmax(np.abs(vh[..., d, :].astype(rows.dtype, copy=False)),
                      axis=-1)
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
