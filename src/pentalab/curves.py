"""Nondegenerate curves with unit-Wronskian lifts, given by coefficient data.

A curve never stores an explicit parametrization.  It is defined by d
periodic coefficient functions u_0..u_{d-1} plus one normalized frame at a
base point: the lift solves the linear ODE

    g^(d+1) + u_{d-1} g^(d-1) + ... + u_0 g = 0

componentwise, and because the equation has no g^(d) term the frame
determinant (Wronskian) is conserved, so det = 1 propagates from the initial
frame.  Jets of any order then come from the ODE recursion for free, which is
the ground truth every downstream check leans on.  A lift jet is one bare
coefficient array of shape (K+1, d+1): row k holds the k-th Taylor
coefficients of all d+1 components.  ``CurveSpec.u_jet`` is the one
evaluator of the u_i: a (K+1, d) array in the spec's dtype, used by frame
transport, lift jets and every module that needs the invariants at a
point.  Only ``gamma_jet`` still wraps its lift in a ``jets.Jet``.

Every experiment lifts the curve at its working point from the identity
frame there: the spec's lift is that lift times the spec's frame at x, an
SL(d+1) transform, and every number pentalab reports (α, w, the recurrence
and Lax fields) is invariant under it.  So no experiment transports a
frame, and the base point x0 and frame F0 of a spec reach only
``frame_at`` and what is built on it (``gamma_jet``, ``wronskian``).
``_lift_coeffs`` lifts an array of points, of one curve or of several,
from one walk of the u-trees per curve and point and one run of the ODE
recursion, and it is the only source of lift jets.
Every curve sample near a working point, at a real or complex offset, is a
Taylor shift (``_shifted_lifts``, guarded row by row) of the one order-40
lift jet there, so the map and ``lax`` build that jet once per working
point.  The shift (``_frame_from_coeffs``, which ``frame_at`` uses too) is
one matrix product: each working point's coefficients, weighted once per
row by the falling factorials of ``jets._falling`` (which also weigh the
ODE recursion), times a table of the powers of every offset there, summed
highest order first.  ``normalized_lift`` takes a stack of lifts.

``frame_at`` carries F0 along the same path: the identity lifts at the
anchors x0 + j/2 between x0 and its points come from one ``_lift_coeffs``
call, the shift of anchor j's lift by h, rows 0..d, is the matrix that
carries a frame at the anchor to the anchor + h, and each point takes the
frame at its nearest anchor one shift further.
"""

import functools
import math
import json

import numpy as np

from . import linalg
from .jets import (AnalyticFn, DegenerateSystem, Jet, _falling, _json_number,
                   derivative_stack, eval_jet, jet_factor, jet_solver, mul,
                   trig_poly)

# order of the lift jet at a working point that nearby samples shift from
_SHIFT_ORDER = 40
# frame_at's anchor spacing: the radius guard of an order-40 lift first
# trips at offsets of 1.1 (d = 2..4, random_curve_spec seeds 0-11)
_STEP = 0.5
# frame_at raises past it: a Wronskian this far from 1 no longer belongs
# to a unimodular frame
_UNIMODULAR_TOL = 1e-3
# random_curve_spec's damping of a0 and of the first and second harmonics
_DAMP = (1.0, 0.5, 0.5, 0.25, 0.25)


class IntegrationFailure(Exception):
    """Frame transport produced non-finite or exploding values."""


class DegenerateLift(Exception):
    """No normalized lift exists (vanishing or wrong-sign Wronskian)."""


class CurveSpec:
    """d, coefficient functions u_0..u_{d-1}, base point x0, initial frame F0."""

    def __init__(self, d, u, x0, F0, dtype=np.float64):
        if len(u) != d:
            raise ValueError(f"need exactly {d} coefficient functions, got {len(u)}")
        self.d = int(d)
        self.u = tuple(u)
        self.x0 = float(x0)
        self.dtype = np.dtype(dtype)
        f0 = np.array(F0, dtype=self.dtype)
        if f0.shape != (d + 1, d + 1):
            raise ValueError(f"initial frame must be {(d+1, d+1)}, got {f0.shape}")
        f0.flags.writeable = False
        self.F0 = f0

    # -- serialization --------------------------------------------------

    def to_dict(self):
        return {
            "d": self.d,
            "u": [f.to_dict() for f in self.u],
            "x0": self.x0,
            "F0": [[float(v) for v in row] for row in np.asarray(self.F0, dtype=np.float64)],
        }

    @staticmethod
    def from_dict(obj, dtype=np.float64):
        d = obj["d"]
        if type(d) is not int:  # a JSON integer: not a bool, float or string
            raise ValueError(f"d must be an integer, not {d!r}")
        u = [AnalyticFn.from_dict(node) for node in obj["u"]]
        x0 = float(_json_number(obj["x0"], "x0"))
        f0 = np.array([[_json_number(v, "an F0 entry") for v in row]
                       for row in obj["F0"]], dtype=np.float64)
        if not (math.isfinite(x0) and np.all(np.isfinite(f0))):
            raise ValueError("x0 and the initial frame must be finite")
        det = float(np.linalg.det(f0))
        if abs(det - 1.0) > 1e-12:
            if det <= 0 and (d + 1) % 2 == 0:
                raise ValueError("initial frame determinant must be positive when d is odd")
            if det == 0:
                raise ValueError("initial frame is singular")
            scale = math.copysign(abs(det) ** (1.0 / (d + 1)), det)
            f0 = f0 / scale
        return CurveSpec(d, u, x0, f0, dtype=dtype)

    @staticmethod
    def load(path, dtype=np.float64):
        with open(path) as fh:
            return CurveSpec.from_dict(json.load(fh), dtype=dtype)

    # -- frame transport -------------------------------------------------

    def u_jet(self, x, order) -> np.ndarray:
        """Taylor coefficients (order+1, d) of u_0..u_{d-1} at x, in the
        spec's dtype; a 1-D array of P points gives (order+1, d, P)."""
        return np.stack([eval_jet(f, x, order, dtype=self.dtype)
                         for f in self.u], axis=1)

    def frame_at(self, x):
        """Rows g(x), g'(x), ..., g^(d)(x) of the normalized lift; an array
        of points gives one frame per point, (*x.shape, d+1, d+1)."""
        x = np.asarray(x)
        xs = x.reshape(-1)
        x0 = self.dtype.type(self.x0)  # anchors x0 + j/2 in the spec's dtype
        js = np.floor((xs - x0) / _STEP + 0.5).astype(np.int64)
        lo, hi = min(int(js.min()), 0), max(int(js.max()), 0)
        lifts = _lift_coeffs(self, x0 + np.arange(lo, hi + 1) * _STEP,
                             _SHIFT_ORDER)[0]
        scale = _falling(self.d, self.dtype).diagonal()[:, None]

        def carry(j, h):
            # rows 0..d of anchor j's identity lift at the anchor + h: the
            # spec's lift is that lift times the frame at the anchor
            rows = _shifted_lifts(lifts[..., j - lo], h, self.d)
            return np.ascontiguousarray(np.moveaxis(rows, 0, -2) * scale)

        walk = [(j, 1) for j in range(hi)] + [(j, -1) for j in range(0, lo, -1)]
        frames = {0: self.F0}
        if walk:
            starts, signs = np.array(walk).T
            for (j, sign), step in zip(walk, carry(starts, signs * _STEP)):
                frames[j + sign] = step @ frames[j]
        out = carry(js, xs - (x0 + js * _STEP)) @ np.stack(
            [frames[j] for j in js.tolist()])
        bad = ~np.all(np.isfinite(out), axis=(1, 2))
        if bad.any():
            raise IntegrationFailure(f"frame blew up at x = {xs[bad.argmax()]:g}")
        drift = linalg.det_dense(out) - 1
        if np.any(np.abs(drift) > _UNIMODULAR_TOL):
            i = int(np.argmax(np.abs(drift)))
            cond = np.linalg.cond(out[i].astype(np.float64))
            raise IntegrationFailure(
                f"frame lost unimodularity at x = {xs[i]:g}: W - 1 = "
                f"{float(drift[i]):.3g}, condition number {cond:.3g}")
        return out.reshape(x.shape + out.shape[1:])


@functools.lru_cache(maxsize=None)
def _ode_table(order, d, dtype):
    """Read-only tables of the ODE recursion over its M = order - d orders,
    entries of dtype's ``_falling`` table.

    (weights, steps): weights, (d, M, order+1), holds at [i, m, k] the
    weight (j + i)!/j!, j = m - k, of the term u_i[k] g[j + i] of order m,
    and 0 where k > m; entry m of steps is (rows, divisor): row i of rows,
    (d, m+1), holds j + i for j = m..0, and the divisor is -(m + d + 1)!/m!,
    negated so that one division gives the new row.
    """
    falling = _falling(order, dtype)
    j = np.arange(order - d)[:, None] - np.arange(order + 1)  # (M, order+1)
    i = np.arange(d)[:, None, None]
    weights = np.where(j >= 0, falling[i, np.maximum(j, 0) + i], 0)
    weights.flags.writeable = False
    steps = []
    for m in range(order - d):
        rows = np.arange(m, -1, -1) + np.arange(d)[:, None]
        rows.flags.writeable = False
        steps.append((rows, -falling[d + 1, m + d + 1]))
    return weights, tuple(steps)


def _ode_taylor_coeffs(u_coeffs):
    """Taylor coefficients of the lift from the identity frame, at each of
    P points, (order+1, d+1, P), from the u_i there, (order+1, d, P).

    Rows 0..d come from the identity frame; higher rows from the ODE
    recursion g^(d+1) = -sum_i u_i g^(i), expanded coefficientwise: the
    m-th Taylor coefficient of u_i g^(i) is sum_k u_i[k] * g[m-k+i] *
    (m-k+i)!/(m-k)!.  Every product u_i[k] (m-k+i)!/(m-k)! of every order
    is formed in one multiply up front; each order is then one
    vector-matrix product per (point, i), all in one stacked matmul, a sum
    over i in order of i from +0.0 (``initial=0``), and one division.
    """
    # point-major contiguous operands (``take``, where ``g[:, rows]`` is
    # not, and a contiguous u, which makes the products contiguous): one
    # stacked matmul then makes every product with the BLAS call a lone
    # product makes, so each point's result is the same bit for bit
    u = np.ascontiguousarray(np.transpose(u_coeffs, (2, 1, 0)))  # (P, d, order+1)
    order, d = len(u_coeffs) - 1, u_coeffs.shape[1]
    dtype = u.dtype
    g = np.zeros((u.shape[0], order + 1, d + 1), dtype=dtype)
    for k in range(d + 1):
        g[:, k, k] = dtype.type(1) / math.factorial(k)
    weights, steps = _ode_table(order, d, dtype)
    terms = u[:, :, None] * weights  # (P, d, M, order+1)
    for m, (rows, divisor) in enumerate(steps):
        sums = terms[:, :, m, None, : m + 1] @ np.take(g, rows, axis=1)
        np.divide(np.add.reduce(sums[:, :, 0], axis=1, initial=0), divisor,
                  out=g[:, m + d + 1])
    return np.moveaxis(g, 0, -1)


# OpenBLAS's dgemm sums each entry in order, so an entry's bits do not
# depend on the other rows and columns, but only when the product has at
# least two rows (one row goes to a dgemv, summed in another order) and
# its columns come in whole blocks of 8 (a short tail block is summed in
# another order); the shift pads its power table to whole blocks
_COLUMN_BLOCK = 8


@functools.lru_cache(maxsize=None)
def _shift_table(order, rows, dtype):
    """Read-only gather indices and weights of the shift product, each
    (rows, order+1): entry [k, i] is term j = order - i of row k, the
    coefficient k + j weighted (k + j)!/j!, entry [k, k + j] of the real
    dtype's ``_falling`` table, so a sum along i adds the terms highest
    order (smallest) first.  Terms past the series, k + j > order, read
    coefficient order with weight 0."""
    k = np.arange(rows)[:, None]
    m = k + order - np.arange(order + 1)
    index = np.minimum(m, order)
    weights = np.where(m <= order, _falling(order, dtype)[k, index], 0)
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


def _frame_from_coeffs(g, h, d):
    """Evaluate rows g^(k)(t+h), k = 0..d, from Taylor coefficients at t.

    Row k is sum_j falling[k, k+j] g[k+j] h^j, and every row at every
    offset comes from one matrix product: the weighted coefficients of
    each point, (rows, order+1), times a table of the powers h^j,
    (order+1, offsets), with j running down so that the smallest terms are
    added first.  g is (N+1, d+1, ...) and h, real or complex, broadcasts
    against g's trailing axes to a shape; the rows come out (d+1, d+1,
    *shape).  The axes g varies on are the product's stack (or its rows,
    when h does not vary there too), the rest are its columns; a complex h
    of a real g goes in as the real view of its power table, so a float64
    product stays in BLAS's real gemm.
    """
    order = g.shape[0] - 1
    h = np.asarray(h)
    dtype = np.result_type(g, h)
    shape = np.broadcast_shapes(g.shape[2:], h.shape)
    tail = (1,) * (len(shape) + 2 - g.ndim) + g.shape[2:]
    h = h.reshape((1,) * (len(shape) - h.ndim) + h.shape)
    own = [i for i, n in enumerate(tail) if n != 1]
    cols = [i for i, n in enumerate(tail) if n == 1]
    batch = tuple(shape[i] for i in own)
    # the weighted coefficients of each point, (*batch, d+1 components,
    # d+1 rows, N+1 terms)
    index, weights = _shift_table(order, d + 1, np.finfo(g.dtype).dtype)
    coeffs = np.moveaxis(g.reshape(g.shape[:2] + batch), (0, 1), (-1, -2))
    lhs = np.take(coeffs, index, axis=-1) * weights
    lhs = lhs.reshape(batch + (-1, order + 1))
    # the powers h^j at each offset of a point, (*stack, N+1, offsets)
    stack = tuple(h.shape[i] for i in own)
    if all(n == 1 for n in stack):
        stack, lhs = (), lhs.reshape(-1, order + 1)
    offsets = math.prod(shape[i] for i in cols)
    h = np.broadcast_to(h, [h.shape[i] if i in own else shape[i]
                            for i in range(len(shape))])
    h = h.transpose(own + cols).reshape(stack + (1, offsets)).astype(dtype)
    real = dtype.kind == "c" and g.dtype.kind != "c"
    width = offsets * (2 if real else 1)
    table = np.zeros(stack + (order + 1, -(-width // _COLUMN_BLOCK)
                              * _COLUMN_BLOCK),
                     dtype=g.dtype if real else dtype)
    powers = table[..., :width]
    np.power(h, np.arange(order, -1, -1)[:, None],
             out=powers.view(dtype) if real else powers)
    # numpy's own loop for a dtype BLAS lacks (longdouble) runs about 2.5
    # times faster under dot than under matmul, with the same sum order
    out = (lhs @ table if stack else np.dot(lhs, table))[..., :width]
    if real:
        out = out.view(dtype)
    out = out.reshape(batch + (g.shape[1], d + 1)
                      + tuple(shape[i] for i in cols))
    axes = [len(own) + 2 + cols.index(i) if i in cols else own.index(i)
            for i in range(len(shape))]
    return out.transpose([len(own) + 1, len(own)] + axes)


def _shifted_lifts(g, h, kmax):
    """Taylor coefficients 0..kmax of the lift at t + h, (kmax+1, *shape,
    d+1), from its coefficients g, (N+1, d+1, ...), at t, h (real or
    complex) broadcast against g's trailing axes: the rows of the shift
    product (``_frame_from_coeffs``) over k!.  IntegrationFailure when
    kmax exceeds N, or when a row's last term is not below roundoff (h
    beyond the convergence radius, or a lift that overflowed)."""
    order = g.shape[0] - 1
    if kmax > order:
        raise IntegrationFailure(f"Taylor rows 0..{kmax} asked of an "
                                 f"order-{order} lift")
    rows = _frame_from_coeffs(g, h, kmax)  # row k: the k-th derivative
    k = np.arange(kmax + 1).reshape((-1,) + (1,) * (rows.ndim - 2))
    # |h|^(order-k) in float64: a threshold, and longdouble's pow is slow
    last = (_falling(order, np.float64)[k, order]
            * np.max(np.abs(g[-1]), axis=0)
            * np.abs(h).astype(np.float64) ** (order - k))
    bound = np.finfo(g.dtype).eps * np.max(np.abs(rows), axis=1)
    if not np.all((last <= bound) & np.isfinite(bound)):  # NaN fails too
        if not np.all(np.isfinite(g)):
            raise IntegrationFailure(f"the lift overflowed: its order-{order} "
                                     "Taylor series is not finite")
        raise IntegrationFailure(f"node offset {np.max(np.abs(h)):.3g} lies "
                                 "outside the lift's radius of convergence")
    rows = rows / _falling(kmax, g.dtype).diagonal().reshape(k.shape + (1,))
    return np.moveaxis(rows, 1, -1)


def _lift_coeffs(spec, xs, order):
    """Coefficient arrays of the lift based at each of a 1-D array of P
    points with the identity frame, (order+1, d+1, P), and of the u_i it was
    built from, (order+1, d, P): one walk of the u-trees per point and one
    run of the ODE recursion serve every point, and no frame is transported.
    spec may be a sequence of specs of one d and dtype: each is walked at
    every point, its P columns after those of the spec before it, and one
    recursion still serves them all.  IntegrationFailure when the identity
    frame's d + 1 rows exceed the order, or when the u_i have no finite
    Taylor series at a point."""
    specs = [spec] if isinstance(spec, CurveSpec) else spec
    d = specs[0].d
    if d > order:
        raise IntegrationFailure(f"the {d + 1} rows of the identity "
                                 f"frame do not fit an order-{order} lift")
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.concatenate([s.u_jet(xs, order) for s in specs], axis=-1)
    bad = ~np.all(np.isfinite(u), axis=(0, 1))
    if bad.any():
        raise IntegrationFailure(
            "the coefficient functions are not finite to order "
            f"{order} at x = {xs[bad.argmax() % len(xs)]:g}")
    return _ode_taylor_coeffs(u), u


def gamma_jet(spec: CurveSpec, x, order) -> Jet:
    """Jet (order+1, d+1) of the spec's normalized lift at x, to the given
    order (>= d): the identity lift there times the frame there."""
    lift = _lift_coeffs(spec, np.array([x]), order)[0][..., 0]
    return Jet(lift @ spec.frame_at(x))


def wronskian(spec: CurveSpec, x) -> float:
    """det(g, g', ..., g^(d)) at x; identically 1 up to transport roundoff."""
    return float(linalg.det_dense(spec.frame_at(x)))


def normalized_lift(raw, ref=None):
    """Rescale an arbitrary lift to unit Wronskian and read off its u's.

    raw: (K+1, d+1) Taylor coefficients of the lift components, K >= 2d+1.
    Returns (lift, u): the coefficients of the rescaled lift, (K-d+1, d+1),
    and of the d invariants of the ODE it satisfies, (K-2d, d).  A stack of
    lifts, (K+1, ..., d+1), is rescaled all at once, each on its own, and
    gives stacks of both; ref then broadcasts against the stack.

    The raw lift solves its own ODE g^(d+1) + b_d g^(d) + ... + b_0 g = 0,
    and its Wronskian W obeys Abel's identity W' = -b_d W (Coddington &
    Levinson, Theory of Ordinary Differential Equations, 1955, ch. 3).  So
    the scale f = W^(-1/(d+1)) is W0^(-1/(d+1)) exp(int b_d / (d+1)): one
    jet solve for the b's, whose factorization of the constant-term frame
    gives W0, and the recurrence m f_m = sum_k b_d[k] f_(m-1-k) / (d+1) of
    f' = f b_d / (d+1), summed in order of k over whole arrays.  A second
    solve on the rescaled frame gives the u's.

    Sign handling: when d+1 is odd the real odd root of the Wronskian fixes
    the lift uniquely whatever the sign of W.  When d+1 is even the Wronskian
    must be positive (raises DegenerateLift otherwise) and both signs of the
    root normalize, so the leftover overall sign is chosen to make the dot
    product with ref positive when ref is given.  A complex lift takes the
    principal root, turned by the (d+1)-th root of unity that brings its dot
    product with ref nearest the positive real axis.
    """
    d = raw.shape[-1] - 1
    if len(raw) < 2 * d + 2:
        raise ValueError(f"component jets must have order >= {2 * d + 1}")

    n = d + 1
    frame = derivative_stack(raw, d + 2)
    try:
        solve, (sign, logdet) = jet_factor(frame[..., :n])
    except DegenerateSystem as exc:
        raise DegenerateLift(f"vanishing Wronskian: {exc}") from exc
    b_d = solve(-frame[..., n])[..., d]
    # one point axis of length >= 1 throughout: numpy's scalar arithmetic
    # rounds differently from its array loops, and a stack member must come
    # out as its own call does
    stack = b_d.shape[1:]
    rate = b_d.reshape(len(b_d), -1) / n
    sign, logdet = np.reshape(sign, -1), np.reshape(logdet, -1)
    if np.iscomplexobj(sign):
        f0 = np.exp(-(logdet + 1j * np.angle(sign)) / n)
    elif n % 2 == 0 and np.any(sign < 0):
        raise DegenerateLift("negative Wronskian admits no normalized lift")
    else:  # sign is 1 when n is even; when n is odd the odd root keeps it
        f0 = sign * np.exp(-logdet / n)
    f = np.empty((len(rate) + 1,) + rate.shape[1:], dtype=rate.dtype)
    f[0] = f0
    for m in range(1, len(f)):
        acc = rate[0] * f[m - 1]
        for k in range(1, m):
            acc = acc + rate[k] * f[m - 1 - k]
        f[m] = acc / m

    scaled = mul(f.reshape(f.shape[:1] + stack + (1,)), raw)
    if np.iscomplexobj(sign) and ref is not None:
        turns = _roots_of_unity(n, logdet.dtype)
        dots = np.sum(ref * scaled[0], axis=-1)[..., None] * turns
        turn = turns[np.argmin(np.abs(np.angle(dots)), axis=-1)]
        scaled = scaled * turn[..., None]
    elif n % 2 == 0 and ref is not None:
        flip = np.sum(ref * scaled[0], axis=-1) < 0
        scaled = np.where(flip[..., None], -scaled, scaled)

    frame = derivative_stack(scaled, d + 2)
    try:
        coeffs = jet_solver(frame[..., :n])(-frame[..., n])
    except DegenerateSystem as exc:
        raise DegenerateLift(f"frame not invertible: {exc}") from exc
    return scaled, coeffs[..., :d]


def _roots_of_unity(n, dtype):
    """exp(2 pi i j / n), j = 0..n-1, with the angles taken in the real dtype."""
    turns = 2 * np.arccos(np.asarray(-1, dtype=dtype)) * np.arange(n) / n
    return np.exp(1j * turns)


def random_curve_spec(d, seed=None, dtype=np.float64):
    """Random test curve: identity frame, and u_i trig-polynomial nodes
    (``trig_poly``) whose amplitudes, damped harmonic by harmonic, come
    from one draw of the seed's stream."""
    # row i: a0, c_1, s_1, c_2, s_2 of u_i, drawn in that order, damped
    amps = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(d, 5)) * _DAMP
    u = [trig_poly(a0, [(c1, s1), (c2, s2)]) for a0, c1, s1, c2, s2 in amps]
    return CurveSpec(d, u, 0.0, np.eye(d + 1), dtype=dtype)
