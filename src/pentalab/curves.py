"""Nondegenerate curves with unit-Wronskian lifts, given by coefficient data.

A curve never stores an explicit parametrization.  It is defined by d
periodic coefficient functions u_0..u_{d-1} plus one normalized frame at a
base point: the lift solves the linear ODE

    g^(d+1) + u_{d-1} g^(d-1) + ... + u_0 g = 0

componentwise, and because the equation has no g^(d) term the frame
determinant (Wronskian) is conserved, so det = 1 propagates from the initial
frame.  Jets of any order then come from the ODE recursion for free, which is
the ground truth every downstream check leans on.  A lift jet is one
``Jet`` of shape (K+1, d+1): row k holds the k-th Taylor coefficients of all
d+1 components.  ``CurveSpec.u_jet`` is the one evaluator of the u_i: a
(K+1, d) ``Jet`` in the spec's dtype, used by frame transport, lift jets and
every module that needs the invariants at a point.

Frame transport uses Taylor stepping on a fixed anchor grid (order 14, step
1/16) rather than a generic ODE integrator: the recursion hands us the
Taylor method directly and keeps the Wronskian at machine precision.  Each
visited anchor keeps its frame and, once needed, its order-14 Taylor series,
so stepping on and the last partial step to x are Horner evaluations of a
cached series.  A walk evaluates the u-jets of the anchors it newly needs
in one pass over the u-trees (``u_jet`` at an array of points, at most
``_AHEAD`` anchors per pass) before it steps.  The cache never changes a
result: anchor frames do not depend on the order in which points are asked.

Lift jets are not cached.  ``_lift_coeffs`` takes an array of points and
evaluates their u-jets in one pass over the u-trees, so one application of
the map (``chimap.build_spans``) lifts all its distinct nodes in one pass;
``gamma_jet`` is the one-point case.
"""

import functools
import math
import json

import numpy as np

from . import linalg
from .jets import (AnalyticFn, DegenerateSystem, Jet, derivative_stack, det_jet, eval_jet,
                   jet_solver, trig_poly)

_STEP = 1.0 / 16.0
_STEP_ORDER = 14
# anchors whose u-jets one pass evaluates ahead of a walk (x = 64 away):
# bounds the memory of a long walk that the frame check may cut short
_AHEAD = 1024


class IntegrationFailure(Exception):
    """Frame transport produced non-finite or exploding values."""


class DegenerateLift(Exception):
    """No normalized lift exists (vanishing or wrong-sign Wronskian)."""


@functools.lru_cache(maxsize=None)
def _falling_table(order):
    """Read-only float64 table, entry [k, n] = n (n-1) ... (n-k+1), k, n <= order."""
    n = np.arange(order + 1, dtype=np.float64)
    table = np.ones((order + 1, order + 1))
    for k in range(1, order + 1):
        table[k] = table[k - 1] * (n - (k - 1))
    table.flags.writeable = False
    return table


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
        self.F0 = f0
        # anchor j -> [frame, Taylor coefficients or None]; the keys are
        # always the contiguous run lo..hi, which contains 0
        self._anchors = {0: [f0, None]}
        self._lo = self._hi = 0
        # anchor j -> u-jet, evaluated ahead of a walk and not yet used
        self._ahead = {}

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
        d = int(obj["d"])
        u = [AnalyticFn.from_dict(node) for node in obj["u"]]
        f0 = np.array(obj["F0"], dtype=np.float64)
        det = float(np.linalg.det(f0))
        if abs(det - 1.0) > 1e-12:
            if det <= 0 and (d + 1) % 2 == 0:
                raise ValueError("initial frame determinant must be positive when d is odd")
            if det == 0:
                raise ValueError("initial frame is singular")
            scale = math.copysign(abs(det) ** (1.0 / (d + 1)), det)
            f0 = f0 / scale
        return CurveSpec(d, u, float(obj["x0"]), f0, dtype=dtype)

    @staticmethod
    def load(path, dtype=np.float64):
        with open(path) as fh:
            return CurveSpec.from_dict(json.load(fh), dtype=dtype)

    # -- frame transport -------------------------------------------------

    def u_jet(self, x, order) -> Jet:
        """Jet (order+1, d) of u_0..u_{d-1} at x, in the spec's dtype; a 1-D
        array of P points gives (order+1, d, P)."""
        return Jet(np.stack([eval_jet(f, x, order, dtype=self.dtype).c
                             for f in self.u], axis=1), copy=False)

    def _taylor(self, j, stop, step):
        """Order-14 Taylor coefficients of the lift at visited anchor j.

        A walk towards stop that lacks them evaluates the u-jets at j and at
        up to _AHEAD - 1 anchors after it in one pass over the u-trees; the
        rest wait in ``_ahead`` for the steps that follow.
        """
        anchor = self._anchors[j]
        if anchor[1] is None:
            if j not in self._ahead:
                walk = range(j, stop, step)[:_AHEAD]
                u = self.u_jet(self.x0 + np.array(walk) * _STEP, _STEP_ORDER).c
                self._ahead = dict(zip(walk, np.moveaxis(u, -1, 0)))
            anchor[1] = _ode_taylor_coeffs(self._ahead.pop(j), anchor[0], self.d,
                                           _STEP_ORDER)
        return anchor[1]

    def frame_at(self, x):
        """Rows g(x), g'(x), ..., g^(d)(x) of the normalized lift."""
        j_target = int(math.floor((x - self.x0) / _STEP + 0.5))
        j = min(max(j_target, self._lo), self._hi)
        h = x - (self.x0 + j_target * _STEP)
        step = 1 if j_target > j else -1
        # the walk reads a series at every anchor it steps from, and at the
        # target when the last step is partial
        stop = j_target + step if h != 0.0 else j_target
        while j != j_target:
            frame = _frame_from_coeffs(self._taylor(j, stop, step), step * _STEP, self.d)
            if not np.all(np.isfinite(frame)) or np.max(np.abs(frame)) > 1e12:
                raise IntegrationFailure(f"frame blew up near x = {self.x0 + j * _STEP:g}")
            j += step
            self._anchors[j] = [frame, None]
            self._lo, self._hi = min(self._lo, j), max(self._hi, j)
        if h == 0.0:
            return self._anchors[j][0].copy()
        out = _frame_from_coeffs(self._taylor(j, stop, step), h, self.d)
        if not np.all(np.isfinite(out)):
            raise IntegrationFailure(f"frame blew up near x = {x:g}")
        return out


@functools.lru_cache(maxsize=None)
def _ode_table(order, d):
    """Per-order index and weight arrays of the ODE recursion, read-only.

    Entry m is a tuple over i < d of (rows, weights): rows j + i and
    weights (j + i)!/j! for j = m..0, plus the divisor (m + d + 1)!/m!.
    """
    falling = _falling_table(order)
    table = []
    for m in range(order - d):
        js = np.arange(m, -1, -1)  # j = m-k as k runs 0..m
        terms = []
        for i in range(d):
            rows, weights = js + i, falling[i, js + i]
            rows.flags.writeable = weights.flags.writeable = False
            terms.append((rows, weights))
        table.append((tuple(terms), falling[d + 1, m + d + 1]))
    return tuple(table)


def _ode_taylor_coeffs(u_coeffs, frame, d, order):
    """Taylor coefficients of the lift at the frame's base point.

    Rows 0..d come from the frame; higher rows from the ODE recursion
    g^(d+1) = -sum_i u_i g^(i), expanded coefficientwise with u_coeffs the
    (order+1, d) array of the u_i: the m-th Taylor coefficient of
    u_i g^(i) is sum_k u_i[k] * g[m-k+i] * (m-k+i)!/(m-k)!.
    """
    dtype = frame.dtype
    g = np.zeros((order + 1, d + 1), dtype=dtype)
    for k in range(d + 1):
        g[k] = frame[k] / math.factorial(k)
    for m, (terms, divisor) in enumerate(_ode_table(order, d)):
        acc = np.zeros(d + 1, dtype=dtype)
        for i, (rows, weights) in enumerate(terms):
            acc += (u_coeffs[: m + 1, i] * weights) @ g[rows]
        g[m + d + 1] = -acc / divisor
    return g


def _frame_from_coeffs(g, h, d):
    """Evaluate rows g^(k)(t+h), k = 0..d, from Taylor coefficients at t.

    One Horner pass for all rows: row k takes the terms m = order..k.
    """
    order = g.shape[0] - 1
    falling = _falling_table(order)
    out = np.zeros((d + 1, d + 1), dtype=g.dtype)
    for m in range(order, -1, -1):
        k = min(m, d) + 1
        out[:k] = out[:k] * h + g[m] * falling[:k, m, None]
    return out


def _lift_coeffs(spec, xs, order):
    """Coefficient arrays of the lift, (order+1, d+1, P), and of the u_i it
    was built from, (order+1, d, P), at a 1-D array of P points: one pass
    over the u-trees serves every point."""
    if order < spec.d:
        raise ValueError(f"jet order must be at least d = {spec.d}")
    u = spec.u_jet(xs, order).c
    g = np.stack([_ode_taylor_coeffs(u[..., i], spec.frame_at(x), spec.d, order)
                  for i, x in enumerate(xs)], axis=-1)
    return g, u


def gamma_jet(spec: CurveSpec, x, order) -> Jet:
    """Jet (order+1, d+1) of the normalized lift at x, to the given order (>= d)."""
    return Jet(_lift_coeffs(spec, np.array([x]), order)[0][..., 0], copy=False)


def wronskian(spec: CurveSpec, x) -> float:
    """det(g, g', ..., g^(d)) at x; identically 1 up to transport roundoff."""
    return float(linalg.det_dense(spec.frame_at(x)))


def normalized_lift(raw, d, ref=None):
    """Rescale an arbitrary lift to unit Wronskian and read off its u's.

    raw: (K+1, d+1) jet of the lift components, K >= 2d+1.
    Returns (lift, u): the rescaled lift as a (K-d+1, d+1) jet and the d
    coefficients of the ODE it satisfies as a (K-2d, d) jet.

    Sign handling: when d+1 is odd the real odd root of the Wronskian fixes
    the lift uniquely whatever the sign of W.  When d+1 is even the Wronskian
    must be positive (raises DegenerateLift otherwise) and both signs of the
    root normalize, so the leftover overall sign is chosen to make the dot
    product with ref positive when ref is given.
    """
    if raw.c.shape[1:] != (d + 1,):
        raise ValueError(f"need {d + 1} components, got shape {raw.c.shape[1:]}")
    if raw.order < 2 * d + 1:
        raise ValueError(f"component jets must have order >= {2 * d + 1}")

    w = det_jet(derivative_stack(raw, d + 1))
    w0 = float(w.value)
    if w0 == 0.0 or not np.isfinite(w0):
        raise DegenerateLift("vanishing Wronskian")
    sign_free = (d + 1) % 2 == 0
    if not sign_free:  # d+1 odd: the odd root handles either sign of W
        s = 1.0 if w0 > 0 else -1.0
        f = ((w * s) ** (-1.0 / (d + 1))) * s
    else:
        if w0 < 0:
            raise DegenerateLift("negative Wronskian admits no normalized lift")
        f = w ** (-1.0 / (d + 1))

    scaled = f * raw
    if sign_free and ref is not None and float(np.dot(ref, scaled.value)) < 0:
        scaled = -scaled

    frame = derivative_stack(scaled, d + 2)
    try:
        coeffs = jet_solver(frame[:, :d + 1])(-frame[:, d + 1])
    except DegenerateSystem as exc:
        raise DegenerateLift(f"frame not invertible: {exc}") from exc
    return scaled, coeffs[:d]


def random_curve_spec(d, seed=None, dtype=np.float64):
    """Random test curve: trig-polynomial u_i with damped harmonics, identity frame."""
    rng = np.random.default_rng(seed)
    u = []
    for _ in range(d):
        damp = (1.0, 0.5, 0.25)
        a0 = rng.uniform(-0.5, 0.5) * damp[0]
        harmonics = [
            (rng.uniform(-0.5, 0.5) * damp[k],
             rng.uniform(-0.5, 0.5) * damp[k])
            for k in (1, 2)
        ]
        u.append(trig_poly(a0, harmonics))
    return CurveSpec(d, u, 0.0, np.eye(d + 1), dtype=dtype)


def zero_curve_spec(d, dtype=np.float64):
    """The curve with u identically zero: polynomial lift components."""
    u = [AnalyticFn.const(0.0) for _ in range(d)]
    return CurveSpec(d, u, 0.0, np.eye(d + 1), dtype=dtype)
