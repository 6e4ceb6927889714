"""Transfer matrices of the discretized system and their continuous limits.

The sampled curve satisfies a one-step recurrence.  In the basis of scaled
forward differences δ_j = Δʲγ/εʲ, j = 0..d, a window of samples advances by
one step under I + εK, where the companion K carries the negated
recurrence coefficients in its last row and tends to the companion U of
the differential equation as the step shrinks.  Transfer matrices
P = Δ_image Δ_curve⁻¹ carry the difference window of the curve to that of
its image under the map, and the discrete Lax relation between I + εK
before and after the map degenerates, at rate step cubed, to the
zero-curvature equation dU/dt = [V, U] + dV/dx.

No window is sampled: `discretize._scaled_differences` reads each one from
a jet, the curve's lift jet at x or the image's jet in the curve variable
there, which one application of the map gives at every step.  The limits
are read off a Cauchy contour in the step, and every piece of the per-node
algebra (the differences, the companions, the transfer matrices) takes a
stack with one member per contour node, so a run does each step once for
all nodes; each member is bit for bit its one-node result.  Every jet
here (Γ, Q_2 Γ, V and the image's) is a bare coefficient array, row k the
k-th Taylor coefficients (see ``jets``).
"""

import numpy as np

from .chimap import chi_map_point
from .discretize import _WINDOW_ORDERS, _recurrence, _scaled_differences
from .expansion import (FIRST_ORDER_TOL, NotCentralized, _contour, _lift,
                        _report, _taylor)
from .fitting import decay_order
from .jets import derivative, derivative_stack, jet_solver, mul
from .linalg import stack_solver


def _maxabs(m):
    return float(np.max(np.abs(m)))


def _u_companion(u):
    """U from the values (u_0, ..., u_{d-1}) at a point: identity block
    above, last row (-u_0, ..., -u_{d-1}, 0)."""
    return _shift_companion(np.append(-u, 0))


def _q2_gamma(g, u):
    """Coefficients of Q_2 Γ = Γ'' + 2 u_{d-1} Γ/(d+1) from those of the
    lift Γ, (n, d+1), and of the u_i, (n, d), at one point."""
    q2g = derivative(derivative(g))
    return q2g + mul(g, u[:, -1])[:len(q2g)] * (2.0 / g.shape[1])


def _v_jets(g, q2g, c):
    """Coefficients of V, V Φ = c (Q_2 Γ derivative stack), from those of
    Γ and Q_2 Γ: row k resolves (Q_2 Γ)^(k) against the frame in one jet
    solve, and a lift jet of order n gives V to order n - d - 2."""
    d = g.shape[1] - 1
    solve = jet_solver(derivative_stack(g, d + 1))
    return solve(derivative_stack(q2g, d + 1) * c).transpose(0, 2, 1)


def _shift_companion(a_tilde):
    """Zero first column, identity block, recurrence coefficients in last
    row; a stack (..., d+1) of coefficient rows gives (..., d+1, d+1)."""
    a_tilde = np.asarray(a_tilde)
    d = a_tilde.shape[-1] - 1
    m = np.zeros(a_tilde.shape + (d + 1,),
                 dtype=np.result_type(a_tilde.dtype, np.float64))
    m[..., :d, 1:] = np.eye(d)
    m[..., d, :] = a_tilde
    return m


def _drift(U, c, v, q2g):
    """Third-order drift of the transfer matrices.

    The scaled difference windows are themselves ε-dependent at first order,
    so the transfer matrix is I + ε²V + ε³Σ + O(ε⁴) with
    Σ = T0 V - V T' + c (d/2) e_d (coefficients of (Q_2Γ)^{(d+1)} in the
    frame), where T0 and T' hold the half-integer drift of the difference
    quotients.  Both transfer matrices carry the same Σ, so it cancels in
    the discrete Lax combination; only the shift difference dV/dx survives.
    U is the companion at x, v is V there and q2g a Q_2 Γ jet of order at
    least d + 1 of the lift based at x with the identity frame, in which
    (Q_2Γ)^{(d+1)} is its own frame coordinates.
    """
    d = len(U) - 1
    for _ in range(d + 1):
        q2g = derivative(q2g)
    e_coeff = q2g[0]
    t0 = np.zeros((d + 1, d + 1))
    tp = np.zeros((d + 1, d + 1))
    for k in range(d):
        t0[k, k + 1] = k / 2.0
        tp[k, k + 1] = k / 2.0
    tp[d] = (d / 2.0) * U[d]
    last = np.zeros(d + 1)
    last[d] = 1.0
    return t0 @ v - v @ tp + c * (d / 2.0) * np.outer(last, e_coeff)


class LaxReport:
    """Contour diagnostics of the discrete Lax relation and its limit."""

    __slots__ = ("d", "x", "c", "target", "conj_slope", "conj_limit_dev",
                 "identity_max", "quot_lhs_dev", "quot_rhs_dev",
                 "w_target_dev", "p0_eps1", "p0_v_dev", "p1_v_dev",
                 "shift_vprime_dev", "drift_dev")

    # check -> (fields, lowest and highest passing value of each field)
    _GATES = {
        "slope_in_band": (("conj_slope",), 1, 1),  # an integer decay order
        "conj_limit": (("conj_limit_dev",), 0.0, 1e-3),
        "identity": (("identity_max",), 0.0, 1e-9),
        "quotients": (("quot_lhs_dev", "quot_rhs_dev"), 0.0, 2e-2),
        "no_first_order": (("p0_eps1",), 0.0, 1e-4),
        "second_order_v": (("p0_v_dev",), 0.0, 1e-3),
    }

    def checks(self):
        """{check: whether every field it gates lies in its band}."""
        return {name: all(low <= getattr(self, f) <= high for f in fields)
                for name, (fields, low, high) in self._GATES.items()}

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__ if k != "target"}


def lax_limit_diagnostics(spec, chi, x):
    """Read every limit of the transfer-matrix picture off the ε-contour.

    Needs a configuration with no first-order drift.  One application of
    the map covers the contour nodes of the extraction and gives, at each
    step ε, the image curve's jet in the curve variable at x; its value
    gives c22 and w as extract_alphas reads them.  The node lifts, Γ,
    Q_2 Γ and U come from one order-40 lift jet at x and its
    u-coefficients.  Both jets, cut at order d + 4, give the scaled
    difference windows of the curve and of its image at shifts 0 and 1,
    and the node algebra is one stacked operation over all contour nodes.
    The transfer matrices and both companions share those windows, which
    makes the discrete relation an identity to solver precision.
    conj_slope is the decay order of the curve's companion's approach to
    U: 1 when its ε^0 coefficient is U and its ε^1 coefficient is not
    zero.  The lift jet is based at x with the identity frame, which no
    limit sees.
    """
    d = spec.d
    order = d + _WINDOW_ORDERS
    lifts, u_coeffs = _lift(spec, [x])
    radius, eps = _contour([p for g in chi.groups for p in g], lifts.dtype)
    # the map goes first: its node shifts guard the lift against overflow
    mapped, u = chi_map_point(chi, lifts[..., 0], eps, order + d)
    report = _report(x, 2, radius, mapped[0], u[0])
    if abs(report.alpha[1, 1]) > FIRST_ORDER_TOL:
        raise NotCentralized("configuration is not centralized at first order")
    c22 = float(report.alpha[2, 2])
    U = np.asarray(_u_companion(u_coeffs[0, :, 0]), dtype=np.float64)
    g = lifts[:d + 5, :, 0]
    q2g = _q2_gamma(g, u_coeffs[:d + 5, :, 0])
    vj = _v_jets(g, q2g, c22)
    V, V_prime = vj[0], derivative(vj)[0]
    target = V @ U - U @ V + V_prime
    dudt_w = np.zeros_like(U)
    dudt_w[d, :d] = -np.asarray(report.w, dtype=np.float64)

    # every node at once, node axis after (curve, image) and the shift:
    # both companions, both transfer matrices, then the quotients
    jets = np.stack(np.broadcast_arrays(lifts[:order + 1, None, :, 0],
                                        mapped), axis=1)
    deltas = [_scaled_differences(jets, eps[:, None], s, d + 1) for s in (0, 1)]
    K0, K1 = _shift_companion(-_recurrence(deltas[0]))
    # each window with δ_0..δ_d as columns, (shift, curve or image, node,
    # d+1, d+1): P transposed solves curve @ P^T = image
    cols = np.stack([np.moveaxis(dl[:d + 1], 0, -1) for dl in deltas])
    p0, p1 = np.swapaxes(stack_solver(cols[:, 0])(cols[:, 1]), -1, -2)
    eye = np.eye(d + 1)
    e = eps[:, None, None]
    p0_inv = stack_solver(p0)(np.broadcast_to(eye, p0.shape))
    identity = _maxabs(eye + e * K1 - p1 @ (eye + e * K0) @ p0_inv)
    # P1 (I + εK0) P0⁻¹ - (I + εK0), its difference taken before the product
    rhs = ((p1 - p0) + e * (p1 @ K0 - K0 @ p0)) @ p0_inv
    stacks = np.stack([K0, (K1 - K0) / e ** 2, rhs / e ** 3, p0 - eye,
                       p1 - eye], axis=1)
    coeffs = _taylor(stacks.reshape(eps.size, -1), radius)
    conj, qlhs, qrhs, p0, p1 = np.moveaxis(
        coeffs.reshape((-1, 5, d + 1, d + 1)), 1, 0)

    out = LaxReport()
    out.d, out.x, out.c = d, float(x), c22
    out.target = target
    out.conj_slope = decay_order([conj[0] - U, conj[1]])
    out.conj_limit_dev = _maxabs(conj[0] - U)
    out.identity_max = identity
    out.quot_lhs_dev = _maxabs(qlhs[0] - target)
    out.quot_rhs_dev = _maxabs(qrhs[0] - target)
    out.w_target_dev = _maxabs(dudt_w - target)
    out.p0_eps1 = _maxabs(p0[1])
    out.p0_v_dev = _maxabs(p0[2] - V)
    out.p1_v_dev = _maxabs(p1[2] - V)
    out.shift_vprime_dev = _maxabs((p1[3] - p0[3]) - V_prime)
    out.drift_dev = _maxabs(p0[3] - _drift(U, c22, V, q2g))
    return out
