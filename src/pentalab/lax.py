"""Transfer matrices of the discretized system and their continuous limits.

The sampled curve satisfies a one-step recurrence, which in matrix form is a
shift companion L with the point-basis coefficients in its last row.  The
Pascal-signed change of basis D carries point samples to scaled forward
differences; conjugating L by D and peeling one power of the step exposes the
companion U of the differential equation.  Transfer matrices P carry the
frame of the curve to the frame of its image under the map, and the discrete
Lax relation between L before and after the map degenerates, at rate step
cubed, to the zero-curvature equation dU/dt = [V, U] + dV/dx.

The limits are read off a Cauchy contour in the step, and every piece of
the per-node algebra (the companions, the difference bases, the transfer
matrices) takes a stack with one member per contour node, so a run does
each step once for all nodes; each member is bit for bit its one-node
result.
"""

import math

import numpy as np

from .chimap import _map_lifted
from .curves import _SHIFT_ORDER, _lift_coeffs, _shifted_lifts
from .discretize import coords_from_samples
from .expansion import (FIRST_ORDER_TOL, NotCentralized, _contour, _report,
                        _taylor)
from .fitting import decay_order
from .jets import Jet, derivative_stack, jet_solver
from .linalg import stack_solver


def _maxabs(m):
    return float(np.max(np.abs(m)))


def _u_companion(u):
    """U from the values (u_0, ..., u_{d-1}) at a point: identity block
    above, last row (-u_0, ..., -u_{d-1}, 0)."""
    return _shift_companion(np.append(-u, 0))


def u_matrix(spec, x):
    """Companion of the curve's differential equation at x.

    Identity block above, last row (-u_0, ..., -u_{d-1}, 0): the frame
    Γ, Γ', ..., Γ^(d) satisfies Φ' = U Φ.
    """
    return _u_companion(spec.u_jet(x, 0).value)


def _q2_gamma(g, u):
    """Jets of the lift Γ and of Q_2 Γ = Γ'' + 2 u_{d-1} Γ/(d+1) from the
    coefficients of Γ, (n, d+1), and of the u_i, (n, d), at one point."""
    g = Jet(g, copy=False)
    return g, g.derivative().derivative() + g * Jet(u[:, -1]) * (2.0 / g.c.shape[1])


def _v_jets(g, q2g, c):
    """Matrix jet of V, V Φ = c (Q_2 Γ derivative stack), from the jets of
    Γ and Q_2 Γ: row k resolves (Q_2 Γ)^(k) against the frame in one jet
    solve, and a lift jet of order n gives V to order n - d - 2."""
    d = g.c.shape[1] - 1
    solve = jet_solver(derivative_stack(g, d + 1))
    rows = solve(derivative_stack(q2g, d + 1) * c)
    return Jet(rows.c.transpose(0, 2, 1), copy=False)


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


def _pascal(d, eps, entry):
    """(*eps.shape, d+1, d+1) lower triangle of entry(k, i, eps) over an
    array of nonzero steps.  Powers go through np.power: the ``**``
    operator squares a complex array by another rounding than a complex
    scalar's power, and the contour's steps are complex."""
    eps = np.asarray(eps)
    if np.any(eps == 0):
        raise ValueError("eps must be nonzero")
    m = np.zeros(eps.shape + (d + 1, d + 1),
                 dtype=np.result_type(eps.dtype, np.float64))
    for k in range(d + 1):
        for i in range(k + 1):
            m[..., k, i] = entry(k, i, eps)
    return m


def d_eps(d, eps):
    """Point samples to scaled differences: (-1)^{k-i} C(k,i) / eps^k, one
    matrix per step of an array eps."""
    return _pascal(d, eps, lambda k, i, e:
                   (-1) ** (k - i) * math.comb(k, i) / np.power(e, k))


def d_eps_inv(d, eps):
    """Pascal inverse of d_eps: entries C(k,i) eps^i."""
    return _pascal(d, eps, lambda k, i, e: math.comb(k, i) * np.power(e, i))


def _drift(U, c, v, q2g):
    """Third-order drift of the conjugated transfer matrices.

    The scaled difference frames are themselves ε-dependent at first order,
    so the conjugated transfer matrix is I + ε²V + ε³Σ + O(ε⁴) with
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
        q2g = q2g.derivative()
    e_coeff = q2g.value
    t0 = np.zeros((d + 1, d + 1))
    tp = np.zeros((d + 1, d + 1))
    for k in range(d):
        t0[k, k + 1] = k / 2.0
        tp[k, k + 1] = k / 2.0
    tp[d] = (d / 2.0) * U[d]
    last = np.zeros(d + 1)
    last[d] = 1.0
    return t0 @ v - v @ tp + c * (d / 2.0) * np.outer(last, e_coeff)


def _transfer(curve, mapped):
    """P with P (curve rows) = mapped rows, both sampled at the same steps;
    stacks (..., d+1, d+1) of windows give one P per member."""
    solve = stack_solver(np.swapaxes(curve, -1, -2))
    return np.swapaxes(solve(np.swapaxes(mapped, -1, -2)), -1, -2)


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
    the map covers the contour nodes of the extraction times the window
    columns k = 0..d+1, the configuration shifted by k (its image at x is
    the image at x + kε), lifting each distinct node offset p + k once, and
    column 0 gives c22 and w as extract_alphas reads them; the node lifts,
    the curve windows, Γ, Q_2 Γ and U all come from one order-40 lift jet
    at x and its u-coefficients.  The node algebra is one stacked
    operation over all contour nodes.  Each window is shared between the
    transfer matrices and the two companions, which makes the discrete
    relation an identity to solver precision.  conj_slope is the decay
    order of the conjugated companion's approach to U: 1 when its ε^0
    coefficient is U and its ε^1 coefficient is not zero.  The lift jet is
    based at x with the identity frame, which no limit sees.
    """
    d = spec.d
    lifts, u_coeffs = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)
    radius, eps = _contour([p for g in chi.groups for p in g], spec.dtype)
    ks = np.arange(d + 2)
    windows, u = _map_lifted(spec, chi, x, eps[:, None], 2 * d + 2, lifts,
                             shift=ks)
    windows = windows.value  # (node, k, d+1): x .. x + (d+1) eps
    report = _report(x, 2, radius, windows[:, 0], u.value[:, 0])
    if abs(report.alpha[1, 1]) > FIRST_ORDER_TOL:
        raise NotCentralized("configuration is not centralized at first order")
    c22 = float(report.alpha[2, 2])
    U = np.asarray(_u_companion(u_coeffs[0, :, 0]), dtype=np.float64)
    g, q2g = _q2_gamma(lifts[:d + 5, :, 0], u_coeffs[:d + 5, :, 0])
    vj = _v_jets(g, q2g, c22)
    V, V_prime = vj.value, vj.derivative().value
    target = V @ U - U @ V + V_prime
    dudt_w = np.zeros_like(U)
    dudt_w[d, :d] = -np.asarray(report.w, dtype=np.float64)

    # every node at once, node axis first: both companions, both transfer
    # matrices, the conjugated companion, then its quotients
    curves = _shifted_lifts(lifts[..., 0], ks * eps[:, None], 0)[0]
    eye = np.eye(d + 1)
    dm, dmi = d_eps(d, eps), d_eps_inv(d, eps)
    lt0, lt1 = _shift_companion(
        coords_from_samples(np.stack([curves, windows]), x, eps).a_tilde)
    p0 = _transfer(curves[:, :d + 1], windows[:, :d + 1])
    p1 = _transfer(curves[:, 1:], windows[:, 1:])
    conjugated = p1 @ lt0 @ stack_solver(p0)(np.broadcast_to(eye, p0.shape))
    e = eps[:, None, None]
    stacks = np.stack([(dm @ lt0 @ dmi - eye) / e,
                       dm @ (lt1 - lt0) @ dmi / e ** 3,
                       dm @ (conjugated - lt0) @ dmi / e ** 3,
                       dm @ p0 @ dmi - eye, dm @ p1 @ dmi - eye], axis=1)
    coeffs = _taylor(stacks.reshape(eps.size, -1), radius)
    conj, qlhs, qrhs, p0, p1 = np.moveaxis(
        coeffs.reshape((-1, 5, d + 1, d + 1)), 1, 0)

    out = LaxReport()
    out.d, out.x, out.c = d, float(x), c22
    out.target = target
    out.conj_slope = decay_order([conj[0] - U, conj[1]])
    out.conj_limit_dev = _maxabs(conj[0] - U)
    out.identity_max = _maxabs(lt1 - conjugated)
    out.quot_lhs_dev = _maxabs(qlhs[0] - target)
    out.quot_rhs_dev = _maxabs(qrhs[0] - target)
    out.w_target_dev = _maxabs(dudt_w - target)
    out.p0_eps1 = _maxabs(p0[1])
    out.p0_v_dev = _maxabs(p0[2] - V)
    out.p1_v_dev = _maxabs(p1[2] - V)
    out.shift_vprime_dev = _maxabs((p1[3] - p0[3]) - V_prime)
    out.drift_dev = _maxabs(p0[3] - _drift(U, c22, V, q2g))
    return out
