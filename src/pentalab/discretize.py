"""Difference-equation coordinates of a discretized curve and their limits.

The points of a nondegenerate curve sampled at step eps satisfy a
(d+2)-term linear recurrence.  Its coefficients come in two bases: a_tilde
multiplies the points themselves, A multiplies iterated forward differences.
Scaled copies of the A recover the continuous coefficients u_i as the step
shrinks, which is what `limit_diagnostics` reads off a Cauchy contour in
the step.

No curve is sampled.  The q-difference quotients δ_j = Δʲγ/εʲ of the
samples γ((s+k)ε), k = 0..j, are read from the Taylor coefficients f_m of
γ at x: the j-th divided difference of t^m at the nodes (s+k)ε is
ε^{m-j} h_{m-j}(s, ..., s+j), with h the complete homogeneous symmetric
polynomial (de Boor, "Divided differences", Surveys in Approximation
Theory 1, 2005), so δ_j = j! Σ_{m≥j} f_m ε^{m-j} h_{m-j}(s, ..., s+j).
A jet cut at order d+4 gives every δ_j, j <= d+1, as a polynomial in ε
exact to order 3, and the recurrence δ_{d+1} = -Σ_i s_i δ_i solved in
that basis is O(1)-conditioned however small the step, with
A_i = s_i ε^{d+1-i}.
"""

import functools
import math

import numpy as np

from . import linalg
from .curves import _lift_coeffs
from .expansion import _contour, _taylor
from .fitting import decay_order

# orders of a lift jet beyond d that a recurrence window reads: with a jet
# of order d + 4, orders 0..3 in the step of every scaled difference are exact
_WINDOW_ORDERS = 4


@functools.lru_cache(maxsize=None)
def _h_table(s, top, n):
    """(top+1, n) read-only table of j! h_k(s, s+1, ..., s+j), zero where
    j + k reaches n, from exact integer arithmetic."""
    table = np.zeros((top + 1, n))
    for j in range(top + 1):
        h = [1] + [0] * (n - 1)  # h_k of no variables
        for v in range(s, s + j + 1):
            for k in range(1, n):
                h[k] += v * h[k - 1]
        table[j, :n - j] = [math.factorial(j) * hk for hk in h[:n - j]]
    table.flags.writeable = False
    return table


def _scaled_differences(coeffs, eps, s, top):
    """δ_j = Δʲγ/εʲ of the samples γ((s+k)ε), j = 0..top, from the Taylor
    coefficients (n, ...) of γ at x, (top+1, *shape): eps broadcasts
    against the trailing axes of coeffs to shape.  Each δ_j is summed by
    Horner's rule in ε, so a stack of steps gives each member the bits of
    its own call."""
    coeffs = np.asarray(coeffs)
    n = len(coeffs)
    table = _h_table(s, top, n)
    # terms[j, k] = j! h_k f_{j+k}, zero past the jet's last order
    index = np.minimum(np.arange(top + 1)[:, None] + np.arange(n), n - 1)
    terms = table.reshape(table.shape + (1,) * (coeffs.ndim - 1))
    terms = terms * coeffs[index]
    acc = terms[:, -1]
    for k in range(n - 2, -1, -1):
        acc = acc * eps + terms[:, k]
    return acc


def _recurrence(deltas):
    """s with δ_{d+1} = -Σ_i s_i δ_i, (..., d+1), from the scaled
    differences (d+2, ..., d+1) of each member of a stack, in one stacked
    solve."""
    d = deltas.shape[0] - 2
    cols = np.moveaxis(deltas[:d + 1], 0, -1)
    return linalg.stack_solver(cols)(-deltas[d + 1][..., None])[..., 0]


def tilde_from_A(A):
    """Point-basis coefficients of the recurrence with difference basis A,
    or of each of a stack (..., d+1) of them.

    The leading difference coefficient is one, so the i-th point coefficient
    is an alternating binomial sum over A_i..A_{d+1}, summed in order of k.
    """
    A = np.asarray(A)
    d = A.shape[-1] - 1
    dtype = np.result_type(A.dtype, np.float64)
    full = np.concatenate([A.astype(dtype), np.ones(A.shape[:-1] + (1,), dtype)],
                          axis=-1)
    out = np.empty(A.shape, dtype=dtype)
    for i in range(d + 1):
        out[..., i] = sum((-1) ** (k - i + 1) * math.comb(k, i) * full[..., k]
                          for k in range(i, d + 2))
    return out


class LimitTable:
    """Taylor coefficients in the step of the recurrence coefficients at x,
    with their decay orders and limits.

    A and a_tilde hold the coefficients of ε^0..ε^{d+1}, one row per order.
    A_i = O(ε^{p_i}) with p_i = d+1-i, except for the top coefficient whose
    expansion starts one order later (p_d = 2): orders[i] is the first of
    rows 0..p_i of A_i above the noise floor (p_i + 1 when none is), and
    limits[i] is row p_i, the zero-step value of A_i/ε^{p_i}.  a0_order is
    the order of a_tilde_0 - (-1)^d read the same way on rows 0..3.
    """

    __slots__ = ("d", "x", "A", "a_tilde", "powers", "orders", "limits",
                 "a0_order")

    def __init__(self, d, x, A, a_tilde, powers, orders, limits, a0_order):
        self.d = d
        self.x = x
        self.A = A
        self.a_tilde = a_tilde
        self.powers = powers
        self.orders = orders
        self.limits = limits
        self.a0_order = a0_order


def limit_diagnostics(spec, x):
    """Small-step expansion of the recurrence coefficients at x, read off
    the ε-contour from the scaled differences of one lift jet of order
    d + 4, based at x with the identity frame: the recurrence is
    SL(d+1)-invariant."""
    d = spec.d
    powers = np.array([d + 1 - i if i < d else 2 for i in range(d + 1)])
    radius, eps = _contour(range(d + 2), spec.dtype)
    lift = _lift_coeffs(spec, np.array([x]), d + _WINDOW_ORDERS)[0]
    # one window per contour node, (d+2, node, d+1)
    deltas = _scaled_differences(lift[:, None, :, 0], eps[:, None], 0, d + 1)
    s = _recurrence(deltas)
    A = s * np.power(eps[:, None], d + 1 - np.arange(d + 1))
    samples = np.concatenate([A, tilde_from_A(A)], axis=-1)
    # rows above d + 1 are roundoff amplified by radius^-k
    coeffs = _taylor(samples, radius)[:d + 2]
    A, a_tilde = coeffs[:, :d + 1], coeffs[:, d + 1:]
    orders = np.array([decay_order(A[:p + 1, i]) for i, p in enumerate(powers)])
    tail = a_tilde[:4, 0].copy()
    tail[0] -= (-1.0) ** d
    return LimitTable(d, x, A, a_tilde, powers, orders,
                      A[powers, np.arange(d + 1)], decay_order(tail))
