import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pentalab.discretize import (_recurrence, _scaled_differences,
                                 limit_diagnostics, tilde_from_A)
from pentalab.curves import (_SHIFT_ORDER, CurveSpec, _lift_coeffs, _shifted_lifts,
                             random_curve_spec)
from pentalab.fitting import decay_order

from oracles import evaluate, zero_curve_spec

# largest |limit - u_i| per d; measured worst 1.1e-16, 2.2e-16, 2.2e-16 and
# 5.6e-16 (d = 2..5, seeds 0-9, x in {0.1, 0.3, 1.1, -0.7}); sampled windows
# read 3.3e-13, 2.7e-11, 4.7e-9 and 6.2e-7
_LIMIT_GATES = {2: 1e-13, 3: 1e-13, 4: 1e-13, 5: 1e-13}


def recurrence(spec, x, eps):
    """(A, a_tilde) of the one-step recurrence at (x, eps), from the scaled
    differences of the order-40 lift jet at x with the identity frame, whose
    series converges at every sample of a real step up to 0.2."""
    d = spec.d
    lift = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)[0][..., 0]
    A = (_recurrence(_scaled_differences(lift, eps, 0, d + 1))
         * eps ** np.arange(d + 1, 0, -1))
    return A, tilde_from_A(A)


def test_zero_curve_recurrence_is_binomial():
    # the lift of the zero curve is a polynomial of degree d, so its
    # (d+1)-th difference vanishes exactly, s = 0, and the point basis
    # holds the binomial row
    for d, eps in itertools.product((2, 3, 4), (0.17, 0.17j)):
        lift = _lift_coeffs(zero_curve_spec(d), np.array([0.4]), d + 4)[0][..., 0]
        deltas = _scaled_differences(lift, eps, 0, d + 1)
        assert np.all(deltas[d + 1] == 0)
        s = _recurrence(deltas)
        assert np.all(s == 0)
        binomials = [(-1) ** (d - i) * math.comb(d + 1, i) for i in range(d + 1)]
        assert np.array_equal(tilde_from_A(s), binomials)


def test_zero_curve_any_step():
    # the recurrence for polynomial components is exact at every step size
    spec = zero_curve_spec(3)
    for eps in (0.05, 0.3, 1.1):
        assert_allclose(recurrence(spec, 0.0, eps)[1], [-1.0, 4.0, -6.0, 4.0],
                        atol=1e-10)


def test_round_trip_from_curve(curve_d3):
    # the difference basis folded by tilde_from_A is the recurrence solved
    # on the point samples themselves
    x, eps = 0.2, 0.09
    A, a_tilde = recurrence(curve_d3, x, eps)
    g = _lift_coeffs(curve_d3, np.array([x]), _SHIFT_ORDER)[0][..., 0]
    pts = _shifted_lifts(g, np.arange(5) * eps, 0)[0]
    direct = np.linalg.solve(pts[:4].T, pts[4])
    assert_allclose(a_tilde, direct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("d, x, eps", [(2, 0.3, 0.1), (3, -0.2, 0.08)])
def test_reconstruction_residual(d, x, eps, curve_d2, curve_d3):
    spec = {2: curve_d2, 3: curve_d3}[d]
    at = recurrence(spec, x, eps)[1]
    pts = np.stack([spec.frame_at(x + i * eps)[0] for i in range(d + 2)])
    resid = pts[d + 1] - at @ pts[: d + 1]
    assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(pts[d + 1])


def test_far_point_samples_the_lift_based_there():
    # walked out from x0 = 0, the frame at x = 40 has its Wronskian off by
    # 8e3, and the coordinates read off it were off by 7.1 against 3.5e-3
    spec = random_curve_spec(2, seed=5)
    here = CurveSpec(2, spec.u, 40.0, np.eye(3))
    got, want = recurrence(spec, 40.0, 0.1), recurrence(here, 40.0, 0.1)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_limits_d2(curve_d2):
    table = limit_diagnostics(curve_d2, 0.3)
    u0 = evaluate(curve_d2.u[0], 0.3)
    u1 = evaluate(curve_d2.u[1], 0.3)
    assert table.limits[0] == pytest.approx(u0, abs=1e-3)
    assert table.limits[1] == pytest.approx(u1, abs=1e-3)
    # the top coefficient repeats u_{d-1} one order down
    assert table.limits[2] == pytest.approx(u1, abs=1e-3)


def test_limits_d3(curve_d3):
    table = limit_diagnostics(curve_d3, 0.1)
    for i in range(3):
        assert table.limits[i] == pytest.approx(evaluate(curve_d3.u[i], 0.1),
                                                abs=1e-3)
    assert table.limits[3] == pytest.approx(evaluate(curve_d3.u[2], 0.1),
                                            abs=1e-3)


@pytest.mark.parametrize("d, gate", sorted(_LIMIT_GATES.items()))
def test_contour_limits_meet_the_invariants(d, gate):
    # A_i/eps^{p_i} -> u_i, and the top coefficient -> u_{d-1}, where the
    # degree-5 fit on a real step ladder read 3.3e-7, 2.0e-6 and 8.8e-5
    worst = 0.0
    for seed in range(10):
        spec = random_curve_spec(d, seed=seed)
        for x in (0.1, 0.3, 1.1, -0.7):
            u = spec.u_jet(x, 0)[0]
            want = np.append(u, u[d - 1])
            worst = max(worst, np.max(np.abs(limit_diagnostics(spec, x).limits
                                             - want)))
    assert worst <= gate


def test_far_point_is_rebased(curve_d2):
    # the recurrence coefficients are SL(3)-invariant, so the table at a far
    # x is read off the lift from the identity frame there, as at any x,
    # with the limits of test_limits_d2
    x = 20.3
    table = limit_diagnostics(curve_d2, x)
    rebased = limit_diagnostics(CurveSpec(2, curve_d2.u, x, np.eye(3)), x)
    assert np.array_equal(table.A, rebased.A)
    u0, u1 = evaluate(curve_d2.u[0], x), evaluate(curve_d2.u[1], x)
    assert_allclose(table.limits, [u0, u1, u1], atol=1e-3)


def _binomial_gap(table, i):
    """Rows 0..2 of a_tilde_i - (-1)^(d-i) C(d+1, i)."""
    gap = table.a_tilde[:3, i].copy()
    gap[0] -= (-1) ** (table.d - i) * math.comb(table.d + 1, i)
    return gap


def test_point_coefficients_approach_binomials(curve_d2):
    # a_tilde_i -> (-1)^(d-i) C(d+1, i) at rate eps^2 for i >= 1, with
    # eps^2 coefficient -(-1)^(d-i) C(d-1, i-1) u_{d-1}
    table = limit_diagnostics(curve_d2, 0.3)
    u1 = evaluate(curve_d2.u[1], 0.3)
    for i in (1, 2):
        gap = _binomial_gap(table, i)
        assert decay_order(gap) == 2
        assert gap[2] == pytest.approx(-(-1) ** (2 - i) * u1, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_LIMIT_GATES)), st.integers(0, 2 ** 16),
       st.floats(-1.0, 1.5))
def test_orders_and_limits_read_off_the_contour(d, seed, x):
    # A_i = O(eps^{p_i}) with limit u_i (u_{d-1} for the top one), a_tilde_0
    # - (-1)^d = O(eps^3), and a_tilde_i reaches its binomial at order 2;
    # an order is exact only where its leading coefficient clears the floor
    spec = random_curve_spec(d, seed=seed)
    for at in (x, x + 20.0):
        u = spec.u_jet(at, 0)[0]
        want = np.append(u, u[d - 1])
        assume(np.min(np.abs(want)) > 1e-5)
        table = limit_diagnostics(spec, at)
        assert np.array_equal(table.orders, table.powers)
        assert np.max(np.abs(table.limits - want)) <= _LIMIT_GATES[d]
        assert table.a0_order >= 3
        for i in range(1, d + 1):
            assert decay_order(_binomial_gap(table, i)) == 2


def test_second_order_tilde_term_d2(curve_d2):
    # a_tilde_1 + 3 - eps^2 u_1 should decay one order faster than eps^2
    u1 = evaluate(curve_d2.u[1], 0.3)
    vals = []
    for eps in (0.1, 0.05):
        at = recurrence(curve_d2, 0.3, eps)[1]
        vals.append(abs(at[1] + 3.0 - eps ** 2 * u1))
    assert vals[1] <= 0.25 * vals[0]


def test_zero_curve_flags_undefined():
    # every u_i vanishes, so no coefficient clears the floor up to p_i
    table = limit_diagnostics(zero_curve_spec(2), 0.1)
    assert np.array_equal(table.orders, table.powers + 1)
    assert table.a0_order == 4
    assert_allclose(table.limits, 0.0, atol=1e-6)
