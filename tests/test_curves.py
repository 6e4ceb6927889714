import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from pentalab.configs import short_diagonal_chi
from pentalab.discretize import limit_diagnostics
from pentalab.expansion import extract_alphas
from pentalab.jets import AnalyticFn, mul
from pentalab.lax import lax_limit_diagnostics
from pentalab.curves import (
    _SHIFT_ORDER,
    CurveSpec,
    DegenerateLift,
    IntegrationFailure,
    _lift_coeffs,
    _shifted_lifts,
    gamma_jet,
    normalized_lift,
    random_curve_spec,
    wronskian,
)

from oracles import cofactor_det, evaluate, trig_tree, zero_curve_spec


def test_affine_motion_d1():
    spec = zero_curve_spec(1)
    fj = gamma_jet(spec, 1.3, 4)
    # second derivative vanishes, so the lift is (1, x - x0) exactly
    assert_allclose(fj.value, [1.0, 1.3], atol=1e-14)
    assert_allclose(fj.c[1], [0.0, 1.0], atol=1e-14)
    assert_allclose(fj.c[2:], 0.0, atol=1e-14)


def test_zero_curve_d2_is_polynomial():
    spec = zero_curve_spec(2)
    fj = gamma_jet(spec, 0.7, 6)
    assert_allclose(fj.c[3:], 0.0, atol=1e-15)
    assert 2 * fj.c[2][2] == pytest.approx(1.0)  # g_2 = x^2/2


def test_frame_against_ode_oracle():
    # independent route: integrate the frame system with a generic stiff-safe
    # integrator at tight tolerance and compare with Taylor transport
    u1 = AnalyticFn.const(0.3) * AnalyticFn.x().sin()
    u0 = AnalyticFn.const(0.1) * AnalyticFn.x().cos()
    spec = CurveSpec(2, [u0, u1], 0.0, np.eye(3))

    def rhs(t, y):
        f = y.reshape(3, 3)
        out = np.empty_like(f)
        out[0] = f[1]
        out[1] = f[2]
        out[2] = -(0.1 * math.cos(t)) * f[0] - (0.3 * math.sin(t)) * f[1]
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(3).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    oracle = sol.y[:, -1].reshape(3, 3)
    assert_allclose(spec.frame_at(1.0), oracle, atol=5e-11)
    assert wronskian(spec, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_wronskian_at_base_point_exact(curve_d2):
    assert wronskian(curve_d2, curve_d2.x0) == 1.0


@pytest.mark.parametrize("d,seed", [(2, 3), (2, 4), (3, 5), (3, 6)])
def test_wronskian_conserved(d, seed):
    spec = random_curve_spec(d, seed=seed)
    for x in np.linspace(-2.0, 2.0, 10):
        assert abs(wronskian(spec, x) - 1.0) <= 1e-9


def test_frame_at_base_point_is_initial_frame(curve_d3):
    assert np.array_equal(curve_d3.frame_at(curve_d3.x0), curve_d3.F0)


def test_local_consistency_step_vs_taylor(curve_d2):
    # stepping to x+h must agree with evaluating the order-K jet at x
    x, k = 0.4, 10
    fj = gamma_jet(curve_d2, x, k)
    for h in (1e-3, 5e-3, 2e-2):
        stepped = gamma_jet(curve_d2, x + h, 2).value
        taylor = np.zeros(3)
        for ck in fj.c[::-1]:  # Horner in the offset h
            taylor = taylor * h + ck
        assert_allclose(stepped, taylor, atol=3.0 * h ** (k + 1) + 1e-14)


def test_jet_recursion_matches_ode(curve_d3):
    # the order-(d+1) coefficient must reproduce -sum u_i g^(i)
    x = 0.9
    fj = gamma_jet(curve_d3, x, 8)
    rows = [fj.c[k] * math.factorial(k) for k in range(5)]
    u = [evaluate(f, x) for f in curve_d3.u]
    lhs = rows[4]
    rhs = -(u[0] * rows[0] + u[1] * rows[1] + u[2] * rows[2])
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _count_u_evaluations(monkeypatch):
    import pentalab.curves

    calls = []
    inner = pentalab.curves.eval_jet

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(pentalab.curves, "eval_jet", counted)
    return calls


def test_results_do_not_depend_on_call_history():
    # a spec holds no state: every answer equals the one a fresh spec
    # gives, no call sets an attribute, and no lift jet a caller holds can
    # be written through
    xs = [1.7, -1.23, 0.3, -0.05, 2.9, 0.3125, -2.6, 0.02]
    warm = random_curve_spec(3, seed=23)
    state = dict(vars(warm))
    for x in xs:
        warm.frame_at(x)
        with pytest.raises(ValueError):
            gamma_jet(warm, x, 9).c[0, 0] = 99.0
    extract_alphas(warm, short_diagonal_chi(3), 0.3)
    lax_limit_diagnostics(warm, short_diagonal_chi(3), 0.3)
    limit_diagnostics(warm, 0.3)
    assert vars(warm).keys() == state.keys()
    assert all(vars(warm)[k] is v for k, v in state.items())
    with pytest.raises(ValueError):  # and the frame is read-only
        warm.F0[0, 0] = 2.0
    for x in reversed(xs):
        fresh = random_curve_spec(3, seed=23)
        assert np.array_equal(warm.frame_at(x), fresh.frame_at(x))
        fresh = random_curve_spec(3, seed=23)
        assert np.array_equal(gamma_jet(warm, x, 9).c, gamma_jet(fresh, x, 9).c)


def test_fresh_far_frame_evaluates_each_u_tree_once(monkeypatch):
    # one pass over each u-tree serves every anchor the call steps across
    spec = random_curve_spec(3, seed=23)
    calls = _count_u_evaluations(monkeypatch)
    spec.frame_at(20.0)  # 40 anchors away
    assert [np.shape(x) for x in calls] == [(41,)] * spec.d
    calls.clear()
    spec.frame_at(np.array([20.03, -1.0]))  # anchors -2..40
    assert [np.shape(x) for x in calls] == [(43,)] * spec.d


@functools.cache
def _oracle_frames(d, xs):
    """Frames of random_curve_spec(d, seed=41) at xs, all on one side of
    x0 = 0, from a generic integrator run on the frame system."""
    spec = random_curve_spec(d, seed=41)

    def rhs(t, y):
        f = y.reshape(d + 1, d + 1)
        out = np.empty_like(f)
        out[:d] = f[1:]
        out[d] = -sum(evaluate(u, t) * f[i] for i, u in enumerate(spec.u))
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, xs[-1]), np.eye(d + 1).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=xs)
    return sol.y.T.reshape(-1, d + 1, d + 1)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_far_frames_match_the_ode_oracle(d, dtype):
    for xs in ((7.03, 19.97), (-12.5, -20.0)):
        spec = random_curve_spec(d, seed=41, dtype=dtype)
        got = spec.frame_at(np.array(xs))
        assert got.dtype == np.dtype(dtype)
        for x, g, w in zip(xs, got, _oracle_frames(d, xs)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
            assert np.array_equal(g, spec.frame_at(x))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_frame_at_an_array_equals_the_one_point_frames(dtype, monkeypatch):
    # anchors, shifts on both sides of x0 and a repeated point, in no
    # particular order, against one point at a time
    xs = np.array([[0.3, -1.25, 2.0625], [0.3, 0.0, -0.07]], dtype=dtype)
    spec = random_curve_spec(3, seed=23, dtype=dtype)
    calls = _count_u_evaluations(monkeypatch)
    got = spec.frame_at(xs)
    # one pass for anchors -2..4
    assert [np.shape(x) for x in calls] == [(7,)] * spec.d
    monkeypatch.undo()
    assert got.shape == (2, 3, 4, 4) and got.dtype == np.dtype(dtype)
    for idx in np.ndindex(xs.shape):
        assert np.array_equal(got[idx], spec.frame_at(xs[idx]))


def test_partial_steps_from_both_ends_of_the_run():
    # the anchors at 1 and -1 end the walk the call takes; the array takes
    # a shift from each end and from an anchor inside
    spec = random_curve_spec(3, seed=23)
    xs = np.array([0.99, -0.99, 1.0, 0.3, -1.0])
    got = spec.frame_at(xs)
    for x, frame in zip(xs, got):
        assert np.array_equal(frame, random_curve_spec(3, seed=23).frame_at(x))


def test_frame_at_an_array_names_the_point_that_blew_up():
    # the lift grows like exp(10 x): the frame at 80 overflows, the one at
    # 0 does not
    spec = CurveSpec(1, [AnalyticFn.const(-100.0)], 0.0, np.eye(2))
    with pytest.raises(IntegrationFailure, match="at x = 80$"), \
            np.errstate(over="ignore", invalid="ignore"):
        spec.frame_at(np.array([0.0, 80.0]))


def test_frame_at_raises_when_the_lift_overflows():
    spec = CurveSpec(1, [AnalyticFn.const(-1e300)], 0.0, np.eye(2))
    with pytest.raises(IntegrationFailure, match="lift overflowed"), \
            np.errstate(over="ignore", invalid="ignore"):
        spec.frame_at(np.array([0.0, 0.01]))


def test_frame_at_raises_when_the_frame_loses_unimodularity():
    # carried out from x0 = 0 the frame's condition number grows to 1e17;
    # W - 1 reads 6.6e-8 at 20, 8.3e-2 at 30 and -1 at 40
    spec = random_curve_spec(2, seed=5)
    assert abs(wronskian(spec, 20.0) - 1) < 1e-5
    for x in (30.0, 40.0):
        with pytest.raises(IntegrationFailure,
                           match=f"unimodularity at x = {x:g}: W - 1 = .*"
                                 "condition number"):
            spec.frame_at(x)
    with pytest.raises(IntegrationFailure, match="at x = 30"):
        spec.frame_at(np.array([20.0, 30.0]))


def _rounded(v, bits):
    """The integer v rounded to bits significant bits, ties to even."""
    drop = max(v.bit_length() - bits, 0)
    q, r = divmod(v, 1 << drop)
    if drop and (2 * r > 1 << drop or (2 * r == 1 << drop and q & 1)):
        q += 1
    return q << drop


def test_falling_factorial_table_is_exact():
    # a float64 product recursion, the table this replaced, first rounds
    # at [20, 24]; the shift's weights are entries of the same table
    from pentalab.curves import _shift_table
    from pentalab.jets import _falling

    for dtype in (np.float64, np.longdouble):
        table = _falling(44, dtype)
        assert table.dtype == dtype and not table.flags.writeable
        bits = np.finfo(dtype).nmant + 1
        for n in range(45):
            for k in range(45):
                want = _rounded(math.perm(n, k), bits)
                assert int(table[k, n]) == want, (k, n)
        index, weights = _shift_table(40, 15, np.dtype(dtype))
        k = np.arange(15)[:, None]
        inside = k + 40 - np.arange(41) <= 40
        assert np.array_equal(
            weights, np.where(inside, _falling(40, dtype)[k, index], 0))


def test_ode_table_rounds_each_weight_once_in_the_lifts_dtype():
    # at d = 13 the recursion reads weights (j + i)!/j! and divisors
    # (m + d + 1)!/m! past 2^53, which a float64 table holds rounded to
    # 53 bits; a longdouble lift must weigh with math.perm rounded once
    from pentalab.curves import _ode_table

    order, d = 40, 13
    weights, steps = _ode_table(order, d, np.longdouble)
    assert weights.dtype == np.longdouble and not weights.flags.writeable
    bits = np.finfo(np.longdouble).nmant + 1
    for i, m, k in np.ndindex(weights.shape):
        want = _rounded(math.perm(m - k + i, i), bits) if k <= m else 0
        assert int(weights[i, m, k]) == want, (i, m, k)
    for m, (_, divisor) in enumerate(steps):
        assert divisor.dtype == np.longdouble
        assert int(-divisor) == _rounded(math.perm(m + d + 1, d + 1), bits), m


def _recursion_reference(u_coeffs, d, order):
    """The ODE recursion as one loop over orders: at order m the u_i are
    weighted afresh, one stacked matmul makes the products, they are
    summed by += from zeros in order of i, and the row is -acc / divisor."""
    from pentalab.jets import _falling

    falling = _falling(order, np.float64)
    u = np.ascontiguousarray(np.transpose(u_coeffs, (2, 1, 0)))
    g = np.zeros((u.shape[0], order + 1, d + 1), dtype=u.dtype)
    for k in range(d + 1):
        g[:, k, k] = u.dtype.type(1) / math.factorial(k)
    for m in range(order - d):
        rows = np.arange(m, -1, -1) + np.arange(d)[:, None]
        weights = falling[np.arange(d)[:, None], rows]
        terms = ((u[:, :, None, :m + 1] * weights[:, None])
                 @ np.take(g, rows, axis=1))
        acc = np.zeros((u.shape[0], d + 1), dtype=u.dtype)
        for i in range(d):
            acc += terms[:, i, 0]
        g[:, m + d + 1] = -acc / falling[d + 1, m + d + 1]
    return np.moveaxis(g, 0, -1)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("points", [1, 3, 13])
def test_recursion_equals_the_loop_over_orders(dtype, d, points):
    # the kernel forms every weighted u_i[k] up front and sums over i in
    # one reduce: each bit, the sign of each zero included, is the loop's.
    # Compared by value and sign: the padding bytes of a longdouble differ
    # between two calls of the same kernel, so tobytes does not
    from pentalab.curves import _ode_taylor_coeffs

    order = _SHIFT_ORDER
    rng = np.random.default_rng(100 * d + points)
    u = (rng.standard_normal((order + 1, d, points))
         * 0.5 ** np.arange(order + 1)[:, None, None])
    u[rng.random(u.shape) < 0.2] = 0.0
    u[rng.random(u.shape) < 0.2] = -0.0
    u[order // 2:, :, 0] = 0.0  # a trig polynomial's tail: exact zeros
    if points > 1:
        # a curve with every u_i zero, half of them -0.0: the new rows of
        # its lift are all sums of signed zeros
        u[..., -1] = np.where(rng.random(u.shape[:2]) < 0.5, -0.0, 0.0)
    u = u.astype(dtype)
    got = _ode_taylor_coeffs(u)
    want = _recursion_reference(u, d, order)
    assert got.shape == (order + 1, d + 1, points) and got.dtype == dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("turn", [1, np.exp(0.4j)], ids=["real", "complex"])
@pytest.mark.parametrize("order", [14, 40])
def test_frame_from_coeffs_matches_an_mpmath_shift(dtype, turn, order, rng):
    # row k at offset h is sum_m m!/(m-k)! g[m] h^(m-k), summed at 40
    # digits from the exact values of g and h; each row is held to the
    # rounding bound of a sum of N+1 terms, (N+1) eps sum|terms| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, ch. 4); the
    # worst row reads 0.064 of it.  Rows 0..14 reach past row 13, where
    # falling[k, 40] stops being exact in float64, so a longdouble shift
    # with float64 weights fails here
    mpmath = pytest.importorskip("mpmath")
    from pentalab.curves import _frame_from_coeffs

    def exact(v):  # a longdouble is the sum of two doubles
        hi = float(v)
        return mpmath.mpf(hi) + mpmath.mpf(float(v - type(v)(hi)))

    def exact_c(v):
        return mpmath.mpc(exact(np.real(v)), exact(np.imag(v)))

    rows, comps = 15, 4
    g = (rng.standard_normal((order + 1, comps))
         * 0.5 ** np.arange(order + 1)[:, None]).astype(dtype)
    h = np.array([-0.2, 0.05, 0.15, 1.1]) * turn
    h = h.astype(np.result_type(dtype, h.dtype))
    got = _frame_from_coeffs(g[..., None], h, rows - 1)
    assert got.shape == (rows, comps, len(h)) and got.dtype == h.dtype
    value = exact_c if np.iscomplexobj(h) else exact
    eps = np.finfo(dtype).eps
    with mpmath.workdps(40):
        for k, c, i in np.ndindex(got.shape):
            terms = [math.perm(m, k) * exact(g[m, c]) * value(h[i]) ** (m - k)
                     for m in range(k, order + 1)]
            err = abs(value(got[k, c, i]) - mpmath.fsum(terms))
            bound = (order + 1) * eps * mpmath.fsum(abs(t) for t in terms)
            assert err <= bound, (k, c, i, float(err / bound))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("turn", [1, np.exp(0.4j)], ids=["real", "complex"])
def test_shift_of_a_batch_equals_each_point_and_offset(dtype, turn, rng):
    # the products of a point's coefficients are formed once and shared by
    # every offset: each (point, offset) still gets its own shift's bits
    d, order = 3, 40
    g = (rng.standard_normal((order + 1, d + 1, 2))
         * 0.5 ** np.arange(order + 1)[:, None, None]).astype(dtype)
    h = np.array([-0.2, 0.05, 0.15]) * turn
    rows = _shifted_lifts(g[..., None], h, 2 * d + 2)
    assert rows.shape == (2 * d + 3, 2, 3, d + 1)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(rows[:, i, j],
                              _shifted_lifts(g[..., i], h[j], 2 * d + 2))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_shift_rows_do_not_depend_on_how_many_are_asked(dtype, d):
    # the map stops at order 2d + 1: its reports are the bits of a map
    # carried to 2d + 2 because rows 0..2d+1 keep theirs
    spec = random_curve_spec(d, seed=d, dtype=dtype)
    g = _lift_coeffs(spec, np.array([0.3, 1.1], dtype=dtype), _SHIFT_ORDER)[0]
    h = 0.1 * np.exp(2j * np.pi * np.arange(13) / 24)[:, None] * [-2, 0.5, 1]
    fewer = _shifted_lifts(g[..., None, None], h, 2 * d + 1)
    more = _shifted_lifts(g[..., None, None], h, 2 * d + 2)
    assert np.array_equal(fewer, more[:2 * d + 2])


def test_integration_failure_on_exploding_curve():
    spec = CurveSpec(1, [AnalyticFn.const(-1e8)], 0.0, np.eye(2))
    with pytest.raises(IntegrationFailure):
        spec.frame_at(2.0)


# -- normalized lift ----------------------------------------------------------


def test_normalized_lift_idempotent(curve_d2):
    x = 0.3
    fj = gamma_jet(curve_d2, x, 8).c
    out, u_eps = normalized_lift(fj)
    assert len(out) == len(fj) - 2  # the Wronskian scale costs d orders
    assert_allclose(out, fj[:len(out)], rtol=1e-11, atol=1e-13)
    for i in range(2):
        assert u_eps[0, i] == pytest.approx(evaluate(curve_d2.u[i], x),
                                            abs=1e-10)


def test_normalized_lift_constant_rescale():
    spec = zero_curve_spec(1)
    fj = gamma_jet(spec, 0.5, 5).c
    out, _ = normalized_lift(fj * 2.0)
    rows = [out[k] * math.factorial(k) for k in range(2)]
    assert np.linalg.det(rows) == pytest.approx(1.0, abs=1e-13)
    assert_allclose(out[0], fj[0], atol=1e-13)


def test_normalized_lift_scalar_gauge_invariance(curve_d3, rng):
    x = -0.6
    fj = gamma_jet(curve_d3, x, 10).c
    base, ub = normalized_lift(fj, ref=fj[0])
    gauge = 1.5 + 0.3 * np.sin(x)  # positive scalar jet, nonconstant
    from pentalab.jets import AnalyticFn, eval_jet

    gj = eval_jet(1.5 + 0.3 * AnalyticFn.x().sin(), x, 10)
    scaled = mul(gj, fj)
    out, uo = normalized_lift(scaled, ref=fj[0])
    assert gauge > 0
    assert_allclose(out, base[:len(out)], rtol=1e-10, atol=1e-12)
    for i in range(3):
        assert_allclose(ub[:, i], uo[:, i], rtol=1e-9, atol=1e-10)


def test_normalized_lift_even_frame_dimension_sign():
    # d = 3: negating a valid lift leaves the Wronskian positive, and the
    # reference vector picks the branch continuously
    spec = random_curve_spec(3, seed=9)
    fj = gamma_jet(spec, 0.2, 10).c
    flipped = -fj
    out, _ = normalized_lift(flipped, ref=fj[0])
    k = len(out)
    assert_allclose(out, fj[:k], rtol=1e-11, atol=1e-13)
    out2, _ = normalized_lift(flipped)  # no ref: keeps the flipped branch
    assert_allclose(out2, -fj[:k], rtol=1e-11, atol=1e-13)


def test_normalized_lift_of_a_stack_equals_each_lift(curve_d3, rng):
    raws = [gamma_jet(curve_d3, x, 9).c * rng.uniform(0.5, 2.0)
            for x in (0.1, 0.6, 1.3)]
    refs = np.stack([r[0] for r in raws])
    stack = np.stack([-r for r in raws], axis=1)
    out, u = normalized_lift(stack, ref=refs)
    for i, raw in enumerate(raws):
        one, u_one = normalized_lift(-raw, ref=refs[i])
        assert np.array_equal(out[:, i], one)
        assert np.array_equal(u[:, i], u_one)


def test_normalized_lift_degenerate():
    lift = np.zeros((9, 4))
    lift[0, :2] = 1.0  # components (1, 1, 0, 0): every derivative vanishes
    with pytest.raises(DegenerateLift, match="vanishing Wronskian"):
        normalized_lift(lift)


# -- Abel's identity against a cofactor Wronskian --------------------------------


def wronskian_series(c):
    """Taylor coefficients of det(g, g', ..., g^(d)) for a lift with
    coefficients c, (K+1, d+1), by the cofactor oracle; the derivative
    series are formed here from k-th coefficients times falling factorials."""
    d = c.shape[-1] - 1
    m = np.arange(len(c) - d)
    cols = [c[k:k + len(m)] * np.array([math.perm(i + k, k) for i in m],
                                       dtype=c.real.dtype)[:, None]
            for k in range(d + 1)]
    return cofactor_det(np.stack(cols, axis=-1))


def raw_lift(d, kind, seed, x, negate):
    """A lift with no unit Wronskian: the lift of a random curve at x, or at
    a complex contour node offset from x, in a random frame and times a
    random nonconstant gauge; negate flips the sign of its Wronskian."""
    rng = np.random.default_rng(seed)
    dtype = np.longdouble if kind == "longdouble" else np.float64
    spec = random_curve_spec(d, seed=int(rng.integers(12)), dtype=dtype)
    order = 2 * d + 4
    h = rng.uniform(-0.2, 0.2)
    frame = np.eye(d + 1) + 0.4 * rng.uniform(-1, 1, (d + 1, d + 1))
    gauge = rng.uniform(-0.5, 0.5, order + 1) * 0.5 ** np.arange(order + 1)
    gauge[0] = rng.uniform(0.5, 2.0)
    if kind == "complex":
        h = 0.2 * np.exp(2j * np.pi * rng.uniform())
        frame = frame + 0.4j * rng.uniform(-1, 1, (d + 1, d + 1))
        gauge = gauge * np.exp(1j * rng.uniform(-1, 1))
    else:
        frame[0] *= np.sign(np.linalg.det(frame)) * (-1 if negate else 1)
    lift = _lift_coeffs(spec, np.array([x], dtype=dtype), _SHIFT_ORDER)[0]
    rows = _shifted_lifts(lift, np.array([h]), order)[:, 0]
    return mul(rows @ frame.astype(np.result_type(rows, frame.dtype)),
               gauge.astype(np.result_type(gauge, dtype)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["float64", "longdouble", "complex"]),
       st.integers(0, 2 ** 16), st.floats(-2.0, 2.0), st.booleans())
def test_normalized_lift_has_unit_wronskian_at_every_order(d, kind, seed, x,
                                                           negate):
    # W' = -b_d W gives the scale; the cofactor Wronskian of the result,
    # which shares no code with it, is 1 at every carried order, to double
    # roundoff in double and below it in extended precision
    negate = negate and d % 2 == 0  # an even frame needs W > 0
    raw = raw_lift(d, kind, seed, x, negate)
    w_raw = wronskian_series(raw)[0]
    if kind == "complex":
        assert np.iscomplexobj(w_raw)
    else:
        assert (w_raw < 0) == negate
    out, _ = normalized_lift(raw)
    w = wronskian_series(out)
    assert len(w) == len(raw) - 2 * d and w.dtype == raw.dtype
    tol = 1e-16 if kind == "longdouble" else 1e-12
    assert np.max(np.abs(w - np.eye(len(w))[0])) <= tol


def test_normalized_lift_sign_rules():
    spec = random_curve_spec(2, seed=4)
    lift = gamma_jet(spec, 0.3, 9).c
    # d + 1 = 3: -lift has W = -1, and the real odd root gives lift back
    out, _ = normalized_lift(-lift)
    assert_allclose(out, lift[:len(out)], rtol=1e-12, atol=1e-14)
    # d + 1 = 4: one component negated makes W = -1, which no real scale
    # can fix, and either frame's sign may come back
    lift3 = gamma_jet(random_curve_spec(3, seed=4), 0.3, 10)
    with pytest.raises(DegenerateLift, match="negative Wronskian"):
        normalized_lift(lift3.c * [-1, 1, 1, 1])
    # complex: the principal root, then the cube root of unity that brings
    # the dot product sum(ref * lift) nearest the positive real axis
    raw = lift * np.exp(2.5j)  # W = exp(7.5i), Arg W = 7.5 - 2 pi
    principal, _ = normalized_lift(raw)  # scales by exp(-(7.5 - 2 pi) i/3)
    assert_allclose(principal, lift[:len(principal)]
                    * np.exp(2j * np.pi / 3), rtol=1e-12, atol=1e-14)
    for turn in np.exp(2j * np.pi * np.arange(3) / 3):
        out, _ = normalized_lift(raw, ref=lift[0] / turn)
        assert_allclose(out, lift[:len(out)] * turn,
                        rtol=1e-12, atol=1e-14)


def test_curve_json_roundtrip(curve_d2, tmp_path):
    import json

    p = tmp_path / "curve.json"
    p.write_text(json.dumps(curve_d2.to_dict()))
    back = CurveSpec.load(p)
    assert back.d == 2
    for x in (-1.0, 0.25, 2.0):
        assert_allclose(back.frame_at(x), curve_d2.frame_at(x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_reloaded_curve_gives_the_same_u_jets(dtype):
    # a curve file carries each trig-polynomial node as the tree it stands
    # for, and the tree walk gives the node's bits
    spec = random_curve_spec(3, seed=23, dtype=dtype)
    back = CurveSpec.from_dict(json.loads(json.dumps(spec.to_dict())), dtype=dtype)
    assert [f.op for f in spec.u] == ["trig_poly"] * 3
    assert [f.op for f in back.u] == ["add"] * 3
    xs = np.array([-0.7, -0.0, 0.3, 20.0])
    for order in (0, 24, 40):
        got, want = back.u_jet(xs, order), spec.u_jet(xs, order)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("seed", [0, 5, 17, 23])
def test_random_curve_amplitudes_are_the_scalar_draws(seed):
    # one (d, 5) draw takes the numbers 5 d scalar draws took, in order
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(4):
        a0 = rng.uniform(-0.5, 0.5)
        harmonics = [(rng.uniform(-0.5, 0.5) * damp, rng.uniform(-0.5, 0.5) * damp)
                     for damp in (0.5, 0.25)]
        want.append(json.dumps(trig_tree(a0, harmonics).to_dict()))
    assert [json.dumps(f.to_dict()) for f in random_curve_spec(4, seed=seed).u] == want


def test_u_jet_walks_one_node_per_trig_poly(monkeypatch):
    # the tree each node stands for has 29 nodes: 87 calls at d = 3
    calls = []
    inner = AnalyticFn._coeffs

    def counted(self, *args):
        calls.append(self.op)
        return inner(self, *args)

    monkeypatch.setattr(AnalyticFn, "_coeffs", counted)
    random_curve_spec(3, seed=7).u_jet(0.3, 40)
    assert calls == ["trig_poly"] * 3


def test_loader_renormalizes_frame():
    obj = {"d": 2, "u": [{"op": "const", "value": 0.0}] * 2, "x0": 0.0,
           "F0": (8.0 * np.eye(3)).tolist()}
    spec = CurveSpec.from_dict(obj)
    assert np.linalg.det(spec.F0) == pytest.approx(1.0, abs=1e-12)
    bad = dict(obj, F0=np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(), d=3,
               u=obj["u"] + [{"op": "const", "value": 0.0}])
    with pytest.raises(ValueError):
        CurveSpec.from_dict(bad)


def test_extended_anchors_lie_on_the_extended_grid():
    # u = 0 lifts to (1, t - x0, (t - x0)^2 / 2) from the identity frame;
    # anchors x0 + j/2 rounded to double put a 5e-17 error into every
    # extended frame of a curve based at x0 = 0.3
    spec = CurveSpec(2, zero_curve_spec(2).u, 0.3, np.eye(3), dtype=np.longdouble)
    x = np.longdouble(2.7) / 3
    h = x - np.longdouble(0.3)
    want = np.array([[1, h, h * h / 2], [0, 1, h], [0, 0, 1]], dtype=np.longdouble)
    got = spec.frame_at(x)
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(np.longdouble).eps
