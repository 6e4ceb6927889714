import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pentalab.chimap import chi_map_point
from pentalab.configs import evenly_spaced_chi, short_diagonal_chi
from pentalab.curves import (_SHIFT_ORDER, CurveSpec, _lift_coeffs, _shifted_lifts,
                             gamma_jet, random_curve_spec)
from pentalab.discretize import _recurrence, _scaled_differences, tilde_from_A
from pentalab.expansion import _contour, extract_alphas
from pentalab.jets import derivative, eval_jet, mul
from pentalab.linalg import stack_solver
from pentalab.lax import (
    _drift,
    _q2_gamma,
    _shift_companion,
    _u_companion,
    _v_jets,
    lax_limit_diagnostics,
)

from oracles import zero_curve_spec

X0 = 0.3


@pytest.fixture(scope="module")
def report_d2():
    spec = random_curve_spec(2, seed=11)
    return spec, lax_limit_diagnostics(spec, short_diagonal_chi(2), X0)


@pytest.fixture(scope="module")
def report_d3():
    spec = random_curve_spec(3, seed=23)
    return spec, lax_limit_diagnostics(spec, short_diagonal_chi(3), X0)


def q2_gamma(spec, x, depth):
    """Jets of Γ and Q_2 Γ at x to the given depth, from the lift's and the
    u_i's coefficients there, as lax_limit_diagnostics builds them."""
    g, u = _lift_coeffs(spec, np.array([x]), depth)
    return g[..., 0], _q2_gamma(g[..., 0], u[..., 0])


def v_jets(spec, x, c, order):
    """Matrix jet of V at x to the given order, as lax_limit_diagnostics
    builds it."""
    return _v_jets(*q2_gamma(spec, x, order + spec.d + 2), c)


def v_matrix(spec, x, c):
    return v_jets(spec, x, c, 0)[0]


def drift(spec, x, c):
    """Third-order drift at x, from V and Q_2 Γ as lax_limit_diagnostics
    builds them."""
    g, q2g = q2_gamma(spec, x, spec.d + 4)
    return _drift(u_matrix(spec, x), c, _v_jets(g, q2g, c)[0], q2g)


def u_matrix(spec, x):
    """Companion of the curve's differential equation at x: the frame
    Γ, Γ', ..., Γ^(d) satisfies Φ' = U Φ."""
    return _u_companion(spec.u_jet(x, 0)[0])


def shift_companion(spec, x, eps):
    """Point-basis companion of the recurrence at a real step, from the
    scaled differences of the order-40 lift jet at x, whose series
    converges at every sample."""
    lift = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)[0][..., 0]
    s = _recurrence(_scaled_differences(lift, eps, 0, spec.d + 1))
    return _shift_companion(tilde_from_A(s * eps ** np.arange(spec.d + 1, 0, -1)))


def frame_values(spec, x, rows):
    """Stack of derivative rows Γ, Γ', ... as plain floats."""
    g = gamma_jet(spec, x, rows + 1).c
    out = np.empty((rows, spec.d + 1))
    for i in range(rows):
        out[i] = g[0]
        g = derivative(g)
    return out


class TestCompanion:
    def test_zero_curve_is_nilpotent_shift(self):
        spec = zero_curve_spec(2)
        assert_allclose(u_matrix(spec, 0.7),
                        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], atol=0)

    def test_last_row_holds_coefficients(self, curve_d3):
        u = u_matrix(curve_d3, X0)
        vals = [eval_jet(f, X0, 0)[0] for f in curve_d3.u]
        assert_allclose(u[3, :3], np.negative(vals), atol=1e-14)
        assert u[3, 3] == 0.0

    def test_characteristic_polynomial(self, curve_d3):
        # det(lam*I - U) recovers the coefficients of the curve's equation
        u = u_matrix(curve_d3, X0)
        vals = [eval_jet(f, X0, 0)[0] for f in curve_d3.u]
        expected = [1.0, 0.0, vals[2], vals[1], vals[0]]
        assert_allclose(np.poly(np.asarray(u, dtype=float)), expected,
                        atol=1e-10)

    def test_frame_satisfies_ode(self, curve_d2):
        u = np.asarray(u_matrix(curve_d2, X0), dtype=float)
        rows = frame_values(curve_d2, X0, 5)
        assert_allclose(u @ rows[:3], rows[1:4], atol=1e-9)


class TestVMatrix:
    def test_zero_curve_squares_companion(self):
        spec = zero_curve_spec(2)
        u = np.asarray(u_matrix(spec, 0.2), dtype=float)
        assert_allclose(v_matrix(spec, 0.2, 0.375), 0.375 * u @ u,
                        atol=1e-12)

    def test_linear_in_scale(self, curve_d2):
        assert_allclose(v_matrix(curve_d2, X0, 0.75),
                        2.0 * v_matrix(curve_d2, X0, 0.375), atol=1e-12)

    @pytest.mark.parametrize("d,seed", [(2, 11), (3, 23)])
    def test_defining_relation(self, d, seed):
        # V resolves the derivative stack of Q2 Gamma against the frame
        spec = random_curve_spec(d, seed=seed)
        c = 0.4
        v = v_matrix(spec, X0, c)
        g = gamma_jet(spec, X0, d + 4).c
        u_top = eval_jet(spec.u[d - 1], X0, d + 4)
        q2g = derivative(derivative(g))
        q2g = q2g + mul(g, u_top)[:len(q2g)] * (2.0 / (d + 1))
        rows = np.empty((d + 1, d + 1))
        for k in range(d + 1):
            rows[k] = q2g[0]
            q2g = derivative(q2g)
        frame = frame_values(spec, X0, d + 1)
        assert_allclose(v @ frame, c * rows, atol=1e-9)

    def test_jet_derivative_matches_difference(self, curve_d2):
        h = 1e-4
        vj = v_jets(curve_d2, X0, 0.375, 2)
        vp = derivative(vj)[0]
        fd = (v_matrix(curve_d2, X0 + h, 0.375)
              - v_matrix(curve_d2, X0 - h, 0.375)) / (2 * h)
        assert_allclose(vp, fd, atol=1e-5)


class TestShiftCompanion:
    def test_zero_curve_binomial_row(self):
        lt = shift_companion(zero_curve_spec(2), 0.4, 0.17)
        assert_allclose(lt[2], [1.0, -3.0, 3.0], atol=1e-10)
        assert_allclose(lt[:2], [[0, 1, 0], [0, 0, 1]], atol=0)

    @pytest.mark.parametrize("d,seed", [(2, 11), (3, 23)])
    def test_advances_sample_stack(self, d, seed):
        spec = random_curve_spec(d, seed=seed)
        e = 0.08
        samples = np.stack([spec.frame_at(X0 + k * e)[0]
                            for k in range(d + 2)])
        lt = shift_companion(spec, X0, e)
        assert_allclose(lt @ samples[:d + 1], samples[1:], atol=1e-9)


def newton_samples(deltas, eps):
    """Samples γ((s+k)ε), k = 0..d+1, back from the scaled differences at
    shift s by Newton's forward formula."""
    return np.array([sum(math.comb(k, j) * eps ** j * deltas[j]
                         for j in range(k + 1)) for k in range(len(deltas))])


class TestDifferenceBasis:
    def test_d1_entries(self):
        # f(t) = 1 + 2t + 3t^2 at steps 0.25 from s = 0 and s = 1
        f = np.array([[1.0], [2.0], [3.0]])
        assert_allclose(_scaled_differences(f, 0.25, 0, 2)[:, 0],
                        [1.0, 2.75, 6.0], rtol=0, atol=1e-15)
        assert_allclose(_scaled_differences(f, 0.25, 1, 2)[:, 0],
                        [1.6875, 4.25, 6.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_inverse_pair(self, d, rng):
        # Newton's forward formula inverts the differences: the samples of
        # a polynomial come back from its scaled differences at any shift
        f = rng.standard_normal((d + 5, d + 1))
        e = 0.13
        for s in (0, 1):
            ts = (s + np.arange(d + 2)) * e
            want = np.array([np.polyval(f[::-1], t) for t in ts])
            got = newton_samples(_scaled_differences(f, e, s, d + 1), e)
            assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_maps_samples_to_difference_quotients(self, curve_d2):
        # against samples of the spec's own lift, frame transport included
        e = 0.05
        samples = np.stack([curve_d2.frame_at(X0 + k * e)[0]
                            for k in range(4)])
        deltas = _scaled_differences(gamma_jet(curve_d2, X0, _SHIFT_ORDER).c,
                                     e, 0, 3)
        for k in range(4):
            assert_allclose(deltas[k],
                            np.diff(samples, n=k, axis=0)[0] / e ** k,
                            atol=1e-9)

    @pytest.mark.parametrize("e", [-0.13, 0.13j, 0.1 * np.exp(0.7j)])
    def test_any_nonzero_step(self, e):
        # the contour reads the windows at complex steps: rows of the Taylor
        # shift of the lift, differenced and scaled, at shifts 0 and 1
        for d in (2, 3, 4):
            g = _lift_coeffs(random_curve_spec(d, seed=d), np.array([X0]),
                             _SHIFT_ORDER)[0][..., 0]
            for s in (0, 1):
                rows = _shifted_lifts(g, (s + np.arange(d + 2)) * e, 0)[0]
                got = _scaled_differences(g, e, s, d + 1)
                for j in range(d + 2):
                    want = np.diff(rows, n=j, axis=0)[0] / e ** j
                    tol = 64 * np.finfo(float).eps * np.max(np.abs(rows))
                    assert np.max(np.abs(got[j] - want)) <= tol / abs(e) ** j

    def test_zero_step_reads_derivatives(self, curve_d3):
        # at eps = 0 the scaled differences are the derivatives at x
        g = _lift_coeffs(curve_d3, np.array([X0]), 8)[0][..., 0]
        deltas = _scaled_differences(g, 0.0, 1, 4)
        for j in range(5):
            assert np.array_equal(deltas[j], math.factorial(j) * g[j])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 13), st.booleans(),
       st.integers(0, 2 ** 16))
def test_a_stack_equals_its_members(d, size, complex_step, seed):
    # lax_limit_diagnostics does every contour node's algebra as one stack;
    # each member must come out as the one-node call gives it
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.05, 0.2, size) * rng.choice([-1, 1], size)
    jets = rng.standard_normal((d + 5, 2, size, d + 1))
    if complex_step:
        eps = eps * np.exp(1j * rng.uniform(0, np.pi, size))
        jets = jets + 1j * rng.standard_normal(jets.shape)
    deltas = [_scaled_differences(jets, eps[:, None], s, d + 1) for s in (0, 1)]
    s = _recurrence(deltas[0])
    lt = _shift_companion(-s)
    windows = np.moveaxis(deltas[1][:d + 1], 0, -2)
    p = stack_solver(windows[0])(windows[1])
    for j in range(size):
        one = [_scaled_differences(jets[:, :, j], eps[j], k, d + 1)
               for k in (0, 1)]
        assert all(same_bits(a[:, :, j], b) for a, b in zip(deltas, one))
        assert same_bits(s[:, j], _recurrence(one[0]))
        assert same_bits(lt[:, j], _shift_companion(-_recurrence(one[0])))
        mine = np.moveaxis(one[1][:d + 1], 0, -2)
        assert same_bits(p[j], stack_solver(mine[0])(mine[1]))


class TestTransfer:
    @pytest.mark.parametrize("shift", [0, 1])
    def test_defining_relation(self, curve_d2, shift):
        # P = Δ_image Δ_curve^{-1} from the scaled differences of the lift
        # jet at X0 and of the image's jet there, as lax_limit_diagnostics
        # builds it, carries the curve's window to the image's, both
        # differenced from points taken one at a time
        chi = short_diagonal_chi(2)
        e = 0.1
        here = CurveSpec(2, curve_d2.u, X0, np.eye(3))
        lift = _lift_coeffs(curve_d2, np.array([X0]), 18)[0][..., 0]
        deep = _lift_coeffs(curve_d2, np.array([X0]), _SHIFT_ORDER)[0][..., 0]
        image = chi_map_point(chi, deep, e, 20)[0]
        curve, mapped = (np.moveaxis(_scaled_differences(f, e, shift, 2), 0, -2)
                         for f in (lift, image))
        p = np.linalg.solve(curve.T, mapped.T).T
        ks = np.arange(shift, shift + 3)
        w = np.stack([here.frame_at(X0 + k * e)[0] for k in ks])
        wt = np.stack([chi_map_point(chi.shift(k), deep, e, 6)[0][0]
                       for k in ks])
        scaled = [np.stack([np.diff(v, n=j, axis=0)[0] / e ** j
                            for j in range(3)]) for v in (w, wt)]
        assert_allclose(p @ scaled[0], scaled[1], atol=1e-8)


class TestLimits:
    def test_kinematic_limit_d2(self, report_d2):
        _, rep = report_d2
        assert 0.8 < rep.conj_slope < 1.2
        assert rep.conj_limit_dev <= 1e-3

    def test_conj_order_is_read_off_the_contour(self):
        # the eps^1 coefficient (7.9e-2) is small against the eps^2 one
        # (0.47) here, which pulled a log-log slope on real steps to 1.195
        rep = lax_limit_diagnostics(random_curve_spec(2, seed=6),
                                    short_diagonal_chi(2), 1.1)
        assert rep.conj_slope == 1
        assert rep.checks()["slope_in_band"]

    def test_slope_band_takes_exactly_one(self, report_d2):
        # conj_slope is an integer decay order: 0 or 2 is no first-order
        # limit, and fails the check that keeps its name
        rep = copy.copy(report_d2[1])
        for slope, passes in ((0, False), (1, True), (2, False)):
            rep.conj_slope = slope
            assert rep.checks()["slope_in_band"] is passes

    def test_kinematic_limit_d3(self, report_d3):
        _, rep = report_d3
        assert 0.8 < rep.conj_slope < 1.2
        assert rep.conj_limit_dev <= 1e-3

    def test_discrete_relation_is_identity(self, report_d2, report_d3):
        assert report_d2[1].identity_max <= 1e-9
        assert report_d3[1].identity_max <= 1e-9

    def test_quotients_reach_zero_curvature_d2(self, report_d2):
        _, rep = report_d2
        assert rep.quot_lhs_dev <= 2e-2
        assert rep.quot_rhs_dev <= 2e-2
        assert rep.w_target_dev <= 1e-3

    def test_quotients_reach_zero_curvature_d3(self, report_d3):
        _, rep = report_d3
        assert rep.quot_lhs_dev <= 2e-2
        assert rep.quot_rhs_dev <= 2e-2
        assert rep.w_target_dev <= 5e-3

    def test_transfer_expansion_d2(self, report_d2):
        _, rep = report_d2
        assert rep.p0_eps1 <= 1e-4
        assert rep.p0_v_dev <= 1e-3
        assert rep.p1_v_dev <= 2e-3

    def test_transfer_expansion_d3(self, report_d3):
        _, rep = report_d3
        assert rep.p0_eps1 <= 1e-4
        assert rep.p0_v_dev <= 1e-3

    def test_third_order_structure(self, report_d2, report_d3):
        # both transfer matrices share the frame-drift term; the shift
        # difference of their third-order coefficients is dV/dx
        assert report_d2[1].drift_dev <= 2e-3
        assert report_d2[1].shift_vprime_dev <= 2e-2
        assert report_d3[1].drift_dev <= 2e-2
        assert report_d3[1].shift_vprime_dev <= 1e-1

    def test_zero_curve_targets_vanish(self):
        spec = zero_curve_spec(2)
        rep = lax_limit_diagnostics(spec, short_diagonal_chi(2), 0.4)
        assert np.max(np.abs(rep.target)) <= 1e-10
        assert rep.quot_lhs_dev <= 1e-6
        assert rep.quot_rhs_dev <= 1e-6
        assert rep.identity_max <= 1e-11

    def test_one_q2_gamma_per_run(self, curve_d2, monkeypatch):
        import pentalab.lax

        calls = []
        inner = pentalab.lax._q2_gamma

        def counted(*args):
            calls.append(args[1:])
            return inner(*args)

        monkeypatch.setattr(pentalab.lax, "_q2_gamma", counted)
        lax_limit_diagnostics(curve_d2, short_diagonal_chi(2), X0)
        assert len(calls) == 1

    def test_q2_gamma_evaluates_the_u_trees_once(self, monkeypatch):
        import pentalab.curves
        from pentalab.lax import _q2_gamma

        calls = []
        inner = pentalab.curves.eval_jet

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(pentalab.curves, "eval_jet", counted)
        spec = random_curve_spec(3, seed=23)
        x = 0.01
        # lax_limit_diagnostics reads Γ and Q_2 Γ off the first rows of the
        # deep jet, lifted from the identity frame at x
        lifts, u = _lift_coeffs(spec, np.array([x]), _SHIFT_ORDER)
        assert len(calls) == spec.d  # the u's at x
        monkeypatch.undo()
        g = lifts[:8, :, 0]
        q2g = _q2_gamma(g, u[:8, :, 0])
        fresh = CurveSpec(3, spec.u, x, np.eye(4))
        want_g = gamma_jet(fresh, x, 7)
        assert np.array_equal(g, want_g.c)
        u_top = fresh.u_jet(x, 7)[:, 2]
        want = derivative(derivative(want_g.c))
        want = want + mul(want_g.c, u_top)[:len(want)] * (2.0 / 4)
        assert np.array_equal(q2g, want)

    def test_one_deep_lift_jet_per_run(self, curve_d2, monkeypatch):
        # the node lifts, the curve windows and Γ, Q_2 Γ are all read off
        # one order-40 lift jet at x
        import sys

        import pentalab.curves

        orders = []
        inner = pentalab.curves._lift_coeffs

        def counted(spec, xs, order):
            orders.append(order)
            return inner(spec, xs, order)

        for name, module in list(sys.modules.items()):
            if name.startswith("pentalab") and hasattr(module, "_lift_coeffs"):
                monkeypatch.setattr(module, "_lift_coeffs", counted)
        lax_limit_diagnostics(curve_d2, short_diagonal_chi(2), X0)
        assert orders == [_SHIFT_ORDER] == [40]

    def test_frame_and_u_at_x_are_taken_once(self, curve_d2, monkeypatch):
        # no frame is transported: the lift jet at x starts from the
        # identity frame, which the report and the drift read as their
        # own; U is built from row 0 of the u-coefficients of that jet,
        # with no second u-jet at x
        us = []
        u_jet = CurveSpec.u_jet

        def no_frame(spec, x):
            raise AssertionError("frame_at called")

        def counted_u(spec, x, order):
            us.append(order)
            return u_jet(spec, x, order)

        monkeypatch.setattr(CurveSpec, "frame_at", no_frame)
        monkeypatch.setattr(CurveSpec, "u_jet", counted_u)
        lax_limit_diagnostics(curve_d2, short_diagonal_chi(2), X0)
        assert us == [_SHIFT_ORDER]

    @pytest.mark.parametrize("d,seed", [(2, 11), (3, 23)])
    def test_one_pass_over_the_u_trees_per_run(self, d, seed, monkeypatch):
        import pentalab.curves

        calls = []
        inner = pentalab.curves.eval_jet

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(pentalab.curves, "eval_jet", counted)
        lax_limit_diagnostics(random_curve_spec(d, seed=seed),
                              short_diagonal_chi(d), X0)
        assert len(calls) == d  # one u-tree each, at x only

    def test_each_distinct_node_offset_is_lifted_once(self, curve_d3,
                                                       monkeypatch):
        # the map lifts each node p at offset p eps once per contour node;
        # the windows are read off the image's jet, not off shifted
        # configurations: at d = 3, 7 nodes where 11 distinct offsets were
        import pentalab.chimap

        hs = []
        inner = pentalab.chimap._shifted_lifts

        def seen(g, h, kmax):
            hs.append(np.asarray(h))
            return inner(g, h, kmax)

        monkeypatch.setattr(pentalab.chimap, "_shifted_lifts", seen)
        chi = short_diagonal_chi(3)
        lax_limit_diagnostics(curve_d3, chi, X0)
        nodes = sorted({p for g in chi.groups for p in g})
        assert len(nodes) == 7
        _, eps = _contour(nodes, curve_d3.dtype)
        [h] = hs
        assert np.array_equal(h, np.array(nodes) * eps[:, None])

    def test_mapped_point_at_x_is_computed_once_per_rung(self, curve_d2,
                                                           monkeypatch):
        import pentalab.chimap
        import pentalab.expansion
        import pentalab.lax

        want = extract_alphas(curve_d2, short_diagonal_chi(2), X0)
        calls = []
        inner = pentalab.chimap.chi_map_point

        def counted(*args):
            lifts, eps, kmax = args[1:]
            batch = np.broadcast_shapes(lifts.shape[2:], eps.shape)
            calls.append((lifts, np.broadcast_to(eps, batch).ravel().tolist(),
                          kmax))
            return inner(*args)

        monkeypatch.setattr(pentalab.expansion, "chi_map_point", counted)
        monkeypatch.setattr(pentalab.lax, "chi_map_point", counted)
        d = 2
        rep = lax_limit_diagnostics(curve_d2, short_diagonal_chi(d), X0)
        # one application maps the 13 contour nodes of the extraction at x,
        # to the order d + 4 the windows read after renormalization, and
        # its value is the extraction's own
        assert len(calls) == 1
        assert rep.c == want.alpha[2, 2]
        lifts, steps, kmax = calls[0]
        assert kmax == 2 * d + 4
        assert len(steps) == len(set(steps)) == 13
        assert np.array_equal(
            lifts, _lift_coeffs(curve_d2, np.array([X0]), _SHIFT_ORDER)[0][..., 0])
        radius = 0.2 / max(abs(p) for g in short_diagonal_chi(d).groups
                           for p in g)
        assert_allclose(sorted(abs(e) for e in steps), [radius] * 13,
                        rtol=1e-15)

    @pytest.mark.parametrize("d,seed", [(2, 5), (3, 23)])
    def test_far_working_point_is_rebased(self, d, seed):
        # walked out from x0 to x = 20 the ladder lost its limits (d = 2,
        # seed 11 read p0_v_dev 0.64) or raised DegenerateIntersection; the
        # lift from the identity frame at x reads no x0
        spec = random_curve_spec(d, seed=seed)
        chi = short_diagonal_chi(d)
        got = lax_limit_diagnostics(spec, chi, 20.0)
        rebased = CurveSpec(d, spec.u, 20.0, np.eye(d + 1))
        assert got.to_dict() == lax_limit_diagnostics(rebased, chi,
                                                      20.0).to_dict()
        assert got.identity_max <= 1e-9
        assert got.p0_eps1 <= 1e-4
        assert got.p0_v_dev <= 1e-3
        assert got.conj_limit_dev <= 1e-3
        assert max(got.quot_lhs_dev, got.quot_rhs_dev) <= 2e-2
        assert abs(got.conj_slope - 1.0) <= 0.2

    def test_requires_centralized_configuration(self, curve_d2):
        chi = evenly_spaced_chi((-0.8, 0.5), 0.9, 2)
        with pytest.raises(ValueError, match="centralized"):
            lax_limit_diagnostics(curve_d2, chi, X0)


class TestDrift:
    def test_zero_curve_has_no_drift(self):
        assert_allclose(drift(zero_curve_spec(2), 0.4, 0.375), 0.0,
                        atol=1e-13)

    def test_scales_linearly(self, curve_d2):
        assert_allclose(drift(curve_d2, X0, 0.75),
                        2.0 * drift(curve_d2, X0, 0.375), atol=1e-12)


class TestReportInterface:
    def test_to_dict_is_json_ready(self, report_d2):
        _, rep = report_d2
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["d"] == 2
        assert set(blob) >= {"conj_slope", "identity_max", "quot_lhs_dev",
                             "p0_eps1", "drift_dev", "shift_vprime_dev"}


# (curve seed, x) of the perfbench lax-verify d = 2 pool
POOL_D2 = [
    (18852, 0.42389860468383855), (85099, 0.14615366570236513),
    (81106, 0.5162195302814352), (62578, 0.5575058419430021),
    (31247, 0.458069758168721), (60657, 0.4941091906351128),
    (15349, 0.42027396530521366), (767, 0.19511900845066774),
    (54733, 0.13285571099657714), (82681, 0.3973584170712948),
    (64787, 0.25101559055116063), (61738, 0.5180157211960894),
]


@pytest.mark.parametrize("d,seed,x", [(2, s, x) for s, x in POOL_D2]
                         + [(3, s, X0) for s in (1, 2, 3)]
                         + [(d, s, x) for d in (4, 5) for s in range(12)
                            for x in (X0, 1.1)])
def test_pooled_instances_pass(d, seed, x):
    # on the real-step ladder fits d = 3 seeds 1 and 3 read p0_v_dev 1.3e-3
    # and 1.6e-3 against the 1e-3 gate; with sampled windows unfolded by the
    # Pascal conjugation d = 4 failed the quotients gate on 12 of these 24
    # cases (quot_lhs_dev up to 4.9e-2) and d = 5 on all 24
    rep = lax_limit_diagnostics(random_curve_spec(d, seed=seed),
                                short_diagonal_chi(d), x)
    assert all(rep.checks().values()), rep.to_dict()


def test_frame_roundoff_does_not_flip_the_verdict():
    # the ladder fit of d = 3 seed 2 read p0_v_dev 6.3e-4 and moved up to
    # 1.33e-3 under frames perturbed at 2e-16; no experiment reads the
    # frame, so the roundoff is probed by moving x a few ulp (7.5e-11 to
    # 7.8e-11 from jet windows, 7.1e-9 to 8.6e-9 from sampled ones)
    spec = random_curve_spec(3, seed=2)
    for ulps in range(-3, 4):
        x = X0 + ulps * np.spacing(X0)
        rep = lax_limit_diagnostics(spec, short_diagonal_chi(3), x)
        assert all(rep.checks().values())
        assert rep.p0_v_dev <= 1e-9
