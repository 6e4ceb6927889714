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
from pentalab.curves import (_SHIFT_ORDER, CurveSpec, _lift_coeffs, gamma_jet,
                             random_curve_spec, zero_curve_spec)
from pentalab.discretize import coords_from_samples, discrete_coords
from pentalab.expansion import _contour, extract_alphas
from pentalab.jets import eval_jet
from pentalab.lax import (
    _drift,
    _q2_gamma,
    _shift_companion,
    _transfer,
    _v_jets,
    d_eps,
    d_eps_inv,
    lax_limit_diagnostics,
    u_matrix,
)

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
    return _q2_gamma(g[..., 0], u[..., 0])


def v_jets(spec, x, c, order):
    """Matrix jet of V at x to the given order, as lax_limit_diagnostics
    builds it."""
    return _v_jets(*q2_gamma(spec, x, order + spec.d + 2), c)


def v_matrix(spec, x, c):
    return v_jets(spec, x, c, 0).value


def drift(spec, x, c):
    """Third-order drift at x, from V and Q_2 Γ as lax_limit_diagnostics
    builds them."""
    g, q2g = q2_gamma(spec, x, spec.d + 4)
    return _drift(u_matrix(spec, x), c, _v_jets(g, q2g, c).value, q2g)


def shift_companion(spec, x, eps):
    return _shift_companion(discrete_coords(spec, x, eps).a_tilde)


def frame_values(spec, x, rows):
    """Stack of derivative rows Γ, Γ', ... as plain floats."""
    g = gamma_jet(spec, x, rows + 1)
    out = np.empty((rows, spec.d + 1))
    for i in range(rows):
        out[i] = g.value
        g = g.derivative()
    return out


class TestCompanion:
    def test_zero_curve_is_nilpotent_shift(self):
        spec = zero_curve_spec(2)
        assert_allclose(u_matrix(spec, 0.7),
                        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], atol=0)

    def test_last_row_holds_coefficients(self, curve_d3):
        u = u_matrix(curve_d3, X0)
        vals = [eval_jet(f, X0, 0).value for f in curve_d3.u]
        assert_allclose(u[3, :3], np.negative(vals), atol=1e-14)
        assert u[3, 3] == 0.0

    def test_characteristic_polynomial(self, curve_d3):
        # det(lam*I - U) recovers the coefficients of the curve's equation
        u = u_matrix(curve_d3, X0)
        vals = [eval_jet(f, X0, 0).value for f in curve_d3.u]
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
        g = gamma_jet(spec, X0, d + 4)
        u_top = eval_jet(spec.u[d - 1], X0, d + 4)
        q2g = g.derivative().derivative() + g * u_top * (2.0 / (d + 1))
        rows = np.empty((d + 1, d + 1))
        for k in range(d + 1):
            rows[k] = q2g.value
            q2g = q2g.derivative()
        frame = frame_values(spec, X0, d + 1)
        assert_allclose(v @ frame, c * rows, atol=1e-9)

    def test_jet_derivative_matches_difference(self, curve_d2):
        h = 1e-4
        vj = v_jets(curve_d2, X0, 0.375, 2)
        vp = vj.derivative().value
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


class TestDifferenceBasis:
    def test_d1_entries(self):
        e = 0.25
        assert_allclose(d_eps(1, e), [[1, 0], [-4.0, 4.0]], atol=1e-14)
        assert_allclose(d_eps_inv(1, e), [[1, 0], [1.0, 0.25]], atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_inverse_pair(self, d):
        e = 0.13
        assert_allclose(d_eps(d, e) @ d_eps_inv(d, e), np.eye(d + 1),
                        atol=1e-10)

    def test_maps_samples_to_difference_quotients(self, curve_d2):
        e = 0.05
        samples = np.stack([curve_d2.frame_at(X0 + k * e)[0]
                            for k in range(3)])
        scaled = d_eps(2, e) @ samples
        for k in range(3):
            assert_allclose(scaled[k],
                            np.diff(samples, n=k, axis=0)[0] / e ** k,
                            atol=1e-10)

    @pytest.mark.parametrize("e", [-0.13, 0.13j, 0.1 * np.exp(0.7j)])
    def test_any_nonzero_step(self, e):
        # the contour reads the transfer matrices at complex steps
        assert_allclose(d_eps(3, e) @ d_eps_inv(3, e), np.eye(4), atol=1e-10)
        assert d_eps(3, e)[3, 0] == -1 / e ** 3

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            d_eps(2, 0.0)
        with pytest.raises(ValueError):
            d_eps_inv(2, 0j)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_d_eps(d, e):
    """(d_eps, d_eps_inv) of one step, entry by entry in scalar arithmetic
    as the per-node loop built them: the reference for the contour's
    complex steps, whose stacked powers must round as a scalar's do."""
    dm = np.zeros((d + 1, d + 1), dtype=e.dtype)
    dmi = np.zeros_like(dm)
    for k in range(d + 1):
        for i in range(k + 1):
            dm[k, i] = (-1) ** (k - i) * math.comb(k, i) / e ** k
            dmi[k, i] = math.comb(k, i) * e ** i
    return dm, dmi


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 13), st.booleans(),
       st.integers(0, 2 ** 16))
def test_a_stack_equals_its_members(d, size, complex_step, seed):
    # lax_limit_diagnostics does every contour node's algebra as one stack;
    # each member must come out as the one-member call gives it
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.05, 0.2, size) * rng.choice([-1, 1], size)
    pts, mapped = rng.standard_normal((2, size, d + 2, d + 1))
    if complex_step:
        eps = eps * np.exp(1j * rng.uniform(0, np.pi, size))
        pts = pts + 1j * rng.standard_normal(pts.shape)
    coords = coords_from_samples(pts, X0, eps)
    dm, dmi = d_eps(d, eps), d_eps_inv(d, eps)
    lt = _shift_companion(coords.a_tilde)
    p = _transfer(pts[:, 1:], mapped[:, 1:])
    for j in range(size):
        one = coords_from_samples(pts[j], X0, eps[j])
        assert same_bits(coords.A[j], one.A)
        assert same_bits(coords.a_tilde[j], one.a_tilde)
        assert same_bits(dm[j], d_eps(d, eps[j]))
        assert same_bits(dmi[j], d_eps_inv(d, eps[j]))
        if complex_step:
            want, want_inv = scalar_d_eps(d, eps[j])
            assert same_bits(dm[j], want) and same_bits(dmi[j], want_inv)
        assert same_bits(lt[j], _shift_companion(one.a_tilde))
        assert same_bits(p[j], _transfer(pts[j, 1:], mapped[j, 1:]))
    bad = eps.copy()
    bad[rng.integers(size)] = 0
    for stacked in (lambda e: d_eps(d, e), lambda e: d_eps_inv(d, e),
                    lambda e: coords_from_samples(pts, X0, e)):
        with pytest.raises(ValueError):
            stacked(bad)


class TestTransfer:
    @pytest.mark.parametrize("shift", [0, 1])
    def test_defining_relation(self, curve_d2, shift):
        # P from curve windows and one batched map application of the
        # shifted configurations, all in the lift based at X0 with the
        # identity frame, as lax_limit_diagnostics builds them, against
        # rows taken one point at a time
        chi = short_diagonal_chi(2)
        e = 0.1
        here = CurveSpec(2, curve_d2.u, X0, np.eye(3))
        ks = np.arange(shift, shift + 3)
        p = _transfer(here.frame_at(X0 + ks * e)[:, 0],
                      chi_map_point(curve_d2, chi, X0, e, 6, shift=ks)[0].value)
        w = np.stack([here.frame_at(X0 + k * e)[0] for k in ks])
        wt = np.stack([chi_map_point(curve_d2, chi.shift(k), X0, e, 6)[0].value
                       for k in ks])
        assert_allclose(p @ w, wt, atol=1e-8)


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
        g, q2g = _q2_gamma(lifts[:8, :, 0], u[:8, :, 0])
        fresh = CurveSpec(3, spec.u, x, np.eye(4))
        want_g = gamma_jet(fresh, x, 7)
        assert np.array_equal(g.c, want_g.c)
        u_top = fresh.u_jet(x, 7)[2]
        want = want_g.derivative().derivative() + want_g * u_top * (2.0 / 4)
        assert np.array_equal(q2g.c, want.c)

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
        # with no second pass over the u-trees through u_matrix
        import pentalab.lax

        us = []
        u_matrix_ = pentalab.lax.u_matrix

        def no_frame(spec, x):
            raise AssertionError("frame_at called")

        def counted_u(spec, x):
            us.append(x)
            return u_matrix_(spec, x)

        monkeypatch.setattr(CurveSpec, "frame_at", no_frame)
        monkeypatch.setattr(pentalab.lax, "u_matrix", counted_u)
        lax_limit_diagnostics(curve_d2, short_diagonal_chi(2), X0)
        assert us == []

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
        # the map lifts node p of window column k at offset (p + k) eps; at
        # d = 3 the 7 nodes times 5 columns give 35 offsets, 11 distinct
        import pentalab.chimap

        hs = []
        inner = pentalab.chimap._shifted_lifts

        def seen(g, h, kmax):
            hs.append(np.asarray(h))
            return inner(g, h, kmax)

        monkeypatch.setattr(pentalab.chimap, "_shifted_lifts", seen)
        d, chi = 3, short_diagonal_chi(3)
        lax_limit_diagnostics(curve_d3, chi, X0)
        nodes = {p for g in chi.groups for p in g}
        offsets = sorted({p + k for p in nodes for k in range(d + 2)})
        assert (len(nodes) * (d + 2), len(offsets)) == (35, 11)
        _, eps = _contour(nodes, curve_d3.dtype)
        [h] = hs
        assert np.array_equal(h.reshape(eps.size, len(offsets)),
                              np.array(offsets) * eps[:, None])

    def test_mapped_point_at_x_is_computed_once_per_rung(self, curve_d2,
                                                           monkeypatch):
        import pentalab.chimap
        import pentalab.expansion
        import pentalab.lax

        want = extract_alphas(curve_d2, short_diagonal_chi(2), X0)
        calls = []
        inner = pentalab.chimap._map_lifted

        def counted(*args, **kwargs):
            x, eps, shift = np.broadcast_arrays(*args[2:4], kwargs["shift"])
            calls.append(list(zip(x.ravel().tolist(), eps.ravel().tolist(),
                                  shift.ravel().tolist())))
            return inner(*args, **kwargs)

        monkeypatch.setattr(pentalab.expansion, "_map_lifted", counted)
        monkeypatch.setattr(pentalab.lax, "_map_lifted", counted)
        d = 2
        rep = lax_limit_diagnostics(curve_d2, short_diagonal_chi(d), X0)
        # one application maps the 13 contour nodes of the extraction times
        # the window x .. x + (d+1) eps, all at x with the shifted
        # configurations, and its k = 0 column is the extraction's own
        assert len(calls) == 1
        assert rep.c == want.alpha[2, 2]
        pairs = calls[0]
        assert len(pairs) == len(set(pairs)) == 13 * (d + 2)
        assert {x for x, _, _ in pairs} == {X0}
        assert sorted({k for _, _, k in pairs}) == list(range(d + 2))
        radius = 0.2 / max(abs(p) for g in short_diagonal_chi(d).groups
                           for p in g)
        assert_allclose(sorted(abs(e) for _, e, k in pairs if k == 0),
                        [radius] * 13, rtol=1e-15)

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
                         + [(3, s, X0) for s in (1, 2, 3)])
def test_pooled_instances_pass(d, seed, x):
    # on the real-step ladder fits d = 3 seeds 1 and 3 read p0_v_dev 1.3e-3
    # and 1.6e-3 against the 1e-3 gate
    rep = lax_limit_diagnostics(random_curve_spec(d, seed=seed),
                                short_diagonal_chi(d), x)
    assert all(rep.checks().values()), rep.to_dict()


def test_frame_roundoff_does_not_flip_the_verdict():
    # the ladder fit of d = 3 seed 2 read p0_v_dev 6.3e-4 and moved up to
    # 1.33e-3 under frames perturbed at 2e-16; no experiment reads the
    # frame, so the roundoff is probed by moving x a few ulp
    spec = random_curve_spec(3, seed=2)
    for ulps in range(-3, 4):
        x = X0 + ulps * np.spacing(X0)
        rep = lax_limit_diagnostics(spec, short_diagonal_chi(3), x)
        assert all(rep.checks().values())
        assert rep.p0_v_dev <= 1e-6
