"""Contour extraction of expansion coefficients and structure checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab import (
    AnalyticFn,
    ChiConfig,
    CurveSpec,
    dual_dented_chi,
    dual_dented_shift,
    evenly_spaced_chi,
    random_curve_spec,
    short_diagonal_chi,
    solve_alpha_diag,
    trig_poly,
)
from pentalab.expansion import (
    NotCentralized,
    _lift,
    alpha_constancy_check,
    extract_alphas,
    kdv_rhs_check,
)
from pentalab.kdvops import JET_ORDER, kdv_rhs, l_operator

from oracles import alpha11_evenly_spaced, verify_G2_structure, zero_curve_spec


class TestExtraction:
    def test_d2_short_diagonal(self, curve_d2):
        r = extract_alphas(curve_d2, short_diagonal_chi(2), 0.3, kmax=4)
        assert_allclose(r.alpha[0], [1.0, 0.0, 0.0], atol=1e-8)
        assert abs(r.alpha[1, 1]) <= 1e-6
        assert abs(r.alpha[2, 2] - 0.375) <= 1e-3
        assert abs(r.alpha[1, 0]) <= 1e-5
        assert abs(r.alpha[2, 1]) <= 1e-5
        assert verify_G2_structure(r, curve_d2, 0.3) <= 1e-3

    def test_d3_short_diagonal_matches_system(self, curve_d3):
        chi = short_diagonal_chi(3)
        r = extract_alphas(curve_d3, chi, 0.3, kmax=4)
        assert abs(r.alpha[1, 1]) <= 1e-5
        predicted = solve_alpha_diag(chi)
        extracted = [r.alpha[k, k] for k in (1, 2, 3)]
        assert_allclose(extracted, predicted, atol=2e-3)
        assert verify_G2_structure(r, curve_d3, 0.3) <= 1e-3

    @pytest.mark.parametrize("d,p,step,x", [
        (2, (-0.8, 0.5), 0.9, 0.1),
        (3, (-1.0, 0.3, 1.1), 0.7, 0.3),
    ])
    def test_evenly_spaced_first_order(self, d, p, step, x):
        spec = random_curve_spec(d, seed=4 + d)
        r = extract_alphas(spec, evenly_spaced_chi(p, step, d), x, kmax=4)
        assert abs(r.alpha[1, 1] - alpha11_evenly_spaced(p, step, d)) <= 1e-3
        # the second-order formula holds with the first-order correction
        assert verify_G2_structure(r, spec, x) <= 1e-3

    def test_alpha11_curve_independent(self):
        chi = evenly_spaced_chi((-0.8, 0.5), 0.9, 2)
        vals = [extract_alphas(random_curve_spec(2, seed=100 + k), chi,
                               0.2).alpha[1, 1] for k in range(10)]
        assert max(vals) - min(vals) <= 2e-3

    def test_kmax_guard(self, curve_d2):
        with pytest.raises(ValueError):
            extract_alphas(curve_d2, short_diagonal_chi(2), 0.0, kmax=7)

    def test_vanishing_top_invariant(self):
        u = [trig_poly(0.3, [(0.2, 0.1)]), AnalyticFn.const(0.0)]
        spec = CurveSpec(2, u, 0.0, np.eye(3))
        r = extract_alphas(spec, short_diagonal_chi(2), 0.4, kmax=4)
        assert abs(r.alpha[2, 0]) <= 1e-4
        assert abs(r.alpha[2, 1]) <= 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_warm_extraction_walks_each_u_tree_once(self, d, monkeypatch):
        import pentalab.curves

        spec = random_curve_spec(d, seed=7)
        chi = short_diagonal_chi(d)
        want = extract_alphas(spec, chi, 0.45)  # visits the anchors
        calls = []
        inner = pentalab.curves.eval_jet

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(pentalab.curves, "eval_jet", counted)
        got = extract_alphas(spec, chi, 0.45)
        # one pass per u-tree lifts the working point; every node of the
        # contour is a shift of that lift
        assert calls == [(1,)] * d
        assert np.array_equal(got.alpha, want.alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_point_raises(self, curve_d2, bad, monkeypatch):
        import pentalab.expansion as expansion

        inner = expansion.chi_map_point

        def poisoned(*args):
            lifted, u = inner(*args)
            lifted[0, 0, 3, 1] = bad  # the point of rung 3, coordinate 1
            return lifted, u

        monkeypatch.setattr(expansion, "chi_map_point", poisoned)
        with pytest.raises(ValueError, match="infs or NaNs"):
            extract_alphas(curve_d2, short_diagonal_chi(2), 0.3)


class TestUncertainty:
    @pytest.mark.parametrize("d, chi", [
        (2, short_diagonal_chi(2)), (3, short_diagonal_chi(3)),
        (4, short_diagonal_chi(4)),
        (2, evenly_spaced_chi((-0.8, 0.5), 0.9, 2)),
        (3, dual_dented_chi(3, 1).shift(dual_dented_shift(3, 1))),
    ], ids=["sd2", "sd3", "sd4", "es2", "dd3"])
    def test_bounds_the_double_error(self, d, chi):
        # the roundoff floor was set on short-diagonal d = 2..4, curve
        # seeds 0-7, x in {0.3, 1.1}, where the gap alone missed 634 of
        # 1,344 entries; this grid shares no case with that one, and the
        # worst entry reads 0.994 of its uncertainty (sd4, seed 13,
        # x -0.7, alpha[3,1])
        for seed in range(8, 16):
            double = random_curve_spec(d, seed=seed)
            extended = random_curve_spec(d, seed=seed, dtype=np.longdouble)
            for x in (-0.7, 0.45, 1.7):
                r = extract_alphas(double, chi, x, kmax=6)
                want = extract_alphas(extended, chi, x, kmax=6).alpha
                assert np.all(np.abs(r.alpha - want) <= r.uncertainty)

    def test_floor_grows_like_radius_to_the_minus_k(self, curve_d2):
        # the floor is one noise level per column over r^k, so wherever it
        # decides the uncertainty consecutive rows differ by 1/r
        r = extract_alphas(curve_d2, short_diagonal_chi(2), 0.3, kmax=6)
        radius = 0.2 / 1.5
        ratio = r.uncertainty[6] / r.uncertainty[5]
        assert_allclose(ratio, 1 / radius, rtol=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the expand "
                   "uncertainty does not always bracket |double - extended|")
@pytest.mark.parametrize("seed, x, worst", [
    (20, -0.2, "alpha[3,1] at 1.23 times its uncertainty"),
    (21, 0.8, "alpha[3,1] at 1.33 times"),
    (29, 0.8, "alpha[3,0] at 1.11 times"),
])
def test_uncertainty_misses_on_short_diagonal_d4(seed, x, worst):
    # the misses of short-diagonal d = 4, kmax 6, on curve seeds 0-7 at
    # x in {0.3, 1.1} and seeds 16-31 at x in {-0.2, 0.8, 2.3}; any change
    # to the roundoff moves them, and a fix makes these pass
    chi = short_diagonal_chi(4)
    r = extract_alphas(random_curve_spec(4, seed=seed), chi, x, kmax=6)
    want = extract_alphas(random_curve_spec(4, seed=seed, dtype=np.longdouble),
                          chi, x, kmax=6).alpha
    assert np.all(np.abs(r.alpha - want) <= r.uncertainty), worst


class TestFarWorkingPoint:
    """A working point far from x0 is lifted from the identity frame there,
    as every working point is."""

    @pytest.mark.parametrize("x", [20.0, 40.0])
    def test_far_reproducer_d2(self, x):
        # the walk from x0 made both raise DegenerateIntersection
        spec = random_curve_spec(2, seed=5)
        r = extract_alphas(spec, short_diagonal_chi(2), x)
        assert abs(r.alpha[1, 1]) < 1e-5
        assert abs(r.alpha[2, 2] - 0.375) < 1e-4

    def test_far_reproducer_d3(self):
        spec = random_curve_spec(3, seed=23)
        r = extract_alphas(spec, short_diagonal_chi(3), 20.0)
        assert abs(r.alpha[1, 1]) < 1e-5

    @pytest.mark.parametrize("d", [2, 3])
    def test_rebased_curve_gives_the_same_expansion(self, d):
        # the extraction reads neither x0 nor F0
        spec = random_curve_spec(d, seed=11)
        chi = short_diagonal_chi(d)
        here = extract_alphas(spec, chi, 0.3)
        moved = extract_alphas(CurveSpec(d, spec.u, 0.3, np.eye(d + 1)), chi,
                               0.3)
        assert moved.to_dict() == here.to_dict()

    def test_near_points_keep_their_bits_next_to_a_far_one(self, curve_d2):
        from pentalab.expansion import _extract

        chi = short_diagonal_chi(2)
        mixed = _extract(chi, (0.2, 0.3, 20.0), 2,
                         _lift(curve_d2, (0.2, 0.3, 20.0))[0])
        near = _extract(chi, (0.2, 0.3, 0.4), 2,
                        _lift(curve_d2, (0.2, 0.3, 0.4))[0])
        for got, want in zip(mixed[:2], near[:2]):
            assert got.to_dict() == want.to_dict()
        assert abs(mixed[2].alpha[1, 1]) <= 1e-3
        assert abs(mixed[2].alpha[2, 2] - 0.375) <= 2e-3
        report, spread = alpha_constancy_check(curve_d2, chi,
                                               (0.2, 0.3, 20.0))
        assert report.to_dict() == near[0].to_dict()
        assert spread <= 2e-3


class TestConstancy:
    def test_d2_short_diagonal_spread(self, curve_d2):
        xs = [-0.4, 0.0, 0.3, 0.7, 1.2]
        assert alpha_constancy_check(curve_d2, short_diagonal_chi(2),
                                     xs)[1] <= 2e-3

    def test_d3_dual_dented_shifted_spread(self, curve_d3):
        from pentalab import dual_dented_chi, dual_dented_shift
        chi = dual_dented_chi(3, 1).shift(dual_dented_shift(3, 1))
        assert alpha_constancy_check(curve_d3, chi, [-0.2, 0.3, 0.8])[1] <= 2e-3

    def test_alpha20_tracks_potential(self):
        # alpha_{2,0} is proportional to u_{d-1}, so it must move with x
        u = [AnalyticFn.const(0.05), trig_poly(0.0, [(0.8, 0.0)])]
        spec = CurveSpec(2, u, 0.0, np.eye(3))
        chi = short_diagonal_chi(2)
        vals = [extract_alphas(spec, chi, x).alpha[2, 0]
                for x in (0.0, 1.0, 2.2)]
        assert max(vals) - min(vals) >= 10 * 2e-3

    def test_needs_three_points(self, curve_d2):
        with pytest.raises(ValueError):
            alpha_constancy_check(curve_d2, short_diagonal_chi(2), [0.0, 0.5])

    def test_one_extraction_per_point(self, curve_d2, monkeypatch):
        import pentalab.expansion as expansion

        chi = short_diagonal_chi(2)
        xs = [-0.4, 0.3, 1.1]
        calls = []
        inner = expansion.chi_map_point

        def counted(*args):
            lifts, eps = args[1:3]
            calls.append(lifts[..., 0])
            # the upper half of the contour
            assert np.broadcast_shapes(lifts.shape[2:], eps.shape) == (3, 13)
            return inner(*args)

        monkeypatch.setattr(expansion, "chi_map_point", counted)
        first, spread = alpha_constancy_check(curve_d2, chi, xs)
        monkeypatch.undo()
        # every point on every node in one application
        [lifts] = calls
        assert np.array_equal(lifts, _lift(curve_d2, xs)[0])
        diag = np.array([np.diag(extract_alphas(curve_d2, chi, x).alpha)
                         for x in xs])
        assert spread == float(np.max(diag.max(axis=0) - diag.min(axis=0)))
        want = extract_alphas(curve_d2, chi, xs[0])
        assert first.to_dict() == want.to_dict()


class TestKdvCheck:
    def test_d2_short_diagonal(self, curve_d2):
        assert kdv_rhs_check(curve_d2, short_diagonal_chi(2), 0.3) <= 1e-3

    def test_d3_short_diagonal(self, curve_d3):
        assert kdv_rhs_check(curve_d3, short_diagonal_chi(3), 0.3) <= 1e-3

    def test_zero_curve_trivial(self):
        spec = zero_curve_spec(2)
        r = extract_alphas(spec, short_diagonal_chi(2), 0.3, kmax=2)
        assert np.max(np.abs(r.w)) <= 1e-8
        assert kdv_rhs_check(spec, short_diagonal_chi(2), 0.3) <= 1e-8

    def test_rejects_non_centralized(self, curve_d2):
        chi = evenly_spaced_chi((-0.8, 0.5), 0.9, 2)
        with pytest.raises(NotCentralized):
            kdv_rhs_check(curve_d2, chi, 0.3)
        assert issubclass(NotCentralized, ValueError)

    def test_one_u_tree_pass(self, curve_d3, monkeypatch):
        chi = short_diagonal_chi(3)
        calls = []
        inner = CurveSpec.u_jet

        def counted(spec, x, order):
            calls.append(order)
            return inner(spec, x, order)

        monkeypatch.setattr(CurveSpec, "u_jet", counted)
        got = kdv_rhs_check(curve_d3, chi, 0.3)
        monkeypatch.undo()
        # the lift's own u-jet builds L: no second pass to JET_ORDER
        assert len(calls) == 1
        report = extract_alphas(curve_d3, chi, 0.3)
        flow = kdv_rhs(l_operator(curve_d3.u_jet(0.3, JET_ORDER)), 2)
        want = report.alpha[2, 2] * flow.c[:, 0]
        assert got == float(np.max(np.abs(report.w - want)))


def _general_u(rng, d):
    """Quotient, square-root and product trees, as in general curve files."""
    x = AnalyticFn.x()
    a, b, c = rng.uniform(0.15, 0.35, size=3)
    trees = [a * x.sin() / (2.0 + x.cos()),
             b * (1.5 + (2.0 * x).cos()) ** 0.5 - c,
             a * x.cos() * (2.0 * x).sin() + b]
    return [trees[i % 3] for i in rng.permutation(d) + rng.integers(3)]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_lift_u_jet_truncates_to_the_jet_order(d, dtype):
    # kdv_rhs_check and check_34 build L from the order-40 u-jet of the
    # lift, cut to JET_ORDER; it must equal the jet to JET_ORDER exactly
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for spec in (random_curve_spec(d, seed=seed, dtype=dtype),
                     CurveSpec(d, _general_u(rng, d), 0.0, np.eye(d + 1),
                               dtype=dtype)):
            for x in (-0.7, 0.3, 1.1):
                got = _lift(spec, [x])[1][..., 0]
                assert got.dtype == spec.dtype
                assert np.array_equal(got, spec.u_jet(x, JET_ORDER))


class TestReport:
    def test_json_round_trip(self, curve_d2):
        r = extract_alphas(curve_d2, short_diagonal_chi(2), 0.3)
        d = json.loads(json.dumps(r.to_dict(), sort_keys=True))
        assert d["d"] == 2 and d["kmax"] == 2
        assert len(d["alpha"]) == 3 and len(d["alpha"][0]) == 3
        assert len(d["w"]) == 2

    def test_csv_rows(self, curve_d2):
        r = extract_alphas(curve_d2, short_diagonal_chi(2), 0.3)
        rows = r.csv_rows()
        assert len(rows) == 9
        assert rows[0][:2] == (0, 0)
        assert all(len(t) == 4 for t in rows)

    def test_uncertainty_brackets_known_value(self, curve_d2):
        r = extract_alphas(curve_d2, short_diagonal_chi(2), 0.3, kmax=4)
        err = abs(r.alpha[2, 2] - 0.375)
        assert err <= max(50 * r.uncertainty[2, 2], 1e-4)


def _exact_diagonal(groups):
    """(alpha_11, ..., alpha_dd) of a hyperplane configuration, solved in
    exact rationals: group i gives sum_j (-1)^(j+1) j! e_{d-j} alpha_jj = e_d,
    with e the elementary symmetric polynomials of its nodes."""
    d = len(groups)
    rows = []
    for g in groups:
        e = [Fraction(1)] + [Fraction(0)] * d
        for p in g:
            for j in range(d, 0, -1):
                e[j] += Fraction(p) * e[j - 1]
        rows.append([(-1) ** (j + 1) * math.factorial(j) * e[d - j]
                     for j in range(1, d + 1)] + [e[d]])
    for c in range(d):  # Gauss-Jordan, exact
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][d] / rows[i][i] for i in range(d)]


class TestOracles:
    """Checks against values that share no code with the extraction."""

    def test_hyperplane_diagonal_matches_exact_rationals(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 40:
            d = 2 + done % 3
            # quarter-integer nodes are exact in binary and in Fraction
            groups = [sorted(rng.choice(np.arange(-8, 9), d, replace=False)
                             / 4.0) for _ in range(d)]
            try:
                exact = _exact_diagonal(groups)
            except StopIteration:  # singular system
                continue
            radius = 0.2 / max(1.0, float(np.max(np.abs(groups))))
            if abs(exact[0]) * radius > 0.5:
                continue
            rep = extract_alphas(random_curve_spec(d, seed=done),
                                 ChiConfig(d, groups), 0.3, kmax=d)
            for k in range(1, d + 1):
                err = abs(rep.alpha[k, k] - float(exact[k - 1]))
                assert err <= max(rep.uncertainty[k, k], 1e-10), (done, k, err)
            done += 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_short_diagonal_has_no_odd_orders(self, d):
        # the family is symmetric under eps -> -eps, so the map is even
        for seed in (0, 11, 23):
            rep = extract_alphas(random_curve_spec(d, seed=seed),
                                 short_diagonal_chi(d), 0.3, kmax=3)
            assert np.max(np.abs(rep.alpha[[1, 3]])) <= 1e-10
