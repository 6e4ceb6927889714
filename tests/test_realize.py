import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pentalab.configs import ChiConfig, SymTable
from pentalab.curves import CurveSpec, random_curve_spec
from pentalab.expansion import extract_alphas
from pentalab.kdvops import JET_ORDER, l_operator, q_m
from pentalab.realize import (
    Realization34Report,
    check_34,
    dof_lower_bound,
    mari_beffa_family,
    r_poly_roots,
    search_34,
)

X0 = 0.3


@pytest.fixture(scope="module")
def probes():
    return [random_curve_spec(3, seed=s) for s in (23, 41, 57)]


@pytest.fixture(scope="module")
def integer_instance():
    chi, residual = mari_beffa_family(-2, 3, -5)
    assert residual == 0.0
    return chi


@pytest.fixture(scope="module")
def integer_report(integer_instance, probes):
    return check_34(integer_instance, probes, X0)


class TestDofBound:
    def test_small_values(self):
        assert [dof_lower_bound(m) for m in (2, 3, 4)] == [1, 2, 4]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_per_order_sum(self, m):
        # each killed order i contributes (i^2 - 3i + 4)/2 restrictions
        total = sum((i * i - 3 * i + 4) // 2 for i in range(1, m))
        assert dof_lower_bound(m) == total

    def test_first_order_is_free(self):
        assert dof_lower_bound(1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dof_lower_bound(0)


class TestFamily:
    def test_integer_instance_nodes(self, integer_instance):
        assert integer_instance.groups == ((-2.0, 3.0, 5.0),
                                           (-5.0, 2.0, 3.0),
                                           (-6.0, -5.0, -1.0))

    def test_off_slice_residual(self):
        _, residual = mari_beffa_family(2, 3, 4)
        assert residual == pytest.approx(5.75)

    @pytest.mark.parametrize("a,b,c", [(-2, 3, -5), (3, 2, 18)])
    def test_zero_residual_members_have_equal_products(self, a, b, c):
        chi, residual = mari_beffa_family(a, b, c)
        assert residual <= 1e-12
        top = SymTable(chi).top()
        assert_allclose(top, -a * b * c, atol=1e-12)


class TestRootGate:
    def test_four_distinct_real_roots(self):
        roots = r_poly_roots()
        assert roots.shape == (4,)
        assert np.all(np.diff(roots) > 1e-6)

    def test_polished_residuals(self):
        poly = [2480.0, 33006.0, 72121.0, -198036.0, 89280.0]
        for r in r_poly_roots():
            assert abs(np.polyval(poly, r)) <= 1e-8

    def test_roots_are_computed_once_and_read_only(self):
        roots = r_poly_roots()
        assert r_poly_roots() is roots
        with pytest.raises(ValueError):
            roots[0] = 0.0
        # the values each call computed afresh before the cache
        want = ["-0x1.23484862e6ce3p+3", "-0x1.78a3bd702792fp+2",
                "0x1.517caa3c6a904p-1", "0x1.0500b8c87cc5fp+0"]
        assert [float(r).hex() for r in roots] == want


class TestCheck34:
    def test_integer_instance_passes(self, integer_report):
        rep = integer_report
        assert rep.sigma_equal
        assert_allclose(rep.sigma_top, -30.0, atol=1e-12)
        assert rep.g1_norm <= 1e-4
        assert rep.g2_norm <= 1e-4
        assert rep.g3_match <= 1e-3
        assert rep.passes()
        assert rep.skipped == ()

    def test_fitted_constant_matches_product_rule(self, integer_report):
        # the third-order constant is the common node product over 3!
        assert integer_report.c_fit == pytest.approx(-5.0, abs=5e-3)

    @pytest.mark.parametrize("root_index", [0, 2])
    def test_quartic_gate_configs_pass(self, probes, root_index):
        r = r_poly_roots()[root_index]
        chi = ChiConfig(3, [[-1.0, 1.5, 4.0], [1.2, 10.0, -0.5],
                            [1.0, -r, 6.0 / r]])
        rep = check_34(chi, probes, X0)
        assert rep.sigma_equal
        assert_allclose(rep.sigma_top, -6.0, atol=1e-9)
        assert rep.passes()
        assert rep.c_fit == pytest.approx(-1.0, abs=5e-3)

    def test_perturbed_instance_fails(self, probes):
        chi = ChiConfig(3, [[5.05, -2.0, 3.0], [-5.0, 2.0, 3.0],
                            [-5.0, -1.0, -6.0]])
        rep = check_34(chi, probes, X0)
        assert not rep.sigma_equal
        assert rep.g1_norm >= 1e-3
        assert not rep.passes()

    def test_products_equal_to_1e_10_are_unequal_everywhere(self, probes):
        # one decision, one tolerance: check_34 and the closed-form
        # criterion judge the node products alike
        chi = ChiConfig(3, [[-2.0, 3.0, 5.0 * (1 + 1e-10)], [-5.0, 2.0, 3.0],
                            [-5.0, -1.0, -6.0]])
        top = SymTable(chi).top()
        assert 5e-11 < np.ptp(top) / np.max(np.abs(top)) < 2e-10
        assert not SymTable(chi).tops_agree()
        assert not check_34(chi, probes, X0).sigma_equal

    def test_rejects_wrong_shape(self, probes):
        flat = ChiConfig(2, [[-1.0, 1.0], [-2.0, 2.0]])
        with pytest.raises(ValueError):
            check_34(flat, probes, X0)

    def test_every_probe_degenerate_is_typed(self, integer_instance, probes,
                                             monkeypatch):
        import pentalab.realize
        from pentalab.chimap import DegenerateIntersection
        from pentalab.realize import DegenerateProbes

        def degenerate(*args, **kwargs):
            raise DegenerateIntersection("stacked constraints are rank deficient")

        monkeypatch.setattr(pentalab.realize, "_extract", degenerate)
        with pytest.raises(DegenerateProbes, match="every probe curve"):
            check_34(integer_instance, probes, X0)
        assert issubclass(DegenerateProbes, RuntimeError)

    def test_rejects_too_few_probes(self, integer_instance, probes):
        with pytest.raises(ValueError):
            check_34(integer_instance, probes[:2], X0)

    def test_report_round_trip(self, integer_report):
        blob = json.loads(json.dumps(integer_report.to_dict()))
        assert blob["passes"] is True
        assert blob["sigma_equal"] is True
        assert len(blob["sigma_top"]) == 3
        assert blob["chi"]["d"] == 3


def _r_root_chi(index):
    r = r_poly_roots()[index]
    return ChiConfig(3, [[-1.0, 1.5, 4.0], [1.2, 10.0, -0.5],
                         [1.0, -r, 6.0 / r]])


def _spy_residuals(monkeypatch):
    """The alpha stacks and results check_34 hands to _residuals."""
    import pentalab.realize

    seen = []
    inner = pentalab.realize._residuals

    def spy(alphas, targets):
        out = inner(alphas, targets)
        seen.append((np.array(alphas), out))
        return out

    monkeypatch.setattr(pentalab.realize, "_residuals", spy)
    return seen


def _per_probe(chi, probe_curves, x):
    """The alpha stack and residuals of one extraction and one u-jet per
    probe, as check_34 computed them before its probes shared a map."""
    from pentalab.realize import _residuals

    alphas = [extract_alphas(spec, chi, x, kmax=3).alpha
              for spec in probe_curves]
    targets = [q_m(l_operator(spec.u_jet(x, JET_ORDER)), 3).c[:4, 0]
               for spec in probe_curves]
    return np.array(alphas), _residuals(alphas, targets)


class TestStackedProbes:
    @settings(max_examples=12, deadline=None)
    @given(seeds=st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=5),
           x=st.floats(-0.7, 1.2), chi=st.sampled_from(["integer", 0, 2]))
    def test_every_probe_equals_its_own_extraction(self, seeds, x, chi):
        chi = (mari_beffa_family(-2, 3, -5)[0] if chi == "integer"
               else _r_root_chi(chi))
        curves = [random_curve_spec(3, seed=s) for s in seeds]
        with pytest.MonkeyPatch.context() as mp:
            seen = _spy_residuals(mp)
            rep = check_34(chi, curves, x)
        [(alphas, residuals)] = seen
        want_alphas, want = _per_probe(chi, curves, x)
        assert rep.skipped == ()
        assert np.array_equal(alphas, want_alphas)
        assert residuals == want
        assert rep.c_fit == want[3]

    def test_extended_precision(self, integer_instance, monkeypatch):
        curves = [random_curve_spec(3, seed=s, dtype=np.longdouble)
                  for s in (23, 41, 57)]
        seen = _spy_residuals(monkeypatch)
        rep = check_34(integer_instance, curves, 1.1)
        [(alphas, residuals)] = seen
        want_alphas, want = _per_probe(integer_instance, curves, 1.1)
        assert np.array_equal(alphas, want_alphas)
        assert residuals == want
        assert rep.c_fit == want[3]

    def test_mixed_precision_is_refused(self, integer_instance, probes):
        extended = random_curve_spec(3, seed=5, dtype=np.longdouble)
        with pytest.raises(ValueError, match="dimension and precision"):
            check_34(integer_instance, probes + [extended], X0)

    def test_one_map_and_one_u_pass_per_probe(self, integer_instance, probes,
                                              monkeypatch):
        import pentalab.curves
        import pentalab.expansion

        maps, jets, recursions = [], [], []
        mapper, u_jet = pentalab.expansion.chi_map_point, CurveSpec.u_jet
        recursion = pentalab.curves._ode_taylor_coeffs

        def counted_map(*args, **kwargs):
            maps.append(args[1].shape[2:])
            return mapper(*args, **kwargs)

        def counted_u(spec, x, order):
            jets.append(spec)
            return u_jet(spec, x, order)

        def counted_recursion(u):
            recursions.append(u.shape[-1])
            return recursion(u)

        monkeypatch.setattr(pentalab.expansion, "chi_map_point", counted_map)
        monkeypatch.setattr(CurveSpec, "u_jet", counted_u)
        monkeypatch.setattr(pentalab.curves, "_ode_taylor_coeffs",
                            counted_recursion)
        rep = check_34(integer_instance, probes, X0)
        monkeypatch.undo()
        assert maps == [(3, 1)]  # every probe at x in one application
        assert jets == probes
        assert recursions == [3]  # and every probe lifted in one recursion
        assert rep.to_dict() == check_34(integer_instance, probes,
                                         X0).to_dict()

    def test_one_degenerate_probe_is_skipped(self, integer_instance, probes,
                                             monkeypatch):
        import pentalab.realize
        from pentalab.chimap import DegenerateIntersection
        from pentalab.expansion import _lift

        inner = pentalab.realize._extract
        bad = _lift(probes[1], [X0])[0]

        def degenerate(chi, xs, kmax, lifts):
            # the stacked call and probe 1's own call degenerate
            if lifts.shape[-1] > 1 or np.array_equal(lifts, bad):
                raise DegenerateIntersection("rank deficient")
            return inner(chi, xs, kmax, lifts)

        monkeypatch.setattr(pentalab.realize, "_extract", degenerate)
        seen = _spy_residuals(monkeypatch)
        rep = check_34(integer_instance, probes, X0)
        assert rep.skipped == (1,)
        [(alphas, residuals)] = seen
        want_alphas, want = _per_probe(integer_instance,
                                       [probes[0], probes[2]], X0)
        assert np.array_equal(alphas, want_alphas)
        assert residuals == want


class TestSearch:
    def test_passing_seed_is_fixed_point(self, integer_instance, probes):
        res = search_34(integer_instance, probes, X0, max_iters=40)
        assert res.converged
        assert not res.improved
        assert res.evaluations == 1
        assert res.chi == integer_instance
        assert res.report.passes()

    def test_recovers_from_small_perturbation(self, probes):
        seed = ChiConfig(3, [[5.0, -2.02, 3.0], [-5.0, 2.0, 3.0],
                             [-5.0, -1.0, -6.0]])
        res = search_34(seed, probes, X0, max_iters=80)
        assert res.converged
        assert res.improved
        assert res.report.passes()

    @pytest.mark.parametrize("bug", [ValueError, np.linalg.LinAlgError])
    def test_bug_in_extraction_propagates(self, integer_instance, probes,
                                          bug, monkeypatch):
        import pentalab.realize

        calls = []

        def broken(*args, **kwargs):
            calls.append(args[0])
            raise bug("not a geometric failure")

        monkeypatch.setattr(pentalab.realize, "_extract", broken)
        with pytest.raises(bug, match="not a geometric failure"):
            search_34(integer_instance, probes, X0, max_iters=5)
        # raised by the seed's own evaluation, not scored as a bad point
        assert calls == [integer_instance]

    def test_rejects_too_few_probes(self, integer_instance, probes):
        with pytest.raises(ValueError):
            search_34(integer_instance, probes[:1], X0)

    def test_result_round_trip(self, integer_instance, probes):
        res = search_34(integer_instance, probes, X0, max_iters=5)
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["converged"] is True
        assert blob["report"]["passes"] is True
