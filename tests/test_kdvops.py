"""Pseudodifferential algebra: composition, roots, and hierarchy flows."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab import Jet, eval_jet, trig_poly
from pentalab.kdvops import (
    PseudoDiffOp,
    kdv_rhs,
    l_operator,
    psdo_mul,
    psdo_pow,
    psdo_root,
    q_m,
)

X0 = 0.41


def sample_u(d, seed, order=28):
    """Mildly random trig-poly coefficient jets for a degree-d operator."""
    rng = np.random.default_rng(seed)
    jets = []
    for _ in range(d):
        amps = rng.uniform(-0.4, 0.4, size=4)
        f = trig_poly(amps[0], [(amps[1], amps[2]), (0.0, amps[3])])
        jets.append(eval_jet(f, X0, order))
    return jets


def coeff_close(op, k, expected, atol):
    got = op.coefficient(k)
    n = min(got.order, expected.order) + 1
    assert_allclose(got.c[:n], expected.c[:n], atol=atol, rtol=0)


class TestComposition:
    def test_d_times_function(self):
        u = eval_jet(trig_poly(0.2, [(0.5, -0.3)]), X0, 12)
        d_op = PseudoDiffOp({1: Jet.const(1.0, 12)}, -3)
        u_op = PseudoDiffOp({0: u}, -3)
        prod = psdo_mul(d_op, u_op)
        coeff_close(prod, 1, u, 1e-14)
        coeff_close(prod, 0, u.derivative(), 1e-14)

    def test_inverse_d_times_function_tail(self):
        # D^{-1} u = u D^{-1} - u' D^{-2} + u'' D^{-3} - ...
        u = eval_jet(trig_poly(0.0, [(0.7, 0.2)]), X0, 14)
        dinv = PseudoDiffOp({-1: Jet.const(1.0, 14)}, -5)
        prod = psdo_mul(dinv, PseudoDiffOp({0: u}, -5))
        du = u.derivative()
        ddu = du.derivative()
        coeff_close(prod, -1, u, 1e-14)
        coeff_close(prod, -2, -du, 1e-14)
        coeff_close(prod, -3, ddu, 1e-14)
        coeff_close(prod, -4, -ddu.derivative(), 1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        floor = -8

        def random_op(top):
            coeff = {}
            for k in range(floor, top + 1):
                amps = rng.uniform(-0.5, 0.5, size=3)
                f = trig_poly(amps[0], [(amps[1], amps[2])])
                coeff[k] = eval_jet(f, X0, 30)
            return PseudoDiffOp(coeff, floor)

        a, b, c = random_op(2), random_op(1), random_op(2)
        left = psdo_mul(psdo_mul(a, b), c)
        right = psdo_mul(a, psdo_mul(b, c))
        # degrees within reach of the floor see truncation, skip them
        for k in range(floor + 4, left.order + 1):
            lc, rc = left.coefficient(k), right.coefficient(k)
            n = min(lc.order, rc.order, 6) + 1
            assert_allclose(lc.c[:n], rc.c[:n], atol=1e-10)

    def test_floor_mismatch_rejected(self):
        a = PseudoDiffOp({1: Jet.const(1.0, 4)}, -2)
        b = PseudoDiffOp({1: Jet.const(1.0, 4)}, -3)
        with pytest.raises(ValueError):
            psdo_mul(a, b)

    def test_shallow_jets_rejected(self):
        u = Jet.const(0.3, 1)
        with pytest.raises(ValueError):
            psdo_root(l_operator([u, Jet.const(0.1, 1)]))


class TestRoot:
    def test_hill_operator_root(self):
        # for D^2 + u the first correction is u/2
        u = sample_u(1, 3)[0]
        root = psdo_root(l_operator([u]))
        coeff_close(root, 1, Jet.const(1.0, 4), 1e-14)
        coeff_close(root, -1, u * 0.5, 1e-12)
        assert abs(root.coefficient(0).value) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_power_recovers_operator(self, d):
        L = l_operator(sample_u(d, 40 + d))
        root = psdo_root(L)
        back = psdo_pow(root, d + 1)
        for k in range(L.floor, d + 2):
            lc = L.coefficient(k)
            bc = back.coefficient(k)
            n = min(lc.order, bc.order, 4) + 1
            assert_allclose(bc.c[:n], lc.c[:n], atol=1e-10)

    def test_depth_consistency(self):
        L = l_operator(sample_u(2, 9))
        shallow = psdo_root(L, depth=4)
        deep = psdo_root(L, depth=9)
        for k in range(-4, 2):
            a, b = shallow.coefficient(k), deep.coefficient(k)
            n = min(a.order, b.order, 5) + 1
            assert_allclose(a.c[:n], b.c[:n], atol=1e-12)


class TestHierarchy:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_q2_closed_form(self, d):
        u_jets = sample_u(d, 60 + d)
        q2 = q_m(l_operator(u_jets), 2)
        coeff_close(q2, 2, Jet.const(1.0, 6), 1e-12)
        assert abs(q2.coefficient(1).value) < 1e-12
        coeff_close(q2, 0, u_jets[d - 1] * (2.0 / (d + 1)), 1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_shallow_root_matches_deep(self, d):
        # q_m builds the root only m - 1 deep; the deep root is the reference
        L = l_operator(sample_u(d, 70 + d))
        deep = psdo_root(L)
        for m in range(1, d + 2):
            got = q_m(L, m)
            ref = psdo_pow(deep, m).differential_part()
            assert set(got.coeff) == set(ref.coeff)
            for k, c in ref.coeff.items():
                assert np.array_equal(got.coeff[k].c, c.c), (m, k)

    def test_q3_builds_few_jets(self, monkeypatch):
        L = l_operator(sample_u(3, 12))
        created = [0]
        init = Jet.__init__

        def counted(jet, *args, **kwargs):
            created[0] += 1
            init(jet, *args, **kwargs)

        monkeypatch.setattr(Jet, "__init__", counted)
        q_m(L, 3)
        assert created[0] < 3000

    def test_q1_is_d(self):
        q1 = q_m(l_operator(sample_u(3, 8)), 1)
        assert abs(q1.coefficient(1).value - 1.0) < 1e-14
        assert abs(q1.coefficient(0).value) < 1e-12

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (3, 3), (3, 4), (4, 2)])
    def test_commutator_is_low_order(self, d, m):
        # kdv_rhs itself raises if anything at degree >= d survives
        w = kdv_rhs(l_operator(sample_u(d, 17 * d + m)), m)
        assert len(w) == d
        assert all(np.isfinite(c.value) for c in w)

    @pytest.mark.parametrize("d", [2, 3])
    def test_top_flow_is_stationary(self, d):
        w = kdv_rhs(l_operator(sample_u(d, 90 + d)), d + 1)
        for c in w:
            assert np.max(np.abs(c.c[:4])) < 1e-11

    def test_zero_potential_flow_vanishes(self):
        u_jets = [Jet.const(0.0, 20) for _ in range(3)]
        w = kdv_rhs(l_operator(u_jets), 2)
        for c in w:
            assert np.max(np.abs(c.c)) < 1e-13

    def test_boussinesq_flow(self):
        """Frozen d=2 second flow: w1 = 2u0' - u1'', w0 = u0'' - (2/3)(u1''' + u1 u1')."""
        u1 = eval_jet(trig_poly(0.3, [(0.4, -0.2), (0.0, 0.1)]), X0, 26)
        u0 = eval_jet(trig_poly(-0.1, [(0.2, 0.5)]), X0, 26)
        w = kdv_rhs(l_operator([u0, u1]), 2)
        u0p = u0.derivative()
        u1p = u1.derivative()
        w1_expect = u0p * 2.0 - u1p.derivative()
        w0_expect = (u0p.derivative()
                     - u1p.derivative().derivative() * (2.0 / 3.0)
                     - u1 * u1p * (2.0 / 3.0))
        coeff_close_pairs = [(w[1], w1_expect), (w[0], w0_expect)]
        for got, expect in coeff_close_pairs:
            n = min(got.order, expect.order, 8) + 1
            assert_allclose(got.c[:n], expect.c[:n], atol=1e-10)


class TestInterface:
    def test_dict_dump(self):
        L = l_operator(sample_u(2, 2))
        d = L.to_dict()
        assert d["floor"] == -5
        assert set(d["coeff"]) == {"0", "1", "3"}
        assert d["coeff"]["3"][0] == 1.0

    def test_repr_mentions_degrees(self):
        L = l_operator(sample_u(2, 2))
        s = repr(L)
        assert "D^3" in s and "floor=-5" in s

    def test_differential_part(self):
        u = sample_u(1, 1)[0]
        root = psdo_root(l_operator([u]))
        plus = root.differential_part()
        assert min(plus.coeff) >= 0
        assert plus.order == 1
