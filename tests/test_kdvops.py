"""Pseudodifferential algebra: composition, roots, and hierarchy flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pentalab import Jet, eval_jet, trig_poly
from pentalab.jets import derivative, mul
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
    """Mildly random trig-poly coefficient jets for a degree-d operator,
    one column per u_i, (order+1, d)."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(d):
        amps = rng.uniform(-0.4, 0.4, size=4)
        f = trig_poly(amps[0], [(amps[1], amps[2]), (0.0, amps[3])])
        cols.append(eval_jet(f, X0, order))
    return np.stack(cols, axis=1)


def operator(rows, floor):
    """PseudoDiffOp with {degree: Taylor coefficients} rows, zero elsewhere."""
    order = len(next(iter(rows.values()))) - 1
    c = np.zeros((max(rows) - floor + 1, order + 1))
    for k, v in rows.items():
        c[k - floor] = v
    return PseudoDiffOp(c, floor, np.full(len(c), order))


def one(order):
    c = np.zeros(order + 1)
    c[0] = 1.0
    return c


def coeff_close(op, k, expected, atol):
    got = op.coefficient(k)
    n = min(len(got), len(expected))
    assert_allclose(got[:n], expected[:n], atol=atol, rtol=0)


class TestComposition:
    def test_d_times_function(self):
        u = eval_jet(trig_poly(0.2, [(0.5, -0.3)]), X0, 12)
        prod = psdo_mul(operator({1: one(12)}, -3), operator({0: u}, -3))
        coeff_close(prod, 1, u, 1e-14)
        coeff_close(prod, 0, derivative(u), 1e-14)

    def test_inverse_d_times_function_tail(self):
        # D^{-1} u = u D^{-1} - u' D^{-2} + u'' D^{-3} - ...
        u = eval_jet(trig_poly(0.0, [(0.7, 0.2)]), X0, 14)
        dinv = operator({-1: one(14)}, -5)
        prod = psdo_mul(dinv, operator({0: u}, -5))
        du = derivative(u)
        ddu = derivative(du)
        coeff_close(prod, -1, u, 1e-14)
        coeff_close(prod, -2, -du, 1e-14)
        coeff_close(prod, -3, ddu, 1e-14)
        coeff_close(prod, -4, -derivative(ddu), 1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        floor = -8

        def random_op(top):
            rows = {}
            for k in range(floor, top + 1):
                amps = rng.uniform(-0.5, 0.5, size=3)
                f = trig_poly(amps[0], [(amps[1], amps[2])])
                rows[k] = eval_jet(f, X0, 30)
            return operator(rows, floor)

        a, b, c = random_op(2), random_op(1), random_op(2)
        left = psdo_mul(psdo_mul(a, b), c)
        right = psdo_mul(a, psdo_mul(b, c))
        # degrees within reach of the floor see truncation, skip them
        for k in range(floor + 4, left.order + 1):
            lc, rc = left.coefficient(k), right.coefficient(k)
            n = min(len(lc), len(rc), 7)
            assert_allclose(lc[:n], rc[:n], atol=1e-10)

    def test_floor_mismatch_rejected(self):
        a = operator({1: one(4)}, -2)
        b = operator({1: one(4)}, -3)
        with pytest.raises(ValueError):
            psdo_mul(a, b)

    def test_shallow_jets_rejected(self):
        with pytest.raises(ValueError):
            psdo_root(l_operator(np.array([[0.3, 0.1], [0.0, 0.0]])))


def _apply(rows, f):
    """sum_k c_k f^(k) from the coefficient jets {k: c_k}, by
    jets.derivative and jets.mul alone, each sum cut to the smaller order."""
    out = None
    for k, ck in rows.items():
        dk = f
        for _ in range(k):
            dk = derivative(dk)
        term = mul(ck, dk)
        out = term if out is None else out[:len(term)] + term[:len(out)]
    return out


_COEFFS = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)


@st.composite
def _differential_op(draw):
    """{degree: coefficient jet} for degrees 0..top, top in 0..3."""
    top = draw(st.integers(0, 3))
    rows = {}
    for k in range(top + 1):
        a0, c1, s1 = draw(_COEFFS)
        rows[k] = eval_jet(trig_poly(a0, [(c1, s1)]), X0, 16)
    return rows


@settings(max_examples=30, deadline=None)
@given(_differential_op(), _differential_op(), _COEFFS)
def test_product_composes_as_operators_do(a_rows, b_rows, amps):
    # the oracle applies A and B to f with jet derivatives and products
    # only, sharing no code with kdvops
    f = eval_jet(trig_poly(amps[0], [(amps[1], 0.3), (0.2, amps[2])]), X0, 16)
    prod = psdo_mul(operator(a_rows, 0), operator(b_rows, 0))
    got = _apply({k: prod.coefficient(k) for k in range(prod.order + 1)}, f)
    want = _apply(a_rows, _apply(b_rows, f))
    n = min(len(got), len(want))
    assert n >= 5
    assert_allclose(got[:n], want[:n], atol=1e-10, rtol=0)


class TestRoot:
    def test_hill_operator_root(self):
        # for D^2 + u the first correction is u/2
        u = sample_u(1, 3)
        root = psdo_root(l_operator(u))
        coeff_close(root, 1, one(4), 1e-14)
        coeff_close(root, -1, u[:, 0] * 0.5, 1e-12)
        assert abs(root.coefficient(0)[0]) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_power_recovers_operator(self, d):
        L = l_operator(sample_u(d, 40 + d))
        root = psdo_root(L)
        back = psdo_pow(root, d + 1)
        for k in range(L.floor, d + 2):
            lc = L.coefficient(k)
            bc = back.coefficient(k)
            n = min(len(lc), len(bc), 5)
            assert_allclose(bc[:n], lc[:n], atol=1e-10)

    def test_depth_consistency(self):
        L = l_operator(sample_u(2, 9))
        shallow = psdo_root(L, depth=4)
        deep = psdo_root(L, depth=9)
        for k in range(-4, 2):
            a, b = shallow.coefficient(k), deep.coefficient(k)
            n = min(len(a), len(b), 6)
            assert_allclose(a[:n], b[:n], atol=1e-12)


def _q2_form(u):
    """(L^{2/(d+1)})_+ = D^2 + (2/(d+1)) u_{d-1}, rows 0..2."""
    d = len(u)
    return [u[d - 1] * (2.0 / (d + 1)), None, one(6)]


def _q3_form_d3(u):
    """(L^{3/4})_+ = D^3 + (3/4) u_2 D + (3/4) u_1 - (3/8) u_2', rows 0..3."""
    du2 = derivative(u[2])
    return [u[1][:len(du2)] * 0.75 - du2 * 0.375, u[2] * 0.75, None, one(6)]


class TestHierarchy:
    @pytest.mark.parametrize(
        "d,m,form",
        [pytest.param(d, 2, _q2_form, id=str(d)) for d in range(1, 6)]
        + [pytest.param(3, 3, _q3_form_d3, id="q3-d3")])
    def test_q2_closed_form(self, d, m, form):
        u = sample_u(d, 60 + d)
        q = q_m(l_operator(u), m)
        assert q.order == m
        want = form([u[:, i] for i in range(d)])
        for k, row in enumerate(want):
            if row is None:  # a vanishing coefficient, checked at its value
                assert abs(q.coefficient(k)[0]) < 1e-12
            else:
                coeff_close(q, k, row, 1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_shallow_root_matches_deep(self, d):
        # q_m builds the root only m - 1 deep; the deep root is the reference
        L = l_operator(sample_u(d, 70 + d))
        deep = psdo_root(L)
        for m in range(1, d + 2):
            got = q_m(L, m)
            ref = psdo_pow(deep, m).differential_part()
            assert (got.floor, got.order) == (ref.floor, ref.order)
            assert np.array_equal(got.valid, ref.valid), m
            for k in range(got.order + 1):
                assert np.array_equal(got.coefficient(k),
                                      ref.coefficient(k)), (m, k)

    def test_q_m_and_kdv_rhs_create_no_jet(self, monkeypatch):
        L = l_operator(sample_u(3, 12))
        created = [0]
        init = Jet.__init__

        def counted(jet, *args, **kwargs):
            created[0] += 1
            init(jet, *args, **kwargs)

        monkeypatch.setattr(Jet, "__init__", counted)
        q_m(L, 3)
        kdv_rhs(L, 2)
        assert created[0] == 0

    def test_q1_is_d(self):
        q1 = q_m(l_operator(sample_u(3, 8)), 1)
        assert abs(q1.coefficient(1)[0] - 1.0) < 1e-14
        assert abs(q1.coefficient(0)[0]) < 1e-12

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (3, 3), (3, 4), (4, 2)])
    def test_commutator_is_low_order(self, d, m):
        # kdv_rhs itself raises if anything at degree >= d survives
        w = kdv_rhs(l_operator(sample_u(d, 17 * d + m)), m)
        assert (w.floor, w.order) == (0, d - 1)
        assert np.all(np.isfinite(w.c[:, 0]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_top_flow_is_stationary(self, d):
        w = kdv_rhs(l_operator(sample_u(d, 90 + d)), d + 1)
        for k in range(d):
            assert np.max(np.abs(w.coefficient(k)[:4])) < 1e-11

    def test_zero_potential_flow_vanishes(self):
        w = kdv_rhs(l_operator(np.zeros((21, 3))), 2)
        for k in range(3):
            assert np.max(np.abs(w.coefficient(k))) < 1e-13

    def test_boussinesq_flow(self):
        """Frozen d=2 second flow: w1 = 2u0' - u1'', w0 = u0'' - (2/3)(u1''' + u1 u1')."""
        u1 = eval_jet(trig_poly(0.3, [(0.4, -0.2), (0.0, 0.1)]), X0, 26)
        u0 = eval_jet(trig_poly(-0.1, [(0.2, 0.5)]), X0, 26)
        w = kdv_rhs(l_operator(np.stack([u0, u1], axis=1)), 2)
        u0p = derivative(u0)
        u1p = derivative(u1)
        # every term has order >= 23; the first 9 coefficients are compared
        w1_expect = u0p[:9] * 2.0 - derivative(u1p)[:9]
        w0_expect = (derivative(u0p)[:9]
                     - derivative(derivative(u1p))[:9] * (2.0 / 3.0)
                     - mul(u1, u1p)[:9] * (2.0 / 3.0))
        for k, expect in ((1, w1_expect), (0, w0_expect)):
            got = w.coefficient(k)
            n = min(len(got), len(expect), 9)
            assert_allclose(got[:n], expect[:n], atol=1e-10)


class TestInterface:
    def test_differential_part(self):
        root = psdo_root(l_operator(sample_u(1, 1)))
        plus = root.differential_part()
        assert plus.floor == 0
        assert plus.order == 1
        assert np.array_equal(plus.c, root.c[-root.floor:])
