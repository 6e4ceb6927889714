"""Whole-system verification gate.

Twelve checks, one per guarantee the package makes.  Each test prints a
single PASS/FAIL line with the measured numbers, so a plain ``pytest -v``
run of this file doubles as a checklist.  The unit suites pin sharper
values where the implementation allows it; the tolerances here are the
contract.
"""

import numpy as np
import pytest

from pentalab import (
    ChiConfig,
    check_34,
    chi_map_point,
    dof_lower_bound,
    dual_dented_chi,
    dual_dented_shift,
    eval_jet,
    evenly_spaced_chi,
    extract_alphas,
    kdv_rhs_check,
    l_operator,
    lax_limit_diagnostics,
    limit_diagnostics,
    mari_beffa_family,
    psdo_mul,
    psdo_pow,
    psdo_root,
    q_m,
    r_poly_roots,
    random_curve_spec,
    short_diagonal_chi,
    solve_alpha_diag,
    trig_poly,
    wronskian,
)
from pentalab.curves import _SHIFT_ORDER, _lift_coeffs

from oracles import alpha11_evenly_spaced, evaluate, verify_G2_structure

X0 = 0.3


def _verdict(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _trig_jets(d, seed, order=28):
    rng = np.random.default_rng(seed)
    jets = []
    for _ in range(d):
        amps = rng.uniform(-0.4, 0.4, size=4)
        f = trig_poly(amps[0], [(amps[1], amps[2]), (0.0, amps[3])])
        jets.append(eval_jet(f, 0.41, order))
    return jets


@pytest.fixture(scope="module")
def curve2():
    return random_curve_spec(2, seed=11)


@pytest.fixture(scope="module")
def curve3():
    return random_curve_spec(3, seed=23)


@pytest.fixture(scope="module")
def sd_report2(curve2):
    return extract_alphas(curve2, short_diagonal_chi(2), X0, kmax=4)


@pytest.fixture(scope="module")
def sd_report3(curve3):
    return extract_alphas(curve3, short_diagonal_chi(3), X0, kmax=4)


@pytest.fixture(scope="module")
def lax2(curve2):
    return lax_limit_diagnostics(curve2, short_diagonal_chi(2), X0)


@pytest.fixture(scope="module")
def lax3(curve3):
    return lax_limit_diagnostics(curve3, short_diagonal_chi(3), X0)


@pytest.fixture(scope="module")
def probes3():
    return tuple(random_curve_spec(3, seed=s) for s in (23, 41, 57))


def test_01_normalized_lift_wronskian():
    specs = [random_curve_spec(2, seed=s) for s in range(5)]
    specs += [random_curve_spec(3, seed=s) for s in range(5, 10)]
    xs = np.linspace(-1.0, 1.4, 10)
    dev = max(abs(wronskian(spec, x) - 1.0) for spec in specs for x in xs)
    _verdict(1, "normalized lift wronskian", dev <= 1e-9,
             f"max |W-1| = {dev:.2e} over 10 curves x 10 points")


def test_02_invariant_drift_orders(curve2, curve3):
    worst_order = 0
    worst_limit = 0.0
    min_tail = np.inf
    for spec, x in ((curve2, 0.3), (curve3, 0.1)):
        d = spec.d
        table = limit_diagnostics(spec, x)
        targets = [d + 1 - i for i in range(d)] + [2]
        u_vals = [float(evaluate(spec.u[i], x)) for i in range(d)]
        u_vals.append(u_vals[d - 1])
        worst_order = max(worst_order,
                          int(np.max(np.abs(table.orders - targets))))
        worst_limit = max(worst_limit,
                          np.max(np.abs(np.asarray(table.limits) - u_vals)))
        min_tail = min(min_tail, table.a0_order)
    ok = worst_order <= 0.2 and worst_limit <= 1e-3 and min_tail >= 2.8
    _verdict(2, "invariant drift orders", ok,
             f"order gap {worst_order}, limit dev {worst_limit:.2e}, "
             f"tail order {min_tail}")


def test_03_short_diagonal_second_order(sd_report2, sd_report3, curve2,
                                        curve3):
    a11_2 = abs(sd_report2.alpha[1, 1])
    a22_dev = abs(sd_report2.alpha[2, 2] - 0.375)
    g2_2 = verify_G2_structure(sd_report2, curve2, X0)
    a11_3 = abs(sd_report3.alpha[1, 1])
    g2_3 = verify_G2_structure(sd_report3, curve3, X0)
    ok = (a11_2 <= 1e-6 and a22_dev <= 2e-3 and g2_2 <= 1e-3
          and a11_3 <= 1e-5 and g2_3 <= 1e-3)
    _verdict(3, "short-diagonal second order", ok,
             f"d=2: a11 {a11_2:.1e}, a22-3/8 {a22_dev:.1e}, G2 {g2_2:.1e}; "
             f"d=3: a11 {a11_3:.1e}, G2 {g2_3:.1e}")


def _evenly_spaced_sample(rng, d):
    while True:
        p = np.sort(rng.uniform(-1.1, 1.1, size=d))
        if np.min(np.diff(p)) < 0.3:
            continue
        r = float(rng.uniform(0.5, 1.0))
        predicted = alpha11_evenly_spaced(tuple(p), r, d)
        if abs(predicted) < 0.05:
            continue
        try:
            return evenly_spaced_chi(tuple(p), r, d), predicted
        except ValueError:
            continue


def test_04_evenly_spaced_first_order(curve2, curve3):
    rng = np.random.default_rng(2026)
    worst_a11 = 0.0
    worst_g2 = 0.0
    for spec in (curve2, curve3):
        for _ in range(5):
            chi, predicted = _evenly_spaced_sample(rng, spec.d)
            rep = extract_alphas(spec, chi, X0, kmax=3)
            worst_a11 = max(worst_a11, abs(rep.alpha[1, 1] - predicted))
            worst_g2 = max(worst_g2, verify_G2_structure(rep, spec, X0))
    ok = worst_a11 <= 1e-3 and worst_g2 <= 1e-3
    _verdict(4, "evenly-spaced first order", ok,
             f"a11 dev {worst_a11:.2e}, G2 residual {worst_g2:.2e} "
             f"over 10 configs")


def test_05_dual_dented_centralization(curve3):
    worst_shifted = 0.0
    least_unshifted = np.inf
    worst_pt = 0.0
    lifts = _lift_coeffs(curve3, np.array([X0]), _SHIFT_ORDER)[0][..., 0]
    for s in (1, 2):
        delta = dual_dented_shift(3, s)
        full = dual_dented_chi(3, s, variant="full")
        shifted = full.shift(delta)
        rep = extract_alphas(curve3, shifted, X0, kmax=3)
        worst_shifted = max(worst_shifted, abs(rep.alpha[1, 1]))
        rep0 = extract_alphas(curve3, full, X0, kmax=2)
        least_unshifted = min(least_unshifted, abs(rep0.alpha[1, 1]))
        reduced = dual_dented_chi(3, s, variant="reduced").shift(delta)
        for eps in (0.1, 0.05):
            a, _ = chi_map_point(shifted, lifts, eps, 10)
            b, _ = chi_map_point(reduced, lifts, eps, 10)
            worst_pt = max(worst_pt, float(np.max(np.abs(a - b))))
    ok = worst_shifted <= 1e-5 and least_unshifted >= 1e-2 and worst_pt <= 1e-10
    _verdict(5, "dual-dented centralization", ok,
             f"shifted a11 {worst_shifted:.1e}, unshifted a11 "
             f"{least_unshifted:.1e}, reduced-vs-full {worst_pt:.1e}")


def _hyperplane_nodes(rng):
    while True:
        nodes = (rng.uniform(0.35, 1.9, size=(3, 3))
                 * rng.choice([-1.0, 1.0], size=(3, 3)))
        if all(np.min(np.diff(np.sort(row))) >= 0.2 for row in nodes):
            return nodes


def _equalize_products(nodes):
    prods = nodes.prod(axis=1)
    return nodes * np.cbrt(prods[0] / prods)[:, None]


def test_06_hyperplane_diagonal_coefficients(curve3):
    rng = np.random.default_rng(61)
    worst_low = 0.0
    worst_top = 0.0
    done = 0
    while done < 20:
        nodes = _equalize_products(_hyperplane_nodes(rng))
        if any(np.min(np.diff(np.sort(row))) < 0.15 for row in nodes):
            continue
        chi = ChiConfig(3, nodes)
        rep = extract_alphas(curve3, chi, X0, kmax=3)
        worst_low = max(worst_low, abs(rep.alpha[1, 1]), abs(rep.alpha[2, 2]))
        sigma3 = float(nodes.prod(axis=1)[0])
        worst_top = max(worst_top, abs(rep.alpha[3, 3] - sigma3 / 6.0))
        done += 1
    worst_free = 0.0
    for _ in range(5):
        nodes = _hyperplane_nodes(rng)
        chi = ChiConfig(3, nodes)
        predicted = solve_alpha_diag(chi)
        rep = extract_alphas(curve3, chi, X0, kmax=4)
        extracted = np.array([rep.alpha[j, j] for j in (1, 2, 3)])
        worst_free = max(worst_free, float(np.max(np.abs(extracted - predicted))))
    ok = worst_low <= 1e-4 and worst_top <= 1e-3 and worst_free <= 2e-3
    _verdict(6, "hyperplane diagonal coefficients", ok,
             f"conditioned: a11/a22 {worst_low:.1e}, a33 dev {worst_top:.1e} "
             f"over 20; free: diag dev {worst_free:.1e} over 5")


def test_07_second_order_flow_match(curve2, curve3):
    worst = 0.0
    for spec in (curve2, curve3):
        chi = short_diagonal_chi(spec.d)
        for x in (-0.2, 0.3, 0.7):
            worst = max(worst, kdv_rhs_check(spec, chi, x))
    _verdict(7, "second-order flow match", worst <= 1e-3,
             f"max |w - a22*[Q2,L]| = {worst:.2e} at 3 points, d = 2 and 3")


def test_08_fractional_power_algebra():
    worst_back = 0.0
    worst_comm = 0.0
    worst_q2 = 0.0
    for d in (1, 2, 3, 4):
        u_jets = _trig_jets(d, 100 + d)
        L = l_operator(np.stack(u_jets, axis=1))
        root = psdo_root(L)
        back = psdo_pow(root, d + 1)
        for k in range(L.floor, d + 2):
            lc, bc = L.coefficient(k), back.coefficient(k)
            n = min(len(lc), len(bc), 5)
            worst_back = max(worst_back,
                             float(np.max(np.abs(bc[:n] - lc[:n]))))
        for m in range(1, d + 2):
            q = q_m(L, m).with_floor(L.floor)
            comm = psdo_mul(q, L) - psdo_mul(L, q)
            for k in range(d, comm.order + 1):
                worst_comm = max(worst_comm,
                                 float(np.max(np.abs(comm.coefficient(k)))))
        q2 = q_m(L, 2)
        ones = np.zeros(7)
        ones[0] = 1.0
        worst_q2 = max(worst_q2,
                       float(np.max(np.abs(q2.coefficient(2)[:7] - ones))),
                       float(np.max(np.abs(q2.coefficient(1)[:7]))))
        want0 = u_jets[d - 1] * (2.0 / (d + 1))
        got0 = q2.coefficient(0)
        n = min(len(got0), len(want0))
        worst_q2 = max(worst_q2,
                       float(np.max(np.abs(got0[:n] - want0[:n]))))
    ok = worst_back <= 1e-10 and worst_comm <= 1e-11 and worst_q2 <= 1e-12
    _verdict(8, "fractional power algebra", ok,
             f"root^(d+1) dev {worst_back:.1e}, commutator residue "
             f"{worst_comm:.1e}, Q2 closed form {worst_q2:.1e}, d = 1..4")


def test_09_transfer_kinematics(lax2, lax3):
    worst_order = max(abs(lax2.conj_slope - 1), abs(lax3.conj_slope - 1))
    worst_limit = max(lax2.conj_limit_dev, lax3.conj_limit_dev)
    ok = worst_order <= 0.2 and worst_limit <= 1e-3
    _verdict(9, "transfer kinematics", ok,
             f"order gap {worst_order}, conjugated limit dev "
             f"{worst_limit:.2e}, d = 2 and 3")


def test_10_transfer_expansion(lax2, lax3):
    both = (lax2, lax3)
    ident = max(r.identity_max for r in both)
    quot = max(max(r.quot_lhs_dev, r.quot_rhs_dev) for r in both)
    first = max(r.p0_eps1 for r in both)
    second = max(r.p0_v_dev for r in both)
    ok = ident <= 1e-9 and quot <= 2e-2 and first <= 1e-4 and second <= 1e-3
    _verdict(10, "transfer expansion", ok,
             f"identity {ident:.1e}; d=2,3 quotients {quot:.1e}, first order "
             f"{first:.1e}, second order {second:.1e}")


def test_11_third_order_realization(probes3):
    chi_int, resid = mari_beffa_family(-2, 3, -5)
    assert resid == 0.0
    rep_int = check_34(chi_int, probes3, X0)
    r = r_poly_roots()[0]
    chi_r = ChiConfig(3, [[-1.0, 1.5, 4.0], [1.2, 10.0, -0.5],
                          [1.0, -r, 6.0 / r]])
    rep_r = check_34(chi_r, probes3, X0)
    chi_bad = ChiConfig(3, [[5.05, -2.0, 3.0], [-5.0, 2.0, 3.0],
                            [-5.0, -1.0, -6.0]])
    rep_bad = check_34(chi_bad, probes3, X0)
    ok = rep_int.passes() and rep_r.passes() and not rep_bad.passes()
    _verdict(11, "third-order realization", ok,
             f"integer instance c = {rep_int.c_fit:.4f} "
             f"(g3 {rep_int.g3_match:.1e}), root instance c = "
             f"{rep_r.c_fit:.4f}, perturbed instance rejected: "
             f"{not rep_bad.passes()}")


def test_12_dof_lower_bound():
    expected = (1, 2, 4, 8, 15, 26, 42, 64, 93, 130, 176)
    got = tuple(dof_lower_bound(m) for m in range(2, 13))
    ok = got == expected
    _verdict(12, "degrees-of-freedom bound", ok,
             f"m = 2..12 -> {got[:3]}... exact match: {ok}")
