import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab.configs import (
    ChiConfig,
    SymTable,
    assemble_M0_c0,
    dual_dented_chi,
    dual_dented_shift,
    elementary_symmetric,
    evenly_spaced_chi,
    short_diagonal_chi,
    solve_alpha_diag,
)

from oracles import alpha11_evenly_spaced, alpha_dd_hyperplane


# -- constructor validation ----------------------------------------------------


def test_groups_are_sorted_and_normalized():
    chi = ChiConfig(2, [[1.5, -0.5], [3.0, 2.0]])
    assert chi.groups == ((-0.5, 1.5), (2.0, 3.0))


def test_rejects_singleton_group():
    with pytest.raises(ValueError):
        ChiConfig(2, [[0.0], [1.0, 2.0], [3.0, 4.0]])


def test_rejects_repeated_node():
    with pytest.raises(ValueError):
        ChiConfig(2, [[0.0, 0.0], [1.0, 2.0]])


def test_rejects_wrong_codimension_sum():
    # two hyperplane groups in d=3 only cut down two dimensions
    with pytest.raises(ValueError):
        ChiConfig(3, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


def test_codimension_arithmetic_d2():
    chi = short_diagonal_chi(2)
    assert sum(chi.d - chi.q(i) for i in range(chi.r)) == chi.d


def test_json_round_trip(tmp_path):
    chi = dual_dented_chi(3, 1, variant="reduced")
    assert ChiConfig.from_dict(chi.to_dict()) == chi
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(chi.to_dict()))
    assert ChiConfig.load(path) == chi


# -- named families ------------------------------------------------------------


def test_short_diagonal_d2():
    assert short_diagonal_chi(2).groups == ((-1.5, 0.5), (-0.5, 1.5))


def test_short_diagonal_d3():
    assert short_diagonal_chi(3).groups == (
        (-3.0, -1.0, 1.0), (-2.0, 0.0, 2.0), (-1.0, 1.0, 3.0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_short_diagonal_shape(d):
    chi = short_diagonal_chi(d)
    assert chi.r == d
    assert chi.is_hyperplane()
    # every-other-node spacing within each group
    for g in chi.groups:
        assert_allclose(np.diff(g), 2.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_short_diagonal_symmetric_under_negation(d):
    # group i maps onto group d-1-i; this is what makes the even-order
    # terms of the map survive a sign flip of the step parameter
    chi = short_diagonal_chi(d)
    for i, g in enumerate(chi.groups):
        mirrored = tuple(sorted(-p for p in g))
        assert mirrored == chi.groups[chi.r - 1 - i]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_short_diagonal_is_evenly_spaced_with_unit_step(d):
    chi = short_diagonal_chi(d)
    assert evenly_spaced_chi(chi.groups[0], 1.0, d) == chi


def test_evenly_spaced_d2_example():
    assert evenly_spaced_chi([0.0, 1.0], 1.0, 2).groups == ((0.0, 1.0), (1.0, 2.0))


def test_evenly_spaced_rejects_zero_step():
    with pytest.raises(ValueError):
        evenly_spaced_chi([0.0, 1.0, 2.0], 0.0, 3)


def test_evenly_spaced_rejects_wrong_arity():
    with pytest.raises(ValueError):
        evenly_spaced_chi([0.0, 1.0], 1.0, 3)


def test_dual_dented_full_d3_s1():
    assert dual_dented_chi(3, 1).groups == (
        (0.0, 1.0, 2.0), (1.0, 2.0, 3.0), (3.0, 4.0, 5.0))


def test_dual_dented_reduced_d3_s1():
    chi = dual_dented_chi(3, 1, variant="reduced")
    assert chi.groups == ((1.0, 2.0), (3.0, 4.0, 5.0))
    assert not chi.is_hyperplane()
    assert (chi.q(0), chi.q(1)) == (1, 2)


def test_dual_dented_full_d3_s2():
    assert dual_dented_chi(3, 2).groups == (
        (0.0, 1.0, 2.0), (2.0, 3.0, 4.0), (3.0, 4.0, 5.0))


def test_dual_dented_reduced_d3_s2():
    assert dual_dented_chi(3, 2, variant="reduced").groups == (
        (0.0, 1.0, 2.0), (3.0, 4.0))


def test_dual_dented_rejects_bad_s():
    with pytest.raises(ValueError):
        dual_dented_chi(3, 3)
    with pytest.raises(ValueError):
        dual_dented_chi(3, 0)


def test_dual_dented_rejects_bad_variant():
    with pytest.raises(ValueError):
        dual_dented_chi(3, 1, variant="short")


@pytest.mark.parametrize("d, s, expected", [
    (3, 1, -7.0 / 3.0),
    (3, 2, -8.0 / 3.0),
    (2, 1, -1.5),
])
def test_dual_dented_shift_values(d, s, expected):
    assert dual_dented_shift(d, s) == pytest.approx(expected, abs=1e-15)


# -- the shift action ----------------------------------------------------------


def test_shift_zero_is_identity():
    chi = short_diagonal_chi(3)
    assert chi.shift(0.0) == chi


def test_shift_composes_exactly():
    # dyadic offsets so float addition itself is exact
    chi = short_diagonal_chi(3)
    assert chi.shift(0.5).shift(-2.25) == chi.shift(-1.75)


def test_shifted_dual_dented_groups():
    chi = dual_dented_chi(3, 1).shift(dual_dented_shift(3, 1))
    expected = [
        [-7 / 3, -4 / 3, -1 / 3],
        [-4 / 3, -1 / 3, 2 / 3],
        [2 / 3, 5 / 3, 8 / 3],
    ]
    for g, e in zip(chi.groups, expected):
        assert_allclose(g, e, atol=1e-14)


# -- symmetric polynomial tables -------------------------------------------------


def test_two_node_sigma():
    table = SymTable(short_diagonal_chi(2))
    assert table.get(0, 0) == 1.0
    assert table.get(0, 1) == pytest.approx(-1.0)
    assert table.get(0, 2) == pytest.approx(-0.75)
    assert table.get(1, 1) == pytest.approx(1.0)
    assert table.get(1, 2) == pytest.approx(-0.75)


@pytest.mark.parametrize("r", [1.7, -0.3, 12.0])
def test_constrained_product_group(r):
    # {1, -r, 6/r} always multiplies out to -6, whatever r is
    e = elementary_symmetric([1.0, -r, 6.0 / r])
    assert e[3] == pytest.approx(-6.0, rel=1e-12)


def test_newton_identities(rng):
    nodes = rng.uniform(-2.0, 2.0, size=5)
    e = elementary_symmetric(nodes)
    power = [np.sum(nodes ** k) for k in range(6)]
    for k in range(1, 6):
        acc = (-1) ** (k - 1) * k * e[k]
        for j in range(1, k):
            acc += (-1) ** (j - 1) * e[j] * power[k - j]
        assert acc == pytest.approx(power[k], abs=1e-10)


def test_sym_table_top():
    assert_allclose(SymTable(short_diagonal_chi(3)).top(), [3.0, 0.0, -3.0])


# -- closed-form centralization data ---------------------------------------------


def test_M0_c0_d2_short_diagonal():
    m0, c0 = assemble_M0_c0(short_diagonal_chi(2))
    assert_allclose(m0, [[-1.0, -2.0], [1.0, -2.0]], atol=1e-14)
    assert_allclose(c0, [-0.75, -0.75], atol=1e-15)


def test_alpha_diag_d2_short_diagonal():
    assert_allclose(solve_alpha_diag(short_diagonal_chi(2)), [0.0, 0.375],
                    atol=1e-14)


def test_M0_c0_d3_short_diagonal():
    m0, c0 = assemble_M0_c0(short_diagonal_chi(3))
    assert_allclose(m0, [[-1.0, 6.0, 6.0], [-4.0, 0.0, 6.0], [-1.0, -6.0, 6.0]],
                    atol=1e-13)
    assert_allclose(c0, [3.0, 0.0, -3.0], atol=1e-13)


def test_alpha_diag_d3_short_diagonal():
    # first-order term drops out but the second does not: the map moves at
    # order eps^2 with constant 1/2 in front of the degree-2 operator
    assert_allclose(solve_alpha_diag(short_diagonal_chi(3)), [0.0, 0.5, 0.0],
                    atol=1e-13)


def test_M0_rejects_non_hyperplane():
    with pytest.raises(ValueError):
        assemble_M0_c0(dual_dented_chi(3, 1, variant="reduced"))


@pytest.mark.parametrize("p, r_step, d, expected", [
    ((-3.0, -1.0, 1.0), 1.0, 3, 0.0),
    ((0.0, 1.0), 1.0, 2, 1.0),
    ((-1.0, 1.0, 0.0), 0.0, 3, 0.0),
])
def test_alpha11_evenly_spaced_values(p, r_step, d, expected):
    assert alpha11_evenly_spaced(p, r_step, d) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_alpha11_formula_matches_linear_system(rng, d):
    for _ in range(6):
        p = np.sort(rng.uniform(-2.0, 2.0, size=d))
        if np.min(np.diff(p)) < 0.2:
            continue
        r_step = rng.uniform(0.5, 1.5)
        chi = evenly_spaced_chi(p, r_step, d)
        assert solve_alpha_diag(chi)[0] == pytest.approx(
            alpha11_evenly_spaced(p, r_step, d), abs=1e-12)


# -- hyperplane centralization criterion ------------------------------------------


def test_criterion_true_for_product_conditioned_groups():
    chi = ChiConfig(3, [
        [-1.0, 1.5, 4.0],
        [1.2, 10.0, -0.5],
        [1.0, -2.0, 6.0 / 2.0],
    ])
    table = SymTable(chi)
    alpha_diag = solve_alpha_diag(chi)
    assert table.tops_agree()
    assert_allclose(table.top(), -6.0, atol=1e-12)
    assert alpha_dd_hyperplane(table.top()[0], 3) == pytest.approx(
        -1.0, abs=1e-12)
    assert_allclose(alpha_diag[:2], 0.0, atol=1e-12)
    assert alpha_diag[2] == pytest.approx(-1.0, abs=1e-12)


def test_criterion_true_d2_short_diagonal():
    table = SymTable(short_diagonal_chi(2))
    assert table.tops_agree()
    assert alpha_dd_hyperplane(table.top()[0], 2) == pytest.approx(
        0.375, abs=1e-14)


def test_criterion_false_d3_short_diagonal():
    # top polynomials are (3, 0, -3): the first-order coefficient still
    # vanishes by symmetry, but order two survives, so the all-orders
    # criterion must come back negative
    chi = short_diagonal_chi(3)
    assert not SymTable(chi).tops_agree()
    assert solve_alpha_diag(chi)[1] == pytest.approx(0.5, abs=1e-12)


def test_criterion_false_after_perturbation():
    groups = [list(g) for g in short_diagonal_chi(2).groups]
    groups[0][0] += 0.1
    assert not SymTable(ChiConfig(2, groups)).tops_agree()


def test_criterion_matches_system_both_ways(rng):
    d = 3
    hits = 0
    for _ in range(8):
        raw = [np.sort(rng.uniform(0.3, 2.5, size=d)) for _ in range(d)]
        # condition half the draws so every group multiplies to the same value
        condition = hits % 2 == 0
        groups = []
        for g in raw:
            if condition:
                g = g * np.cbrt(2.0 / np.prod(g))
            groups.append(list(g))
        try:
            chi = ChiConfig(d, groups)
        except ValueError:
            continue
        small = np.max(np.abs(solve_alpha_diag(chi)[: d - 1])) <= 1e-10
        assert SymTable(chi).tops_agree() == small
        hits += 1
    assert hits >= 6
