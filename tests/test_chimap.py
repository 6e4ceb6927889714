import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab import linalg
from pentalab.chimap import (
    DegenerateIntersection,
    _span_normals,
    _spans,
    _stacked_normals,
    chi_map_point,
    intersect_spans,
)
from pentalab.configs import (ChiConfig, dual_dented_chi, dual_dented_shift,
                              evenly_spaced_chi, short_diagonal_chi)
from pentalab.curves import (_SHIFT_ORDER, CurveSpec, IntegrationFailure,
                             _frame_from_coeffs, _lift_coeffs, gamma_jet,
                             normalized_lift, random_curve_spec)
from pentalab.jets import _falling

from oracles import cofactor_det, zero_curve_spec


def lifted(spec, x):
    """The order-40 lift coefficients at x, (41, d+1, *x.shape), each from
    the identity frame there, as the pipeline hands them to the map."""
    x = np.asarray(x)
    g = _lift_coeffs(spec, x.ravel(), _SHIFT_ORDER)[0]
    return g.reshape(g.shape[:2] + x.shape)


def const_span(rows):
    return np.asarray(rows, dtype=float)[None]


def coplanarity_residual(point, spans):
    """Largest wedge coefficient of the point against every span.

    For each span the point must be a combination of the spanning vectors,
    so every maximal minor of the stacked matrix vanishes; the worst jet
    coefficient over all minors measures how far the point is from that.
    Shares no code with intersect_spans, which solves for the point.
    """
    worst = 0.0
    for s in spans:
        k = min(len(point), len(s))
        rows = np.concatenate([point[:k, None], s[:k]], axis=1)
        for cols in combinations(range(rows.shape[2]), rows.shape[1]):
            minor = cofactor_det(rows[:, :, cols])
            worst = max(worst, float(np.max(np.abs(minor))))
    return worst


def direction(vec):
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    return v * np.sign(v[np.argmax(np.abs(v))])


# -- intersect_spans against elementary oracles ---------------------------------


def test_shared_basis_vector():
    point = intersect_spans([
        const_span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        const_span([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    assert_allclose(point[0], [0.0, 1.0, 0.0], atol=1e-14)


def test_generic_lines_match_cross_product(rng):
    for _ in range(5):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        point = intersect_spans([const_span(a), const_span(b)])
        oracle = np.cross(np.cross(a[0], a[1]), np.cross(b[0], b[1]))
        assert_allclose(direction(point[0]), direction(oracle),
                        atol=1e-12)


def test_rejects_wrong_codimension():
    with pytest.raises(ValueError):
        intersect_spans([const_span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])])


def test_degenerate_span_vectors():
    with pytest.raises(DegenerateIntersection):
        intersect_spans([
            const_span([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
            const_span([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ])


def test_degenerate_repeated_span():
    span = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(DegenerateIntersection):
        intersect_spans([const_span(span), const_span(span)])


# -- span kinematics ------------------------------------------------------


def test_span_shapes(curve_d2):
    spans = _spans(short_diagonal_chi(2), lifted(curve_d2, 0.3), 0.1, 8)
    assert len(spans) == 2
    for s in spans:
        assert s.shape == (9, 2, 3)  # order 8, q + 1 = 2 points, d + 1 = 3


def test_span_vectors_collapse_toward_curve_point(curve_d2):
    # the spans live in the lift based at x with the identity frame
    gamma = CurveSpec(2, curve_d2.u, 0.3, np.eye(3)).frame_at(0.3)[0]
    gap = []
    for eps in (0.1, 0.05):
        spans = _spans(short_diagonal_chi(2), lifted(curve_d2, 0.3), eps, 4)
        v = spans[0][0, 0]
        gap.append(np.linalg.norm(direction(v) - direction(gamma)))
    assert gap[1] <= 0.6 * gap[0]


def test_build_spans_rejects_zero_eps(curve_d2):
    with pytest.raises(ValueError):
        chi_map_point(short_diagonal_chi(2), lifted(curve_d2, 0.0), 0.0, 6)


def test_build_spans_rejects_dim_mismatch(curve_d2):
    with pytest.raises(ValueError):
        chi_map_point(short_diagonal_chi(3), lifted(curve_d2, 0.0), 0.1, 6)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("chi", [
    short_diagonal_chi(2), short_diagonal_chi(3), short_diagonal_chi(4),
    dual_dented_chi(3, 1),  # groups share nodes 1, 2 and 3
    evenly_spaced_chi([0.0, 1.0], 0.25, 2),
], ids=["sd2", "sd3", "sd4", "dd3", "es2"])
def test_build_spans_equals_the_per_point_lifts(chi, dtype):
    # every node is shifted from one deep jet at x; frame transport to each
    # node of the curve based at x with the identity frame gives the same
    # jets to within 32 ulp of the span's largest coefficient
    spec = random_curve_spec(chi.d, seed=7, dtype=dtype)
    x, eps, k = 0.45, dtype(0.13) / 3, 2 * chi.d + 2
    spans = _spans(chi, lifted(spec, x), eps, k)
    here = CurveSpec(chi.d, spec.u, x, np.eye(chi.d + 1), dtype=dtype)
    for s, g in zip(spans, chi.groups):
        want = np.stack([gamma_jet(here, x + p * eps, k).c for p in g], axis=1)
        assert s.dtype == want.dtype == dtype
        tol = 32 * np.finfo(dtype).eps * np.max(np.abs(want))
        assert np.max(np.abs(s - want)) <= tol


@pytest.mark.parametrize("d", [2, 3, 4])
def test_warm_build_spans_walks_each_u_tree_once(d, monkeypatch):
    import pentalab.curves

    spec = random_curve_spec(d, seed=7)
    chi = short_diagonal_chi(d)
    _spans(chi, lifted(spec, 0.41), 0.1, 2 * d + 2)  # fills the ODE tables
    calls = []
    inner = pentalab.curves.eval_jet

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(pentalab.curves, "eval_jet", counted)
    _spans(chi, lifted(spec, 0.41), 0.0999, 2 * d + 2)
    # one per u-tree lifts x, and every distinct node is a shift of it
    assert len(calls) == d


def test_shift_guards_every_row():
    # at eps = 0.2 the short-diagonal d = 4 nodes reach |h| = 0.9: the value
    # row of the unguarded shift still matches frame transport to each node
    # to 2.2e-16 relative, but row 10 is off by 3.9e-11, which a guard on
    # the value row alone let through
    spec = random_curve_spec(4, seed=7)
    chi = short_diagonal_chi(4)
    with pytest.raises(IntegrationFailure, match="radius of convergence"):
        _spans(chi, lifted(spec, 0.3), 0.2, 10)
    _spans(chi, lifted(spec, 0.3), 0.1, 10)  # |h| <= 0.45 shifts
    g = _lift_coeffs(spec, np.array([0.3]), _SHIFT_ORDER)[0][..., 0]
    here = CurveSpec(4, spec.u, 0.3, np.eye(5))
    rel = []
    for p in sorted({p for group in chi.groups for p in group}):
        unguarded = (_frame_from_coeffs(g, 0.2 * p, 10)
                     / _falling(10, g.dtype).diagonal()[:, None])
        want = gamma_jet(here, 0.3 + 0.2 * p, 10).c
        rel.append(np.max(np.abs(unguarded - want), axis=1)
                   / np.max(np.abs(want), axis=1))
    rel = np.max(rel, axis=0)
    assert rel[0] <= 1e-15
    assert rel[10] >= 1e-11


# -- the full map ---------------------------------------------------------------


def test_output_satisfies_coplanarity(curve_d2):
    chi = short_diagonal_chi(2)
    spans = _spans(chi, lifted(curve_d2, 0.2), 0.1, 8)
    out, _ = chi_map_point(chi, lifted(curve_d2, 0.2), 0.1, 8)
    assert coplanarity_residual(out, spans) <= 1e-9


def test_output_wronskian_is_one(curve_d3):
    out, _ = chi_map_point(short_diagonal_chi(3), lifted(curve_d3, 0.1), 0.08,
                           10)
    rows = [out[k] * math.factorial(k) for k in range(4)]
    assert np.linalg.det(rows) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d, eps", [(2, 0.1), (3, 0.08)])
def test_symmetric_config_even_in_eps(d, eps):
    spec = random_curve_spec(d, seed=5 + d)
    chi = short_diagonal_chi(d)
    kmax = 2 * d + 3
    plus, u_plus = chi_map_point(chi, lifted(spec, 0.4), eps, kmax)
    minus, u_minus = chi_map_point(chi, lifted(spec, 0.4), -eps, kmax)
    assert_allclose(plus, minus, atol=1e-10)
    assert_allclose(u_plus, u_minus, atol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_complex_step_on_the_real_axis_equals_the_real_step(d):
    # both shift every node from one lift jet at x; the complex path takes
    # the principal Wronskian root and turns it by a root of unity
    spec = random_curve_spec(d, seed=30 + d)
    chi = short_diagonal_chi(d)
    real, u_real = chi_map_point(chi, lifted(spec, 0.3), 0.1, 2 * d + 2)
    cplx, u_cplx = chi_map_point(chi, lifted(spec, 0.3), 0.1 + 0j, 2 * d + 2)
    assert np.iscomplexobj(cplx)
    assert_allclose(cplx[0], real[0], rtol=0, atol=1e-12)
    assert_allclose(u_cplx[0], u_real[0], rtol=0, atol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_normal_curve_stays_normal(d):
    # u vanishes identically, so the image must again have zero coefficients
    spec = zero_curve_spec(d)
    _, u_eps = chi_map_point(short_diagonal_chi(d), lifted(spec, 0.3), 0.1,
                             2 * d + 4)
    assert_allclose(u_eps, 0.0, atol=1e-8)


def test_projective_equivariance(curve_d2, rng):
    # spans moved by g in SL(3) meet in the moved point, and the
    # renormalized lift moves with it while its invariants stay
    lo = np.eye(3) + np.tril(rng.uniform(-0.3, 0.3, (3, 3)), -1)
    up = np.eye(3) + np.triu(rng.uniform(-0.3, 0.3, (3, 3)), 1)
    g = lo @ up  # unit determinant by construction
    spans = _spans(short_diagonal_chi(2), lifted(curve_d2, 0.25), 0.1, 8)
    moved = [s @ g.T for s in spans]
    ref = spans[0][0, 0]
    base, u_base = normalized_lift(intersect_spans(spans), ref=ref)
    out, u_out = normalized_lift(intersect_spans(moved), ref=ref @ g.T)
    assert_allclose(out, base @ g.T, atol=1e-9)
    assert_allclose(u_out, u_base, atol=1e-8)


def test_point_invariant_under_span_rescaling(curve_d2, rng):
    spans = _spans(short_diagonal_chi(2), lifted(curve_d2, 0.2), 0.1, 8)
    scaled = [s * rng.uniform(0.5, 2.0, size=s.shape[1])[:, None]
              for s in spans]
    base = intersect_spans(spans)
    alt = intersect_spans(scaled)
    assert_allclose(base, alt, atol=1e-10)


def test_reduced_dual_dented_equals_full(curve_d3):
    delta = dual_dented_shift(3, 1)
    full = dual_dented_chi(3, 1, variant="full").shift(delta)
    red = dual_dented_chi(3, 1, variant="reduced").shift(delta)
    a, ua = chi_map_point(full, lifted(curve_d3, 0.3), 0.07, 10)
    b, ub = chi_map_point(red, lifted(curve_d3, 0.3), 0.07, 10)
    assert_allclose(a, b, atol=1e-10)
    assert_allclose(ua, ub, atol=1e-9)


def test_kmax_floor(curve_d2):
    # order 2d + 1 leaves normalized_lift its d + 2 frame rows
    with pytest.raises(ValueError, match="need jet order >= 5"):
        chi_map_point(short_diagonal_chi(2), lifted(curve_d2, 0.0), 0.1, 4)
    lift, u = chi_map_point(short_diagonal_chi(2), lifted(curve_d2, 0.0), 0.1, 5)
    assert lift.shape == (4, 3) and u.shape == (1, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_extended_normals_annihilate_their_span(d):
    # the complement is a float64 gauge; the normals built on it must still
    # vanish on the span to longdouble roundoff at every order
    spec = random_curve_spec(d, seed=d, dtype=np.longdouble)
    spans = _spans(short_diagonal_chi(d), lifted(spec, 0.3), 0.1, 2 * d + 2)
    for span in spans:
        normals = _span_normals(span)
        assert normals.dtype == np.longdouble
        scale = np.max(np.abs(span)) * np.max(np.abs(normals))
        for m in range(len(span)):
            prod = sum(span[j] @ normals[m - j].T for j in range(m + 1))
            assert np.max(np.abs(prod)) <= 1e-18 * scale


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("eps", [0.1, 0.1 * np.exp(0.7j)],
                         ids=["real", "complex"])
def test_double_normals_annihilate_their_span(d, eps):
    # in float64 and complex128 the normals come from the span's own SVD:
    # they vanish on the span to n eps scale at every order, and the gauge
    # rows Vᴴ[m:] take their constant term to the identity
    spec = random_curve_spec(d, seed=d)
    spans = _spans(short_diagonal_chi(d), lifted(spec, 0.3), eps, 2 * d + 2)
    for span in spans:
        normals = _span_normals(span)
        assert normals.dtype == span.dtype
        n = span.shape[-1]
        scale = np.max(np.abs(span)) * np.max(np.abs(normals))
        for m in range(len(span)):
            prod = sum(span[j] @ normals[m - j].T for j in range(m + 1))
            assert np.max(np.abs(prod)) <= n * np.finfo(float).eps * scale
        vh = np.linalg.svd(span[0])[2]
        gauge = vh[span.shape[-2]:] @ normals[0].T
        assert_allclose(gauge, np.eye(len(gauge)), rtol=0,
                        atol=n * np.finfo(float).eps)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("eps", [0.04, 0.04 * np.exp(0.7j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("chi", [
    short_diagonal_chi(3),
    # two groups of 2 and 4 points
    dual_dented_chi(4, 1, "reduced").shift(dual_dented_shift(4, 1)),
    # sizes 4, 3, 4: the middle group's normals sit between the others'
    ChiConfig(4, [[-1.5, -0.5, 0.5, 1.5], [-1.0, 0.25, 1.25],
                  [-1.25, -0.25, 0.75, 2.0]]),
], ids=["sd3", "dd4-reduced", "interleaved"])
def test_stacked_normals_equal_one_call_per_group(chi, eps, dtype):
    spec = random_curve_spec(chi.d, seed=3, dtype=dtype)
    spans = _spans(chi, lifted(spec, np.array([0.3, -0.2])), eps,
                   2 * chi.d + 2)
    want = np.concatenate([_span_normals(s) for s in spans], axis=-2)
    got = _stacked_normals(spans)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_one_application_solves_each_group_size_once(monkeypatch):
    # short-diagonal d = 4 has four groups of one size: in double one
    # checked SVD solves all their normals, the intersection takes one
    # more for its nullspace and one factorization, and the
    # renormalization two factorizations; one call per group made 5
    # nullspaces and 7 factorizations, and a jet solve of the stacked
    # normals 2 and 4
    spec = random_curve_spec(4, seed=7)
    calls = []
    for name in ("checked_svd", "stack_solver"):
        def counted(*args, _inner=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(linalg, name, counted)
    chi_map_point(short_diagonal_chi(4), lifted(spec, 0.3), 0.04, 10)
    assert calls.count("checked_svd") == 2
    assert calls.count("stack_solver") == 3


# -- one application over a batch of (x, eps) pairs ----------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("chi, eps0", [
    (short_diagonal_chi(2), 0.2), (short_diagonal_chi(3), 0.2),
    # nodes reach |p| = 4.5: the extraction's radius keeps every offset
    # within 0.2 (at eps 0.2 the shift leaves the lift's radius, see
    # test_shift_guards_every_row)
    (short_diagonal_chi(4), 0.2 / 4.5),
    (dual_dented_chi(3, 1).shift(dual_dented_shift(3, 1)), 0.2),
    (evenly_spaced_chi([0.0, 1.0], 0.25, 2), 0.2),
], ids=["sd2", "sd3", "sd4", "dd3", "es2"])
def test_batch_equals_the_one_pair_loop(chi, eps0, dtype):
    spec = random_curve_spec(chi.d, seed=7, dtype=dtype)
    xs = np.array([0.3, -0.45, 1.1])
    eps = dtype(eps0) * dtype(0.85) ** np.arange(4)
    k = 2 * chi.d + 2
    lift, u = chi_map_point(chi, lifted(spec, xs[:, None]), eps, k)
    assert lift.shape == (k - chi.d + 1, 3, 4, chi.d + 1)
    assert u.shape == (k - 2 * chi.d, 3, 4, chi.d)
    for i, x in enumerate(xs):
        for j, e in enumerate(eps):
            one, u_one = chi_map_point(chi, lifted(spec, x), e, k)
            assert one.dtype == lift.dtype == dtype
            # every stage treats each pair as a call with that pair alone
            assert np.array_equal(lift[:, i, j], one)
            assert np.array_equal(u[:, i, j], u_one)


@pytest.mark.parametrize("d, seed, bad, message", [
    # the normals of the two lines agree to within the nullspace tolerance
    # for steps between about 1e-10 and 2e-10, the span vectors below that
    (2, 5, (20.0, 1.4e-10), "stacked constraints are rank deficient"),
    (3, 23, (15.0, 1e-8), "span vectors numerically dependent"),
])
def test_batch_with_one_degenerate_pair_raises_as_the_loop(d, seed, bad, message):
    spec = random_curve_spec(d, seed=seed)
    chi = short_diagonal_chi(d)
    pairs = [(0.3, 0.2), bad, (0.3, 0.1)]
    with pytest.raises(DegenerateIntersection) as one:
        chi_map_point(chi, lifted(spec, bad[0]), bad[1], 2 * d + 2)
    assert message in str(one.value)
    xs, eps = (np.array(v) for v in zip(*pairs))
    with pytest.raises(DegenerateIntersection) as batch:
        chi_map_point(chi, lifted(spec, xs), eps, 2 * d + 2)
    assert str(batch.value) == str(one.value)
    # the rest map
    chi_map_point(chi, lifted(spec, xs[::2]), eps[::2], 2 * d + 2)


def test_batch_rejects_any_zero_eps(curve_d2):
    with pytest.raises(ValueError, match="eps must be nonzero"):
        chi_map_point(short_diagonal_chi(2), lifted(curve_d2, 0.3),
                      np.array([0.1, 0.0]), 6)


@pytest.mark.parametrize("eps", [
    np.array([0.1, -0.07, 0.05]),
    0.1 * np.exp(2j * np.pi * np.arange(3) / 7),
], ids=["real", "complex"])
def test_scalar_x_with_an_eps_array(curve_d2, eps):
    # a scalar x with a complex eps array did not broadcast against the
    # node offsets
    chi = short_diagonal_chi(2)
    lift, u = chi_map_point(chi, lifted(curve_d2, 0.3), eps, 6)
    assert lift.shape == (5, eps.size, 3)
    for j, e in enumerate(eps):
        one, u_one = chi_map_point(chi, lifted(curve_d2, 0.3), e, 6)
        assert np.array_equal(lift[:, j], one)
        assert np.array_equal(u[:, j], u_one)


def test_shift_maps_the_shifted_configuration(curve_d3):
    # the image at x of the configuration shifted by k is the image curve
    # at x + k eps: the value of the unshifted image's jet in the curve
    # variable at t = k eps, both in the lift based at x with the identity
    # frame, which is how lax_limit_diagnostics reads its windows
    chi = short_diagonal_chi(3)
    for eps in (0.05, 0.05 * np.exp(0.3j)):
        jet = chi_map_point(chi, lifted(curve_d3, 0.3), eps, 20)[0]
        for k in range(5):
            one = chi_map_point(chi.shift(k), lifted(curve_d3, 0.3), eps,
                                8)[0][0]
            at = np.sum(jet * (k * eps) ** np.arange(len(jet))[:, None], axis=0)
            assert_allclose(at, one, rtol=0, atol=1e-13)
