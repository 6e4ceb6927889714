import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentalab import linalg
from pentalab.jets import (
    AnalyticFn,
    DegenerateSystem,
    Jet,
    NonPositiveBase,
    derivative,
    derivative_stack,
    eval_jet,
    jet_factor,
    jet_solver,
    mul,
    trig_poly,
)

from oracles import cofactor_det, evaluate, trig_tree


def random_jet(rng, order):
    return rng.uniform(-1, 1, order + 1)


def random_fn(rng):
    return trig_poly(rng.uniform(-0.5, 0.5),
                     [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                      (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))])


def test_sine_jet_at_zero():
    j = eval_jet(AnalyticFn.x().sin(), 0.0, 3)
    assert_allclose(j, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_constant_jet():
    j = eval_jet(AnalyticFn.const(5.0), 1.7, 2)
    assert_allclose(j, [5.0, 0.0, 0.0])


def test_square_jet():
    x = AnalyticFn.x()
    j = eval_jet(x * x, 2.0, 2)
    # hand expansion of t^2 at t = 2: 4 + 4h + h^2
    assert_allclose(j, [4.0, 4.0, 1.0], atol=1e-14)


def test_division_series():
    q = eval_jet(1.0 / (1.0 + AnalyticFn.x()), 0.0, 6)
    assert_allclose(q, [(-1.0) ** k for k in range(7)], atol=1e-15)


def test_division_needs_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        eval_jet(1.0 / AnalyticFn.x(), 0.0, 3)


def test_fractional_power_roundtrip(rng):
    f = 2.0 + random_fn(rng)  # positive constant term
    x = rng.uniform(-2, 2)
    root = eval_jet(f ** 0.5, x, 8)
    assert_allclose(mul(root, root), eval_jet(f, x, 8), rtol=1e-12)
    with pytest.raises(NonPositiveBase):
        eval_jet((AnalyticFn.x() - 1.0) ** 0.5, 0.0, 2)
    assert issubclass(NonPositiveBase, ValueError)


def test_complex_coefficients_are_kept():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = Jet(np.array([1 + 2j, 3j]))
    assert jet.c.dtype == np.complex128
    assert np.array_equal(jet.c, [1 + 2j, 3j])
    assert mul(jet.c, jet.c)[1] == 2 * (1 + 2j) * 3j
    assert Jet(np.array([1, 2])).c.dtype == np.float64  # integers still cast
    assert Jet(np.array([1, 2], dtype=np.float32)).c.dtype == np.float32


def test_integer_power_matches_repeated_product(rng):
    f = 2.0 + random_fn(rng)  # positive constant term
    x = rng.uniform(-2, 2)
    assert_allclose(eval_jet(f ** 3.0, x, 7), eval_jet(f * f * f, x, 7),
                    rtol=1e-13)


def test_ring_axioms_on_random_triples(rng):
    for _ in range(20):
        a, b, c = (random_jet(rng, 8) for _ in range(3))
        lhs = mul(mul(a, b), c)
        rhs = mul(a, mul(b, c))
        assert_allclose(lhs, rhs, atol=1e-12)
        assert_allclose(mul(a, b + c), mul(a, b) + mul(a, c), atol=1e-12)


def test_product_rule_through_trees(rng):
    for _ in range(8):
        f, g = random_fn(rng), random_fn(rng)
        x = rng.uniform(-2, 2)
        jf, jg = eval_jet(f, x, 8), eval_jet(g, x, 8)
        jfg = eval_jet(f * g, x, 8)
        assert_allclose(jfg, mul(jf, jg), rtol=1e-10, atol=1e-12)


def test_derivative_of_sin_tree():
    f = AnalyticFn.x().sin()
    j = eval_jet(f, 0.4, 6)
    assert_allclose(derivative(j), eval_jet(f, 0.4, 6)[1:] * np.arange(1, 7))
    assert_allclose(2 * j[2], -math.sin(0.4), atol=1e-14)


def test_declared_periodic_holds(rng):
    f = random_fn(rng)
    for x in rng.uniform(-3, 3, 5):
        assert evaluate(f, x + 2 * math.pi) == pytest.approx(evaluate(f, x),
                                                            abs=1e-12)


def test_json_roundtrip(rng):
    f = random_fn(rng) / (AnalyticFn.const(2.0) + AnalyticFn.x().cos()) ** 2.0
    g = AnalyticFn.from_dict(f.to_dict())
    for x in rng.uniform(-2, 2, 5):
        assert evaluate(g, x) == pytest.approx(evaluate(f, x), rel=1e-14)
        assert_allclose(eval_jet(g, x, 5), eval_jet(f, x, 5), rtol=1e-13)


def test_tree_deeper_than_the_limit_is_refused():
    # a chain 200 nodes deep loads; one node more, on any branch, is refused
    node = {"op": "x"}
    for _ in range(199):
        node = {"op": "sin", "arg": node}
    assert eval_jet(AnalyticFn.from_dict(node), 0.3, 2).shape == (3,)
    power = {"op": "pow", "arg": node, "exponent": 2.0}
    for deeper in ({"op": "cos", "arg": node},
                   {"op": "add", "args": [{"op": "x"}, power]}):
        with pytest.raises(ValueError, match="more than 200 nodes deep"):
            AnalyticFn.from_dict(deeper)


def trig_oracle(a0, harmonics, x, order, dtype):
    """Closed-form Taylor coefficients of a trig polynomial at x: coefficient
    n of cos(kx) is k^n cos(kx + n pi/2)/n!, of sin(kx) it is
    k^n sin(kx + n pi/2)/n!, the phase taken from the quarter-turn cycle."""
    out = np.zeros(order + 1, dtype=dtype)
    out[0] = a0
    for k, (ck, sk) in enumerate(harmonics, start=1):
        theta = dtype(k) * dtype(x)
        cos_cycle = (np.cos(theta), -np.sin(theta), -np.cos(theta), np.sin(theta))
        sin_cycle = (np.sin(theta), np.cos(theta), -np.sin(theta), -np.cos(theta))
        for n in range(order + 1):
            scale = dtype(k) ** n / dtype(math.factorial(n))
            out[n] += scale * (dtype(ck) * cos_cycle[n % 4]
                               + dtype(sk) * sin_cycle[n % 4])
    return out


@pytest.mark.parametrize("order", [14, 24])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-14), (np.longdouble, 1e-17)])
def test_trig_poly_jets_match_closed_form(rng, order, dtype, tol):
    from pentalab.curves import CurveSpec

    coeffs = [(rng.uniform(-0.5, 0.5),
               [tuple(rng.uniform(-0.5, 0.5, 2)) for _ in range(2)])
              for _ in range(3)]
    fns = [trig_poly(a0, harmonics) for a0, harmonics in coeffs]
    spec = CurveSpec(3, fns, 0.0, np.eye(4), dtype=dtype)
    for x in rng.uniform(-3, 3, 3):
        u = spec.u_jet(x, order)
        assert u.shape == (order + 1, 3)
        assert u.dtype == np.dtype(dtype)
        for i, (a0, harmonics) in enumerate(coeffs):
            expect = trig_oracle(a0, harmonics, x, order, dtype)
            assert np.max(np.abs(u[:, i] - expect)) <= tol
            j = eval_jet(fns[i], x, order, dtype=dtype)
            assert j.dtype == np.dtype(dtype)
            assert np.max(np.abs(j - expect)) <= tol


def test_eval_jet_matches_numeric_derivatives(rng):
    f = random_fn(rng)
    x = 0.37
    j = eval_jet(f, x, 4)
    h = 1e-5
    lo, mid, hi = (evaluate(f, x + k * h) for k in (-1, 0, 1))
    d1 = (hi - lo) / (2 * h)
    d2 = (hi - 2 * mid + lo) / h**2
    assert j[1] == pytest.approx(d1, abs=1e-8)
    assert 2 * j[2] == pytest.approx(d2, abs=1e-5)


# -- jets with tails -----------------------------------------------------------


def test_tail_product_matches_entrywise_convolve(rng):
    order = 6
    a = rng.uniform(-1, 1, (order + 1, 2, 3))
    b = rng.uniform(-1, 1, (order + 1, 2, 3))
    prod = mul(a, b)
    assert prod.shape == a.shape
    for i in range(2):
        for j in range(3):
            expect = np.convolve(a[:, i, j], b[:, i, j])[: order + 1]
            assert_allclose(prod[:, i, j], expect, rtol=1e-13, atol=1e-15)
    # scaling a factor by a number scales the product: exactly, for a
    # power of two
    assert np.array_equal(mul(2.0 * a, b), 2.0 * prod)


def test_scalar_times_vector_broadcasts(rng):
    s = random_jet(rng, 7)
    v = rng.uniform(-1, 1, (6, 4))  # shorter vector jet: the product has order 5
    for prod in (mul(s, v), mul(v, s)):
        assert prod.shape == (6, 4)
        for i in range(4):
            expect = np.convolve(s[:6], v[:, i])[:6]
            assert_allclose(prod[:, i], expect, rtol=1e-13, atol=1e-15)


def test_tail_indexing_and_derivative(rng):
    m = rng.uniform(-1, 1, (5, 3, 3))
    dm = derivative(m)
    assert dm.shape == (4, 3, 3)
    for i in range(3):
        assert_allclose(dm[:, i, 0], derivative(m[:, i, 0]), atol=0)


def test_derivative_of_order_zero_is_zero():
    for c in (np.array([3.0]), np.ones((1, 2, 3))):
        dc = derivative(c)
        assert dc.shape == c.shape and not dc.any()


def test_stack_member_equals_its_own_call(rng):
    # the product cuts to the smaller order, and every member of a stack
    # comes out of mul and derivative_stack as it does on its own
    a = rng.uniform(-1, 1, (9, 3, 4))
    b = rng.uniform(-1, 1, (7, 3, 4))
    prod = mul(a, b)
    stack = derivative_stack(a, 3)
    assert prod.shape == (7, 3, 4) and stack.shape == (7, 3, 4, 3)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(prod[:, i, j], mul(a[:, i, j], b[:, i, j]))
        assert np.array_equal(stack[:, i, j], derivative_stack(a[:, i, j], 3))
        for k in range(3):
            want = a[:, i, j]
            for _ in range(k):
                want = derivative(want)
            assert np.array_equal(stack[:, i, j, k], want[:7])


# -- linear algebra over jets -------------------------------------------------


def jet_eye(n, order):
    c = np.zeros((order + 1, n, n))
    c[0] = np.eye(n)
    return c


def jet_matvec(a, x):
    """Series product A x, order by order."""
    k = min(len(a), len(x))
    return np.array([sum(a[j] @ x[m - j] for j in range(m + 1))
                     for m in range(k)])


def test_solve_identity(rng):
    b = rng.uniform(-1, 1, (6, 3))
    x = jet_solver(jet_eye(3, 5))(b)
    assert_allclose(x, b, atol=1e-14)


def test_solve_scalar_division():
    a = np.array([1.0, 1.0, 0, 0, 0]).reshape(5, 1, 1)
    x = jet_solver(a)(np.array([1.0, 0, 0, 0, 0]).reshape(5, 1))
    assert_allclose(x[:, 0], [1, -1, 1, -1, 1], atol=1e-13)


def test_solve_random_system_residual(rng):
    n, order = 4, 5
    a = rng.uniform(-1, 1, (order + 1, n, n))
    a[0] += 3.0 * np.eye(n)  # keep the constant-term matrix well conditioned
    b = rng.uniform(-1, 1, (order + 1, n))
    x = jet_solver(a)(b)
    assert_allclose(jet_matvec(a, x), b, rtol=1e-10, atol=1e-12)


def test_solve_matrix_rhs_matches_columns(rng):
    n, order = 4, 5
    a = rng.uniform(-1, 1, (order + 1, n, n))
    a[0] += 3.0 * np.eye(n)
    b = rng.uniform(-1, 1, (order + 1, n, 3))
    solve = jet_solver(a)
    x = solve(b)
    assert x.shape == b.shape
    for j in range(3):
        assert_allclose(x[:, :, j], solve(b[:, :, j]),
                        rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stacked_solve_and_det_equal_each_system(rng, dtype):
    n, order = 4, 5
    a = rng.uniform(-1, 1, (order + 1, 2, 3, n, n)).astype(dtype)
    a[0] += 3.0 * np.eye(n, dtype=dtype)
    b = rng.uniform(-1, 1, (order + 1, 2, 3, n)).astype(dtype)
    x = jet_solver(a)(b)
    _, (sign, logdet) = jet_factor(a)
    assert x.shape == b.shape and x.dtype == dtype
    assert sign.shape == logdet.shape == (2, 3) and logdet.dtype == dtype
    for i, j in np.ndindex(2, 3):
        one = jet_solver(a[:, i, j])(b[:, i, j])
        assert np.array_equal(x[:, i, j], one)
        _, (sign_one, logdet_one) = jet_factor(a[:, i, j])
        assert sign[i, j] == sign_one and logdet[i, j] == logdet_one


def term_by_term_solve(a, b):
    """The jet solve with one matmul and one subtraction per term:
    rhs_m = b_m - t_1 x_(m-1) - ... - t_m x_0, subtracted in order."""
    t, bc = a, b[:len(a)]
    vector = bc.ndim == t.ndim - 1
    if vector:
        bc = bc[..., None]
    solve0 = linalg.stack_solver(t[0])
    x = np.empty(bc.shape, dtype=np.result_type(t.dtype, bc.dtype))
    for m in range(len(bc)):
        rhs = bc[m]
        for k in range(1, m + 1):
            rhs = rhs - t[k] @ x[m - k]
        x[m] = solve0(rhs)
    return x[..., 0] if vector else x


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.longdouble])
@pytest.mark.parametrize("cols", [None, 1, 3], ids=["vector", "one", "three"])
def test_solve_sums_each_order_as_term_by_term(rng, dtype, cols):
    n, order = 4, 9
    a = rng.uniform(-1, 1, (order + 1, 2, 3, n, n)).astype(dtype)
    b = rng.uniform(-1, 1, (order + 1, 2, 3, n)
                    + (() if cols is None else (cols,))).astype(dtype)
    if dtype == np.complex128:
        a = a + 1j * rng.uniform(-1, 1, a.shape)
        b = b + 1j * rng.uniform(-1, 1, b.shape)
    a[0] += 3.0 * np.eye(n, dtype=dtype)
    x = jet_solver(a)(b)
    want = term_by_term_solve(a, b)
    assert x.dtype == want.dtype == dtype
    assert np.array_equal(x, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stack_with_one_singular_constant_term_raises(dtype):
    c = np.zeros((2, 3, 2, 2), dtype=dtype)
    c[0] = np.eye(2)
    c[0, 1] = [[1, 2], [2, 4]]
    with pytest.raises(DegenerateSystem):
        jet_solver(c)


def test_solve_singular_constant_term():
    a = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(DegenerateSystem):
        jet_solver(a)(np.ones((2, 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_singular_constant_term_raises_when_factored(dtype):
    # rank one with no zero column: elimination meets the zero pivot in
    # column 1, and must report it as DegenerateSystem at every dtype
    c = np.zeros((3, 2, 2), dtype=dtype)
    c[0] = [[1, 2], [2, 4]]
    c[1] = np.eye(2)
    with pytest.raises(DegenerateSystem):
        jet_solver(c)


# the cofactor oracle, which normalized_lift's tests use for the Wronskian


def test_det_identity_and_diagonal(rng):
    assert_allclose(cofactor_det(jet_eye(4, 3)), [1, 0, 0, 0], atol=1e-15)
    a, b = random_jet(rng, 5), random_jet(rng, 5)
    m = np.zeros((6, 2, 2))
    m[:, 0, 0] = a
    m[:, 1, 1] = b
    assert_allclose(cofactor_det(m), mul(a, b), atol=1e-14)


def test_det_order_zero_matches_scalar(rng):
    # the factorization's determinant, the oracle's and numpy's agree
    for real in (True, False):
        m = rng.uniform(-1, 1, (3, 3)) + (0 if real else 1j * rng.uniform(-1, 1, (3, 3)))
        want = np.linalg.det(m)
        assert cofactor_det(m[None])[0] == pytest.approx(want, rel=1e-12)
        for dtype in ((np.float64, np.longdouble) if real
                      else (np.complex128, np.clongdouble)):
            _, (sign, logdet) = jet_factor(m[None].astype(dtype))
            assert sign * np.exp(logdet) == pytest.approx(want, rel=1e-12)


def test_det_higher_order_against_product_expansion(rng):
    # det of a triangular jet matrix is the product of its diagonal
    n, order = 4, 6
    m = np.zeros((order + 1, n, n))
    diag = [random_jet(rng, order) for _ in range(n)]
    for dj in diag:
        dj[0] += 2.0
    for i in range(n):
        m[:, i, i] = diag[i]
        for j in range(i + 1, n):
            m[:, i, j] = random_jet(rng, order)
    expect = diag[0]
    for dj in diag[1:]:
        expect = mul(expect, dj)
    assert_allclose(cofactor_det(m), expect, rtol=1e-12)


# -- closed-form trig and evaluation at many points ------------------------------


def horner_trig(c, shift):
    """sin (shift 0) or cos (shift 1) of a series c, composed by Horner's
    rule: one truncated convolution with the nilpotent part per order."""
    s, co = np.sin(c[0]), np.cos(c[0])
    cycle = (s, co, -s, -co)
    series = [cycle[(n + shift) % 4] / math.factorial(n) for n in range(len(c))]
    h = c.copy()
    h[0] = 0
    acc = np.zeros_like(c)
    acc[0] = series[-1]
    for term in series[-2::-1]:
        acc = np.convolve(acc, h)[:len(c)]
        acc[0] += term
    return acc


def affine(x, slope, order, dtype):
    c = np.zeros(order + 1, dtype=dtype)
    c[0] = dtype(slope) * dtype(x)
    if order:
        c[1] = slope
    return c


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32])
@pytest.mark.parametrize("slope", [1.0, 2.0, -2.0, 0.5])
@pytest.mark.parametrize("order", [0, 1, 14, 24])
def test_affine_trig_equals_horner_bit_for_bit(rng, dtype, slope, order):
    from pentalab.jets import _trig

    for x in np.concatenate([[0.0], rng.uniform(-20, 20, 12)]):
        c = affine(x, slope, order, dtype)
        for shift in (0, 1):
            got = _trig(c, shift)
            assert got.dtype == np.dtype(dtype)
            assert np.array_equal(got, horner_trig(c, shift))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("order", [0, 1, 14, 24])
def test_affine_trig_slope_three_within_two_ulp(rng, dtype, order):
    # 3 is no power of two, so Horner's repeated products by 3 round where
    # the closed form's one product by 3^n does not; both are held to the
    # exact series
    mpmath = pytest.importorskip("mpmath")
    from pentalab.jets import _trig

    mpmath.mp.dps = 40

    def exact(v):  # a longdouble is the sum of two doubles
        hi = float(v)
        return mpmath.mpf(hi) + mpmath.mpf(float(v - dtype(hi)))

    def rounded(t):
        hi = float(t)
        return dtype(hi) + dtype(float(t - hi))

    for x in rng.uniform(-3, 3, 8):
        c = affine(x, 3.0, order, dtype)
        for shift in (0, 1):
            got = _trig(c, shift)
            # n-th derivative of sin at t is sin(t + n pi/2), cos starts one later
            want = np.array([rounded(mpmath.sin(exact(c[0]) + (n + shift) * mpmath.pi / 2)
                                     / mpmath.factorial(n) * 3 ** n)
                             for n in range(order + 1)], dtype=dtype)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_non_affine_trig_argument_goes_through_horner(rng, dtype):
    x = AnalyticFn.x()
    for at in rng.uniform(-2, 2, 4):
        for order in (0, 1, 6, 14):
            arg = eval_jet(x * x, at, order, dtype)
            for fn, shift in (((x * x).sin(), 0), ((x * x).cos(), 1)):
                got = eval_jet(fn, at, order, dtype)
                assert np.array_equal(got, horner_trig(arg, shift))


def every_node_kind():
    x = AnalyticFn.x()
    two = AnalyticFn.const(2.0)
    return {
        "const": AnalyticFn.const(0.75),
        "x": x,
        "add": x + x.sin(),
        "sub": two.cos() - x,
        "mul": x * (two * x).sin() * 0.5,
        "div": x.sin() / (two + x.cos()),
        "pow": (1.5 + (two * x).cos()) ** 0.5,
        "sin": (x * x).sin(),
        "cos": (-2.0 * x).cos(),
        "trig_poly": trig_poly(0.3, [(0.2, -0.1), (0.0, 0.05), (-0.4, 0.0)]),
    }


@pytest.mark.parametrize("kind", sorted(every_node_kind()))
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_eval_jet_at_points_matches_per_point_calls(kind, dtype):
    f = every_node_kind()[kind]
    xs = np.array([-7.25, -1.3, 0.0, 0.4, 2.2, 19.9375])
    for order in (0, 5, 14, 40):
        batch = eval_jet(f, xs, order, dtype)
        assert batch.shape == (order + 1, xs.size)
        assert batch.dtype == np.dtype(dtype)
        for p, x in enumerate(xs):
            assert np.array_equal(batch[:, p], eval_jet(f, x, order, dtype))


# -- the trig-polynomial node against the tree it stands for -------------------

_draw = np.random.default_rng(2024)
TRIG_POLYS = {
    "two-harmonics": (0.31, [(0.2, -0.45), (-0.125, 0.07)]),
    "zero-amplitude": (0.2, [(0.0, 0.3), (-0.1, 0.0)]),
    "no-harmonics": (0.4, []),
    "negative-a0": (-0.35, [(0.25, 0.1)]),
    "negative-a0-alone": (-1.5, []),
    "signed-zero-a0": (-0.0, [(0.0, -0.2), (0.0, -0.3)]),
    "five-harmonics": (0.05, [(0.1 / k, -0.2 / k) for k in range(1, 6)]),
    **{f"random-{i}": (float(_draw.uniform(-0.5, 0.5)),
                       [tuple(_draw.uniform(-0.5, 0.5, 2) / k) for k in (1, 2, 3)])
       for i in range(3)},
}


@pytest.mark.parametrize("name", sorted(TRIG_POLYS))
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32])
def test_trig_poly_node_equals_its_tree_bit_for_bit(name, dtype):
    a0, harmonics = TRIG_POLYS[name]
    node, tree = trig_poly(a0, harmonics), trig_tree(a0, harmonics)
    assert node.op == "trig_poly"
    for order in (0, 1, 24, 40):
        for x in (0.0, -0.0, 0.3, -0.7, 20.0, 1e5):
            got = eval_jet(node, x, order, dtype)
            want = eval_jet(tree, x, order, dtype)
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", sorted(TRIG_POLYS))
def test_trig_poly_node_writes_its_tree(name):
    a0, harmonics = TRIG_POLYS[name]
    node, tree = trig_poly(a0, harmonics), trig_tree(a0, harmonics)
    # json text, so that a -0.0 must be written as one
    assert json.dumps(node.to_dict()) == json.dumps(tree.to_dict())
    for x in (0.0, -0.7, 20.0):
        assert evaluate(node, x) == evaluate(tree, x)
