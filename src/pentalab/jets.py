"""Truncated Taylor series, expression trees, and linear algebra over series.

A truncated series is a bare coefficient array of shape (K+1, *tail): row k
holds the k-th Taylor coefficients f^(k)(x0)/k! at a base point, and the
trailing axes hold the values, which may be a scalar, a vector (a lift of a
curve) or a matrix (the frame of a span, a Wronskian).  ``mul`` is a
truncated convolution along axis 0 with the tails broadcast, so the series
of a curve point, of a span or of a whole linear system is one array, and
d/dx is exact: ``derivative`` and ``derivative_stack`` shift coefficients,
never take finite differences.  Sums, differences and scaling by a number
are numpy's own.  Coefficients are real or complex.  ``Jet`` is a read-only
wrapper of such an array that only ``curves.gamma_jet`` still returns.

``AnalyticFn`` is a tiny closed expression language (constants, x, +, -, *,
/, sin, cos, powers, trig polynomials) used for curve coefficient
functions.  ``eval_jet`` runs a tree on raw coefficient arrays (sums
elementwise, products as truncated convolutions, quotients, powers, sin and
cos by their series recurrences) and returns the coefficients to any
requested order.  It also takes a 1-D array of points and walks the tree
once per point, stacking the columns.  One kernel (``_trig_series``) gives
the sin and cos series at any number of arguments, in closed form for an
affine argument (x, 2x): ``_trig`` takes it for one argument, a
trig-polynomial node (``trig_poly``) for all its terms in one pass, which
it adds in the order its sin/cos tree would, so it gives that tree's bits.
Trees round-trip through JSON, so curve files can carry their coefficient
functions; a trig-polynomial node is written as the tree it stands for,
and read back as that tree; a file's tree may nest at most 200 nodes deep
(``_MAX_DEPTH``).

One cached table, ``_falling`` per order and dtype, holds every
falling factorial n!/(n-k)! the series code weighs by, each the exact
integer rounded once to the dtype: the n! of the trig series (its
diagonal), the weights of the lift recursion and of the Taylor shift in
``curves``, and those of the Leibniz products in ``kdvops``.

Linear algebra over series (``jet_solver``, ``jet_factor``) takes matrix
jets and pivots on constant terms only: a system is solved order by order
against the LU factorization of its constant-term matrix, which also gives
that matrix's determinant.  It takes a stack of matrix jets, the stack in
the tail ahead of the matrix axes, and treats it in stacked calls; every
product over series with a tail sums in a fixed order, so each member of a
stack comes out as it would on its own.  At order m the solve forms all m
products a_k x_(m-k) in one stacked matmul and subtracts them from b_m in
order of k, one ``np.subtract.reduce`` that runs sequentially.  No
determinant of a series is formed: ``curves.normalized_lift`` gets the
Wronskian from Abel's identity.
"""

import functools
import math

import numpy as np

from . import linalg


class DegenerateSystem(Exception):
    """Constant-term matrix of a jet linear system is singular."""


class NonPositiveBase(ValueError):
    """Fractional power of a series whose constant term is not positive."""


class Jet:
    """Truncated Taylor series: c[k] = f^(k)(x0) / k!, c of shape (K+1, *tail),
    a read-only copy of the coefficients cast to an inexact dtype."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.array(coeffs)
        if c.ndim == 0 or len(c) == 0:
            raise ValueError("jet coefficients need a nonempty order axis")
        if not np.issubdtype(c.dtype, np.inexact):
            c = c.astype(np.float64)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def value(self):
        return self.c[0]


def mul(a, b):
    """Truncated product of two coefficient arrays, cut to the smaller
    order, their tails broadcast numpy-style.

    out[m] = sum_j a[j] b[m-j], summed in order of j by whole-array steps,
    so every tail entry gets the same arithmetic whatever else the tail
    holds: a stack of series multiplies as each series would on its own.
    """
    k = min(len(a), len(b))
    n = max(a.ndim, b.ndim)
    a = a[:k].reshape((k,) + (1,) * (n - a.ndim) + a.shape[1:])
    b = b[:k].reshape((k,) + (1,) * (n - b.ndim) + b.shape[1:])
    out = a[0] * b
    for j in range(1, k):
        out[j:] += a[j] * b[:k - j]
    return out


def derivative(c):
    """Coefficients of f' from those of f, one order shorter; an order-0
    array gives zeros of its own shape."""
    if len(c) == 1:
        return np.zeros_like(c)
    k = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return c[1:] * k


def derivative_stack(c, count):
    """Coefficients whose column k < count on a new last axis is the k-th
    derivative of c, all cut to the order of the last derivative."""
    chain = [c]
    for _ in range(count - 1):
        chain.append(derivative(chain[-1]))
    k = len(chain[-1])
    return np.stack([d[:k] for d in chain], axis=-1)


# ---------------------------------------------------------------------------
# kernels on the raw coefficient array, (K+1,), of a tree node at one point


def _mul(a, b):
    """Truncated product of two series.

    Tree products keep ``np.convolve``, not ``mul``: the two sum in
    different orders, and of 160 products of random float64 pairs of order
    8 (numpy 2.4), 159 round differently, so the switch would move every
    number a tree feeds.
    """
    return np.convolve(a, b)[:len(a)]


def _compose(c, series):
    """f(a0 + h) = sum series[n] h^n by Horner, h the nilpotent part of c."""
    h = c.copy()
    h[0] = 0
    acc = np.zeros_like(c)
    acc[0] = series[-1]
    for s in series[-2::-1]:
        acc = np.convolve(acc, h)[:len(c)]
        acc[0] += s
    return acc


def _pow(c, p):
    """c ** p for real p by the generalized binomial series around c[0]."""
    a0 = c[0]
    if not np.iscomplexobj(c) and a0 <= 0:
        raise NonPositiveBase("fractional jet power needs a positive constant term")
    series = np.zeros(len(c), dtype=c.dtype)
    series[0] = a0 ** c.dtype.type(p)
    for n in range(1, len(c)):
        series[n] = series[n - 1] * (p - n + 1) / (n * a0)
    return _compose(c, series)


def _div(a, b):
    """a / b by the recurrence b[0] q[m] = a[m] - sum_{j>=1} b[j] q[m-j]."""
    if b[0] == 0:
        raise ZeroDivisionError("jet division needs a nonzero constant term")
    out = np.zeros(len(a), dtype=np.result_type(a.dtype, b.dtype))
    for m in range(len(a)):
        s = a[m]
        if m:
            s = s - b[1 : m + 1] @ out[:m][::-1]
        out[m] = s / b[0]
    return out


@functools.lru_cache(maxsize=None)
def _falling(order, dtype):
    """Read-only table of falling factorials, k, n <= order: entry [k, n]
    is n (n-1) ... (n-k+1) = n!/(n-k)!, the exact integer rounded once to
    dtype (inf past its range), and 0 where k > n; its diagonal holds n!.
    One table per dtype: float64 entries past 2^53 would round longdouble
    ones, from row 13 on at order 40."""
    n = np.arange(order + 1)
    with np.errstate(over="ignore"):
        table = np.frompyfunc(math.perm, 2, 1)(n, n[:, None]).astype(dtype)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _trig_index(shifts, count):
    """Read-only index, (T, count), into the table of (sin, cos, -sin, -cos)
    at T arguments, entry j of argument i at j T + i: coefficient n of
    argument i picks entry (n + shifts[i]) % 4."""
    t = len(shifts)
    index = ((np.arange(count) + np.array(shifts)[:, None]) % 4 * t
             + np.arange(t)[:, None])
    index.flags.writeable = False
    return index


def _powers(slopes, count):
    """slopes[i] ** n, (T, count), in the slopes' dtype."""
    return slopes[:, None] ** np.arange(count, dtype=slopes.dtype)


@functools.lru_cache(maxsize=None)
def _slope_powers(slopes, count, dtype):
    """Read-only table, (T, count), of slopes[i] ** n in dtype: the powers
    of a trig-polynomial node's harmonics, which are fixed integers."""
    table = _powers(np.array(slopes, dtype=dtype), count)
    table.flags.writeable = False
    return table


def _trig_series(t, shifts, count, powers=None):
    """Taylor series, (T, count), of sin (shift 0) or cos (shift 1) at each
    of T arguments t, a 1-D array: coefficient n of argument i is entry
    (n + shifts[i]) % 4 of (sin, cos, -sin, -cos) at t[i], over n!.

    Given the powers a_i^n of slopes a_i in t's dtype (``_powers``), it is
    the series of the affine arguments t_i + a_i h instead, in closed form:
    coefficient n times a_i^n.  Horner's rule would only multiply by a_i,
    n times, which gives the same bits when a_i is a power of two;
    ``+ 0.0`` gives zeros the sign Horner's sums give them.
    """
    table = np.concatenate((np.sin(t), np.cos(t)))
    table = np.concatenate((table, -table))
    series = (table[_trig_index(shifts, count)]
              / _falling(count - 1, table.dtype).diagonal())
    return series if powers is None else series * powers + 0.0


def _trig(c, shift):
    """sin (shift 0) or cos (shift 1) of c: an affine argument c[0] + a h
    takes the closed form of ``_trig_series``; any other is composed by
    Horner from the series at c[0], and at order 0 the series is the answer.
    """
    k = len(c)
    affine = k > 1 and not c[2:].any()
    series = _trig_series(c[:1], (shift,), k,
                          _powers(c[1:2], k) if affine else None)[0]
    return series if affine or k == 1 else _compose(c, series)


# ---------------------------------------------------------------------------
# expression trees


_BINARY = ("add", "sub", "mul", "div")
_UNARY = ("sin", "cos")
# deepest tree ``from_dict`` builds: the walk recurses once per level, and
# from the CLI a chain of sin about 980 deep overflows Python's stack
_MAX_DEPTH = 200


class AnalyticFn:
    """Expression tree over constants, x, +, -, *, /, sin, cos, pow, and
    trig-polynomial nodes.

    A trig-polynomial node (``trig_poly``) holds a0 as its value and its
    terms (k, amplitude, "cos" or "sin") as its args.
    """

    __slots__ = ("op", "args", "value")

    def __init__(self, op, args=(), value=None):
        self.op = op
        self.args = tuple(args)
        self.value = value

    # constructors

    @staticmethod
    def const(v):
        return AnalyticFn("const", value=float(v))

    @staticmethod
    def x():
        return AnalyticFn("x")

    @staticmethod
    def _wrap(v):
        if isinstance(v, AnalyticFn):
            return v
        return AnalyticFn.const(v)

    def _binary(self, other, op, swap=False):
        other = AnalyticFn._wrap(other)
        a, b = (other, self) if swap else (self, other)
        return AnalyticFn(op, (a, b))

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", swap=True)

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __rsub__(self, other):
        return self._binary(other, "sub", swap=True)

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __rmul__(self, other):
        return self._binary(other, "mul", swap=True)

    def __truediv__(self, other):
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        return self._binary(other, "div", swap=True)

    def __neg__(self):
        return AnalyticFn.const(0.0) - self

    def __pow__(self, p):
        return AnalyticFn("pow", (self,), value=float(p))

    def sin(self):
        return AnalyticFn("sin", (self,))

    def cos(self):
        return AnalyticFn("cos", (self,))

    # evaluation

    def _coeffs(self, x, order, dtype):
        """Taylor coefficients at the point x, (order+1,), raw array."""
        op = self.op
        if op == "const" or op == "x":
            c = np.zeros(order + 1, dtype=dtype)
            if op == "const":
                c[0] = self.value
            else:
                c[0] = x
                if order >= 1:
                    c[1] = 1
            return c
        if op == "trig_poly":
            return self._trig_poly_coeffs(x, order, dtype)
        a = self.args[0]._coeffs(x, order, dtype)
        if op == "sin":
            return _trig(a, 0)
        if op == "cos":
            return _trig(a, 1)
        if op == "pow":
            return _pow(a, self.value)
        b = self.args[1]._coeffs(x, order, dtype)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return _mul(a, b)
        if op == "div":
            return _div(a, b)
        raise ValueError(f"unknown op {op!r}")

    def _trig_poly_coeffs(self, x, order, dtype):
        """The node's coefficients in one pass over its terms: the series of
        each term's sin or cos of k x (``_trig_series`` with slope k), times
        its amplitude, added to [a0, 0, ...] one by one in the order the
        tree adds them, by a running sum down the rows; these are the
        tree's own operations, so its bits.

        The tree's products sum from +0.0, so no term of it carries a -0,
        and a zero a0 reads +0 once a term is added: a0 + 0.0 gives that.
        """
        rows = np.zeros((len(self.args) + 1, order + 1), dtype=dtype)
        if not self.args:
            rows[0, 0] = self.value
            return rows[0]
        rows[0, 0] = self.value + 0.0
        ks, amps = np.array([(k, amp) for k, amp, _ in self.args],
                            dtype=dtype).T
        shifts = tuple(_UNARY.index(fn) for _, _, fn in self.args)
        powers = _slope_powers(tuple(k for k, _, _ in self.args), order + 1,
                               dtype)
        series = _trig_series(ks * dtype.type(x), shifts, order + 1, powers)
        np.multiply(series, amps[:, None], out=rows[1:])
        return np.add.accumulate(rows)[-1]

    # serialization

    def to_dict(self):
        op = self.op
        if op == "trig_poly":  # the file format knows the tree it stands for
            f = AnalyticFn.const(self.value)
            x = AnalyticFn.x()
            for k, amp, fn in self.args:
                f = f + AnalyticFn.const(amp) * getattr(AnalyticFn.const(k) * x, fn)()
            return f.to_dict()
        if op == "const":
            return {"op": "const", "value": self.value}
        if op == "x":
            return {"op": "x"}
        if op in _BINARY:
            return {"op": op, "args": [a.to_dict() for a in self.args]}
        if op in _UNARY:
            return {"op": op, "arg": self.args[0].to_dict()}
        if op == "pow":
            return {"op": "pow", "arg": self.args[0].to_dict(), "exponent": self.value}
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def from_dict(node):
        """The tree a JSON node stands for; ValueError for an unknown op, a
        number that is not a finite JSON number, or a tree more than
        ``_MAX_DEPTH`` nodes deep."""
        def build(node, depth):
            if depth > _MAX_DEPTH:
                raise ValueError("coefficient tree nested more than "
                                 f"{_MAX_DEPTH} nodes deep")
            op = node["op"]
            if op == "const":
                return AnalyticFn.const(_finite_number(node["value"]))
            if op == "x":
                return AnalyticFn.x()
            if op in _BINARY:
                a, b = (build(n, depth + 1) for n in node["args"])
                return AnalyticFn(op, (a, b))
            if op in _UNARY:
                return AnalyticFn(op, (build(node["arg"], depth + 1),))
            if op == "pow":
                return AnalyticFn("pow", (build(node["arg"], depth + 1),),
                                  value=_finite_number(node["exponent"]))
            raise ValueError(f"unknown op {op!r}")

        return build(node, 1)


def _json_number(value, what):
    """value, a number read from JSON; ValueError for anything else, a
    bool, a string or null included, which float() would coerce."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    return value


def _finite_number(value):
    """A coefficient tree's number as a float; ValueError unless it is a
    finite JSON number."""
    value = float(_json_number(value, "a coefficient tree's number"))
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value} in a coefficient tree")
    return value


def trig_poly(a0, harmonics):
    """a0 + sum_k (c_k cos(kx) + s_k sin(kx)); harmonics = [(c_1, s_1), ...].

    Integer harmonics only, so the result is honestly 2*pi-periodic.  One
    node holds a0 and the nonzero terms, (k, c_k, "cos") before
    (k, s_k, "sin"), and evaluates them in closed form; it stands for, and
    writes to JSON as, the tree a0 + c_1 cos(1 x) + s_1 sin(1 x) + ...
    added left to right.
    """
    terms = []
    for k, (ck, sk) in enumerate(harmonics, start=1):
        if ck:
            terms.append((k, float(ck), "cos"))
        if sk:
            terms.append((k, float(sk), "sin"))
    return AnalyticFn("trig_poly", terms, value=float(a0))


def eval_jet(f, x, order, dtype=np.float64):
    """Taylor coefficients of an AnalyticFn at x, (order+1,): coefficient k
    is f^(k)(x)/k! to roundoff.

    x is a number, or a 1-D array of P points, which gives (order+1, P)
    coefficients, column p the jet at x[p]: the tree is walked once per
    point.  A trig-polynomial node is one step of the walk, its terms all
    taken at once in closed form.
    """
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    dtype = np.dtype(dtype)
    if np.ndim(x) == 0:
        return f._coeffs(x, order, dtype)
    return np.stack([f._coeffs(p, order, dtype) for p in x], axis=1)


# ---------------------------------------------------------------------------
# linear algebra over series


def jet_solver(a):
    """Factor a square matrix jet (K+1, ..., n, n) once; returns solve(b),
    which gives the solution's coefficients.

    The tail may stack matrices ahead of the last two axes; each is solved
    on its own, all of them in one stacked call per order.  b is a vector
    jet (K+1, ..., n) or a matrix jet (K+1, ..., n, m) over the same stack;
    the solution has the shape of b and the smaller of the two orders.
    Solves order by order against the constant-term matrices, so pivoting
    sees constant terms only.
    """
    return jet_factor(a)[0]


def jet_factor(a):
    """(solve, (sign, logdet)): jet_solver's solve and the determinant of
    each constant-term matrix, as (sign, log|det|) of shape (...), both
    from the one factorization of the constant terms."""
    try:
        solve0 = linalg.stack_solver(a[0])
    except linalg.SingularMatrixError as exc:
        raise DegenerateSystem(str(exc)) from exc

    def solve(b):
        bc = b[: a.shape[0]]
        vector = bc.ndim == a.ndim - 1
        if vector:
            bc = bc[..., None]
        x = np.empty(bc.shape, dtype=np.result_type(a.dtype, bc.dtype))
        # work[0] = b_m, work[k] = a_k x_(m-k): one stacked matmul per order,
        # then b_m - a_1 x_(m-1) - ... - a_m x_0 subtracted in order of k
        work = np.empty_like(x)
        for m in range(bc.shape[0]):
            work[0] = bc[m]
            if m:
                np.matmul(a[1:m + 1], x[m - 1::-1], out=work[1:m + 1])
            solve0(np.subtract.reduce(work[:m + 1], axis=0), out=x[m])
        return x[..., 0] if vector else x

    return solve, solve0.slogdet
