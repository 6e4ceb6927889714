"""Truncated pseudodifferential operators over Taylor coefficient arrays.

An operator is a finite sum c_k D^k, floor <= k <= order, held as one array
``c`` of shape (order - floor + 1, K+1) in the dtype of its input: row
k - floor holds the Taylor coefficients of c_k at the working point, in the
derivative/k! convention of ``jets``.  Every derivative costs a coefficient
one Taylor order, so each row keeps its own valid order (``valid``); the
entries past it are never read.  Composition uses the Leibniz rule extended
by generalized binomials, so negative powers of D produce the usual infinite
tails, cut at the floor.  Powers of D dropped by the cut can only influence
degrees at or below the floor, which is what makes the truncated ring usable
for root extraction and commutators.  A product is one contraction against
a cached table of the nonzero Leibniz terms.

(R^m)_+ reads only the root's degrees 0 ... 1 - m, so `q_m` builds the root
only that deep; the deep default of `psdo_root` is the power-back reference.
"""

import functools
import math

import numpy as np

from .jets import _falling

# Taylor order of the u-jets that the hierarchy checks build L from
JET_ORDER = 24


class CommutatorResidue(RuntimeError):
    """[Q_m, L] kept a term at degree d or above: the operator arithmetic broke."""


class PseudoDiffOp:
    """Sum of c_k D^k: row k - floor of c holds c_k's Taylor coefficients,
    the first valid[k - floor] + 1 of them exact to roundoff."""

    __slots__ = ("floor", "c", "valid")

    def __init__(self, c, floor, valid):
        self.floor = int(floor)
        self.c = c
        self.valid = valid

    @property
    def order(self):
        return self.floor + len(self.c) - 1

    def coefficient(self, k):
        """The valid Taylor coefficients of c_k, floor <= k <= order."""
        if not self.floor <= k <= self.order:
            raise IndexError(f"degree {k} outside {self.floor}..{self.order}")
        return self.c[k - self.floor, : self.valid[k - self.floor] + 1]

    def differential_part(self):
        return self.with_floor(0)

    def with_floor(self, floor):
        """Rehome the operator at another floor (raising it truncates)."""
        drop = floor - self.floor
        if drop >= 0:
            return PseudoDiffOp(self.c[drop:], floor, self.valid[drop:])
        return PseudoDiffOp(np.pad(self.c, ((-drop, 0), (0, 0))), floor,
                            np.pad(self.valid, (-drop, 0),
                                   constant_values=self.c.shape[1] - 1))

    def __sub__(self, other):
        if (other.floor, other.order) != (self.floor, self.order):
            raise ValueError("operands span different degrees")
        return PseudoDiffOp(self.c - other.c, self.floor,
                            np.minimum(self.valid, other.valid))


@functools.lru_cache(maxsize=None)
def _leibniz(floor, top_a, top_b, order):
    """Read-only table of the nonzero terms C(ka, n) a_ka D^n(b_kb)
    D^(ka+kb-n) of a product on degrees floor..top_a times floor..top_b.

    Terms run by product row r, then row i of a.  Per term: i, the row of
    b, n, and the columns of b's row (zero-padded) that give D^n b_kb with
    their weights C(ka, n) (m+n)!/m!.  Then the first term of each (r, i)
    group and its slot r * (rows of a) + i, and the first term of each r.
    """
    terms = []
    for i in range(top_a - floor + 1):
        ka = floor + i
        for j in range(top_b - floor + 1):
            for n in range(ka + j + 1):
                w = math.prod(range(ka, ka - n, -1)) // math.factorial(n)
                if w == 0:
                    break  # nonnegative ka: Leibniz terminates at n = ka
                terms.append((ka + j - n, i, j, n, w))
    terms.sort(key=lambda t: t[:2])
    r, i, j, n, w = (np.array(col) for col in zip(*terms))
    cols = n[:, None] + np.arange(order + 1)
    weights = w[:, None] * _falling(cols.max(), np.float64)[n[:, None], cols]
    slot = r * (top_a - floor + 1) + i
    groups = np.flatnonzero(np.diff(slot, prepend=-1))
    table = (i, j, n, cols, weights, groups, slot[groups],
             np.flatnonzero(np.diff(r, prepend=-1)))
    for part in table:
        part.flags.writeable = False
    return table


def psdo_mul(a, b):
    """Leibniz-composition product, truncated at the common floor."""
    if a.floor != b.floor:
        raise ValueError("operands carry different truncation floors")
    floor, order, rows_a = a.floor, a.c.shape[1] - 1, len(a.c)
    ia, jb, n, cols, weights, groups, slots, rows = _leibniz(
        floor, a.order, b.order, order)
    b_pad = np.zeros((len(b.c), cols.max() + 1), dtype=b.c.dtype)
    b_pad[:, : order + 1] = b.c
    # met[r, i]: the shifted rows of b that row i of a convolves with on
    # product row r, summed; zero where no term lands
    met = np.zeros((len(rows) * rows_a, order + 1), dtype=b.c.dtype)
    met[slots] = np.add.reduceat(b_pad[jb[:, None], cols] * weights, groups)
    # row k of a's Toeplitz block i holds a_i's coefficient m - k at m
    a_pad = np.zeros((rows_a, 2 * order + 1), dtype=a.c.dtype)
    a_pad[:, order:] = a.c
    m = np.arange(order + 1)
    toeplitz = a_pad[:, order + m - m[:, None]].reshape(-1, order + 1)
    valid = np.minimum.reduceat(np.minimum(a.valid[ia], b.valid[jb] - n), rows)
    if valid.min() < 0:
        raise ValueError("coefficient jets too shallow for this floor")
    return PseudoDiffOp(np.dot(met.reshape(len(rows), -1), toeplitz), floor,
                        valid)


def psdo_pow(a, m):
    if m < 1:
        raise ValueError("power must be a positive integer")
    return functools.reduce(psdo_mul, [a] * m)


def l_operator(u):
    """The normalized operator D^{d+1} + u_{d-1} D^{d-1} + ... + u_0 from
    the Taylor coefficients of the u_i, an array (K+1, d)."""
    d, floor = u.shape[1], -(u.shape[1] + 3)
    c = np.zeros((d + 2 - floor, len(u)), dtype=u.dtype)
    c[-floor : d - floor] = u.T
    c[-1, 0] = 1
    return PseudoDiffOp(c, floor, np.full(len(c), len(u) - 1))


def psdo_root(L, depth=None):
    """The root R = D + b_0 + ... + b_{-depth} D^{-depth} of L, R^p = L.

    Matched degree by degree, p = L.order: when R is correct above degree g,
    L - R^p starts at degree p - 1 + g with coefficient p * b_g.  A cut at
    floor f changes R^k, for an R with no row below f, at degrees up to
    f + k - 3 only.  So the pass for b_g cuts at g + 1, and the root sits at
    floor -depth: that keeps R^p exact down to L's floor under the default
    depth, and (R^m)_+ exact for any depth of at least m - 1.
    """
    p = L.order
    if depth is None:
        depth = p - 1 - L.floor
    deep = L.with_floor(-depth)
    c = np.zeros((depth + 2, L.c.shape[1]), dtype=L.c.dtype)
    c[-1, 0] = 1
    valid = np.full(len(c), L.c.shape[1] - 1)
    for i in range(depth, -1, -1):  # row i holds b_{i - depth}
        top = psdo_pow(PseudoDiffOp(c[i + 1:], i + 1 - depth, valid[i + 1:]), p)
        c[i] = (deep.c[p - 1 + i] - top.c[p - 2]) * (1.0 / p)
        valid[i] = min(deep.valid[p - 1 + i], top.valid[p - 2])
    return PseudoDiffOp(c, -depth, valid)


def q_m(L, m):
    """Differential part of R^m, R the root of L built only m - 1 deep."""
    if m < 1:
        raise ValueError("need m >= 1")
    return psdo_pow(psdo_root(L, m - 1), m).differential_part()


def kdv_rhs(L, m):
    """[Q_m, L] as the differential operator on degrees 0..d-1 it must be.

    Both factors are differential, so their products need no negative
    degree.  Whatever the algebra leaves at degree d and above must be
    numerical dust; a residue above 1e-11 means the arithmetic broke.
    """
    d = L.order - 1
    q, L = q_m(L, m), L.differential_part()
    comm = psdo_mul(q, L) - psdo_mul(L, q)
    for k in range(d, comm.order + 1):
        if np.max(np.abs(comm.coefficient(k))) > 1e-11:
            raise CommutatorResidue(f"commutator coefficient at degree {k} is nonzero")
    return PseudoDiffOp(comm.c[:d], 0, comm.valid[:d])
