"""Truncated pseudodifferential operators with jet coefficients.

An operator is a finite sum c_k D^k, floor <= k <= order, whose
coefficients are jets of functions at the working point.  Composition uses
the Leibniz rule extended by generalized binomials, so negative powers of D
produce the usual infinite tails, cut at the floor.  Powers of D dropped by
the cut can only influence degrees at or below the floor, which is what
makes the truncated ring usable for root extraction and commutators.

(R^m)_+ reads only the root's degrees 0 ... 1 - m, so `q_m` builds the root
only that deep; the deep default of `psdo_root` is the power-back reference.
"""

import numpy as np

from .jets import Jet

# Taylor order of the u-jets that the hierarchy checks build L from
JET_ORDER = 24


class CommutatorResidue(RuntimeError):
    """[Q_m, L] kept a term at degree d or above: the operator arithmetic broke."""


def _binom(k, n):
    """Generalized binomial C(k, n) for integer k of either sign."""
    out = 1.0
    for j in range(n):
        out = out * (k - j) / (j + 1)
    return out


def _zero_like(op):
    order = max((c.order for c in op.coeff.values()), default=0)
    return Jet.const(0.0, order)


class PseudoDiffOp:
    """Sum of c_k D^k between the truncation floor and the top degree."""

    __slots__ = ("floor", "coeff")

    def __init__(self, coeff, floor):
        self.floor = int(floor)
        self.coeff = {int(k): c for k, c in coeff.items() if int(k) >= self.floor}

    @property
    def order(self):
        return max(self.coeff) if self.coeff else self.floor

    def coefficient(self, k):
        c = self.coeff.get(int(k))
        return c if c is not None else _zero_like(self)

    def differential_part(self):
        return PseudoDiffOp({k: c for k, c in self.coeff.items() if k >= 0},
                            self.floor)

    def with_floor(self, floor):
        """Rehome the operator at another floor (raising it truncates)."""
        return PseudoDiffOp(self.coeff, floor)

    def _check_compatible(self, other):
        if not isinstance(other, PseudoDiffOp):
            raise TypeError("expected a PseudoDiffOp")
        if other.floor != self.floor:
            raise ValueError("operands carry different truncation floors")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeff)
        for k, c in other.coeff.items():
            out[k] = out[k] + c if k in out else c
        return PseudoDiffOp(out, self.floor)

    def __neg__(self):
        return PseudoDiffOp({k: -c for k, c in self.coeff.items()}, self.floor)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return psdo_mul(self, other)

    def to_dict(self):
        return {
            "floor": self.floor,
            "coeff": {str(k): [float(v) for v in self.coeff[k].c]
                      for k in sorted(self.coeff)},
        }

    def __repr__(self):
        parts = []
        for k in sorted(self.coeff, reverse=True):
            v = self.coeff[k].value
            if v == 0:
                continue
            parts.append(f"({v:.6g})*D^{k}" if k else f"({v:.6g})")
        body = " + ".join(parts) if parts else "0"
        return f"PseudoDiffOp[{body}; floor={self.floor}]"


def psdo_mul(a, b):
    """Leibniz-composition product, truncated at the common floor."""
    a._check_compatible(b)
    floor = a.floor
    derivs = {}
    for kb, cb in b.coeff.items():
        derivs[kb] = [cb]
    out = {}
    for ka, ca in a.coeff.items():
        for kb, cb in b.coeff.items():
            chain = derivs[kb]
            for n in range(ka + kb - floor + 1):
                w = _binom(ka, n)
                if w == 0.0:
                    break  # nonnegative ka: Leibniz terminates at n = ka
                while len(chain) <= n:
                    last = chain[-1]
                    if last.order == 0:
                        raise ValueError(
                            "coefficient jets too shallow for this floor")
                    chain.append(last.derivative())
                term = ca * chain[n]
                if w != 1.0:
                    term = term * w
                deg = ka - n + kb
                out[deg] = out[deg] + term if deg in out else term
    return PseudoDiffOp(out, floor)


def psdo_pow(a, m):
    if m < 1:
        raise ValueError("power must be a positive integer")
    out = a
    for _ in range(m - 1):
        out = psdo_mul(out, a)
    return out


def l_operator(u_jets):
    """The normalized operator D^{d+1} + u_{d-1} D^{d-1} + ... + u_0."""
    d = len(u_jets)
    order = max(c.order for c in u_jets)
    coeff = {i: u_jets[i] for i in range(d)}
    coeff[d + 1] = Jet.const(1.0, order)
    return PseudoDiffOp(coeff, -(d + 3))


def psdo_root(L, depth=None):
    """The root R = D + b_0 + ... + b_{-depth} D^{-depth} of L, R^p = L.

    Matched degree by degree, p = L.order: when R is correct above degree g,
    L - R^p starts at degree p - 1 + g with coefficient p * b_g.  The floor
    sits p - 1 below the last degree, under every degree the matching reads;
    the default depth carries the power-back identity down to L's floor.
    """
    p = L.order
    if depth is None:
        depth = p - 1 - L.floor
    floor_r = -depth - (p - 1)
    deep = L.with_floor(floor_r)
    order = max(c.order for c in L.coeff.values())
    root = PseudoDiffOp({1: Jet.const(1.0, order)}, floor_r)
    for g in range(0, -depth - 1, -1):
        err = deep - psdo_pow(root, p)
        c = err.coefficient(p - 1 + g)
        bump = PseudoDiffOp({g: c * (1.0 / p)}, floor_r)
        root = root + bump
    return root


def q_m(L, m):
    """Differential part of R^m, R the root of L built only m - 1 deep."""
    if m < 1:
        raise ValueError("need m >= 1")
    return psdo_pow(psdo_root(L, m - 1), m).differential_part()


def kdv_rhs(L, m):
    """Coefficient jets of D^0..D^{d-1} in [Q_m, L].

    The commutator is differential of order at most d - 1; whatever the
    algebra leaves at degree d and above must be numerical dust, and a
    residue above 1e-11 means the operator arithmetic itself broke.
    """
    d = L.order - 1
    q = q_m(L, m).with_floor(L.floor)
    comm = psdo_mul(q, L) - psdo_mul(L, q)
    for k, c in comm.coeff.items():
        if k >= d and np.max(np.abs(c.c)) > 1e-11:
            raise CommutatorResidue(
                f"commutator coefficient at degree {k} is nonzero")
    return [comm.coefficient(i) for i in range(d)]
