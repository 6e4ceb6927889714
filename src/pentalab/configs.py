"""Node configurations for intersection maps.

A configuration is a family of groups of real offsets {p_{i,j}}.  Group i
spans a (q_i)-dimensional subspace from q_i + 1 curve points; the group
codimensions must add up to the ambient dimension d so that the intersection
is generically a single point.  The named families, the elementary-symmetric
tables, and the small linear system tying group data to the leading expansion
coefficients all live here; nothing in this module touches a curve.
"""

import json
import math

import numpy as np

from . import linalg
from .jets import _json_number

_TOP_RTOL = 1e-12


class ChiConfig:
    """Ambient dimension d plus groups of distinct, finite node offsets."""

    def __init__(self, d, groups):
        self.d = int(d)
        gs = []
        for g in groups:
            g = tuple(sorted(float(v) for v in g))
            if not all(math.isfinite(v) for v in g):
                raise ValueError(f"non-finite node in group {g}")
            if len(g) < 2:
                raise ValueError("every group needs at least two nodes")
            if len(set(g)) != len(g):
                raise ValueError(f"repeated node in group {g}")
            gs.append(g)
        self.groups = tuple(gs)
        codim = sum(self.d - self.q(i) for i in range(len(gs)))
        if codim != self.d:
            raise ValueError(
                f"group codimensions sum to {codim}, need exactly d = {self.d}")

    def q(self, i):
        """Subspace dimension spanned by group i."""
        return len(self.groups[i]) - 1

    @property
    def r(self):
        return len(self.groups)

    def is_hyperplane(self):
        return all(self.q(i) == self.d - 1 for i in range(self.r))

    def shift(self, delta):
        return ChiConfig(self.d, [[p + delta for p in g] for g in self.groups])

    def to_dict(self):
        return {"d": self.d, "groups": [list(g) for g in self.groups]}

    @staticmethod
    def from_dict(obj):
        d = obj["d"]
        if type(d) is not int:  # a JSON integer: not a bool, float or string
            raise ValueError(f"d must be an integer, not {d!r}")
        return ChiConfig(d, [[_json_number(p, "a node") for p in g]
                             for g in obj["groups"]])

    @staticmethod
    def load(path):
        with open(path) as fh:
            return ChiConfig.from_dict(json.load(fh))

    def __repr__(self):
        return f"ChiConfig(d={self.d}, groups={[list(g) for g in self.groups]})"

    def __eq__(self, other):
        return (isinstance(other, ChiConfig)
                and self.d == other.d and self.groups == other.groups)


# -- named families -----------------------------------------------------------


def short_diagonal_chi(d):
    """Every-other-node hyperplane family; the even case carries the -1/2
    node shift that makes the construction symmetric under sign flip of the
    step parameter."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d % 2:
        kappa = (d - 1) // 2
        starts = [i - 2 * kappa for i in range(-kappa, kappa + 1)]
    else:
        kappa = d // 2
        starts = [(i - 0.5) - (2 * kappa - 1) for i in range(-kappa + 1, kappa + 1)]
    return ChiConfig(d, [[s + 2 * j for j in range(d)] for s in starts])


def evenly_spaced_chi(p, r_step, d):
    """d hyperplane groups obtained by translating the node set p by i*r_step."""
    p = [float(v) for v in p]
    if len(p) != d:
        raise ValueError(f"need {d} base nodes, got {len(p)}")
    if r_step == 0:
        raise ValueError("zero step collapses all groups onto each other")
    return ChiConfig(d, [[v + i * r_step for v in p] for i in range(d)])


def dual_dented_chi(d, s, variant="full"):
    """Consecutive-node hyperplanes with the (d-s)-th one skipped, or the
    equivalent two-group reduction."""
    if not 1 <= s <= d - 1:
        raise ValueError("need 1 <= s <= d-1")
    if variant == "full":
        groups = [[i + j for j in range(d)] for i in range(d + 1) if i != d - s]
    elif variant == "reduced":
        groups = [list(range(d - s - 1, d)), list(range(d, 2 * d - s + 1))]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ChiConfig(d, groups)


def dual_dented_shift(d, s):
    """The node translation that centralizes the dual dented family."""
    return 1.0 - d - s / d


# -- symmetric-polynomial machinery -------------------------------------------


def elementary_symmetric(nodes):
    """All e_0..e_n of the node multiset, one node at a time (high index
    first so the update does not alias)."""
    e = np.zeros(len(nodes) + 1)
    e[0] = 1.0
    for p in nodes:
        for j in range(len(nodes), 0, -1):
            e[j] += p * e[j - 1]
    return e


class SymTable:
    """sigma[i][j] = j-th elementary symmetric polynomial of group i."""

    def __init__(self, chi):
        self.chi = chi
        self.sigma = [elementary_symmetric(g) for g in chi.groups]

    def get(self, i, j):
        return self.sigma[i][j]

    def top(self):
        """The degree-(group size) polynomial of each group."""
        return np.array([s[-1] for s in self.sigma])

    def tops_agree(self):
        """Whether every group's top polynomial equals the first one, to a
        relative _TOP_RTOL of the largest."""
        top = self.top()
        scale = max(np.max(np.abs(top)), 1e-30)
        return bool(np.max(np.abs(top - top[0])) <= _TOP_RTOL * scale)


# -- closed-form centralization data ------------------------------------------


def assemble_M0_c0(chi):
    """The d x d system tying a hyperplane config's groups to the diagonal
    expansion coefficients: row i is built from group i's symmetric
    polynomials, the unknowns are (alpha_{1,1}, ..., alpha_{d,d})."""
    if not chi.is_hyperplane():
        raise ValueError("closed-form system needs hyperplane groups (size d)")
    d = chi.d
    table = SymTable(chi)
    m0 = np.empty((d, d))
    c0 = np.empty(d)
    for i in range(d):
        c0[i] = table.get(i, d)
        for j in range(1, d + 1):
            m0[i, j - 1] = (-1) ** (j + 1) * math.factorial(j) * table.get(i, d - j)
    return m0, c0


def solve_alpha_diag(chi):
    """(alpha_{1,1}, ..., alpha_{d,d}) for a hyperplane config."""
    m0, c0 = assemble_M0_c0(chi)
    return linalg.stack_solver(m0)(c0)
