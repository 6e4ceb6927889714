"""The benchmark's workloads: pentalab command lines and how each is scored.

An op is one ``pentalab`` command line run through ``pentalab.cli.main``.
Each op carries the verdict it is expected to reach, and the workload seed
picks its parameters, each op from its own stream:

- op classes that passed with a clear margin on every seed of a scan draw
  their parameters (curve seed, working point, node set) freely and are
  expected to pass;
- op classes whose verdict depends on the curve draw one instance from a
  pool of instances measured once each (``POOLS``), and expect the verdict
  that instance reached;
- the documented defects are fixed reproducers, the same command line in
  every run.

See README.md for the scan.

Scoring recomputes each gated quantity from the report against a public
closed form or the acceptance tolerance, written out here rather than taken
from the package, so a change to the package cannot move its own target.
"""

import json
import math
import os
import zlib

import numpy as np

A11_TOL = 1e-3        # |alpha_11| of a centralized configuration
A22_TOL = 2e-3        # |alpha_22 - 3/8| for short-diagonal d = 2
KDV_TOL = 1e-3        # kdv-verify deviation
G12_TOL = 1e-4        # realize34 g1_norm, g2_norm
G3_TOL = 1e-3         # realize34 g3_match
DEV_FLOOR = 1e-15     # deviations below this count as this, for margins

# lax-verify report field -> tolerance, as gated by the command
LAX_TOLS = {"conj_limit_dev": 1e-3, "identity_max": 1e-9,
            "quot_lhs_dev": 2e-2, "quot_rhs_dev": 2e-2, "p0_eps1": 1e-4,
            "p0_v_dev": 1e-3}
LAX_SLOPE_TOL = 0.2   # |conj_slope - 1|

# Verdicts, best first.  pass: exit 0 and every gated quantity within its
# tolerance.  reject: exit 1, the program reports its own failure.  wrong:
# exit 0 with a gated quantity outside its tolerance or no readable report,
# a silent wrong answer.  crash: the op raised, or exited with any other
# code (2 is an unusable command line).
VERDICTS = ("pass", "reject", "wrong", "crash")


class Op:
    """One command line, its label and the verdict it is expected to reach.

    gates(report) returns {quantity: (deviation, tolerance)} recomputed
    from the report.  defect names the documented defect a reproducer
    shows, or is None.
    """

    __slots__ = ("name", "argv", "gates", "expect", "defect")

    def __init__(self, name, argv, gates, expect="pass", defect=None):
        if expect not in VERDICTS:
            raise ValueError(f"unknown verdict {expect!r}")
        self.name = name
        self.argv = [str(a) for a in argv]
        self.gates = gates
        self.expect = expect
        self.defect = defect


def worse(verdict, expected):
    """True when verdict ranks below the expected one."""
    return VERDICTS.index(verdict) > VERDICTS.index(expected)


# -- gates ------------------------------------------------------------------


def _alpha(report, k, j):
    return float(report["alpha"][k][j])


def centralized_gates(report):
    return {"a11": (abs(_alpha(report, 1, 1)), A11_TOL)}


def short_diagonal2_gates(report):
    return {"a11": (abs(_alpha(report, 1, 1)), A11_TOL),
            "a22-3/8": (abs(_alpha(report, 2, 2) - 0.375), A22_TOL)}


def evenly_spaced_gates(p, r_step, d):
    # alpha_11 = (sum(p) + C(d, 2) r) / d for the evenly spaced family
    closed = (sum(p) + math.comb(d, 2) * r_step) / d

    def gates(report):
        return {"a11-closed": (abs(_alpha(report, 1, 1) - closed), A11_TOL)}
    return gates


def kdv_gates(report):
    return {"deviation": (float(report["deviation"]), KDV_TOL)}


def centralize_gates(report):
    return {"alpha11": (abs(float(report["alpha11"])), A11_TOL)}


def realize_gates(report):
    return {"g1_norm": (float(report["g1_norm"]), G12_TOL),
            "g2_norm": (float(report["g2_norm"]), G12_TOL),
            "g3_match": (float(report["g3_match"]), G3_TOL)}


def lax_gates(report):
    out = {k: (float(report[k]), tol) for k, tol in LAX_TOLS.items()}
    out["conj_slope"] = (abs(float(report["conj_slope"]) - 1.0), LAX_SLOPE_TOL)
    return out


def margin(deviation, tolerance):
    """Decades between a deviation (floored) and its tolerance."""
    return math.log10(tolerance / max(deviation, DEV_FLOOR))


# -- op lists ---------------------------------------------------------------


class _Draw:
    """Parameters of one seeded op, from its own stream of the workload
    seed, so adding or removing an op leaves the others unchanged."""

    def __init__(self, seed, name):
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])

    def seed(self):
        return int(self.rng.integers(0, 100_000))

    def x(self, lo=0.1, hi=0.6):
        return float(self.rng.uniform(lo, hi))


FAR_POINT = "far working point (ROADMAP item 4)"
KDV_D3 = "kdv-verify d = 3 above its tolerance"
LAX_D3 = "lax-verify d = 3 gated with the d = 2 checks"


def _expand(d, seed, x, kmax, extra=()):
    return ["expand", "--chi", "short-diagonal", "--d", d, "--seed", seed,
            "--x", x, "--kmax", kmax, *extra]


def _kdv(d, seed, x):
    return ["kdv-verify", "--chi", "short-diagonal", "--d", d,
            "--seed", seed, "--x", x]


def _lax(d, seed, x):
    return ["lax-verify", "--chi", "short-diagonal", "--d", d,
            "--seed", seed, "--x", x]


def _evenly_spaced(rng, d):
    """Node set and step with a clearly nonzero closed-form alpha_11."""
    while True:
        p = np.sort(rng.uniform(-1.1, 1.1, size=d))
        r_step = float(rng.uniform(0.5, 1.0))
        if np.min(np.diff(p)) >= 0.3 \
                and abs(sum(p) + math.comb(d, 2) * r_step) / d >= 0.05:
            return [float(v) for v in p], r_step


# Instances from the scan in README.md, each run twice, with the verdict
# each reached.  Instances within 0.1 decades of a tolerance were left out:
# a verdict that close can flip on roundoff.
POOLS = {
    # probe seed of realize34 --chi integer-instance
    "realize34-integer": [
        (58816, "pass"), (677, "pass"), (9330, "pass"), (28833, "pass"),
        (64793, "pass"), (7662, "pass"), (14970, "pass"), (40127, "pass"),
        (89545, "pass"), (23060, "pass"), (83971, "pass"), (6220, "pass"),
        (39328, "pass"), (94633, "pass"), (778, "pass"), (14140, "reject"),
        (41088, "pass"), (60258, "pass"), (66543, "pass")],
    # curve seed of kdv-verify d = 3 at x = 0.3
    "kdv-verify-d3": [
        (0, "reject"), (1, "reject"), (2, "pass"), (3, "pass"),
        (5, "reject"), (6, "reject"), (7, "pass"), (8, "reject"),
        (9, "pass"), (10, "reject"), (11, "reject"), (13, "pass"),
        (14, "pass"), (15, "reject")],
    # curve seed of expand d = 2 at x = 10
    "expand-far-d2": [(s, "pass") for s in range(10)],
    # curve seed of expand d = 3 at x = 15.  Seeds 6, 7 and 9 reject in
    # about 1.0 s where the others take 1.6 s, which would make the op's
    # cost swing with the seed; defect-far-d3-seed23 rejects in every run.
    "expand-far-d3": [
        (0, "pass"), (1, "pass"), (2, "wrong"), (3, "wrong"), (4, "pass"),
        (5, "pass"), (8, "wrong")],
    # (curve seed, x) of lax-verify d = 2
    "lax-verify-d2": [
        ((18852, 0.42389860468383855), "pass"),
        ((85099, 0.14615366570236513), "pass"),
        ((81106, 0.5162195302814352), "pass"),
        ((62578, 0.5575058419430021), "pass"),
        ((31247, 0.458069758168721), "pass"),
        ((60657, 0.4941091906351128), "pass"),
        ((15349, 0.42027396530521366), "pass"),
        ((767, 0.19511900845066774), "pass"),
        ((54733, 0.13285571099657714), "pass"),
        ((82681, 0.3973584170712948), "pass"),
        ((64787, 0.25101559055116063), "pass"),
        ((61738, 0.5180157211960894), "pass")],
    # curve seed of lax-verify d = 3 at x = 0.3
    "lax-verify-d3": [(1, "reject"), (2, "pass"), (3, "reject")],
    # general_curve seed of kdv-verify d = 2 at x = 0.3, both precisions
    "general-kdv-d2": [(s, "pass") for s in range(12)],
    # general_curve seed of kdv-verify d = 3 at x = 0.3, both precisions
    "general-kdv-d3": [(s, "pass" if s == 5 else "reject")
                       for s in range(12)],
}


def _pick(seed, name, pool):
    """(parameters, expected verdict) of the pool entry op name runs."""
    entries = POOLS[pool]
    return entries[int(_Draw(seed, name).rng.integers(len(entries)))]


def _defect(verdict, defect):
    """The defect a pooled op shows, if its expected verdict is no pass."""
    return defect if verdict != "pass" else None


def scalar_ops(seed, workdir):
    ops = []
    for d, kmax in ((2, 4), (3, 3), (4, 2)):
        name = f"expand-sd-d{d}"
        draw = _Draw(seed, name)
        ops.append(Op(name, _expand(d, draw.seed(), draw.x(), kmax),
                      short_diagonal2_gates if d == 2 else centralized_gates))
    draw = _Draw(seed, "expand-evenly-d2")
    p, r_step = _evenly_spaced(draw.rng, 2)
    ops.append(Op("expand-evenly-d2",
                  ["expand", "--chi", "evenly-spaced", "--d", 2,
                   "--p", *p, "--r-step", r_step,
                   "--seed", draw.seed(), "--x", draw.x(), "--kmax", 3],
                  evenly_spaced_gates(p, r_step, 2)))
    draw = _Draw(seed, "expand-dual-dented-d3")
    ops.append(Op("expand-dual-dented-d3",
                  ["expand", "--chi", "dual-dented", "--d", 3,
                   "--s", int(draw.rng.integers(1, 3)), "--shift", "auto",
                   "--seed", draw.seed(), "--x", draw.x(), "--kmax", 3],
                  centralized_gates))
    draw = _Draw(seed, "kdv-verify-d2")
    ops.append(Op("kdv-verify-d2", _kdv(2, draw.seed(), draw.x()),
                  kdv_gates))
    draw = _Draw(seed, "centralize-d2")
    xs = sorted(float(v) for v in draw.rng.uniform(-0.5, 1.2, size=3))
    ops.append(Op("centralize-d2",
                  ["centralize", "--chi", "short-diagonal", "--d", 2,
                   "--seed", draw.seed(), "--x", *xs],
                  centralize_gates))
    # pooled
    probe_seed, verdict = _pick(seed, "realize34-integer",
                                "realize34-integer")
    ops.append(Op("realize34-integer",
                  ["realize34", "--chi", "integer-instance", "--probes", 3,
                   "--seed", probe_seed],
                  realize_gates, verdict,
                  _defect(verdict, "realize34 g3_match above its tolerance")))
    curve, verdict = _pick(seed, "kdv-verify-d3", "kdv-verify-d3")
    ops.append(Op("kdv-verify-d3", _kdv(3, curve, 0.3), kdv_gates, verdict,
                  _defect(verdict, KDV_D3)))
    curve, verdict = _pick(seed, "expand-far-d2", "expand-far-d2")
    ops.append(Op("expand-far-d2", _expand(2, curve, 10.0, 2),
                  short_diagonal2_gates, verdict, _defect(verdict, FAR_POINT)))
    curve, verdict = _pick(seed, "expand-far-d3", "expand-far-d3")
    ops.append(Op("expand-far-d3", _expand(3, curve, 15.0, 2),
                  centralized_gates, verdict, _defect(verdict, FAR_POINT)))
    # documented reproducers, identical in every run
    ops += [
        Op("defect-far-d2-seed5", _expand(2, 5, 20.0, 2),
           short_diagonal2_gates, "reject", FAR_POINT),
        Op("defect-far-d3-seed23", _expand(3, 23, 20.0, 2),
           centralized_gates, "reject", FAR_POINT),
        Op("defect-realize34-r-root-readme",
           ["realize34", "--chi", "r-root", "--root-index", 0,
            "--probes", 3, "--seed", 23],
           realize_gates, "reject", "README r-root example"),
    ]
    return ops


def lax_ops(seed, workdir):
    ops = []
    for name in ("lax-verify-d2-a", "lax-verify-d2-b"):
        (curve, x), verdict = _pick(seed, name, "lax-verify-d2")
        ops.append(Op(name, _lax(2, curve, x), lax_gates, verdict))
    curve, verdict = _pick(seed, "lax-verify-d3", "lax-verify-d3")
    ops.append(Op("lax-verify-d3", _lax(3, curve, 0.3), lax_gates, verdict,
                  _defect(verdict, LAX_D3)))
    return ops


# -- general: curve files ----------------------------------------------------


def _c(v):
    return {"op": "const", "value": float(v)}


def _bin(op, a, b):
    return {"op": op, "args": [a, b]}


def _trig(fn, k):
    return {"op": fn, "arg": _bin("mul", _c(k), {"op": "x"})}


def _general_u(rng, kind):
    """A periodic coefficient function that is not a trig polynomial."""
    a, b, c = rng.uniform(0.15, 0.35, size=3)
    if kind == 0:    # quotient: a sin(x) / (2 + cos(x))
        return _bin("mul", _c(a), _bin("div", _trig("sin", 1),
                                       _bin("add", _c(2.0), _trig("cos", 1))))
    if kind == 1:    # square root: b sqrt(1.5 + cos(2x)) - c
        return _bin("sub", _bin("mul", _c(b), {
            "op": "pow", "arg": _bin("add", _c(1.5), _trig("cos", 2)),
            "exponent": 0.5}), _c(c))
    # product: a cos(x) sin(2x) + b
    return _bin("add", _bin("mul", _c(a), _bin("mul", _trig("cos", 1),
                                                _trig("sin", 2))), _c(b))


def general_curve(rng, d):
    """Curve-file dict: d such u_i, identity frame at x0 = 0."""
    kinds = rng.permutation(3)
    return {"d": d, "x0": 0.0,
            "u": [_general_u(rng, int(kinds[i % 3])) for i in range(d)],
            "F0": np.eye(d + 1).tolist()}


def _write_curve(workdir, name, curve):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(curve, fh)
    return path


PRECISIONS = ("double", "extended")


def general_ops(seed, workdir):
    """expand on a seeded d = 2 and d = 3 curve, and kdv-verify on a pooled
    one of each d, every op in both precisions."""
    ops = []
    for d in (2, 3):
        draw = _Draw(seed, f"curve-d{d}")
        path = _write_curve(workdir, f"curve-d{d}", general_curve(draw.rng, d))
        for precision in PRECISIONS:
            name = f"expand-sd-d{d}-{precision}"
            ops.append(Op(name, ["expand", "--chi", "short-diagonal", "--d", d,
                                 "--x", _Draw(seed, name).x(), "--kmax", 2,
                                 "--curve", path, "--precision", precision],
                          short_diagonal2_gates if d == 2
                          else centralized_gates))
        curve, verdict = _pick(seed, f"kdv-verify-d{d}", f"general-kdv-d{d}")
        path = _write_curve(workdir, f"kdv-curve-d{d}",
                            general_curve(np.random.default_rng(curve), d))
        for precision in PRECISIONS:
            ops.append(Op(f"kdv-verify-d{d}-{precision}",
                          ["kdv-verify", "--chi", "short-diagonal", "--d", d,
                           "--x", 0.3, "--curve", path,
                           "--precision", precision],
                          kdv_gates, verdict, _defect(verdict, KDV_D3)))
    return ops


WORKLOADS = {"scalar": scalar_ops, "lax": lax_ops, "general": general_ops}


def build(workload, seed, workdir):
    """The workload's op list; writes any input files into workdir."""
    return WORKLOADS[workload](seed, workdir)
