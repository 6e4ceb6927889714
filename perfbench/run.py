"""pentalab benchmark: closed-loop experiments, timed end to end or traced.

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 25 --trace 0

One client in one process calls ``pentalab.cli.main(argv)`` in-process, one
op after another, cycling through the workload's op list until ``--seconds``
have passed and every op has run at least once.  Every op writes a fresh
report that is scored against closed forms, and its verdict is compared
with the verdict the op is expected to reach (see ``workloads.py``): an op
fails when its verdict is worse, and any failure makes ``correct`` false.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric is also printed by name and unit above it, with the
environment, and the per-op record goes to ``perfbench/results/``.  Op and
set-up times are rescaled for the machine's speed at the time
(``speed.py``); wall-time figures are printed alongside.

``--workload all`` runs each workload in its own process and prints one
table.  BLAS is pinned to one thread before numpy is imported, and the run
to one CPU.
"""

import os

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
TICK_S = 1.0  # in-op speed probes, untraced runs only

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded but not gated.  fail_ratio reads 0 when every op
# reaches its expected verdict, and a failure already makes the run
# incorrect.  tol_margin_min and op_samples depend on which ops the seed
# picks, and op_s_p50 is one order statistic over ops sampled about once on
# scalar: their quartile spreads across seeds exceed a third of any allowed
# bound.  The wall-time figures swing with the machine's load.
UNGATED_UNITS = {"op_s_p50": "s", "fail_ratio": "ratio",
                 "tol_margin_min": "decades", "op_samples": "count",
                 "ops_per_s_wall": "1/s", "op_s_p50_wall": "s",
                 "setup_s_wall": "s"}


# -- program under test ------------------------------------------------------


def import_cli():
    """pentalab.cli from this checkout's sources; exits 1 without them."""
    if not os.path.isfile(os.path.join(SRC, "pentalab", "cli.py")):
        raise SystemExit(f"perfbench: no pentalab sources under {SRC}")
    sys.path.insert(0, SRC)
    from pentalab import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: pentalab imported from {cli.__file__}")
    return cli


def env_stamp(workload, seed, cpus):
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pentalab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(cpus),
            "pinned_cpu": cpus[0],
            "blas_threads": {v: os.environ.get(v) for v in BLAS_PINS},
            "workload": workload, "seed": seed, "commit": commit,
            "source_sha256": digest.hexdigest()}


@contextlib.contextmanager
def work_dir():
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def time_setups(workload, seed):
    """Scaled times of fresh processes that import pentalab and build the
    inputs, probed for machine speed around each one (``speed.py``)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    meter = SpeedMeter()
    times = []
    for _ in range(SETUP_REPEATS):
        meter.start()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(meter.stop())
    return times


# -- one op -----------------------------------------------------------------


def execute(cli, op, path, meter, tracer=None):
    """Run one op and score it; returns (wall s, scaled s, outcome dict)."""
    if os.path.exists(path):
        os.remove(path)
    err = io.StringIO()
    if tracer is not None:
        tracer.begin_op()
    meter.start()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(op.argv + ["--out", path])
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # a crash fails this op; the run goes on
        rc = None
        err.write(traceback.format_exc())
    finally:
        wall, scaled = meter.stop()
    outcome = score(op, rc, path, err.getvalue())
    if tracer is not None:
        outcome["gamma_jet_calls_distinct"] = tracer.end_op()
    return wall, scaled, outcome


def score(op, rc, path, stderr):
    """Verdict of one op from its exit code and its recomputed gates.

    failed: the verdict ranks below the op's expected verdict (see
    ``workloads.VERDICTS``).  improved: it ranks above, as when a change
    fixes a documented defect; that is reported, not counted as a failure.
    """
    report, gates = None, {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                report = json.load(fh)
            gates = op.gates(report)
        except (KeyError, IndexError, TypeError, ValueError):
            report, gates = None, {}  # unreadable or missing a gated field
        os.remove(path)
    within = report is not None and all(dev <= tol
                                        for dev, tol in gates.values())
    if rc == 0:
        verdict = "pass" if within else "wrong"
    else:
        verdict = "reject" if rc == 1 else "crash"
    return {
        "op": op.name,
        "rc": rc,
        "report": report is not None,
        "verdict": verdict,
        "expect": op.expect,
        "failed": workloads.worse(verdict, op.expect),
        "improved": workloads.worse(op.expect, verdict),
        "margins": {q: workloads.margin(dev, tol)
                    for q, (dev, tol) in gates.items()},
        "deviations": {q: dev for q, (dev, _) in gates.items()},
        "error": stderr.strip().splitlines()[-1] if rc != 0 and stderr.strip()
        else None,
    }


# -- loops ------------------------------------------------------------------


class Loop:
    """What one closed loop saw: per-op times and outcomes, and totals."""

    def __init__(self, n_ops):
        self.times = [[] for _ in range(n_ops)]
        self.scaled = [[] for _ in range(n_ops)]
        self.outcomes = [None] * n_ops
        self.attempted = 0
        self.failed = 0
        self.passes = 0.0


def closed_loop(cli, ops, wd, seconds, tracer=None, whole_passes=False,
                tick=None):
    """Cycle through ops until seconds have passed and each op ran once.

    With whole_passes the clock is read only between passes.  Each op keeps
    the outcome of its first run, or of a later run that failed.  tick is
    the interval of in-op speed probes (``speed.SpeedMeter``).
    """
    loop = Loop(len(ops))
    path = os.path.join(wd, "report.json")
    meter = SpeedMeter(tick)
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(ops)
        if i >= len(ops) and (k == 0 or not whole_passes) \
                and time.perf_counter() - start >= seconds:
            break
        wall, scaled, outcome = execute(cli, ops[k], path, meter, tracer)
        loop.times[k].append(wall)
        loop.scaled[k].append(scaled)
        if loop.outcomes[k] is None or outcome["failed"]:
            loop.outcomes[k] = outcome
        loop.attempted += 1
        loop.failed += outcome["failed"]
        i += 1
    loop.passes = i / len(ops)
    return loop


def end_to_end(ops, loop, setup):
    medians = [statistics.median(t) for t in loop.times]
    scaled = [statistics.median(t) for t in loop.scaled]
    margins = [m for op, o in zip(ops, loop.outcomes) if op.expect == "pass"
               for m in o["margins"].values()]
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_s_p50": statistics.median(scaled),
        "ops_per_s_wall": len(medians) / sum(medians),
        "op_s_p50_wall": statistics.median(medians),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "setup_s_wall": statistics.median(wall for wall, _ in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fail_ratio": loop.failed / loop.attempted,
        "tol_margin_min": min(margins) if margins else float("nan"),
        "op_samples": loop.attempted,
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".created")):
        return "count"
    return "ratio"


def per_layer(tracer, traced, plain):
    """Per-layer metrics per pass over the op list, from one traced loop.

    plain is an untraced loop over the same ops, the base of the overhead.
    """
    stats = tracer.stats
    layers = tracer.layer_totals()
    passes = traced.passes

    def calls(key):
        return stats.get(key, [0])[0] / passes

    def self_s(key):
        return stats.get(key, [0, 0.0])[1] / passes

    traced_wall = sum(sum(t) for t in traced.times)
    gamma_calls = stats.get("curves.gamma_jet", [0])[0]
    overhead = (sum(statistics.median(t) for t in traced.scaled)
                / sum(statistics.median(t) for t in plain.scaled))
    out = {f"{layer}.self_s": layers[layer][1] / passes
           for layer in tracer.layers}
    out.update({
        "jets.eval_jet.calls": calls("jets.eval_jet"),
        "jets.eval_jet.self_s": self_s("jets.eval_jet"),
        "jets.Jet.created": tracer.jets_created / passes,
        "jets.jet_solver.calls": calls("jets.jet_solver"),
        "jets.det_jet.calls": calls("jets.det_jet"),
        "curves.frame_at.calls": calls("curves.frame_at"),
        "curves.frame_at.self_s": self_s("curves.frame_at"),
        "curves.gamma_jet.calls": calls("curves.gamma_jet"),
        "curves.gamma_jet.distinct_ratio":
            tracer.gamma_distinct / gamma_calls if gamma_calls else 1.0,
        "curves.normalized_lift.self_s": self_s("curves.normalized_lift"),
        "chimap.chi_map_point.calls": calls("chimap.chi_map_point"),
        "chimap.intersect_spans.self_s": self_s("chimap.intersect_spans"),
        "linalg.calls": layers["linalg"][0] / passes,
        "linalg.cond_max": tracer.cond_max,
        "discretize.coords_from_samples.calls":
            calls("discretize.coords_from_samples"),
        "kdvops.psdo_root.self_s": self_s("kdvops.psdo_root"),
        "fitting.calls": layers["fitting"][0] / passes,
        "expansion.extract_alphas.calls": calls("expansion.extract_alphas"),
        "realize.check_34.calls": calls("realize.check_34"),
        "trace.coverage": tracer.total_self() / traced_wall,
        "trace.overhead": overhead - 1.0,
    })
    return out


# -- entry points -----------------------------------------------------------


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(args):
    cli = import_cli()
    contract = load_contract()
    stamp = env_stamp(args.workload, args.seed, args.cpus)
    with work_dir() as wd:
        ops = workloads.build(args.workload, args.seed, wd)
        if args.trace:
            plain = closed_loop(cli, ops, wd, 0.0)
            tracer = Tracer()
            with tracer:
                loop = closed_loop(cli, ops, wd, args.seconds, tracer,
                                   whole_passes=True)
            metrics = per_layer(tracer, loop, plain)
            wanted = contract["per_layer"]
            extra = {"plain_pass": [dict(o, times=t) for o, t
                                    in zip(plain.outcomes, plain.times)],
                     "functions": {k: {"calls": c, "self_s": s, "total_s": t}
                                   for k, (c, s, t)
                                   in sorted(tracer.stats.items())}}
            loop.attempted += plain.attempted
            loop.failed += plain.failed
        else:
            setup = time_setups(args.workload, args.seed)
            loop = closed_loop(cli, ops, wd, args.seconds, tick=TICK_S)
            metrics = end_to_end(ops, loop, setup)
            wanted = contract["end_to_end"]
            extra = {"setup_samples": setup}
    units = {name: layer_unit(name) for name in metrics} if args.trace \
        else {**END_TO_END_UNITS, **UNGATED_UNITS}
    correct = loop.failed == 0
    record = {"env": stamp, "trace": args.trace, "seconds": args.seconds,
              "passes": loop.passes, "correct": correct,
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics,
              "ops": [dict(o, argv=op.argv, defect=op.defect, times=t,
                           scaled=c)
                      for op, o, t, c
                      in zip(ops, loop.outcomes, loop.times, loop.scaled)],
              **extra}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(os.path.join(HERE, "results", name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("env " + json.dumps(stamp, sort_keys=True))
    for o, t in zip(loop.outcomes, loop.times):
        margin = min(o["margins"].values()) if o["margins"] else None
        print(f"op {o['op']:<32} rc={o['rc']} {o['verdict']}/{o['expect']}"
              f"{' FAILED' if o['failed'] else ''}"
              f"{' improved' if o['improved'] else ''} "
              f"margin={'-' if margin is None else f'{margin:.3f}'} "
              f"n={len(t)} med={statistics.median(t):.3f}s"
              + (f" err={o['error']}" if o["error"] else ""))
    for name_, unit in units.items():
        print(f"metric {name_} {metrics[name_]!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    table = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        table[workload] = {}
        for line in out.stdout.splitlines():
            if line.startswith("metric "):
                _, name, value, unit = line.split(" ", 3)
                table[workload][name] = (value, unit)
    names = list(next(iter(table.values())))
    print(f"{'metric':<40}" + "".join(f"{w:>24}" for w in table) + "  unit")
    for name in names:
        print(f"{name:<40}"
              + "".join(f"{table[w][name][0]:>24}" for w in table)
              + f"  {table[next(iter(table))][name][1]}")
    print(json.dumps({w: {n: float(v) for n, (v, _) in m.items()}
                      for w, m in table.items()}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import pentalab and build the inputs, then exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one CPU for the run and the processes it starts, so that the speed
    # probe times the core the measured work runs on (see README.md)
    args.cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpus[0]})
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import_cli()
        with work_dir() as wd:
            workloads.build(args.workload, args.seed, wd)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
