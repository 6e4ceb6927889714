"""Fast checks of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import re
import signal
import sys
import time
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_cli()
TINY = ["expand", "--chi", "short-diagonal", "--d", 2, "--seed", 3,
        "--x", 0.3, "--kmax", 1, "--count", 8]


def _snapshot():
    """Every function-valued attribute the tracer may touch, by identity."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "pentalab" or name.startswith("pentalab."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    snap[(name, attr)] = obj
    curves = sys.modules["pentalab.curves"]
    jets = sys.modules["pentalab.jets"]
    snap["frame_at"] = curves.CurveSpec.__dict__["frame_at"]
    snap["Jet.__init__"] = jets.Jet.__dict__["__init__"]
    return snap


def test_tracer_restores_every_wrapped_function():
    before = _snapshot()
    with Tracer():
        during = _snapshot()
        chimap = sys.modules["pentalab.chimap"]
        assert chimap.gamma_jet is not before[("pentalab.curves", "gamma_jet")]
    changed = [k for k in before if during[k] is not before[k]]
    assert ("pentalab.chimap", "gamma_jet") in changed
    assert ("pentalab.lax", "gamma_jet") in changed
    assert "frame_at" in changed and "Jet.__init__" in changed
    assert _snapshot() == before


def _fake_package():
    """fakepkg.high.outer sleeps 10 ms and calls fakepkg.low.work (20 ms)
    twice."""
    mods = {name: types.ModuleType(name)
            for name in ("fakepkg", "fakepkg.low", "fakepkg.high")}
    exec("import time\ndef work():\n    time.sleep(0.02)\n",
         vars(mods["fakepkg.low"]))
    high = vars(mods["fakepkg.high"])
    high["work"] = mods["fakepkg.low"].work
    exec("import time\ndef outer():\n    time.sleep(0.01)\n"
         "    work()\n    work()\n", high)
    return mods


def test_self_time_subtracts_wrapped_children(monkeypatch):
    for name, mod in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer(package="fakepkg", layers=("low", "high"))
    high = sys.modules["fakepkg.high"]
    with tracer:
        t0 = time.perf_counter()
        high.outer()
        wall = time.perf_counter() - t0
    assert high.work is sys.modules["fakepkg.low"].work
    calls_low, self_low, _ = tracer.stats["low.work"]
    calls_high, self_high, total_high = tracer.stats["high.outer"]
    assert (calls_low, calls_high) == (2, 1)
    assert 0.04 <= self_low < 0.06
    assert 0.01 <= self_high < 0.02
    assert total_high == pytest.approx(self_high + self_low, abs=1e-3)
    assert 0.95 * wall <= tracer.total_self() <= wall


def test_coverage_on_a_tiny_op(tmp_path):
    op = workloads.Op("tiny", TINY, workloads.centralized_gates)
    plain = run.closed_loop(cli, [op], str(tmp_path), 0.0)
    tracer = Tracer()
    with tracer:
        traced = run.closed_loop(cli, [op], str(tmp_path), 0.0, tracer,
                                 whole_passes=True)
    metrics = run.per_layer(tracer, traced, plain)
    wall = sum(traced.times[0])
    assert metrics["trace.coverage"] == pytest.approx(
        tracer.total_self() / wall)
    assert 0.95 <= metrics["trace.coverage"] <= 1.0
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.layers)
    assert layer_sum == pytest.approx(tracer.total_self())
    assert metrics["curves.gamma_jet.distinct_ratio"] == 1.0
    assert metrics["expansion.extract_alphas.calls"] == 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    for m in contract["per_layer"]:
        assert m["name"] in metrics


def test_forced_failure_counts_in_fail_ratio(tmp_path):
    good = workloads.Op("good", TINY, workloads.centralized_gates)
    # a gate outside its tolerance on an op that exits 0: a wrong answer
    strict = workloads.Op("strict", TINY,
                          lambda rep: {"a11": (1e-9, 1e-12)})
    # a usage error exits 2 and writes no report
    broken = workloads.Op("broken", ["centralize", "--d", 2, "--x", 0.1],
                          workloads.centralize_gates)
    # a reproducer expected to reject that now passes is no failure
    fixed = workloads.Op("fixed", TINY, workloads.centralized_gates,
                         "reject", "a defect")
    # an op expected to pass that the program rejects is one
    rejected = workloads.Op("rejected", workloads._expand(2, 5, 20.0, 2),
                            workloads.short_diagonal2_gates)
    ops = [good, strict, broken, fixed, rejected]
    loop = run.closed_loop(cli, ops, str(tmp_path), 0.0)
    outcomes = loop.outcomes
    assert [o["verdict"] for o in outcomes] \
        == ["pass", "wrong", "crash", "pass", "reject"]
    assert [o["failed"] for o in outcomes] == [False, True, True, False, True]
    assert [o["improved"] for o in outcomes] == [False] * 3 + [True, False]
    assert outcomes[2]["rc"] == 2 and not outcomes[2]["report"]
    assert outcomes[4]["rc"] == 1
    metrics = run.end_to_end(ops, loop, [(1.0, 1.0)])
    assert metrics["fail_ratio"] == pytest.approx(3 / 5)
    assert os.listdir(tmp_path) == []


def test_verdict_order():
    assert workloads.worse("wrong", "reject")
    assert workloads.worse("crash", "wrong")
    assert not workloads.worse("pass", "reject")
    assert not workloads.worse("reject", "reject")
    with pytest.raises(ValueError):
        workloads.Op("x", [], workloads.kdv_gates, "flaky")


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += list(run.UNGATED_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {m["name"] for m in contract["end_to_end"]} \
        == set(run.END_TO_END_UNITS)


def test_speed_meter_takes_in_op_probes_out_of_wall_time():
    before = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter(tick=0.05)
    meter.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        pass
    elapsed = time.perf_counter() - t0
    wall, scaled = meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0.0 < wall < elapsed - 0.03  # at least one probe ran inside
    assert scaled > 0.0
