import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pentalab
from pentalab import linalg
from pentalab.cli import main
from pentalab.configs import ChiConfig, short_diagonal_chi
from pentalab.curves import CurveSpec, random_curve_spec
from pentalab.discretize import limit_diagnostics
from pentalab.expansion import _lift, alpha_constancy_check
from pentalab.realize import mari_beffa_family


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the environment of a fresh python process that imports this pentalab
_SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(
    os.path.dirname(os.path.abspath(pentalab.__file__))))


def _curve_text(u0):
    """A d = 2 curve file whose u_0 is the JSON text u0."""
    return ('{"d": 2, "x0": 0.0, "F0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
            f'"u": [{u0}, {{"op": "const", "value": 0.1}}]}}')


def _chi_text(depth):
    """A chi file whose groups are empty lists nested depth deep."""
    return '{"d": 2, "groups": ' + "[" * depth + "]" * depth + "}"


def test_runs_without_importing_scipy():
    # scipy costs about two thirds of a one-shot run's start-up; only
    # search_34 uses it, and imports it itself
    script = """
import json, sys
import pentalab, pentalab.cli
codes = [pentalab.cli.main(["expand", "--chi", "short-diagonal", "--d", "2",
                            "--x", "0.3"]),
         pentalab.cli.main(["families", "short-diagonal", "--d", "3"])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_SRC_ENV,
                          capture_output=True, text=True, check=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []


@pytest.mark.parametrize("argv", [
    ["families", "dual-dented", "--d", "3", "--s", "1", "--shift", "auto"],
    ["expand", "--d", "3", "--x", "20", "--kmax", "6"],
    ["expand", "--d", "2", "--precision", "extended"],
    ["centralize", "--d", "2"],
    ["kdv-verify", "--d", "3", "--seed", "23"],
    ["lax-verify", "--d", "3", "--seed", "2", "--x", "20"],
    ["realize34"],
    ["dof", "--m", "5"],
], ids=lambda argv: argv[0] + ("-extended" if "extended" in argv else ""))
def test_no_subcommand_transports_a_frame(capsys, monkeypatch, argv):
    # every experiment lifts from the identity frame at its working point
    def no_frame(spec, x):
        raise AssertionError("frame_at called")

    monkeypatch.setattr(CurveSpec, "frame_at", no_frame)
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out and not err


@pytest.mark.parametrize("argv", [
    ["expand", "--d", "2"],
    ["expand", "--d", "3"],
    ["expand", "--d", "4"],
    ["expand", "--d", "3", "--precision", "extended"],
    ["lax-verify", "--d", "2"],
    ["lax-verify", "--d", "3"],
    ["kdv-verify", "--d", "2"],
    ["kdv-verify", "--d", "3"],
    ["realize34"],
], ids="-".join)
def test_one_matrix_entry_points_see_no_stack(capsys, monkeypatch, argv):
    # perfbench's tracer takes a condition number of the first argument of
    # linalg.det_dense, which must be one matrix
    want = run(capsys, argv)
    assert want[0] == 0, want[2]

    def one_matrix(fn):
        def checked(a, *args):
            assert np.ndim(a) == 2, f"{fn.__name__} got a stack {np.shape(a)}"
            return fn(a, *args)
        return checked

    monkeypatch.setattr(linalg, "det_dense", one_matrix(linalg.det_dense))
    assert run(capsys, argv) == want


_unit = st.floats(-0.5, 0.5)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 16),
       st.floats(-30.0, 30.0), st.lists(_unit, min_size=16, max_size=16),
       st.floats(-1.0, 1.5))
def test_reports_read_neither_x0_nor_the_frame(tmp_path_factory, d, seed, x0,
                                              entries, x):
    # the same u based at any x0 with any unimodular F0 gives the same
    # report, bit for bit, from every subcommand that reads a curve, and
    # the same limit table
    n = d + 1
    lower = np.eye(n) + np.tril(np.reshape(entries[:n * n], (n, n)), -1)
    upper = np.eye(n) + np.triu(np.reshape(entries[-n * n:], (n, n)), 1)
    base = random_curve_spec(d, seed=seed)
    moved = CurveSpec(d, base.u, x0, lower @ upper)
    paths = []
    for spec in (base, moved):
        path = tmp_path_factory.mktemp("curve") / "curve.json"
        path.write_text(json.dumps(spec.to_dict()))
        paths.append(str(path))
    for argv in (["expand", "--kmax", "6"], ["centralize"], ["kdv-verify"],
                 ["lax-verify"]):
        where = [] if argv[0] == "centralize" else [f"--x={x!r}"]
        got = []
        for path in paths:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--d", str(d), "--curve", path] + where)
            got.append((code, out.getvalue(), err.getvalue()))
        assert got[0] == got[1]
    tables = [limit_diagnostics(CurveSpec.load(path), x) for path in paths]
    for key in ("A", "a_tilde", "orders", "limits", "a0_order"):
        assert np.array_equal(getattr(tables[0], key), getattr(tables[1], key))


class TestDof:
    def test_prints_value(self, capsys):
        code, out, _ = run(capsys, ["dof", "--m", "4"])
        assert code == 0
        assert out.strip() == "4"

    @pytest.mark.parametrize("m,expected", [(2, 1), (3, 2), (4, 4)])
    def test_small_table(self, capsys, m, expected):
        code, out, _ = run(capsys, ["dof", "--m", str(m)])
        assert code == 0
        assert int(out) == expected


@pytest.mark.parametrize("argv, message", [
    (["dof", "--m", "0"], "need m >= 1"),
    (["dof", "--m", "-3"], "need m >= 1"),
    # the flag was ignored and the integer instance ran
    (["realize34", "--chi", "integer-instance", "--root-index", "3"],
     "--root-index only applies to r-root"),
])
def test_unusable_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["expand", "--d", "2", "--seed", "-1"],
    ["kdv-verify", "--d", "2", "--seed", "-3"],
    ["realize34", "--seed", "-2"],
], ids=["expand", "kdv-verify", "realize34"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    # these died on numpy's uncaught "expected non-negative integer"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a non-negative integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["expand", "--d", "2"],
    ["families", "short-diagonal", "--d", "2"],
], ids=["expand", "families"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    # each ended in a FileNotFoundError or IsADirectoryError traceback
    if target == "missing-dir":
        out = tmp_path / "no-such-dir" / "r.json"
        why = "No such file or directory"
    else:
        out, why = tmp_path, "Is a directory"
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err == f"usage error: cannot write report to {str(out)!r}: {why}\n"


@pytest.mark.parametrize("case", ["kmax-then-curve", "curve-then-chi",
                                  "d-then-curve-dimension",
                                  "curve-then-distinct-x"])
def test_usage_errors_come_in_order(capsys, tmp_path, case):
    # each command line has two faults; the one checked first is reported
    missing = str(tmp_path / "missing.json")
    no_file = f"[Errno 2] No such file or directory: {missing!r}"
    if case == "kmax-then-curve":
        argv = ["expand", "--d", "2", "--kmax", "9", "--curve", missing]
        message = "kmax must lie in [0, 6]"
    elif case == "curve-then-chi":
        argv = ["expand", "--curve", missing, "--chi",
                str(tmp_path / "missing-chi.json")]
        message = f"cannot load curve from {missing!r}: {no_file}"
    elif case == "d-then-curve-dimension":
        chi, curve = tmp_path / "chi.json", tmp_path / "curve.json"
        chi.write_text(json.dumps(short_diagonal_chi(3).to_dict()))
        curve.write_text(json.dumps(random_curve_spec(4, seed=5).to_dict()))
        argv = ["kdv-verify", "--d", "2", "--chi", str(chi), "--curve",
                str(curve)]
        message = "--d 2 contradicts the configuration's dimension 3"
    else:
        curve = tmp_path / "curve.json"
        curve.write_text("not json")
        argv = ["centralize", "--d", "2", "--x", "0.1", "0.2", "--curve",
                str(curve)]
        message = (f"cannot load curve from {str(curve)!r}: "
                   "Expecting value: line 1 column 1 (char 0)")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


class TestFamilies:
    def test_short_diagonal_d3(self, capsys):
        code, out, _ = run(capsys, ["families", "short-diagonal", "--d", "3"])
        assert code == 0
        blob = json.loads(out)
        assert blob["schema"] == 1
        assert blob["centralized"] is True
        assert blob["sigma_top"] == [3.0, 0.0, -3.0]
        assert blob["alpha_diag"][1] == pytest.approx(0.5, abs=1e-12)

    def test_dual_dented_auto_shift(self, capsys):
        code, out, _ = run(capsys, ["families", "dual-dented", "--d", "3",
                                    "--s", "1", "--shift", "auto"])
        assert code == 0
        blob = json.loads(out)
        assert blob["applied_shift"] == pytest.approx(-7.0 / 3.0)
        assert blob["centralized"] is True

    def test_dual_dented_unshifted_is_not_centralized(self, capsys):
        code, out, _ = run(capsys, ["families", "dual-dented", "--d", "3",
                                    "--s", "1", "--shift", "0"])
        assert code == 0
        blob = json.loads(out)
        assert blob["centralized"] is False
        assert abs(blob["alpha_diag"][0]) >= 1e-2

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["families", "mystery", "--d", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_dimension(self, capsys):
        code, _, err = run(capsys, ["families", "short-diagonal"])
        assert code == 2
        assert "needs --d" in err

    def test_evenly_spaced_needs_nodes(self, capsys):
        code, _, err = run(capsys, ["families", "evenly-spaced", "--d", "2"])
        assert code == 2
        assert "--p" in err

    def test_family_flags_match_the_run_commands(self):
        import argparse

        from pentalab.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def family_flags(command):
            return {a.dest: (a.option_strings, a.default, a.type, a.nargs,
                             a.choices)
                    for a in sub.choices[command]._actions
                    if a.dest in ("d", "p", "r_step", "s", "shift", "variant")}

        want = family_flags("families")
        assert len(want) == 6
        for command in ("expand", "centralize", "kdv-verify", "lax-verify"):
            assert family_flags(command) == want

    def test_seed_is_not_accepted(self, capsys):
        # families draws no random curve, so the flag would be a no-op
        with pytest.raises(SystemExit) as exc:
            main(["families", "short-diagonal", "--d", "3", "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestExpand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--x", "0.3", "--kmax", "3"])
        assert code == 0
        blob = json.loads(out)
        assert blob["schema"] == 1
        assert blob["seed"] == 0
        assert len(blob["alpha"]) == 4
        assert abs(blob["alpha"][1][1]) <= 1e-4

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,frame_index,alpha,uncertainty"
        assert len(lines) == 1 + 9

    def test_json_builds_no_csv_rows(self, capsys, monkeypatch):
        from pentalab.expansion import ExpansionReport

        def unwanted(self):
            raise AssertionError("csv rows built for a JSON report")

        monkeypatch.setattr(ExpansionReport, "csv_rows", unwanted)
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2"])
        assert code == 0
        assert json.loads(out)["schema"] == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                   "--d", "2", "--seed", "3"])
        _, second, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--seed", "3"])
        assert first == second

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["schema"] == 1

    def test_far_working_point_answers_right(self, capsys):
        # walked out from x0 this read |a11| = 1.34 and still exited 0
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "3", "--seed", "3", "--x", "15",
                                    "--kmax", "2"])
        assert code == 0
        assert abs(json.loads(out)["alpha"][1][1]) <= 1e-3

    def test_extended_precision_allows_deeper_fit(self, capsys):
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--kmax", "5",
                                    "--precision", "extended"])
        assert code == 0
        blob = json.loads(out)
        assert len(blob["alpha"]) == 6
        assert blob["alpha"][2][2] == pytest.approx(0.375, abs=1e-3)

    def test_kmax_capped_for_double(self, capsys):
        code, _, err = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--kmax", "7"])
        assert code == 2
        assert "kmax" in err

    def test_chi_from_file(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"d": 2, "groups": [[-2, 0], [-1, 1]]}))
        code, out, _ = run(capsys, ["expand", "--chi", str(path)])
        assert code == 0
        assert json.loads(out)["d"] == 2

    def test_curve_from_file(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(random_curve_spec(2, seed=5).to_dict()))
        code, out, _ = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--curve", str(path)])
        assert code == 0
        assert json.loads(out)["d"] == 2

    def test_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(random_curve_spec(3, seed=5).to_dict()))
        code, _, err = run(capsys, ["expand", "--chi", "short-diagonal",
                                    "--d", "2", "--curve", str(path)])
        assert code == 2
        assert "dimension" in err

    def test_missing_chi_file(self, capsys):
        code, _, err = run(capsys, ["expand", "--chi", "no-such.json"])
        assert code == 2
        assert "cannot load chi" in err

    @pytest.mark.parametrize("argv, file, why", [
        (["expand", "--chi"], {"d": 2, "groups": [[0, 0], [-1, 1]]},
         "repeated node"),
        (["realize34", "--chi"], {"d": 3, "groups": [[0, 0, 1], [1, 2, 3],
                                                     [4, 5, 6]]},
         "repeated node"),
        (["realize34", "--chi"], {"d": 2, "groups": [[-1, 1], [0, 2]]},
         "three plane groups"),
        (["expand", "--curve"], {"d": 2, "x0": 0.0, "F0": [[0, 0, 0]] * 3,
                                 "u": [{"op": "const", "value": 0.0}] * 2},
         "singular"),
        (["expand", "--curve"], [2, 0.0], "cannot load curve"),
        (["expand", "--curve"], {"d": 2, "x0": 0.0, "F0": np.eye(3).tolist(),
                                 "u": [1, 2]}, "cannot load curve"),
        (["expand", "--curve"], {"d": 2, "x0": 0.0, "F0": np.eye(3).tolist(),
                                 "u": 5}, "cannot load curve"),
        (["expand", "--chi"], {"d": 2, "groups": 5}, "cannot load chi"),
        (["expand", "--chi"], [[-2, 0], [-1, 1]], "cannot load chi"),
        (["realize34", "--chi"], [[-1, 1], [0, 2]], "cannot load chi"),
    ], ids=["chi-repeated-node",
            "realize34-repeated-node", "realize34-not-planes", "singular-frame",
            "curve-list", "curve-u-numbers", "curve-u-number",
            "chi-groups-number", "chi-list", "realize34-chi-list"])
    def test_bad_input_is_a_usage_error(self, capsys, tmp_path, argv, file,
                                        why):
        # rejected before any extraction runs, so exit 2, not a run error
        if file is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(file))
            argv = argv + [str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and why in err

    @pytest.mark.parametrize("argv, text, kind", [
        (["expand", "--curve"],
         _curve_text('{"op": "sin", "arg": ' * 5000 + '{"op": "x"}' + "}" * 5000),
         "curve"),
        (["expand", "--curve"],
         _curve_text('{"op": "add", "args": [' * 495 + '{"op": "x"}'
                     + ', {"op": "x"}]}' * 495), "curve"),
        (["expand", "--curve"],
         _curve_text('{"op": "sin", "arg": ' * 980 + '{"op": "x"}' + "}" * 980),
         "curve"),
        (["expand", "--chi"], _chi_text(5000), "chi"),
        (["realize34", "--chi"], _chi_text(5000), "chi"),
    ], ids=["curve-sin-5000", "curve-add-495", "curve-sin-980",
            "chi-groups-5000", "realize34-chi-groups-5000"])
    def test_too_deeply_nested_file_is_a_usage_error(self, tmp_path, argv,
                                                     text, kind):
        # each exited 1 with a RecursionError traceback, the json decoder's
        # or, for sin 980 deep, the tree walk's; run in a fresh process,
        # since under a deeper stack (pytest's) the decoder refuses sin 980
        path = tmp_path / "input.json"
        path.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "pentalab.cli", *argv,
                               str(path)], env=_SRC_ENV, capture_output=True,
                              text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"usage error: cannot load {kind} from ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("d", [2.9, "2", True],
                             ids=["float", "string", "bool"])
    @pytest.mark.parametrize("kind", ["curve", "chi"])
    def test_non_integer_dimension_is_a_usage_error(self, capsys, tmp_path,
                                                    kind, d):
        # these loaded as int(d): 2.9 and "2" as d = 2, which ran, and true
        # as d = 1
        good = (random_curve_spec(2, seed=5).to_dict() if kind == "curve"
                else {"d": 2, "groups": [[-2, 0], [-1, 1]]})
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**good, "d": d}))
        code, out, err = run(capsys, ["expand", f"--{kind}", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot load {kind}")
        assert "d must be an integer" in err

    @pytest.mark.parametrize("kind, key, value, what", [
        ("curve", "x0", "0.0", "x0"),
        ("curve", "F0", [["1", 0, 0], [0, 1, 0], [0, 0, 1]], "an F0 entry"),
        ("curve", "F0", [[1, 0, 0], [0, True, 0], [0, 0, 1]], "an F0 entry"),
        ("curve", "u", [{"op": "const", "value": "0.25"}, {"op": "x"}],
         "a coefficient tree's number"),
        ("curve", "u", [{"op": "pow", "exponent": True, "arg": {"op": "x"}},
                        {"op": "x"}], "a coefficient tree's number"),
        ("chi", "groups", [["0", True], [-1, 1]], "a node"),
    ], ids=["x0-string", "F0-string", "F0-bool", "const-string",
            "exponent-bool", "chi-node"])
    def test_non_number_value_is_a_usage_error(self, capsys, tmp_path, kind,
                                               key, value, what):
        # each loaded with the value coerced by float() and ran to exit 0
        good = (random_curve_spec(2, seed=5).to_dict() if kind == "curve"
                else {"d": 2, "groups": [[-2, 0], [-1, 1]]})
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**good, key: value}))
        code, out, err = run(capsys, ["expand", f"--{kind}", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot load {kind}")
        assert f"{what} must be a number" in err

    @pytest.mark.parametrize("argv, file", [
        (["families", "evenly-spaced", "--d", "2", "--p", "nan", "0.5",
          "--r-step", "0.7"], None),
        (["expand", "--chi", "evenly-spaced", "--d", "2", "--p", "0.1", "inf",
          "--r-step", "0.7"], None),
        (["expand", "--chi", "dual-dented", "--d", "3", "--s", "1",
          "--shift", "nan"], None),
        (["expand", "--d", "2", "--x", "nan"], None),
        (["centralize", "--d", "2", "--x", "0.1", "inf", "0.5"], None),
        (["expand", "--d", "2", "--eps0", "nan"], None),
        (["expand", "--curve"], {"d": 2, "x0": float("nan"),
                                 "F0": np.eye(3).tolist(),
                                 "u": [{"op": "const", "value": 0.0}] * 2}),
        (["expand", "--curve"], {"d": 2, "x0": 0.0,
                                 "F0": [[1, 0, 0], [0, 1, 0], [0, 0, "inf"]],
                                 "u": [{"op": "const", "value": 0.0}] * 2}),
        (["expand", "--chi"], {"d": 2, "groups": [[0, float("nan")],
                                                  [-1, 1]]}),
        (["expand", "--curve"], {"d": 2, "x0": 0.0, "F0": np.eye(3).tolist(),
                                 "u": [{"op": "const", "value": float("nan")},
                                       {"op": "const", "value": 0.0}]}),
        (["expand", "--curve"], {"d": 2, "x0": 0.0, "F0": np.eye(3).tolist(),
                                 "u": [{"op": "pow", "exponent": "inf",
                                        "arg": {"op": "x"}},
                                       {"op": "const", "value": 0.0}]}),
    ], ids=["families-p", "expand-p", "shift", "x", "centralize-x", "eps0",
            "curve-x0", "curve-F0", "chi-node", "curve-const", "curve-exponent"])
    def test_non_finite_input_is_a_usage_error(self, capsys, tmp_path, argv,
                                               file):
        # these exited 0 with NaN in the report, 1 on an IntegrationFailure,
        # or died on an uncaught ValueError or LinAlgError
        if file is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(file).replace('"inf"', "Infinity"))
            argv = argv + [str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # refused by argparse
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err

    def test_blown_up_frame_is_a_run_error(self, capsys, tmp_path):
        # the lift at x grows like exp(46 t), and its Taylor series
        # converges too slowly for the node offsets of 0.2
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "d": 2, "x0": 0.0, "F0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "u": [{"op": "const", "value": -1e5},
                  {"op": "const", "value": 0.0}]}))
        code, out, err = run(capsys, ["expand", "--curve", str(path),
                                      "--x", "2"])
        assert code == 1
        assert out == ""
        assert err.startswith("error in expansion.extract_alphas: "
                              "IntegrationFailure: node offset 0.2 lies "
                              "outside the lift's radius of convergence")

    def test_lift_past_its_radius_of_convergence_is_a_run_error(
            self, capsys, tmp_path):
        # u_0 has a pole 0.15 from x, inside the node offsets' reach of 0.2;
        # walked on a real ladder this printed a22 - 3/8 = 1.84 and exited 0
        path = tmp_path / "curve.json"
        pole = {"op": "div", "args": [
            {"op": "const", "value": 0.05},
            {"op": "sub", "args": [{"op": "const", "value": 0.45},
                                   {"op": "x"}]}]}
        path.write_text(json.dumps({
            "d": 2, "x0": 0.0, "F0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "u": [pole, {"op": "const", "value": 0.0}]}))
        code, out, err = run(capsys, ["expand", "--curve", str(path),
                                      "--x", "0.3"])
        assert code == 1
        assert out == ""
        assert "IntegrationFailure" in err

    @pytest.mark.parametrize("command, u0, x, why", [
        # the order-40 lift jet overflows; its NaN rows passed the radius
        # guard, and the run died in an SVD
        ("expand", {"op": "const", "value": 1e30}, "0.3",
         "IntegrationFailure: the lift overflowed"),
        ("lax-verify", {"op": "const", "value": 1e30}, "0.3",
         "IntegrationFailure: the lift overflowed"),
        ("kdv-verify", {"op": "const", "value": 1e30}, "0.3",
         "IntegrationFailure: the lift overflowed"),
        # u_0 = 1/x has a pole at the working point
        ("expand", {"op": "div", "args": [{"op": "const", "value": 1.0},
                                          {"op": "x"}]}, "0",
         "ZeroDivisionError: jet division needs a nonzero constant term"),
        ("kdv-verify", {"op": "div", "args": [{"op": "const", "value": 1.0},
                                              {"op": "x"}]}, "0",
         "ZeroDivisionError: jet division needs a nonzero constant term"),
    ], ids=["overflow-expand", "overflow-lax-verify", "overflow-kdv-verify",
            "pole-expand", "pole-kdv-verify"])
    def test_curve_without_a_lift_at_x_is_a_run_error(self, capsys, tmp_path,
                                                      command, u0, x, why):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "d": 2, "x0": 1.0, "F0": np.eye(3).tolist(),
            "u": [u0, {"op": "const", "value": 0.0}]}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, [command, "--curve", str(path),
                                          "--x", x])
        assert code == 1
        assert out == ""
        assert why in err

    @pytest.mark.parametrize("argv, code", [
        (["expand", "--d", "2", "--x", "1e308"], 1),
        (["expand", "--d", "2", "--x", "1e300"], 0),
        # the probes are lifted together: each probe's trees are still
        # walked under the lift's finiteness check
        (["realize34", "--x", "1e308"], 1),
    ], ids=["1e308-1", "1e300-0", "realize34-1e308"])
    def test_working_point_the_trees_cannot_evaluate_is_one_line(
            self, capsys, argv, code):
        # at 1e308 the trig argument 2x overflows: three numpy
        # RuntimeWarnings came first, and the error blamed the lift
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run(capsys, argv)
        assert got == code
        assert caught == []
        if code:
            op = {"expand": "expansion.extract_alphas",
                  "realize34": "realize.check_34"}[argv[0]]
            assert out == ""
            assert err == (f"error in {op}: "
                           "IntegrationFailure: the coefficient functions "
                           "are not finite to order 40 at x = 1e+308\n")

    @pytest.mark.parametrize("d, why", [
        # the map asks for rows 0..2d+1 of the order-40 lift: this died
        # with an IndexError in the Taylor shift
        (20, "IntegrationFailure: Taylor rows 0..41 asked of an order-40 "
             "lift"),
        # and past d = 40 the identity frame alone outgrows the lift
        (41, "IntegrationFailure: the 42 rows of the identity frame do not "
             "fit an order-40 lift"),
    ])
    def test_dimension_past_the_lift_order_is_a_run_error(self, capsys, d,
                                                          why):
        code, out, err = run(capsys, ["expand", "--d", str(d)])
        assert code == 1
        assert out == ""
        assert err == f"error in expansion.extract_alphas: {why}\n"

    def test_dependent_spans_name_their_conditioning(self, capsys):
        # at d = 7 the worst span's s_m/max(s_1, 1) on the contour is
        # 9.6e-11 (1.1e-8 at d = 6), under the nullspace threshold 1e-10;
        # the error names both numbers
        code, out, err = run(capsys, ["expand", "--d", "7", "--seed", "0",
                                      "--x", "0.3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error in expansion.extract_alphas: "
                              "DegenerateIntersection: span vectors "
                              "numerically dependent")
        assert f"is 9.6e-11, not above {linalg._NULL_RTOL:g}\n" in err

    @pytest.mark.parametrize("bug", [np.linalg.LinAlgError("Singular matrix"),
                                     ValueError("operands could not be broadcast"),
                                     RuntimeError("unexpected")])
    def test_a_bug_is_raised_not_reported_as_degenerate(self, capsys,
                                                        monkeypatch, bug):
        import pentalab.cli

        def broken(*args, **kwargs):
            raise bug

        monkeypatch.setattr(pentalab.cli, "extract_alphas", broken)
        with pytest.raises(type(bug)):
            main(["expand", "--d", "2"])


class TestCentralize:
    def test_short_diagonal_passes(self, capsys):
        code, out, _ = run(capsys, ["centralize", "--chi", "short-diagonal",
                                    "--d", "2"])
        assert code == 0
        blob = json.loads(out)
        assert blob["centralized"] is True
        assert blob["diag_spread"] <= 2e-3

    def test_generic_evenly_spaced_fails(self, capsys):
        code, out, _ = run(capsys, ["centralize", "--chi", "evenly-spaced",
                                    "--d", "2", "--p", "-0.8", "0.5",
                                    "--r-step", "0.9"])
        assert code == 1
        assert json.loads(out)["centralized"] is False

    def test_needs_three_points(self, capsys):
        code, _, err = run(capsys, ["centralize", "--chi", "short-diagonal",
                                    "--d", "2", "--x", "0.1", "0.5"])
        assert code == 2
        assert "three" in err

    def test_needs_three_distinct_points(self, capsys):
        # a repeated x died on an uncaught ValueError
        code, _, err = run(capsys, ["centralize", "--d", "2",
                                    "--x", "0.3", "0.3", "0.5"])
        assert code == 2
        assert "distinct" in err

    def test_one_extraction_per_point(self, capsys, monkeypatch):
        import pentalab.cli
        import pentalab.expansion

        calls = []
        mapper = pentalab.expansion.chi_map_point
        inner = pentalab.expansion.extract_alphas

        def counted(*args):
            lifts, eps = args[1:3]
            calls.append((lifts[..., 0],
                          np.broadcast_shapes(lifts.shape[2:], eps.shape)))
            return mapper(*args)

        monkeypatch.setattr(pentalab.expansion, "chi_map_point", counted)
        code, out, _ = run(capsys, ["centralize", "--d", "2", "--seed", "11",
                                    "--x", "-0.4", "0.3", "1.1"])
        monkeypatch.undo()
        assert code == 0
        spec, chi = random_curve_spec(2, seed=11), short_diagonal_chi(2)
        xs = (-0.4, 0.3, 1.1)
        # one application maps every point on the upper half of the
        # contour, each pair once
        [(lifts, batch)] = calls
        assert np.array_equal(lifts, _lift(spec, xs)[0])
        assert batch == (3, 13)
        # the report of the first point on its own, then the spread
        first = inner(spec, chi, xs[0])
        payload = {"schema": 1, "seed": 11, "chi": chi.to_dict(),
                   "x_values": list(xs),
                   "alpha11": float(first.alpha[1, 1]),
                   "diag_spread": alpha_constancy_check(spec, chi, xs)[1],
                   "centralized": True}
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestKdvVerify:
    def test_short_diagonal_passes(self, capsys):
        code, out, _ = run(capsys, ["kdv-verify", "--chi", "short-diagonal",
                                    "--d", "2", "--curve", "random",
                                    "--seed", "7"])
        assert code == 0
        blob = json.loads(out)
        assert blob["pass"] is True
        assert blob["deviation"] <= 1e-3

    def test_default_fit_depth_carries_d3(self, capsys):
        # a ladder fit needed one order past the term under test to pass
        # d = 3; the contour reads the term exactly at any depth
        code, out, _ = run(capsys, ["kdv-verify", "--chi", "short-diagonal",
                                    "--d", "3", "--curve", "random",
                                    "--seed", "23", "--x", "0.3"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_non_centralized_reports_module_operation(self, capsys):
        code, _, err = run(capsys, ["kdv-verify", "--chi", "evenly-spaced",
                                    "--d", "2", "--p", "-0.8", "0.5",
                                    "--r-step", "0.9"])
        assert code == 1
        assert "expansion.kdv_rhs_check" in err


class TestLaxVerify:
    def test_short_diagonal_d2_passes(self, capsys):
        code, out, _ = run(capsys, ["lax-verify", "--chi", "short-diagonal",
                                    "--d", "2"])
        assert code == 0
        blob = json.loads(out)
        assert blob["pass"] is True
        assert all(blob["checks"].values())

    def test_d4_passes_in_double(self, capsys):
        # windows sampled from shifted maps and unfolded by the Pascal
        # conjugation read quot_lhs_dev 3.7e-2 here, past the 2e-2 gate
        code, out, _ = run(capsys, ["lax-verify", "--d", "4", "--seed", "1",
                                    "--x", "0.3"])
        assert code == 0
        assert all(json.loads(out)["checks"].values())

    def test_csv_per_rung(self, capsys):
        # no per-rung table is left: lax-verify emits the (key, value) rows
        # of its JSON report, as every command but expand does
        argv = ["lax-verify", "--chi", "short-diagonal", "--d", "2"]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        _, blob, _ = run(capsys, argv)
        blob = json.loads(blob)
        assert sorted(rows) == sorted(blob)
        assert all(json.loads(rows[k]) == blob[k] for k in blob)

    @pytest.mark.parametrize("argv", [
        ["lax-verify", "--kmax", "1"], ["centralize", "--kmax", "0"],
        ["kdv-verify", "--kmax", "3"], ["centralize", "--count", "8"],
        ["kdv-verify", "--eps0", "0.1"], ["lax-verify", "--eps0", "0.1"]])
    def test_flags_the_command_does_not_read_are_refused(self, capsys, argv):
        # lax-verify --kmax 0|1 and centralize --kmax 0 died on an IndexError
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--d", "2"])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


class TestRealize34:
    def test_integer_instance_passes(self, capsys):
        code, out, _ = run(capsys, ["realize34", "--chi", "integer-instance"])
        assert code == 0
        blob = json.loads(out)
        assert blob["passes"] is True
        assert blob["c_fit"] == pytest.approx(-5.0, abs=5e-3)

    def test_quartic_gate_config_passes(self, capsys):
        code, out, _ = run(capsys, ["realize34", "--chi", "r-root",
                                    "--root-index", "1"])
        assert code == 0
        assert json.loads(out)["passes"] is True

    def test_perturbed_file_config_fails(self, capsys, tmp_path):
        chi = ChiConfig(3, [[5.05, -2.0, 3.0], [-5.0, 2.0, 3.0],
                            [-5.0, -1.0, -6.0]])
        path = tmp_path / "chi.json"
        path.write_text(json.dumps(chi.to_dict()))
        code, out, _ = run(capsys, ["realize34", "--chi", str(path)])
        assert code == 1
        assert json.loads(out)["passes"] is False

    def test_search_stops_at_a_passing_seed(self, capsys):
        # the integer instance already passes on the probes, so the descent
        # returns it after its one evaluation, without scipy
        code, out, _ = run(capsys, ["realize34", "--search", "--seed", "2"])
        assert code == 0
        blob = json.loads(out)
        assert (blob["schema"], blob["seed"], blob["x"]) == (1, 2, 0.3)
        assert blob["chi"] == mari_beffa_family(-2, 3, -5)[0].to_dict()
        assert blob["report"]["chi"] == blob["chi"]
        assert blob["report"]["passes"] is True
        assert blob["converged"] is True and blob["improved"] is False
        assert blob["evaluations"] == 1

    def test_search_without_scipy_is_one_line(self, capsys, tmp_path,
                                              monkeypatch):
        # this start has to descend, and the descent is scipy's; the
        # integer instance passes at once and still runs without it
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"d": 3, "groups": [
            [-1.0, 0.5, 2.0], [1.0, -0.5, 2.0], [1.0, -2.0, 0.5]]}))
        monkeypatch.setitem(sys.modules, "scipy", None)
        code, out, err = run(capsys, ["realize34", "--search", "--chi",
                                      str(path)])
        assert code == 2
        assert out == ""
        assert err == ("usage error: the descent needs scipy, which "
                       'pip install -e ".[test]" brings\n')
        code, out, _ = run(capsys, ["realize34", "--search", "--seed", "2"])
        assert code == 0
        assert json.loads(out)["evaluations"] == 1

    def test_search_needs_planes(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"d": 2, "groups": [[-1, 1], [0, 2]]}))
        code, _, err = run(capsys, ["realize34", "--search", "--chi",
                                    str(path)])
        assert code == 2
        assert "three plane groups" in err

    def test_root_index_bounds(self, capsys):
        code, _, err = run(capsys, ["realize34", "--chi", "r-root",
                                    "--root-index", "9"])
        assert code == 2
        assert "root-index" in err

    def test_probe_floor(self, capsys):
        code, _, err = run(capsys, ["realize34", "--probes", "2"])
        assert code == 2
        assert "probes" in err

    @pytest.mark.parametrize("argv", [["realize34"],
                                      ["families", "short-diagonal", "--d", "2"]])
    def test_precision_is_not_accepted(self, capsys, argv):
        # both commands run in double only, so the flag would be a no-op
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--precision", "extended"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


class TestDispatch:
    """main builds one parser per process and finds each handler by name."""

    EXPAND = ["expand", "--chi", "short-diagonal", "--d", "2", "--kmax", "4"]

    def test_parser_is_built_once(self):
        from pentalab.cli import build_parser

        assert build_parser() is build_parser()

    def test_every_subcommand_names_a_real_operation(self):
        # a renamed function fails here instead of leaving a stale
        # "error in <op>" prefix behind
        from pentalab.cli import build_parser

        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        handlers = set()
        for name, parser in sub.choices.items():
            handler = parser.get_default("handler")
            op = parser.get_default("op")
            assert handler is not None and op is not None, name
            assert handler.startswith("cmd_"), name
            assert inspect.isfunction(getattr(pentalab.cli, handler, None))
            handlers.add(handler)
            module, dot, function = op.partition(".")
            assert dot and "." not in function, (name, op)
            found = getattr(importlib.import_module(f"pentalab.{module}"),
                            function, None)
            assert inspect.isfunction(found), (name, op)
        commands = {n for n, f in vars(pentalab.cli).items()
                    if n.startswith("cmd_") and inspect.isfunction(f)}
        assert handlers == commands

    def test_a_patched_handler_is_the_one_that_runs(self, capsys,
                                                    monkeypatch):
        first, report, _ = run(capsys, self.EXPAND)
        calls = []
        handler = pentalab.cli.cmd_expand

        def counted(rc):
            calls.append(rc)
            return handler(rc)

        monkeypatch.setattr(pentalab.cli, "cmd_expand", counted)
        second, again, _ = run(capsys, self.EXPAND)
        assert len(calls) == 1
        assert (second, again) == (first, report)

    def test_repeated_calls_share_no_state(self, capsys):
        sequence = [
            ["centralize", "--chi", "short-diagonal", "--d", "2"],
            ["expand", "--chi", "evenly-spaced", "--d", "2", "--p", "-0.8",
             "0.5", "--r-step", "0.9"],
            ["families", "short-diagonal", "--d", "3", "--seed", "5"],
            ["lax-verify", "--d", "2"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        forward = [outcome(argv) for argv in sequence]
        backward = [outcome(argv) for argv in reversed(sequence)][::-1]
        assert forward == backward
        assert [code for code, _, _ in forward] == [0, 0, 2, 0]
        assert json.loads(forward[0][1])["x_values"] == [-0.4, 0.3, 1.1]

    def test_the_benchmark_tracer_sees_a_cached_dispatch(self, tmp_path):
        # perfbench/run.py makes one untraced pass, which builds the parser,
        # then installs its tracer over every pentalab module namespace
        import importlib.util

        import pentalab.cli as cli

        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench", "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                      path)
        tracer_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_mod)

        def bindings():
            out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                   if mod is not None and name.split(".")[0] == "pentalab"}
            out["CurveSpec.frame_at"] = CurveSpec.frame_at
            out["Jet.__init__"] = pentalab.jets.Jet.__init__
            return out

        argv = self.EXPAND + ["--out", str(tmp_path / "report.json")]
        assert cli.main(argv) == 0
        before = bindings()
        tracer = tracer_mod.Tracer()
        with tracer:
            code = cli.main(argv)
        assert code == 0
        assert tracer.stats["cli.cmd_expand"][0] == 1
        after = bindings()
        assert after.keys() == before.keys()
        for key, old in before.items():
            new = after[key]
            if isinstance(old, dict):
                assert new.keys() == old.keys(), key
                assert all(new[k] is v for k, v in old.items()), key
            else:
                assert new is old, key
