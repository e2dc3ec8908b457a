import argparse
import inspect
import json
import os
import shlex
import subprocess
import sys

import pytest

from dynres.cli import build_parser, main, verify_plan
from dynres.parabolic import enumerate_candidates
from dynres.report import Verdict


def test_table_stdout(capsys):
    rc = main(["table", "--family", "unicritical", "--d", "2", "--m", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["var"] == ["c", "x"]
    # delta_2 = x - 4c - 4
    assert doc["terms"] == [{"exps": [0, 1], "coef": "1"},
                            {"exps": [1, 0], "coef": "-4"},
                            {"exps": [0, 0], "coef": "-4"}]


def test_table_files(tmp_path, capsys):
    stem = str(tmp_path / "delta")
    rc = main(["table", "--family", "unicritical", "--d", "2", "--m", "1",
               "--format", "both", "--out", stem])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "delta.json").read_text())
    # delta_1 = x^2 - 2x + 4c
    assert doc["terms"] == [{"exps": [0, 2], "coef": "1"},
                            {"exps": [0, 1], "coef": "-2"},
                            {"exps": [1, 0], "coef": "4"}]
    csv_text = (tmp_path / "delta.csv").read_text()
    assert csv_text == "e_c,e_x,coef\n0,2,1\n0,1,-2\n1,0,4\n"


def test_table_rescaled(capsys):
    rc = main(["table", "--family", "linearterm", "--d", "2", "--m", "1",
               "--rescaled"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "# scaled by 2 before rescaling" in err
    assert json.loads(out)["var"] == ["C", "x"]


def test_table_rescaled_rejects_quadcrit(capsys):
    rc = main(["table", "--family", "quadcrit", "--d", "1", "--rescaled"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_table_resultant(capsys):
    rc = main(["table", "--family", "unicritical", "--d", "2", "--m", "1",
               "--resultant", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # Res_x(x + 1, delta_1) = delta_1(-1) = 4c + 3
    assert doc["var"] == ["c"]
    assert doc["terms"] == [{"exps": [1], "coef": "4"},
                            {"exps": [0], "coef": "3"}]


def test_table_guardrail(capsys):
    rc = main(["table", "--family", "unicritical", "--d", "2", "--m", "7"])
    assert rc == 3
    assert "guardrail" in capsys.readouterr().err


def test_polygon(capsys):
    rc = main(["polygon", "--d", "2", "--k-max", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data) == ["unicritical-d=2-iterate-1",
                            "unicritical-d=2-iterate-2"]
    assert data["unicritical-d=2-iterate-2"]["vertices"] == [[0, -2], [4, 0]]


def test_verify_suite(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    rc = main(["verify", "--suite", "degrees", "--report", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert ", 0 failed" in out
    assert out.count("pass") >= 4
    rep = json.loads((tmp_path / "report.json").read_text())
    verdicts = [Verdict(**v) for v in rep["verdicts"]]
    assert verdicts and all(v.passed for v in verdicts)
    assert rep["parameters"] == {"suite": "degrees"}


def test_verify_report_times_each_check(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--suite", "leading-terms", "--report", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text())
    times = rep["check_wall_clock"]
    assert list(times) == list(rep["wall_clock"]) == ["leading-terms"]
    assert len(times["leading-terms"]) == len(verify_plan()["leading-terms"])
    assert all(t >= 0 for t in times["leading-terms"])
    # whole milliseconds, so the sum carries no float rounding
    assert (sum(round(t * 1000) for t in times["leading-terms"])
            <= round(rep["wall_clock"]["leading-terms"] * 1000))


def test_verify_plan_binds_and_names_the_suites():
    # Every planned check accepts its arguments; no check is run.
    plan = verify_plan()
    for entries in plan.values():
        assert entries
        for check, args in entries:
            inspect.signature(check).bind(*args)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions
                 if a.dest == "suite")
    assert set(plan) == set(suite.choices) - {"all"}


def test_verify_goldens(capsys):
    rc = main(["verify", "--suite", "goldens"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ", 0 failed" in out
    assert out.count("pass golden-recompute") == 47


def test_parabolic_single(capsys):
    rc = main(["parabolic", "--c=-3/4"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "-3/4: parabolic m=1 j=2"


def test_parabolic_logistic(capsys):
    rc = main(["parabolic", "--logistic", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-3/4: parabolic m=1 j=2" in out
    assert "note: logistic parameter a = 3" in out


def test_parabolic_enumeration(capsys):
    rc = main(["parabolic"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("  note:")]
    assert len(lines) == 10
    assert lines[0] == "-2: repelling-all-tested"
    assert lines[-1] == "1/4: parabolic m=1 j=1"


def test_parabolic_d3_stops_below_guardrail(capsys):
    # m = 4 is above the degree guardrail for z^3 + c; that stops each
    # parameter at m = 3 instead of aborting the enumeration
    rc = main(["parabolic", "--d", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    rows = [l for l in out if not l.startswith("  note:")]
    assert len(rows) == len(enumerate_candidates(3)) == 9
    assert rows[0] == "-4/3: unresolved"
    assert "  note: periods above m=3 not tested (degree guardrail)" in out


def test_parabolic_linearterm_needs_c(capsys):
    # parabolic classifies z^d + c only and takes no --family
    with pytest.raises(SystemExit) as exc:
        main(["parabolic", "--family", "linearterm", "--c", "1/2"])
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table", "--family", "unicritical", "--d", "1"],
    ["table", "--family", "unicritical", "--d", "2", "--m", "0"],
    ["table", "--family", "unicritical", "--d", "2", "--resultant", "0"],
    ["parabolic", "--c", "1/0"],
    ["parabolic", "--c", "abc"],
    ["parabolic", "--d", "1"],
    ["parabolic", "--d", "3", "--logistic", "3"],
    ["parabolic", "--m-max", "0"],
    ["polygon", "--d", "0"],
    ["polygon", "--d", "2", "--k-max", "0"],
])
def test_bad_parameter_is_usage_error(argv, capsys):
    # exit 1 means a failed verify check; a bad parameter is exit 2 with
    # one error line and no traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_unwritable_report_is_usage_error(tmp_path, capsys):
    # every check passes; exit 1 would claim a failed check
    path = str(tmp_path / "missing" / "r.json")
    rc = main(["verify", "--suite", "degrees", "--report", path])
    assert rc == 2
    captured = capsys.readouterr()
    assert ", 0 failed" in captured.out
    assert captured.err.startswith("error: cannot write %s" % path)
    assert captured.err.count("\n") == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    stem = str(tmp_path / "missing" / "delta")
    rc = main(["table", "--family", "unicritical", "--d", "2",
               "--out", stem])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s.json" % stem)
    assert captured.err.count("\n") == 1


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--quick"],
    ["parabolic", "--j-max", "3"],
    ["parabolic", "--c", "1/4", "--logistic", "3"],
    ["table", "--family", "unicritical", "--d", "2", "--rescaled",
     "--resultant", "2"],
])
def test_removed_flag_or_conflicting_pair_is_rejected(argv, capsys):
    # neither is silently ignored: argparse rejects both with exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_readme_commands_parse():
    # a flag removed from the parser cannot outlive its documentation
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        lines = [l for l in fh.read().splitlines()
                 if l.startswith("dynres ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_module_entry_point():
    # python -m dynres runs the same command with src on the path only
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "dynres", "verify",
                           "--suite", "degrees"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("0 failed")
