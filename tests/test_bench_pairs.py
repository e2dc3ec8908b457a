"""scripts/bench_pairs.py summarizes alternating parent/change runs."""
import importlib.util
import json
import os
import pathlib
import subprocess

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "bench_pairs.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, seed, wall_ref, exit=0, workload="tables", round_min=0.3):
    rec = {"side": side, "workload": workload, "seed": seed, "exit": exit,
           "correct": exit == 0}
    if exit == 0:
        rec.update(failed=0, wall_ref=wall_ref, peak_rss_mib=18.0,
                   setup_s=0.1, rounds=10, round_wall_s_median=0.5,
                   round_wall_s_min=round_min)
    return rec


def test_summarize_pairs_quartiles_and_gap():
    bp = _load_script()
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 12.0, 9.0, 9.5, 8.5]
    runs = ([_run("parent", s, v) for s, v in enumerate(parent)]
            + [_run("change", s, v) for s, v in enumerate(change)]
            + [_run("parent", 0, 99.0, workload="classify")])
    out = bp.summarize(runs, "tables")
    # statistics.quantiles' exclusive quartiles of 10..14
    assert out["parent"]["wall_ref"] == {"median": 12.0, "q1": 10.5,
                                         "q3": 13.5}
    assert out["change"]["wall_ref"]["median"] == 9.0
    assert out["parent"]["runs"] == out["change"]["runs"] == 5
    assert out["parent"]["all_exit_0"] and out["change"]["all_correct"]
    # seed 1 is 12.0 against 11.0, a loss; equal values are ties
    assert out["change_lower_in_pairs"]["wall_ref"] == "4/5"
    assert out["change_lower_in_pairs"]["peak_rss_mib"] == "0/5"
    # 12 - 9 = 3 against a parent IQR of 3: not more than it
    assert out["medians_differ_by_more_than_parent_iqr"]["wall_ref"] is False
    assert out["median_change_ratio"]["wall_ref"] == 9.0 / 12.0
    assert out["parent"]["round_wall_s_min"] == 0.3


def test_summarize_takes_shortest_round_per_side():
    bp = _load_script()
    runs = [_run("parent", 0, 20.0, round_min=0.25),
            _run("parent", 1, 20.0, round_min=0.15),
            _run("change", 0, 10.0, round_min=0.08),
            _run("change", 1, None, exit=1),
            _run("change", 0, 5.0, workload="classify", round_min=0.01)]
    out = bp.summarize(runs, "tables")
    assert out["parent"]["round_wall_s_min"] == 0.15
    # the failed run has no rounds; the other workload's are not counted
    assert out["change"]["round_wall_s_min"] == 0.08
    assert bp.summarize([_run("change", 0, None, exit=1)],
                        "tables")["change"]["round_wall_s_min"] is None


def test_summarize_counts_failed_runs_as_no_win():
    bp = _load_script()
    runs = [_run("parent", 0, 20.0), _run("change", 0, 10.0),
            _run("parent", 1, 20.0), _run("change", 1, None, exit=1)]
    out = bp.summarize(runs, "tables")
    assert out["change_lower_in_pairs"]["wall_ref"] == "1/2"
    assert out["change"]["runs"] == 2
    assert not out["change"]["all_exit_0"]
    assert not out["change"]["all_correct"]
    assert out["change"]["wall_ref"] == {"median": 10.0, "q1": 10.0,
                                         "q3": 10.0}
    assert out["medians_differ_by_more_than_parent_iqr"]["wall_ref"] is True
    assert bp._seeds("12-14,20") == [12, 13, 14, 20]


def test_run_once_records_malformed_output(monkeypatch):
    # one run whose last stdout line is not the runner's JSON must not
    # end the session: it is a run that is not correct
    bp = _load_script()
    good = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"wall_ref": {"value": 12.5}}}
    outputs = iter(["Traceback (most recent call last)\n",
                    '{"correct": true}\n',
                    "[1, 2]\n",
                    json.dumps(good) + "\n"])

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 0, stdout=next(outputs),
            stderr="tables: 3 round(s), wall 0.5, 0.25, 0.75 s\n")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    bad = [bp.run_once(".", "tables", s, 20, trace=False) for s in range(3)]
    for seed, rec in enumerate(bad):
        assert rec == {"workload": "tables", "seed": seed, "exit": 0,
                       "correct": False, "malformed": True}
    rec = bp.run_once(".", "tables", 3, 20, trace=False)
    assert "malformed" not in rec
    assert rec["correct"] is True and rec["wall_ref"] == 12.5
    assert rec["rounds"] == 3 and rec["round_wall_s_min"] == 0.25
    out = bp.summarize([dict(r, side="change") for r in bad + [rec]],
                       "tables")["change"]
    assert out["runs"] == 4 and not out["all_correct"]
    assert out["wall_ref"]["median"] == 12.5


def test_main_keeps_runs_of_a_stopped_session(monkeypatch, tmp_path):
    # the file is rewritten after every run, so the runs made before an
    # interrupt are on disk
    bp = _load_script()
    calls = []

    def fake_run_once(root, workload, seed, seconds, trace):
        calls.append(seed)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return {k: v for k, v in _run(None, seed, 10.0 + len(calls)).items()
                if k != "side"}

    monkeypatch.setattr(bp, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        bp.main(["--parent", "p", "--change", "c", "--tag", "stop",
                 "--seeds", "1-3"])
    doc = json.loads((tmp_path / "BENCH_stop.json").read_text())
    assert [(r["side"], r["seed"]) for r in doc["runs"]] == [
        ("parent", 1), ("change", 1)]
    first = doc["summary"][doc["runs"][0]["workload"]]
    assert first["change_lower_in_pairs"]["wall_ref"] == "0/1"
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_stop.json"]


def test_traced_runs_at_the_benchmark_run_length(monkeypatch, tmp_path):
    # the traced runs are as long as the untimed ones, the run_seconds of
    # BENCHMARK.json, so that their layer times compare
    bp = _load_script()
    seconds = json.loads(bp.BENCHMARK.read_text())["run_seconds"]
    calls = []

    def fake_run_once(root, workload, seed, secs, trace):
        calls.append((seed, secs, trace))
        rec = {k: v for k, v in _run(None, seed, 10.0).items() if k != "side"}
        if trace:
            rec["resultants.charpoly_int.calls"] = 7
        return rec

    monkeypatch.setattr(bp, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    bp.main(["--parent", "p", "--change", "c", "--tag", "tr", "--seeds", "1",
             "--traced-seed", "11"])
    traced = [c for c in calls if c[2]]
    assert traced and all(c == (11, seconds, True) for c in traced)
    assert all(secs == seconds for _, secs, _ in calls)
    doc = json.loads((tmp_path / "BENCH_tr.json").read_text())
    for sides in doc["traced_seed11"].values():
        assert sides["change"]["charpoly_int_calls"] == 7


def test_nonzero_exits_keep_their_stderr_tail(monkeypatch):
    # a short-round StatisticsError of the runner and a fault of the
    # program both exit 1; the last line of stderr tells them apart
    bp = _load_script()
    short = ("Traceback (most recent call last):\n"
             '  File "perfbench/run.py", line 1, in <module>\n'
             "statistics.StatisticsError: fmean requires at least one "
             "data point\n")
    fault = "Traceback (most recent call last):\nAssertionError: bad\n\n"
    results = iter([(1, short), (1, fault), (1, short), (2, "")])

    def fake_run(cmd, **kwargs):
        code, err = next(results)
        return subprocess.CompletedProcess(cmd, code, stdout="", stderr=err)

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    recs = [dict(bp.run_once(".", "tables", s, 20, trace=False), side=side)
            for s, side in enumerate(("change", "change", "parent",
                                      "parent"))]
    tail = ("statistics.StatisticsError: fmean requires at least one "
            "data point")
    assert recs[0]["stderr_tail"] == recs[2]["stderr_tail"] == tail
    assert recs[1]["stderr_tail"] == "AssertionError: bad"
    assert recs[3]["stderr_tail"] == "" and recs[3]["exit"] == 2
    ok = _run("change", 9, 10.0)
    assert "stderr_tail" not in ok
    out = bp.summarize(recs + [ok], "tables")
    assert out["change"]["nonzero_exits"] == {tail: 1,
                                              "AssertionError: bad": 1}
    assert out["parent"]["nonzero_exits"] == {tail: 1, "": 1}
    assert bp.summarize([ok], "tables")["change"]["nonzero_exits"] == {}


def test_timed_out_run_says_so(monkeypatch):
    bp = _load_script()

    def fake_run(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    rec = bp.run_once(".", "tables", 1, 20, trace=False)
    assert rec["exit"] == -1 and not rec["correct"]
    assert rec["stderr_tail"] == "timed out after %d s" % bp.TIMEOUT_S


def test_engine_peak_from_one_worker_round_per_side(monkeypatch, tmp_path):
    # each side's worker runs one untraced round at the first seed,
    # launched from the script's own process, and its peak RSS is the
    # side's engine_peak_rss_mib; a round without its record gives None
    bp = _load_script()
    launched = []
    peaks = {"p": 17.5, "c": 17.75}

    def fake_run(cmd, cwd, env, **kwargs):
        launched.append((cmd[1:], cwd, env["PYTHONPATH"]))
        side = pathlib.Path(cwd).name
        if cmd[cmd.index("--workload") + 1] == "classify" and side == "c":
            return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="")
        return subprocess.CompletedProcess(
            cmd, 0, stdout=json.dumps({"peak_rss_mib": peaks[side]}) + "\n",
            stderr="")

    def fake_run_once(root, workload, seed, seconds, trace):
        return {k: v for k, v in _run(None, seed, 10.0).items()
                if k != "side"}

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    monkeypatch.setattr(bp, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    bp.main(["--parent", "p", "--change", "c", "--tag", "eng", "--seeds",
             "5-6"])
    workloads = [w["name"] for w in json.loads(bp.BENCHMARK.read_text())
                 ["workloads"]]
    assert len(launched) == 2 * len(workloads)
    for (args, cwd, pythonpath), (w, side) in zip(
            launched, [(w, s) for w in workloads for s in "pc"]):
        assert args == ["perfbench/worker.py", "--workload", w, "--seed", "5"]
        assert cwd == str(tmp_path / side)
        assert pythonpath.split(os.pathsep)[0] == str(tmp_path / side / "src")
    summary = json.loads((tmp_path / "BENCH_eng.json").read_text())["summary"]
    for w in workloads:
        assert summary[w]["parent"]["engine_peak_rss_mib"] == 17.5
        assert summary[w]["change"]["engine_peak_rss_mib"] == (
            None if w == "classify" else 17.75)
