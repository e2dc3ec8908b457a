"""Alternating parent/change pairs of the benchmark, summarized in one file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --tag TAG
        [--seeds 12-21] [--traced-seed 11] [--what TEXT]

DIR is the root of a checkout; each side runs its own, unmodified
``perfbench/run.py`` there, one workload at a time.  The workloads and
the run length are those of ``BENCHMARK.json`` beside this script, so a
pair runs exactly as the benchmark does.  Pair i of a workload runs
both sides on the i-th seed, the parent first when i is even and the
change first when i is odd.  The rounds and round wall times are read
from the runner's standard error, the metrics from the JSON line it
prints last; a run whose last line is not that JSON is recorded as not
correct, with ``malformed``, and the session goes on.  A run that exits
non-zero keeps the last line of its standard error as ``stderr_tail``,
so that the runner's short-round ``StatisticsError`` reads apart from a
fault of the program under test.  With ``--traced-seed``, each side
then runs one traced run per workload (``--trace 1``, at the same run
length) for the per-layer counts.

After a workload's pairs, each side's unmodified ``perfbench/worker.py
--workload W --seed S`` runs one untraced round, launched from this
script's own process at the first seed, and its ``peak_rss_mib`` is that
side's ``engine_peak_rss_mib``.  The runner's ``peak_rss_mib`` also
holds what the worker inherits from the runner, which grows with the
round count; the single round's peak reads apart from it.  It runs after
the pairs so that, as for the runner's rounds, the checkout's bytecode
is already written: a round that compiles it peaks about 1.5 MiB higher.

The result is ``BENCH_<TAG>.json`` in the working directory, rewritten
whole after every run so that a session stopped part way keeps the runs
it made: every run, the traced runs, and per workload each side's
median and quartiles, its shortest round wall time, its non-zero exits
counted by ``stderr_tail``, the pairs the change won on each end-to-end
metric (lower is better, ties count for neither side), the ratio of the
medians, and whether the medians differ by more than the parent's
interquartile range.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys

METRICS = ("wall_ref", "peak_rss_mib", "setup_s")
STATS = METRICS + ("rounds", "round_wall_s_median")
SIDES = ("parent", "change")
BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# The runner ends everything within 180 s; a run past this is hung and
# is recorded with exit -1.
TIMEOUT_S = 300
ROUNDS_LINE = re.compile(r"^(\w+): (\d+) round\(s\), wall (.*) s$", re.M)


def run_once(root: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``, as a record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    rec = {"workload": workload, "seed": seed, "exit": -1, "correct": False}
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["stderr_tail"] = "timed out after %d s" % TIMEOUT_S
        return rec
    rec["exit"] = proc.returncode
    if proc.returncode != 0:
        rec["stderr_tail"] = (proc.stderr.strip().splitlines() or [""])[-1]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return rec
    try:
        doc = json.loads(lines[-1])
        fields = dict(correct=doc["correct"] is True,
                      attempted=doc["attempted"], failed=doc["failed"])
        fields.update({name: m["value"]
                       for name, m in doc["metrics"].items()})
    except (ValueError, KeyError, TypeError, AttributeError):
        # not the runner's JSON line: keep the run, and the session
        rec["malformed"] = True
        sys.stderr.write(proc.stderr[-2000:])
        return rec
    rec.update(fields)
    match = ROUNDS_LINE.search(proc.stderr)
    if match:
        walls = [float(w) for w in match.group(3).split(", ")]
        rec.update(rounds=int(match.group(2)),
                   round_wall_s_median=statistics.median(walls),
                   round_wall_s_min=min(walls))
    return rec


def engine_peak(root: str, workload: str, seed: int) -> float | None:
    """peak_rss_mib of one untraced worker round in checkout ``root``,
    launched from this process; None when the round does not end in its
    JSON record."""
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", str(seed)]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    try:
        return float(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["peak_rss_mib"])
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _spread(values: list[float]) -> dict | None:
    """Median and quartiles, the quartiles as statistics.quantiles takes
    them (its default, exclusive method)."""
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], workload: str,
              engine: dict | None = None) -> dict:
    """Both sides' spreads and the pairwise comparison for one workload,
    with each side's ``engine_peak_rss_mib`` from ``engine`` (side ->
    MiB), None for a side it lacks.

    A run that exited non-zero carries no metrics; it counts in ``runs``
    and ``all_exit_0``, and under its ``stderr_tail`` in ``nonzero_exits``,
    and a pair that has it wins for neither side.
    """
    mine = [r for r in runs if r["workload"] == workload]
    out: dict = {}
    for side in SIDES:
        rs = [r for r in mine if r["side"] == side]
        sums = {key: _spread([r[key] for r in rs if key in r])
                for key in STATS}
        # The shortest round of the side, not a spread: a round under
        # the runner's first 0.1 s reference slice leaves it no slice.
        sums["round_wall_s_min"] = min(
            (r["round_wall_s_min"] for r in rs if "round_wall_s_min" in r),
            default=None)
        sums.update(runs=len(rs),
                    all_exit_0=all(r["exit"] == 0 for r in rs),
                    all_correct=all(r["correct"] for r in rs),
                    nonzero_exits=dict(collections.Counter(
                        r.get("stderr_tail", "") for r in rs
                        if r["exit"] != 0)),
                    failed=sum(r.get("failed", 0) for r in rs),
                    engine_peak_rss_mib=(engine or {}).get(side))
        out[side] = sums
    by_seed = {(r["seed"], r["side"]): r for r in mine}
    seeds = sorted({r["seed"] for r in mine})
    wins, gaps, ratios = {}, {}, {}
    for key in METRICS:
        pairs = [(by_seed.get((s, "parent"), {}).get(key),
                  by_seed.get((s, "change"), {}).get(key)) for s in seeds]
        won = sum(1 for p, c in pairs
                  if p is not None and c is not None and c < p)
        wins[key] = "%d/%d" % (won, len(pairs))
        parent, change = out["parent"][key], out["change"][key]
        if parent is None or change is None:
            gaps[key] = ratios[key] = None
            continue
        gaps[key] = (abs(change["median"] - parent["median"])
                     > parent["q3"] - parent["q1"])
        ratios[key] = change["median"] / parent["median"]
    out["change_lower_in_pairs"] = wins
    out["medians_differ_by_more_than_parent_iqr"] = gaps
    out["median_change_ratio"] = ratios
    return out


def _traced(root: str, workload: str, seed: int, seconds: float) -> dict:
    rec = run_once(root, workload, seed, seconds, trace=True)
    keys = {"charpoly_int_s": "resultants.charpoly_int.s",
            "charpoly_int_calls": "resultants.charpoly_int.calls",
            "charpoly_interp_attempts": "resultants.charpoly_interp.attempts",
            "multiplier_poly_nodes": "families.multiplier_poly.nodes",
            "multiplier_poly_node_yield":
                "families.multiplier_poly.node_yield"}
    out = {short: rec[name] for short, name in keys.items() if name in rec}
    out.update({k: rec[k] for k in ("round_wall_s_median", "round_wall_s_min",
                                    "rounds", "exit", "stderr_tail",
                                    "correct", "failed")
                if k in rec})
    return out


def _seeds(text: str) -> list[int]:
    """'12-21' or '1,3,5' or a mix of both."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _write(path: str, doc: dict, runs: list[dict], workloads: list[str],
           engine: dict) -> None:
    """doc with the summary and the runs so far, written to a temporary
    file and moved over path, so path always holds a whole document."""
    doc = dict(doc, summary={w: summarize(runs, w, engine.get(w))
                             for w in workloads}, runs=runs)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("12-21"))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--what", default="perfbench end-to-end metrics, "
                                      "parent against change")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    bench = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    path = "BENCH_%s.json" % args.tag
    doc = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   "--seconds %g --trace 0, unmodified, in each checkout; "
                   "rounds and round wall times read from its standard "
                   "error" % seconds,
        "machine": "%s, %d CPUs, Python %s" % (
            platform.system(), os.cpu_count() or 0,
            platform.python_version()),
        "pairs": "seeds %s per workload (%s), parent first in even-indexed "
                 "pairs and change first in odd-indexed ones" % (
                     ",".join(map(str, args.seeds)), ", ".join(workloads)),
    }
    runs = []
    engine: dict = {}
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                rec = dict(side=side, **run_once(roots[side], workload, seed,
                                                 seconds, trace=False))
                runs.append(rec)
                print("%s %s seed %d: exit %d, wall_ref %s" % (
                    workload, side, seed, rec["exit"], rec.get("wall_ref")),
                    file=sys.stderr, flush=True)
                _write(path, doc, runs, workloads, engine)
        engine[workload] = {side: engine_peak(roots[side], workload,
                                              args.seeds[0])
                            for side in SIDES}
    if args.traced_seed is not None:
        doc["traced_seed%d" % args.traced_seed] = {
            w: {side: _traced(roots[side], w, args.traced_seed, seconds)
                for side in SIDES} for w in workloads}
    _write(path, doc, runs, workloads, engine)
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
