"""Benchmark of the dynres exact engine.

    python3 perfbench/run.py --workload {tables,classify,identities}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is pure Python, so the
build is only putting ``src`` on ``PYTHONPATH``.  One run:

1. launches the worker SETUP_LAUNCHES times with ``--setup-only`` and
   takes the median time from launch until its inputs were ready
   (``setup_s``);
2. runs rounds of the workload, each in a fresh interpreter with cold
   caches as every ``dynres`` command starts, until ``--seconds`` of
   round wall time have passed (at least one whole round);
3. checks every operation's output against the independent
   computations in ``checks.py``; a check verdict is reused for a later
   round whose output text is identical;
4. prints one JSON object as its last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds); with ``--trace 1`` the workers wrap the program's public
functions and the metrics are the per-layer ones.  ``correct`` is false
when an operation returned an output that failed its check; ``failed``
counts those and the operations that raised.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7
# Everything, checks included, has to end within 180 s of the start.
DEADLINE_S = 165
OUT_DIR = os.path.join(HERE, "out")

# The raw wall time of a round is printed to standard error only: on a
# shared machine its spread is that of the machine's speed (see README).
END_TO_END = (("wall_ref", "ref"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def _env(root: str) -> dict:
    env = dict(os.environ)
    # Bytecode is written and reused, as an installed dynres would have
    # it, so set-up time and peak RSS do not depend on whether the caller
    # happens to forbid writing it: only the first launch compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _launch(root: str, args: list[str], deadline: float) -> tuple[int, dict]:
    """Run the worker to completion; (launch time ns, its JSON record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr.strip()[-2000:]))
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(root: str, workload: str, seed: int,
                  deadline: float) -> float:
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0, rec = _launch(root, ["--workload", workload, "--seed", str(seed),
                                 "--setup-only"], deadline)
        times.append((rec["ready_ns"] - t0) / 1e9)
    return statistics.median(times)


def run_rounds(root: str, workload: str, seed: int, seconds: float,
               trace: bool, deadline: float) -> list[dict]:
    """Whole rounds until their wall time reaches ``seconds``, and no
    round that the deadline could cut short."""
    args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        if rounds and time.monotonic() + 2 * rounds[-1]["wall_s"] > deadline:
            break
        _, rec = _launch(root, args, deadline)
        rounds.append(rec)
        elapsed += rec["wall_s"]
    return rounds


def check_rounds(rounds: list[dict], workload: str,
                 ctx: checks.Context) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, first few reasons) over all rounds."""
    attempted = failed = wrong = 0
    reasons: list[str] = []
    verdicts: dict[tuple, str | None] = {}
    for rec in rounds:
        for op, out in rec["outputs"]:
            attempted += 1
            if "error" in out:
                failed += 1
                reasons.append("%s raised %s" % (op, out["error"]))
                continue
            key = (op, json.dumps(out, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = checks.check_output(workload, op, out, ctx)
            if verdicts[key] is not None:
                failed += 1
                wrong += 1
                reasons.append("%s: %s" % (op, verdicts[key]))
    return attempted, failed, wrong, reasons[:10]


def end_to_end(rounds: list[dict], setup_s: float) -> dict:
    normalized = [r["wall_s"] / statistics.fmean(r["ref_s"]) for r in rounds]
    values = {"wall_ref": statistics.median(normalized),
              "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                                for r in rounds),
              "setup_s": setup_s}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(rounds: list[dict]) -> dict:
    """Times are medians over the rounds; counts are those of the first
    round, and a count that differs in a later round is reported."""
    out = {}
    for name, unit, _better in tracer.LAYER_METRICS:
        values = [r["layers"][name] for r in rounds]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                print("note: %s differs between rounds: %s" % (name, values),
                      file=sys.stderr)
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace_summary(rounds: list[dict], workload: str, seed: int) -> str:
    """Every round's spans (name, start ns, end ns, index of the parent
    span or -1), time per span name and layer metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))
    keys = ("wall_s", "spans", "layers", "layer_s", "self_s", "inclusive_s")
    doc = [{key: r[key] for key in keys} for r in rounds]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for needed in (("src", "dynres", "__init__.py"),
                   ("tests", "reference_tables.py")):
        if not os.path.isfile(os.path.join(root, *needed)):
            print("error: %s not found; run from the root of a dynres "
                  "checkout" % os.path.join(*needed), file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        ctx = checks.Context(root, args.seed)
        setup_s = measure_setup(root, args.workload, args.seed, deadline)
        rounds = run_rounds(root, args.workload, args.seed, args.seconds,
                            bool(args.trace), deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, wrong, reasons = check_rounds(rounds, args.workload,
                                                     ctx)
    for reason in reasons:
        print("failed: %s" % reason, file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds)
        path = write_trace_summary(rounds, args.workload, args.seed)
        print("trace summary: %s" % os.path.relpath(path, root),
              file=sys.stderr)
    else:
        metrics = end_to_end(rounds, setup_s)
    print("%s: %d round(s), wall %s s" % (
        args.workload, len(rounds),
        ", ".join("%.3f" % r["wall_s"] for r in rounds)), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
