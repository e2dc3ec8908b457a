"""One round of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 worker.py --workload W --seed N [--trace]``
with ``src`` on ``PYTHONPATH``.  It imports dynres, builds the round's
items, runs them and prints one JSON object: the time the inputs were
ready (on the system-wide monotonic clock, so the parent can take set-up
time), the wall time of the items, the times of the reference slices,
the peak RSS and every item's output.  ``--setup-only`` stops after the
inputs are built.

Reference slices are taken at a fixed interval of wall time by an
interval timer, whose handler runs between two bytecodes of whatever
item is running; the handler's own time is taken out of the wall time.
Slices between items alone would not do: one item of ``classify`` runs
for twenty seconds, and the machine's speed drifts within it.  Traced
rounds (``--trace``) take no slices, so the spans hold only the
program's work.

Nothing here checks outputs; that happens in the parent, after the peak
RSS is read, so no oracle library is ever imported into this process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SLICE_INTERVAL_S = 0.1
RESIDUAL_CHARS = 200


def _modules():
    import importlib

    import dynres  # noqa: F401

    return {name: importlib.import_module("dynres." + name)
            for name in tracing.MODULES}


def _arg(mods, a):
    if isinstance(a, tuple) and a and a[0] == "fam":
        return mods["families"].Family(a[1], a[2])
    return a


def _verdicts(result) -> list:
    batch = result if isinstance(result, list) else [result]
    return [[v.check, v.params, bool(v.passed),
             None if v.residual is None else str(v.residual)[:RESIDUAL_CHARS]]
            for v in batch]


def _classification(row) -> dict:
    return {"c": str(row.c), "status": row.status, "period": row.period,
            "root_order": row.root_order,
            "witness": json.loads(json.dumps(row.witness, default=str))}


def op_name(item) -> str:
    """The name under which an item's (first) operation is reported."""
    if item[0] == "check":
        _, name, args = item
        return "%s%s" % (name.split(".")[1], tuple(
            "%s-%d" % a[1:] if isinstance(a, tuple) else a for a in args))
    if item[0] == "parabolic":
        return "enumerate/%d" % item[1]
    return "/".join(str(x) for x in item)


def run_item(mods, item, seed: int, emit) -> None:
    """Run one item; ``emit(op, output)`` once per operation it makes.

    An operation that raises is emitted with the exception as its output
    and counts as failed.
    """
    fams = mods["families"]
    inv = mods["invariants"]
    enc = mods["serialize"].encode_json
    kind = item[0]
    op = op_name(item)
    try:
        if kind == "rescaled":
            _, family, d, m = item
            fam = fams.Family(family, d)
            res = fams.multiplier_poly(fam, m)
            scaled = res.delta.scale_c(mods["polycore"].IntPoly.const(res.scale))
            psi, sign = inv.rescale_extract(scaled, fam)
            emit(op, {"psi": enc(psi), "delta": enc(res.delta),
                      "scale": res.scale, "sign": sign})
        elif kind == "cycres":
            _, d, n, m = item
            delta = fams.multiplier_poly(fams.Family("quadcrit", d), m).delta
            cyc = inv.lift_to_x(mods["numtheory"].cyclotomic(n), "c")
            emit(op, {"value": enc(mods["resultants"].resultant(cyc, delta))})
        elif kind == "delta":
            _, family, d, m = item
            res = fams.multiplier_poly(fams.Family(family, d), m)
            emit(op, {"delta": enc(res.delta)})
        elif kind == "parabolic":
            _, d, m_max, j_max = item
            par = mods["parabolic"]
            cands = par.enumerate_candidates(d)
            emit(op, {"candidates": [str(c) for c in cands]})
            fam = fams.Family("unicritical", d)
            for i in workloads.candidate_order(d, len(cands), seed):
                c = cands[i]
                try:
                    row = par.classify(fam, c, m_max=m_max, j_max=j_max)
                    out = _classification(row)
                except Exception as exc:  # one failed classification
                    out = {"error": "%s: %s" % (type(exc).__name__, exc)}
                emit("classify/%d/%s" % (d, c), out)
        elif kind == "polygon":
            _, family, d, k_max = item
            emit(op, {"polygons": mods["newton"].polygon_export(d, k_max,
                                                                family)})
        elif kind == "dual":
            _, family, d, m = item
            fam = fams.Family(family, d)
            a = fams.multiplier_poly(fam, m).delta
            b = fams.multiplier_via_product(fam, m)
            emit(op, {"verdicts": [["multiplier-route-agreement",
                                    {"family": fam.label(), "m": m},
                                    a == b, None]]})
        elif kind == "check":
            _, name, args = item
            modname, fname = name.split(".")
            fn = getattr(mods[modname], fname)
            result = fn(*[_arg(mods, a) for a in args])
            emit(op, {"verdicts": _verdicts(result)})
        else:
            raise ValueError("unknown item kind %r" % kind)
    except Exception as exc:
        emit(op, {"error": "%s: %s" % (type(exc).__name__, exc)})


class SliceTimer:
    """Runs a reference slice every ``interval`` seconds of wall time.

    ``paused_ns`` is the wall time spent inside the slices, which the
    caller subtracts from its own measurement.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.slices: list[float] = []
        self.paused_ns = 0
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a slice that overran the interval: skip, not nest
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.slices.append(refkernel.timed_slice())
        self.paused_ns += time.perf_counter_ns() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_round(mods, items, seed: int, tracer=None) -> dict:
    """Runs the items once; returns the round record.

    Without a tracer, reference slices run at a fixed interval; with one,
    none run, and every item is one root span.
    """
    outputs = []

    def emit(op, out):
        outputs.append([op, out])

    if tracer is not None:
        t0 = time.perf_counter_ns()
        for item in items:
            tracer.span(tracing.ROOT, run_item, mods, item, seed, emit)
        wall_ns = time.perf_counter_ns() - t0
        slices = []
    else:
        with SliceTimer(SLICE_INTERVAL_S) as timer:
            t0 = time.perf_counter_ns()
            for item in items:
                run_item(mods, item, seed, emit)
            wall_ns = time.perf_counter_ns() - t0
        wall_ns -= timer.paused_ns
        slices = timer.slices
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": wall_ns / 1e9, "ref_s": slices,
            "peak_rss_mib": peak, "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods = _modules()
    items = workloads.plan(args.workload, args.seed)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record = run_round(mods, items, args.seed, tracer)
    record["ready_ns"] = ready_ns
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["self_s"] = tracer.self_seconds()
        record["layer_s"] = tracer.layer_seconds()
        record["inclusive_s"] = tracer.inclusive_seconds()
        record["spans"] = tracer.spans
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
