"""Tests of the benchmark's own checks, reference kernel and tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

Each check must accept the program's real output and reject the same
output with one coefficient changed, one status swapped or one verdict
flipped.  The reference kernel and the tracer must leave the program's
outputs unchanged.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

SMALL_TABLE_ITEMS = [("rescaled", "unicritical", 2, 3),
                     ("rescaled", "linearterm", 2, 2),
                     ("rescaled", "shifted", 2, 1),
                     ("cycres", 2, 3, 2),
                     ("cycres", 3, 1, 2),
                     ("delta", "linearterm", 2, 3),
                     ("delta", "quadcrit", 1, 2)]


def clear_caches(mods) -> None:
    for mod in mods.values():
        for obj in list(vars(mod).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def traced_round(items, trace: bool = True):
    """(tracer or None, round record) with the program's caches cleared
    first, so the round computes everything again."""
    mods = worker._modules()
    clear_caches(mods)
    traced = tracing.Tracer() if trace else None
    if traced is not None:
        traced.install()
    try:
        return traced, worker.run_round(mods, items, 0, traced)
    finally:
        if traced is not None:
            traced.uninstall()


def outputs_of(items, trace: bool = False) -> list:
    return traced_round(items, trace)[1]["outputs"]


@pytest.fixture(scope="module")
def ctx():
    return checks.Context(ROOT, 5)


@pytest.fixture(scope="module")
def table_outputs():
    return outputs_of(SMALL_TABLE_ITEMS)


def bump_coefficient(text: str, index: int = 0) -> str:
    doc = json.loads(text)
    term = doc["terms"][index]
    term["coef"] = str(int(term["coef"]) + 1)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def test_table_outputs_pass(table_outputs, ctx):
    assert len(table_outputs) == len(SMALL_TABLE_ITEMS)
    for op, out in table_outputs:
        assert checks.check_output("tables", op, out, ctx) is None, op


@pytest.mark.parametrize("field", ["psi", "delta", "value"])
def test_table_checks_reject_one_changed_coefficient(table_outputs, ctx,
                                                      field):
    hits = 0
    for op, out in table_outputs:
        if field not in out:
            continue
        for index in range(len(json.loads(out[field])["terms"])):
            bad = dict(out)
            bad[field] = bump_coefficient(out[field], index)
            assert checks.check_output("tables", op, bad, ctx) is not None, (
                op, field, index)
            hits += 1
    assert hits


def test_delta_recomputation_matches_known_rows():
    # delta_1 of z^2 + c is x^2 - 2x + 4c; at c = 3 that is x^2 - 2x + 12
    assert checks.delta_at("unicritical", 2, 1, 3) == [12, -2, 1]
    # delta_2 of z^2 + c is x - 4c - 4
    assert checks.delta_at("unicritical", 2, 2, -2) == [4, 1]


def test_independent_helpers():
    assert checks.cyclotomic(6) == [1, -1, 1]
    assert [checks.nu(2, m) for m in range(1, 7)] == [2, 2, 6, 12, 30, 54]
    # Gleason polynomial of period 2: c + 1; period 3: c^3 + 2c^2 + c + 1
    assert checks.gleason(2, 2) == [1, 1]
    assert checks.gleason(2, 3) == [1, 1, 2, 1]
    assert checks.resultant_monic([1, 1, 1], [-1, 1]) == 3
    assert checks.candidates(2) == sorted(
        __import__("fractions").Fraction(c) for c in checks.PAPER_D2)


@pytest.fixture(scope="module")
def classify_outputs():
    # m_max = 3 settles every z^2 + c candidate as the paper does, at a
    # fraction of the cost of the workload's m_max = 6.
    return outputs_of([("parabolic", 2, 3, 12), ("parabolic", 3, 3, 12)])


def by_op(outputs) -> dict:
    return {op: out for op, out in outputs}


def test_classify_outputs_pass(classify_outputs, ctx):
    assert len(classify_outputs) == 2 + 10 + 9
    for op, out in classify_outputs:
        assert checks.check_output("classify", op, out, ctx) is None, op


def test_classify_check_rejects_swapped_status(classify_outputs, ctx):
    ops = by_op(classify_outputs)
    a, b = ops["classify/2/1/4"], ops["classify/2/-3/4"]
    for op, src in (("classify/2/1/4", b), ("classify/2/-3/4", a)):
        bad = dict(src, c=op.split("/", 2)[2])
        assert checks.check_output("classify", op, bad, ctx) is not None
    bad = dict(ops["classify/2/-2"], status="unresolved")
    assert checks.check_output("classify", "classify/2/-2", bad, ctx)


def test_classify_check_rejects_false_witnesses(classify_outputs, ctx):
    ops = by_op(classify_outputs)
    good = ops["classify/3/1/3"]
    assert good["status"] == "attracting"
    bad = copy.deepcopy(good)
    bad["witness"]["interval"] = ["0", "1/64"]
    assert checks.check_output("classify", "classify/3/1/3", bad, ctx)
    bad = dict(good, status="parabolic", root_order=2)
    assert checks.check_output("classify", "classify/3/1/3", bad, ctx)
    bad = dict(ops["classify/3/2/3"], status="attracting", period=1,
               witness={"interval": ["-1", "1"]})
    assert checks.check_output("classify", "classify/3/2/3", bad, ctx)
    bad = dict(ops["classify/2/0"], period=2)
    assert checks.check_output("classify", "classify/2/0", bad, ctx)


def test_enumerate_check_rejects_missing_candidate(classify_outputs, ctx):
    out = by_op(classify_outputs)["enumerate/3"]
    bad = {"candidates": out["candidates"][1:]}
    assert checks.check_output("classify", "enumerate/3", bad, ctx)


def test_identity_checks(ctx):
    items = [("check", "invariants.integrality_check",
              (("fam", "shifted", 1), 2)),
             ("check", "newton.orbit_slope_bound_check", (1, 2)),
             ("polygon", "shifted", 1, 3)]
    outputs = outputs_of(items)
    for op, out in outputs:
        assert checks.check_output("identities", op, out, ctx) is None, op
        bad = copy.deepcopy(out)
        if "verdicts" in bad:
            bad["verdicts"][-1][2] = False
        else:
            bad["polygons"]["shifted-d=1-iterate-2"]["vertices"][0][1] -= 1
        assert checks.check_output("identities", op, bad, ctx), op


def test_reference_kernel_is_fixed():
    first = refkernel.kernel()
    assert first == refkernel.kernel() > 0
    assert refkernel.timed_slice() > 0


def test_reference_slices_and_tracer_leave_outputs_unchanged(table_outputs):
    mods = worker._modules()
    clear_caches(mods)
    direct = []
    for item in SMALL_TABLE_ITEMS:
        worker.run_item(mods, item, 0, lambda op, out: direct.append([op, out]))
    assert direct == table_outputs
    assert outputs_of(SMALL_TABLE_ITEMS, trace=True) == table_outputs
    # the wrappers are gone again
    assert mods["families"].multiplier_poly.__name__ == "multiplier_poly"
    assert not hasattr(mods["families"].multiplier_poly, "__wrapped__")
    assert "exact_div" in vars(mods["polycore"].BiPoly)
    assert not hasattr(mods["polycore"].BiPoly.exact_div, "__wrapped__")


def test_layer_times_add_up_and_counts_repeat():
    first, record = traced_round(SMALL_TABLE_ITEMS)
    layer_total = sum(first.layer_seconds().values())
    self_total = sum(first.self_seconds().values())
    assert abs(layer_total - self_total) < 1e-6
    assert abs(layer_total - record["wall_s"]) < 0.01 * record["wall_s"]
    metrics = first.metrics()
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert metrics["resultants.charpoly_int.calls"] > 0
    assert metrics["families.multiplier_poly.nodes"] > 0
    assert 0 < metrics["families.multiplier_poly.node_yield"] <= 1
    second, _ = traced_round(SMALL_TABLE_ITEMS)
    for name in tracing.EXACT_COUNTS:
        assert second.metrics()[name] == metrics[name], name
