"""Regenerate the frozen golden files under src/dynres/golden/.

Each golden's canonical text comes from dynres.cli.golden_recompute,
the function `dynres verify --suite goldens` compares it with, and is
gated on an oracle before it is written: the decoded table rows must
agree with the hand-transcribed reference cells (including the
documented sign and scalar corrections), and the polygon exports must
pass the corresponding shape checks.  All goldens are computed and
gated first; only when every gate has passed are the old files removed
and the new ones written.  A golden that cannot be confirmed
makes the script fail loudly and leaves the frozen data as it was, so
a stale or wrong engine can never silently refresh it.

Run from the repository root:

    python3 scripts/generate_goldens.py
"""
from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import reference_tables as rt  # noqa: E402

from dynres import newton  # noqa: E402
from dynres.cli import golden_recompute  # noqa: E402
from dynres.serialize import decode_json  # noqa: E402

GOLDEN = ROOT / "src" / "dynres" / "golden"


def golden(name: str, meta: dict, canonical: str, elapsed: float) -> tuple:
    """(file name, file text) of one golden; prints its timing."""
    payload = {"meta": meta, "canonical": canonical}
    print("%-24s %6.2fs" % (name, elapsed))
    return name, json.dumps(payload, indent=2, sort_keys=True) + "\n"


def gen_rescaled_tables() -> list[tuple]:
    plans = (("table1", "unicritical", rt.TABLE1),
             ("table2", "linearterm", rt.TABLE2),
             ("table3", "shifted", rt.TABLE3))
    out = []
    for label, kind, table in plans:
        for (d, m), row in sorted(table.items()):
            meta = {"object": "rescaled-multiplier",
                    "family": kind, "d": d, "m": m}
            t0 = time.perf_counter()
            canonical = golden_recompute(meta)
            want = rt.expand_bivariate(row) ** row.get("cell_power", 1)
            if decode_json(canonical) != want:
                raise SystemExit("%s (%d, %d): engine disagrees with the "
                                 "reference cell" % (label, d, m))
            out.append(golden("%s-d%d-m%d.json" % (label, d, m), meta,
                              canonical, time.perf_counter() - t0))
    return out


def gen_cyclotomic_resultants() -> list[tuple]:
    out = []
    for (d, n, m), row in sorted(rt.TABLE4.items()):
        meta = {"object": "cyclotomic-multiplier-resultant",
                "family": "quadcrit", "d": d, "n": n, "m": m}
        t0 = time.perf_counter()
        canonical = golden_recompute(meta)
        value = decode_json(canonical)
        want = rt.table4_engine_expected((d, n, m))
        if want is None:
            # The unprinted cell: gate on the published leading
            # coefficient instead of a full reference polynomial.
            if value.lc != row["lc"]:
                raise SystemExit("table4 (%d, %d, %d): leading coefficient "
                                 "disagrees" % (d, n, m))
        elif value != want:
            raise SystemExit("table4 (%d, %d, %d): engine disagrees with "
                             "the reference cell" % (d, n, m))
        out.append(golden("table4-d%d-n%d-m%d.json" % (d, n, m), meta,
                          canonical, time.perf_counter() - t0))
    return out


def gen_polygons() -> list[tuple]:
    out = []
    plans = (("unicritical", 2, 5), ("unicritical", 3, 4),
             ("shifted", 1, 4), ("shifted", 2, 3))
    for kind, d, k_max in plans:
        t0 = time.perf_counter()
        for k in range(1, k_max + 1):
            if kind == "unicritical":
                verdict = newton.iterate_polygon_check(d, k)
                if not verdict.passed:
                    raise SystemExit("polygon oracle failed: %s" %
                                     verdict.line())
            else:
                for verdict in newton.orbit_slope_bound_check(d, k):
                    if not verdict.passed:
                        raise SystemExit("polygon oracle failed: %s" %
                                         verdict.line())
        meta = {"object": "iterate-polygons", "family": kind,
                "d": d, "k_max": k_max}
        out.append(golden("polygon-%s-d%d.json" % (kind, d), meta,
                          golden_recompute(meta), time.perf_counter() - t0))
    return out


def main() -> None:
    # Every gate runs before the first file is touched.
    goldens = gen_rescaled_tables() + gen_cyclotomic_resultants() \
        + gen_polygons()
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, text in goldens:
        (GOLDEN / name).write_text(text)
    print("done: %d goldens" % len(list(GOLDEN.glob("*.json"))))


if __name__ == "__main__":
    main()
