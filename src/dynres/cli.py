"""Command line front end.

Four subcommands:

* ``table``: compute a multiplier polynomial (plain, rescaled, or its
  resultant against a cyclotomic polynomial) and emit it as canonical
  JSON and/or CSV.
* ``polygon``: Newton polygon vertex data of iterates, as JSON.
* ``verify``: run the identity check suites and print one verdict per
  line; optionally write a JSON report.
* ``parabolic``: classify rational parameters by the behaviour of
  their periodic cycles.

Exit status: 0 on success, 1 when a verify suite has a failing
verdict, 2 on usage errors (argparse's, any ValueError raised for a
bad parameter, and an output path that cannot be written; each of the
latter prints one ``error:`` line), 3 when a ``table`` period is above
the degree guardrail without ``--allow-large``.  ``parabolic`` stops
below the guardrail with a note instead.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from .errors import GuardrailExceeded
from .families import (
    KINDS,
    Family,
    check_degree,
    conjugacy_check,
    multiplier_poly,
    multiplier_via_product,
)
from . import invariants as inv
from . import newton
from .numtheory import divisors
from .parabolic import classify, classify_logistic, enumerate_candidates
from .report import Verdict
from .serialize import encode_csv, encode_json


def _write_or_print(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when path is None; a path that
    cannot be written is a bad parameter."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s"
                         % (path, exc.strerror)) from None
    print("wrote %s" % path)


# ---------------------------------------------------------------------------
# table


def cmd_table(args: argparse.Namespace) -> int:
    fam = Family(args.family, args.d)
    if not args.allow_large:
        check_degree(fam, args.m)
    res = multiplier_poly(fam, args.m)
    if args.resultant is not None:
        obj = inv.cyclotomic_resultant(fam, args.resultant, args.m)
    elif args.rescaled:
        obj, sign = inv.rescaled_multiplier(fam, args.m)
        if res.scale != 1:
            print("# scaled by %d before rescaling" % res.scale,
                  file=sys.stderr)
        print("# leading sign in the rescaled variable: %s" % sign,
              file=sys.stderr)
    else:
        obj = res.delta
    stem = args.out
    if args.format in ("json", "both"):
        _write_or_print(encode_json(obj),
                        None if stem is None else stem + ".json")
    if args.format in ("csv", "both"):
        _write_or_print(encode_csv(obj),
                        None if stem is None else stem + ".csv")
    return 0


# ---------------------------------------------------------------------------
# polygon


def cmd_polygon(args: argparse.Namespace) -> int:
    data = newton.polygon_export(args.d, args.k_max, args.family)
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    _write_or_print(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _route_agreement(fam: Family, m: int) -> Verdict:
    """delta_m by the production route against the fixed-point route."""
    return Verdict.identity("multiplier-route-agreement",
                            {"family": fam.label(), "m": m},
                            multiplier_poly(fam, m).delta,
                            multiplier_via_product(fam, m))


def golden_recompute(meta: dict) -> str:
    """The canonical text of the golden that meta describes."""
    kind = meta["object"]
    if kind == "rescaled-multiplier":
        fam = Family(meta["family"], meta["d"])
        return encode_json(inv.rescaled_multiplier(fam, meta["m"])[0])
    if kind == "cyclotomic-multiplier-resultant":
        fam = Family(meta["family"], meta["d"])
        return encode_json(inv.cyclotomic_resultant(fam, meta["n"], meta["m"]))
    if kind == "iterate-polygons":
        data = newton.polygon_export(meta["d"], meta["k_max"], meta["family"])
        return json.dumps(data, sort_keys=True) + "\n"
    raise ValueError("unknown golden object %r" % kind)


def _golden_checks() -> list[Verdict]:
    """One verdict per golden file: its canonical text recomputed."""
    from importlib import resources

    out = []
    root = resources.files("dynres") / "golden"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    for name in names:
        data = json.loads((root / name).read_text())
        same = golden_recompute(data["meta"]) == data["canonical"]
        out.append(Verdict.claim("golden-recompute", {"file": name},
                                 None if same else "canonical text differs"))
    return out


def verify_plan() -> dict[str, list[tuple]]:
    """The verify suites in run order, each a list of (check, args) in
    run order; a check returns a Verdict or a list of Verdicts."""
    plan: dict[str, list[tuple]] = {}

    def suite(name: str):
        """A new suite, and the function that adds a check to it."""
        entries = plan[name] = []
        return lambda check, *args: entries.append((check, args))

    add = suite("integrality")
    for kind, d, m_max in (("unicritical", 2, 4),
                           ("unicritical", 3, 3),
                           ("linearterm", 1, 4),
                           ("linearterm", 2, 3),
                           ("shifted", 1, 3),
                           ("shifted", 2, 2)):
        fam = Family(kind, d)
        for m in range(1, m_max + 1):
            add(inv.integrality_check, fam, m)
            add(inv.monicness_check, fam, m)

    add = suite("rescaled-monic")
    for d, n_max in ((2, 6), (3, 3)):
        fam = Family("unicritical", d)
        for n in range(1, n_max + 1):
            for m in divisors(n):
                add(inv.psi_monicness_check, fam, n, m)

    u2 = Family("unicritical", 2)
    add = suite("cyclotomic-units")
    for n in range(2, 7):
        for m in divisors(n):
            if m < n:
                add(inv.morton_vivaldi_check, u2, n, m)

    add = suite("degrees")
    for n in range(1, 7):
        add(inv.degree_formula_check, u2, n)

    add = suite("leading-terms")
    for d in (2, 3):
        fam = Family("unicritical", d)
        for k in (1, 2):
            for m in (1, 2):
                add(inv.unicritical_res_lt_check, fam, k, m)
        for m in range(1, 4):
            add(inv.unicritical_delta_lt_check, fam, m)
    for d in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 2)):
            add(inv.aux_leading_term_check, d, k, m)
            add(inv.aux_shifted_leading_check, d, k, m)
        add(inv.cleared_eval_lt_check, d, 2)
    for d in (1, 2, 3):
        for n in range(2, 7):
            add(inv.quadcrit_lt_check, d, n)
        add(inv.quadcrit_closed_form_check, d)
    for n in (2, 3, 5, 6, 7):
        add(inv.cyclotomic_prime_check, n)

    add = suite("structure")
    add(conjugacy_check, 2)
    add(conjugacy_check, 3)
    for d in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 2), (1, 3), (3, 3)):
            add(inv.linearterm_structure_checks, d, k, m)
            add(inv.shifted_structure_checks, d, k, m)
        for m in (1, 2, 3):
            add(inv.delta_aux_product_check, "linearterm", d, m)
            add(inv.delta_aux_product_check, "shifted", d, m)
        for k, m in ((1, 2), (2, 2), (1, 3), (3, 3)):
            add(inv.aux_integrality_check, "linearterm", d, k, m)
            add(inv.aux_integrality_check, "shifted", d, k, m)
    for k, m in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (2, 6), (3, 3)):
        add(inv.dynatomic_equality_check, u2, k, m)
    add(inv.coprime_product_check, u2, 2, 3)
    add(inv.coprime_product_check, u2, 3, 2)

    add = suite("newton")
    for d, k_max in ((2, 5), (3, 3)):
        for k in range(1, k_max + 1):
            add(newton.iterate_polygon_check, d, k)
    for d, m_max in ((2, 4), (3, 3)):
        for m in range(1, m_max + 1):
            add(newton.delta_polygon_check, d, m)
    for k, m in ((1, 1), (1, 2), (2, 2), (2, 4)):
        add(newton.resultant_polygon_check, 2, k, m)
    for d in (1, 2):
        for k in range(1, 4):
            add(newton.orbit_slope_bound_check, d, k)
            add(newton.linear_resultant_polygon_check, d, k)

    add = suite("dual-route")
    for kind, d, m_max in (("unicritical", 2, 3), ("linearterm", 1, 3),
                           ("shifted", 1, 2), ("quadcrit", 1, 2),
                           ("unicritical", 3, 2), ("linearterm", 2, 2),
                           ("shifted", 2, 2), ("quadcrit", 2, 2)):
        fam = Family(kind, d)
        for m in range(1, m_max + 1):
            add(_route_agreement, fam, m)

    add = suite("goldens")
    add(_golden_checks)
    return plan


def cmd_verify(args: argparse.Namespace) -> int:
    plan = verify_plan()
    names = list(plan) if args.suite == "all" else [args.suite]
    verdicts = []
    clocks = {}
    for name in names:
        t0 = time.perf_counter()
        batch = []
        for check, check_args in plan[name]:
            result = check(*check_args)
            batch.extend(result if isinstance(result, list) else [result])
        clocks[name] = round(time.perf_counter() - t0, 3)
        for v in batch:
            print(v.line())
        verdicts.extend(batch)
    failed = [v for v in verdicts if not v.passed]
    print("%d checks, %d failed" % (len(verdicts), len(failed)))
    if args.report is not None:
        payload = {"command": "verify", "parameters": {"suite": args.suite},
                   "verdicts": [dataclasses.asdict(v) for v in verdicts],
                   "wall_clock": clocks}
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parabolic


def _fraction(text: str) -> Fraction:
    """A rational parameter from the command line; a zero denominator is
    a bad parameter like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def cmd_parabolic(args: argparse.Namespace) -> int:
    fam = Family("unicritical", args.d)
    if args.logistic is not None:
        if args.d != 2:
            raise ValueError("--logistic maps onto z^2 + c, not --d %d"
                             % args.d)
        rows = [classify_logistic(_fraction(args.logistic),
                                  m_max=args.m_max)]
    elif args.c is not None:
        rows = [classify(fam, _fraction(args.c), m_max=args.m_max)]
    else:
        rows = [classify(fam, c, m_max=args.m_max)
                for c in enumerate_candidates(args.d)]
    for row in rows:
        print(row.line())
        for note in row.notes:
            print("  note: %s" % note)
    if args.report is not None:
        payload = [dataclasses.asdict(row) for row in rows]
        _write_or_print(json.dumps(payload, indent=2, default=str) + "\n",
                        args.report)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynres",
        description="exact multiplier polynomials and resultant invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit one multiplier polynomial")
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1, help="cycle length")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--rescaled", action="store_true",
                       help="rewrite in the family's rescaled variable")
    shape.add_argument("--resultant", type=int, metavar="N",
                       help="emit Res_x(cyc_N, delta_m) instead of delta_m")
    p.add_argument("--format", choices=("json", "csv", "both"),
                   default="json")
    p.add_argument("--out", help="output path stem (default: stdout)")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("polygon", help="Newton polygon vertices of iterates")
    p.add_argument("--family", choices=KINDS, default="unicritical")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("verify", help="run identity check suites")
    p.add_argument("--suite", choices=sorted(verify_plan()) + ["all"],
                   default="all")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parabolic",
                       help="classify rational parameters of z^d + c")
    p.add_argument("--d", type=int, default=2)
    param = p.add_mutually_exclusive_group()
    param.add_argument("--c", help="one parameter, as p/q "
                                   "(write --c=-3/4 for negative values)")
    param.add_argument("--logistic",
                       help="a parameter of the a z (1 - z) iteration, "
                            "mapped onto z^2 + c before classifying")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=cmd_parabolic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardrailExceeded as exc:
        print("guardrail: %s (re-run with --allow-large)" % exc,
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
