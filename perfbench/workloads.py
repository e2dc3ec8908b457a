"""The three workloads as plain data: which program calls each one makes.

A plan is a list of items.  Each item is a tuple whose first entry names
its kind; ``worker.run_item`` turns it into calls into ``dynres``.  The
seed only permutes the order of the items (the caches inside one process
make the total work independent of that order) and, in ``checks``, picks
the integer parameters at which table rows are recomputed.

Family arguments are written ("fam", kind, d) so that a plan stays plain
data that the parent process can build without importing the program.
"""
from __future__ import annotations

import random

WORKLOADS = ("tables", "classify", "identities")


def fam(kind: str, d: int) -> tuple:
    return ("fam", kind, d)


U2 = fam("unicritical", 2)

# Rows of tests/reference_tables.py, by table.
TABLE1_KEYS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
               (4, 1), (4, 2), (5, 1), (5, 2)]
TABLE2_KEYS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2),
               (5, 1), (5, 2)]
TABLE3_KEYS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
TABLE4_KEYS = [(d, n, m) for d in (2, 3, 4) for n in (1, 2, 3)
               for m in (1, 2)]

# Rows beyond the published tables, the bulk of the multiplier-route work.
LARGE_ROWS = [("unicritical", 2, 5), ("unicritical", 3, 3),
              ("linearterm", 2, 3), ("shifted", 2, 3), ("quadcrit", 1, 3),
              ("linearterm", 1, 5)]

# (d, m_max) of the parabolic search; z^3 + c stops at m = 3 because the
# degree guardrail aborts the whole enumeration at m = 4.
CLASSIFY_RUNS = [(2, 6), (3, 3)]
CLASSIFY_J_MAX = 12


def tables_plan() -> list[tuple]:
    items = []
    for table, kind in ((TABLE1_KEYS, "unicritical"),
                        (TABLE2_KEYS, "linearterm"),
                        (TABLE3_KEYS, "shifted")):
        items += [("rescaled", kind, d, m) for d, m in table]
    items += [("cycres", d, n, m) for d, n, m in TABLE4_KEYS]
    items += [("delta", kind, d, m) for kind, d, m in LARGE_ROWS]
    return items


def classify_plan() -> list[tuple]:
    return [("parabolic", d, m_max, CLASSIFY_J_MAX)
            for d, m_max in CLASSIFY_RUNS]


def _check(name: str, *args) -> tuple:
    return ("check", name, args)


def identities_plan() -> list[tuple]:
    """The verify suites integrality, cyclotomic-units, leading-terms,
    structure, newton and dual-route at their full ranges, the iterate
    polygon exports, and the Delta_{n,m} degree and rescaled-monic checks
    for z^2 + c, n <= 5."""
    items = []
    # integrality
    for kind, d, m_max in (("unicritical", 2, 4), ("unicritical", 3, 3),
                           ("linearterm", 1, 4), ("linearterm", 2, 3),
                           ("shifted", 1, 3), ("shifted", 2, 2)):
        for m in range(1, m_max + 1):
            items.append(_check("invariants.integrality_check",
                                fam(kind, d), m))
            items.append(_check("invariants.monicness_check",
                                fam(kind, d), m))
    # cyclotomic-units
    for n in range(2, 7):
        for m in range(1, n):
            if n % m == 0:
                items.append(_check("invariants.morton_vivaldi_check",
                                    U2, n, m))
    # leading-terms
    for d in (2, 3):
        for k in (1, 2):
            for m in (1, 2):
                items.append(_check("invariants.unicritical_res_lt_check",
                                    fam("unicritical", d), k, m))
        for m in range(1, 4):
            items.append(_check("invariants.unicritical_delta_lt_check",
                                fam("unicritical", d), m))
    for d in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 2)):
            items.append(_check("invariants.aux_leading_term_check", d, k, m))
            items.append(_check("invariants.aux_shifted_leading_check",
                                d, k, m))
        items.append(_check("invariants.cleared_eval_lt_check", d, 2))
    for d in (1, 2, 3):
        for n in range(2, 7):
            items.append(_check("invariants.quadcrit_lt_check", d, n))
        items.append(_check("invariants.quadcrit_closed_form_check", d))
    for n in (2, 3, 5, 6, 7):
        items.append(_check("invariants.cyclotomic_prime_check", n))
    # structure
    items.append(_check("families.conjugacy_check", 2))
    items.append(_check("families.conjugacy_check", 3))
    for d in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 2), (1, 3), (3, 3)):
            items.append(_check("invariants.linearterm_structure_checks",
                                d, k, m))
            items.append(_check("invariants.shifted_structure_checks",
                                d, k, m))
        for m in (1, 2, 3):
            items.append(_check("invariants.delta_aux_product_check",
                                "linearterm", d, m))
            items.append(_check("invariants.delta_aux_product_check",
                                "shifted", d, m))
        for k, m in ((1, 2), (2, 2), (1, 3), (3, 3)):
            items.append(_check("invariants.aux_integrality_check",
                                "linearterm", d, k, m))
            items.append(_check("invariants.aux_integrality_check",
                                "shifted", d, k, m))
    for k, m in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (2, 6), (3, 3)):
        items.append(_check("invariants.dynatomic_equality_check", U2, k, m))
    items.append(_check("invariants.coprime_product_check", U2, 2, 3))
    items.append(_check("invariants.coprime_product_check", U2, 3, 2))
    # newton
    for d, k_max in ((2, 5), (3, 3)):
        for k in range(1, k_max + 1):
            items.append(_check("newton.iterate_polygon_check", d, k))
    for d, m_max in ((2, 4), (3, 3)):
        for m in range(1, m_max + 1):
            items.append(_check("newton.delta_polygon_check", d, m))
    for k, m in ((1, 1), (1, 2), (2, 2), (2, 4)):
        items.append(_check("newton.resultant_polygon_check", 2, k, m))
    for d in (1, 2):
        for k in range(1, 4):
            items.append(_check("newton.orbit_slope_bound_check", d, k))
            items.append(_check("newton.linear_resultant_polygon_check",
                                d, k))
    # the iterate polygons that `dynres polygon` exports
    for kind, d, k_max in (("unicritical", 2, 5), ("unicritical", 3, 4),
                           ("shifted", 1, 4), ("shifted", 2, 3)):
        items.append(("polygon", kind, d, k_max))
    # dual-route
    for kind, d, m_max in (("unicritical", 2, 3), ("linearterm", 1, 3),
                           ("shifted", 1, 2), ("quadcrit", 1, 2),
                           ("unicritical", 3, 2), ("linearterm", 2, 2),
                           ("shifted", 2, 2), ("quadcrit", 2, 2)):
        for m in range(1, m_max + 1):
            items.append(("dual", kind, d, m))
    # Delta_{n,m} degree formula and rescaled monicness, z^2 + c, n <= 5
    for n in range(1, 6):
        items.append(_check("invariants.degree_formula_check", U2, n))
        for m in range(1, n + 1):
            if n % m == 0:
                items.append(_check("invariants.psi_monicness_check",
                                    U2, n, m))
    return items


PLANS = {"tables": tables_plan, "classify": classify_plan,
         "identities": identities_plan}


def plan(workload: str, seed: int) -> list[tuple]:
    """The items of one round, in the seeded order."""
    items = PLANS[workload]()
    random.Random("order:%s:%d" % (workload, seed)).shuffle(items)
    return items


def candidate_order(d: int, count: int, seed: int) -> list[int]:
    """Seeded order in which the enumerated candidates are classified."""
    order = list(range(count))
    random.Random("candidates:%d:%d" % (d, seed)).shuffle(order)
    return order
