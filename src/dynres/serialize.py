"""Canonical text encodings of exact polynomials.

The JSON form is

    {"var": ["c", "x"], "terms": [{"exps": [e_c, e_x], "coef": "..."}]}

with terms sorted by main-variable exponent descending, then by
c-exponent descending, and coefficients as decimal strings so that
arbitrary precision survives any JSON reader.  One variable name means
a univariate polynomial with one exponent per term.  Encoding is
deterministic: encode(decode(s)) == s for anything encode produced,
byte for byte.

The CSV form is one term per row in the same order, with a header
naming the columns; it exists for spreadsheet-style consumers and is
write-only.
"""
from __future__ import annotations

import csv
import io
import json

from .polycore import BiPoly, IntPoly, _descending


def _variables(obj) -> list[str]:
    """The variable names, c first for a BiPoly."""
    if isinstance(obj, IntPoly):
        return [obj.var]
    if isinstance(obj, BiPoly):
        return [obj.cvar, obj.main_var]
    raise ValueError("expected an IntPoly or a BiPoly")


def poly_terms(obj) -> list[tuple]:
    """Nonzero terms in canonical order.

    IntPoly gives (exponent, coefficient) pairs; BiPoly gives
    (e_c, e_main, coefficient) triples.  Order: main exponent
    descending, then c exponent descending.
    """
    if isinstance(obj, IntPoly):
        return _descending(obj.coeffs)
    if isinstance(obj, BiPoly):
        return [(ec, em, a) for em, col in _descending(obj.coeffs)
                for ec, a in _descending(col.coeffs)]
    raise ValueError("poly_terms expects IntPoly or BiPoly")


def encode_json(obj) -> str:
    doc = {"var": _variables(obj),
           "terms": [{"exps": list(t[:-1]), "coef": str(t[-1])}
                     for t in poly_terms(obj)]}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _dense(pairs) -> list[int]:
    """Ascending coefficients from (exponent, coefficient) pairs; a
    repeated exponent sums."""
    out = [0] * (max((e for e, _ in pairs), default=-1) + 1)
    for e, a in pairs:
        out[e] += a
    return out


def decode_json(text: str):
    doc = json.loads(text)
    names = doc["var"]
    terms = [(t["exps"], int(t["coef"])) for t in doc["terms"]]
    if any(e < 0 for exps, _ in terms for e in exps):
        raise ValueError("negative exponent")
    if len(names) == 1:
        return IntPoly(_dense([(e, a) for (e,), a in terms]), names[0])
    if len(names) == 2:
        cvar, main = names
        cols: dict[int, list] = {}
        for (ec, em), a in terms:
            cols.setdefault(em, []).append((ec, a))
        return BiPoly([IntPoly(_dense(cols.get(i, [])), cvar)
                       for i in range(max(cols, default=-1) + 1)],
                      main, cvar)
    raise ValueError("expected one or two variable names")


def encode_csv(obj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["e_%s" % v for v in _variables(obj)] + ["coef"])
    writer.writerows(poly_terms(obj))
    return buf.getvalue()
