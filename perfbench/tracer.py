"""Spans and counters around the public functions of every dynres module.

The tracer replaces each public function of each ``dynres`` module (and
the method ``BiPoly.exact_div``) by a wrapper, in every module namespace
that holds it, so calls between modules pass through the wrappers too.
Each wrapped call is one span: name, start, end and the span that caused
it.  A span's self time is its duration minus the durations of the
wrapped calls directly beneath it, so the self times of all spans of one
item add up to the item's wall time.

The layer times in BENCHMARK.json (``<name>.s``) use the same rule over
the named layers only: a layer's time is its duration minus the
durations of the named layers beneath it, so the time of an unnamed
helper (``det_int`` under ``resultant_int``, say) counts towards the
nearest named layer above it, and what no named layer covers counts
towards the item itself (``perfbench.item``).  These times, too, add up
to the items' wall time.

The layer metrics named in BENCHMARK.json are derived from the spans
plus a few counters kept where the work happens:

* nodes: ``charpoly_int`` calls beneath a ``multiplier_poly`` or a
  ``charpoly_interp`` call;
* node yield: the sum of (deg_c of the result + 1) over the calls that
  evaluated nodes, divided by those nodes;
* attempts: ``interpolate_intpolys`` calls beneath ``charpoly_interp``;
* bound fallbacks: ``BoundTooSmall`` raised out of a ``charpoly_resultant``
  that was given a c-degree bound;
* coefficient bits: the largest coefficient bit length of any polynomial
  returned by the calls in ``OUTPUT_CALLS``.
"""
from __future__ import annotations

import functools
import sys
import time

# The program's modules, which are the layers.
MODULES = ("polycore", "numtheory", "resultants", "families", "invariants",
           "newton", "parabolic", "serialize", "report", "cli")

METHODS = (("polycore", "BiPoly", "exact_div"),)

OUTPUT_CALLS = ("families.multiplier_poly", "families.multiplier_via_product",
                "families.dynatomic", "invariants.delta_nm",
                "resultants.charpoly_resultant", "resultants.resultant")

ROOT = "perfbench.item"

MP = "families.multiplier_poly"
CI = "resultants.charpoly_interp"
CINT = "resultants.charpoly_int"
INTERP = "polycore.interpolate_intpolys"
CR = "resultants.charpoly_resultant"

# The named layers, whose time is reported as "<name>.s".
SELF_TIMED = (
    "families.multiplier_poly", "families.iterate",
    "families.multiplier_derivative", "polycore.BiPoly.exact_div",
    "families.multiplier_via_product", "resultants.charpoly_int",
    "resultants.charpoly_interp", "resultants.charpoly_powersum",
    "resultants.resultant_sylvester", "resultants.resultant_int",
    "polycore.interpolate_intpolys", "polycore.interpolate_int",
    "polycore.nth_root", "invariants.aux_nonunicritical",
    "invariants.aux_shifted", "invariants.delta_nm",
    "invariants.rescale_extract", "newton.polygon_export",
    "parabolic.classify", "parabolic.sturm_count",
    "parabolic.enumerate_candidates", "serialize.encode_json",
)
LAYERS = frozenset(SELF_TIMED) | {ROOT}

CALL_COUNTED = ("families.iterate", "resultants.charpoly_int",
                "resultants.resultant_int")

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json order.
LAYER_METRICS = (
    [(name + ".s", "s", "lower") for name in SELF_TIMED]
    + [(name + ".calls", "count", "lower") for name in CALL_COUNTED]
    + [("families.multiplier_poly.nodes", "count", "lower"),
       ("families.multiplier_poly.node_yield", "ratio", "higher"),
       ("resultants.charpoly_interp.attempts", "count", "lower"),
       ("resultants.charpoly_interp.node_yield", "ratio", "higher"),
       ("resultants.bound_fallbacks", "count", "lower"),
       ("polycore.coeff_bits_max", "bits", "lower")]
)

# Counts that must repeat exactly from run to run.
EXACT_COUNTS = ("families.multiplier_poly.nodes",
                "resultants.charpoly_int.calls",
                "resultants.resultant_int.calls",
                "resultants.bound_fallbacks")


def coeff_bits(obj) -> int:
    """Largest coefficient bit length of an IntPoly, a BiPoly or a result
    record holding one as ``delta`` or ``poly``."""
    for attr in ("delta", "poly"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            obj = inner
    coeffs = getattr(obj, "coeffs", None)
    if coeffs is None:
        return 0
    best = 0
    for a in coeffs:
        if isinstance(a, int):
            best = max(best, abs(a).bit_length())
        else:
            best = max(best, coeff_bits(a))
    return best


class Tracer:
    """Wraps the program's public functions and aggregates their spans.

    ``install`` patches the modules and ``uninstall`` restores them.  All
    state lives on the instance.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        # name -> [calls, self_ns, layer_ns, inclusive_ns]
        self.stats: dict[str, list[int]] = {}
        # [span index, child_ns, layer_child_ns]
        self.stack: list[list] = []
        self.active: dict[str, int] = {}
        self.mp_nodes = 0
        self.mp_yield = 0
        self.ci_nodes = 0
        self.ci_yield = 0
        self.ci_attempts = 0
        self.fallbacks = 0
        self.bits_max = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        if name == CINT:
            if self.active.get(MP):
                self.mp_nodes += 1
            if self.active.get(CI):
                self.ci_nodes += 1
        elif name == INTERP and self.active.get(CI):
            self.ci_attempts += 1
        self.active[name] = self.active.get(name, 0) + 1

    def _exit(self, name: str, args, kwargs, result, exc, nodes0) -> None:
        self.active[name] -= 1
        if exc is not None:
            if (name == CR and type(exc).__name__ == "BoundTooSmall"
                    and self._bounded(args, kwargs)):
                self.fallbacks += 1
            return
        if name == MP and self.mp_nodes > nodes0[0]:
            self.mp_yield += (result.delta.deg_c or 0) + 1
        elif name == CI and self.ci_nodes > nodes0[1]:
            self.ci_yield += (result.deg_c or 0) + 1
        if name in OUTPUT_CALLS:
            self.bits_max = max(self.bits_max, coeff_bits(result))

    @staticmethod
    def _bounded(args, kwargs) -> bool:
        bound = kwargs.get("degc_bound", args[3] if len(args) > 3 else None)
        return bound is not None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) as one span called ``name``."""
        nodes0 = (self.mp_nodes, self.ci_nodes)
        outermost = not self.active.get(name)
        self._enter(name)
        index = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, 0, 0, parent))
        frame = [index, 0, 0]
        self.stack.append(frame)
        result = exc = None
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            incl = t1 - t0
            self.spans[index] = (name, t0, t1, parent)
            st = self.stats.setdefault(name, [0, 0, 0, 0])
            st[0] += 1
            st[1] += incl - frame[1]
            if outermost:
                st[3] += incl
            layer = name in LAYERS
            if layer:
                st[2] += incl - frame[2]
            if self.stack:
                above = self.stack[-1]
                above[1] += incl
                above[2] += incl if layer else frame[2]
            self._exit(name, args, kwargs, result, exc, nodes0)

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        mods = {short: sys.modules["dynres." + short] for short in MODULES}
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replace[id(obj)] = self._wrapper("%s.%s" % (short, attr), obj)
        namespaces = list(mods.values()) + [sys.modules["dynres"]]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth,
                    self._wrapper("%s.%s.%s" % (short, cls_name, meth), orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time of every span name, named layer or not."""
        return {name: st[1] / 1e9 for name, st in self.stats.items()}

    def inclusive_seconds(self) -> dict[str, float]:
        """Wall time inside each span name, recursion counted once."""
        return {name: st[3] / 1e9 for name, st in self.stats.items()}

    def layer_seconds(self) -> dict[str, float]:
        """Time of each named layer and of the items themselves."""
        return {name: st[2] / 1e9 for name, st in self.stats.items()
                if name in LAYERS}

    def metrics(self) -> dict[str, float]:
        stats = self.stats
        out: dict[str, float] = {}
        for name in SELF_TIMED:
            out[name + ".s"] = stats.get(name, [0, 0, 0, 0])[2] / 1e9
        for name in CALL_COUNTED:
            out[name + ".calls"] = stats.get(name, [0, 0, 0, 0])[0]
        out["families.multiplier_poly.nodes"] = self.mp_nodes
        out["families.multiplier_poly.node_yield"] = (
            self.mp_yield / self.mp_nodes if self.mp_nodes else 0.0)
        out["resultants.charpoly_interp.attempts"] = self.ci_attempts
        out["resultants.charpoly_interp.node_yield"] = (
            self.ci_yield / self.ci_nodes if self.ci_nodes else 0.0)
        out["resultants.bound_fallbacks"] = self.fallbacks
        out["polycore.coeff_bits_max"] = self.bits_max
        return out
