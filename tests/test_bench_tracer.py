"""The benchmark's tracer, perfbench/tracer.py, installs on dynres and
uninstalls cleanly.  It wraps every public function of every module it
names, and BiPoly.exact_div through BiPoly.__dict__["exact_div"]; a
refactor that moves a traced name breaks every traced benchmark run,
and this test catches it first."""
import importlib
import importlib.util
import pathlib

TRACER = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
          / "tracer.py")


def test_tracer_install_and_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {name: importlib.import_module("dynres." + name)
            for name in tracing.MODULES}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    fams = mods["families"]
    BiPoly = mods["polycore"].BiPoly
    exact_div = BiPoly.__dict__["exact_div"]
    # Warm the iterate cache first: a cold iterate(fam, 1) recurses to
    # iterate(fam, 0) through the traced name and would count twice.
    fams.iterate(fams.Family("unicritical", 2), 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        z = BiPoly.gen("z")
        assert (z * z - 1).exact_div(z - 1) == z + 1
        fams.iterate(fams.Family("unicritical", 2), 1)
    finally:
        tracer.uninstall()
    assert tracer.stats["polycore.BiPoly.exact_div"][0] == 1
    assert tracer.stats["families.iterate"][0] == 1
    assert BiPoly.__dict__["exact_div"] is exact_div
    for name, mod in mods.items():
        after = vars(mod)
        assert all(after[k] is v for k, v in before[name].items()), name


# Names retired from dynres whose metrics the benchmark still lists;
# they read 0 until the benchmark drops them.
RETIRED = {"resultants.charpoly_powersum", "resultants.resultant_int",
           "polycore.interpolate_int", "resultants.charpoly_resultant"}


def test_traced_names_resolve():
    """A per-layer metric whose name no longer resolves reads 0 for
    ever, so every name the tracer times, counts or reads output from
    must still be a callable of dynres."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = (set(tracing.SELF_TIMED) | set(tracing.CALL_COUNTED)
             | set(tracing.OUTPUT_CALLS))
    missing = []
    for name in sorted(names - RETIRED):
        modname, *path = name.split(".")
        assert modname in tracing.MODULES, name
        obj = importlib.import_module("dynres." + modname)
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
