import doctest
import importlib
import pkgutil

import dynres


def test_doctests():
    # Every module, found rather than listed, so that a doctest added
    # anywhere in the package runs.
    for info in pkgutil.iter_modules(dynres.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module("dynres." + info.name)
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
