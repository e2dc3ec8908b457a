import doctest

from dynres import numtheory, polycore, report, serialize


def test_doctests():
    for mod in (polycore, numtheory, report, serialize):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
