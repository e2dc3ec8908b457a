import doctest

from dynres import numtheory, parabolic, polycore, report, serialize


def test_doctests():
    for mod in (polycore, numtheory, parabolic, report, serialize):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
