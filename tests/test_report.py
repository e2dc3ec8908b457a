from dynres.polycore import IntPoly
from dynres.report import Verdict


def test_verdict_identity():
    p = IntPoly([1, 2], "c")
    v = Verdict.identity("square", {"n": 1}, p * p, IntPoly([1, 4, 4], "c"))
    assert v.passed
    assert v.residual is None and v.witness is None
    lhs, rhs = p * p, IntPoly([1, 4, 3], "c")
    v = Verdict.identity("square", {"n": 1}, lhs, rhs)
    assert not v.passed
    assert v.residual == str(lhs - rhs) == "c^2"
    assert v.line() == "FAIL square n=1  [c^2]"


def test_verdict_claim():
    # A claim passes exactly when nothing is left to show against it,
    # and keeps its witness either way.
    for residual in (None, "off by 2"):
        v = Verdict.claim("demo", {"n": 1}, residual, {"sign": -1})
        assert v.passed is (residual is None)
        assert v.residual == residual and v.witness == {"sign": -1}
    assert Verdict.claim("demo", {"n": 1}).witness is None
