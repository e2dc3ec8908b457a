import pytest

from dynres.polycore import BiPoly, IntPoly
from dynres.serialize import decode_json, encode_csv, encode_json, poly_terms

X = BiPoly.gen("x")
C = BiPoly.cgen("x")


def test_poly_terms_order():
    p = IntPoly((7, 0, -3), "c")
    assert poly_terms(p) == [(2, -3), (0, 7)]
    q = X * X - 2 * C * X + C ** 3 + 1
    assert poly_terms(q) == [(0, 2, 1), (1, 1, -2), (3, 0, 1), (0, 0, 1)]
    with pytest.raises(ValueError):
        poly_terms("x + 1")


def test_encode_json_exact():
    assert encode_json(IntPoly((7, 0, -3), "c")) == (
        '{"var":["c"],"terms":['
        '{"exps":[2],"coef":"-3"},{"exps":[0],"coef":"7"}]}\n')
    assert encode_json(X * X - 2 * C * X) == (
        '{"var":["c","x"],"terms":['
        '{"exps":[0,2],"coef":"1"},{"exps":[1,1],"coef":"-2"}]}\n')
    assert encode_json(IntPoly((), "c")) == '{"var":["c"],"terms":[]}\n'


def test_round_trip():
    cases = [
        IntPoly((7, 0, -3), "c"),
        IntPoly((), "t"),
        IntPoly((10 ** 40, -(10 ** 41)), "c"),
        X * X - 2 * C * X + C ** 3 + 1,
        BiPoly.const(0, "z"),
        (X - C) ** 4,
    ]
    for obj in cases:
        text = encode_json(obj)
        back = decode_json(text)
        assert back == obj
        assert type(back) is type(obj)
        assert encode_json(back) == text


def test_decode_preserves_names():
    p = decode_json('{"var":["t"],"terms":[{"exps":[1],"coef":"5"}]}')
    assert p.var == "t"
    q = decode_json('{"var":["a","y"],"terms":[{"exps":[2,1],"coef":"-1"}]}')
    assert (q.cvar, q.main_var) == ("a", "y")
    with pytest.raises(ValueError):
        decode_json('{"var":["a","b","c"],"terms":[]}')
    # a negative exponent is refused, not folded into another term, and
    # a coefficient that is no string or an exponent that is no int is
    # refused, not truncated (1.5 to 1) or read as a number (true as 1)
    for doc in ('{"var":["c"],"terms":[{"exps":[2],"coef":"1"},'
                '{"exps":[-1],"coef":"5"}]}',
                '{"var":["c","x"],"terms":[{"exps":[1,1],"coef":"1"},'
                '{"exps":[-1,1],"coef":"5"}]}',
                '{"var":["c","x"],"terms":[{"exps":[1,1],"coef":"1"},'
                '{"exps":[1,-1],"coef":"5"}]}',
                '{"var":["c"],"terms":[{"exps":[1],"coef":1.5}]}',
                '{"var":["c"],"terms":[{"exps":[1],"coef":2}]}',
                '{"var":["c"],"terms":[{"exps":[true],"coef":"1"}]}',
                '{"var":["c"],"terms":[{"exps":[1.0],"coef":"1"}]}',
                '{"var":["c","x"],"terms":[{"exps":[1,false],"coef":"1"}]}',
                '{"var":["c","x"],"terms":[{"exps":["1",1],"coef":"1"}]}',
                # a document that is no object, variable names that are
                # not a list of one or two distinct strings ("cx" is not
                # the two names c and x), a term that is no object or
                # lacks a key, exponents that are no list of the names'
                # length
                '[1]', '"c"', '{"terms":[]}',
                '{"var":"cx","terms":[]}', '{"var":"c","terms":[]}',
                '{"var":[],"terms":[]}', '{"var":["c","c"],"terms":[]}',
                '{"var":["c",1],"terms":[]}', '{"var":["c"]}',
                '{"var":["c"],"terms":{}}', '{"var":["c"],"terms":[1]}',
                '{"var":["c"],"terms":[["exps","coef"]]}',
                '{"var":["c"],"terms":[{"exps":[1]}]}',
                '{"var":["c"],"terms":[{"coef":"1"}]}',
                '{"var":["c"],"terms":[{"exps":1,"coef":"1"}]}',
                '{"var":["c","x"],"terms":[{"exps":[1],"coef":"1"}]}',
                '{"var":["c"],"terms":[{"exps":[1,0],"coef":"1"}]}',
                '{"var":["c"],"terms":[{"exps":[1],"coef":"one"}]}',
                '{"var":["c"],"terms":[{"exps":[1],"coef":" 1_0"}]}',
                '{"var":["c"],"terms":[{"exps":[1],"coef":"+1"}]}'):
        with pytest.raises(ValueError):
            decode_json(doc)


def test_encode_csv():
    assert encode_csv(IntPoly((7, 0, -3), "c")) == (
        "e_c,coef\n2,-3\n0,7\n")
    assert encode_csv(X * X - 2 * C * X) == (
        "e_c,e_x,coef\n0,2,1\n1,1,-2\n")
    # the zero polynomial is the header alone
    assert encode_csv(IntPoly((), "c")) == "e_c,coef\n"
    assert encode_csv(BiPoly.const(0, "x")) == "e_c,e_x,coef\n"
    with pytest.raises(ValueError):
        encode_csv(12)


def test_huge_coefficients_survive():
    big = 2 ** 400 + 1
    p = IntPoly((big, -big), "c")
    assert decode_json(encode_json(p)).coeffs == (big, -big)
