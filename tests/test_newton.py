import dataclasses
from fractions import Fraction

import pytest

from dynres import newton
from dynres.families import Family, multiplier_poly
from dynres.newton import (
    NewtonPolygon,
    delta_polygon_check,
    iterate_polygon_check,
    linear_resultant_polygon_check,
    orbit_slope_bound_check,
    polygon_export,
    resultant_polygon_check,
)
from dynres.polycore import BiPoly

X = BiPoly.gen("x")
C = BiPoly.cgen("x")


def test_polygon_single_segment():
    # x^2 + c x + c^3: the middle point lies above the hull
    np_ = NewtonPolygon.of(X * X + C * X + C ** 3)
    assert np_.zero_order == 0
    assert np_.vertices == ((0, -3), (2, 0))
    assert np_.slopes == [(Fraction(3, 2), 2)]
    assert np_.single_slope() == Fraction(3, 2)
    assert np_.max_slope == Fraction(3, 2)


def test_polygon_zero_order():
    # x^3 + c^2 x has a root at x = 0
    np_ = NewtonPolygon.of(X ** 3 + C * C * X)
    assert np_.zero_order == 1
    assert np_.vertices == ((1, -2), (3, 0))
    assert np_.slopes == [(Fraction(1), 2)]
    assert np_.single_slope() is None
    assert np_.max_slope == Fraction(1)


def test_polygon_two_segments():
    np_ = NewtonPolygon.of(X * X + C ** 3 * X + C ** 4)
    assert np_.vertices == ((0, -4), (1, -3), (2, 0))
    assert np_.slopes == [(Fraction(1), 1), (Fraction(3), 1)]
    assert np_.single_slope() is None
    assert np_.max_slope == Fraction(3)


def test_polygon_constant():
    np_ = NewtonPolygon.of(BiPoly.const(5, "x"))
    assert np_.vertices == ((0, 0),)
    assert np_.slopes == []
    assert np_.single_slope() is None
    assert np_.max_slope is None


def test_polygon_zero_rejected():
    with pytest.raises(ValueError):
        NewtonPolygon.of(BiPoly.const(0, "x"))


def test_polygon_to_dict():
    d = NewtonPolygon.of(X * X + C * X + C ** 3).to_dict()
    assert d == {"zero_order": 0, "vertices": [[0, -3], [2, 0]]}


def test_iterate_polygons():
    for d in (2, 3):
        for k in (1, 2, 3, 4):
            assert iterate_polygon_check(d, k).passed


def test_delta_polygons():
    for d, ms in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        for m in ms:
            assert delta_polygon_check(d, m).passed


def test_resultant_polygons():
    for d, k, m in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 1, 1), (3, 2, 1)):
        assert resultant_polygon_check(d, k, m).passed


def test_orbit_slope_bounds():
    for d in (1, 2):
        for k in (1, 2, 3):
            for v in orbit_slope_bound_check(d, k):
                assert v.passed, v.line()


def test_linear_resultant_polygons():
    for d, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for v in linear_resultant_polygon_check(d, k):
            assert v.passed, v.line()


def test_polygon_export():
    data = polygon_export(2, 3)
    assert sorted(data) == ["unicritical-d=2-iterate-1",
                            "unicritical-d=2-iterate-2",
                            "unicritical-d=2-iterate-3"]
    assert data["unicritical-d=2-iterate-2"] == {
        "zero_order": 0, "vertices": [[0, -2], [4, 0]]}
    shifted = polygon_export(1, 2, kind="shifted")
    assert sorted(shifted) == ["shifted-d=1-iterate-1", "shifted-d=1-iterate-2"]


def test_delta_polygon_fails_on_corruption(monkeypatch):
    # c^3 x lifts the x^1 point of delta_3 for z^2 + c onto the line
    # c-degree 3, so the polygon gains a vertex.
    res = multiplier_poly(Family("unicritical", 2), 3)
    bad = dataclasses.replace(res, delta=res.delta + C ** 3 * X)
    monkeypatch.setattr(newton, "multiplier_poly", lambda fam, m: bad)
    verdict = delta_polygon_check(2, 3)
    assert not verdict.passed
    assert verdict.residual.startswith("vertices ")
