"""Property tests of the model's slot readers: ``_key``, ``_unit_apart``,
``_disk_ints`` and the order checks of ``IntervalObj`` and ``RectObj`` read
a value's ints off its ``_numerator``/``_denominator`` slots and agree with
``Fraction``'s own comparisons and arithmetic, on negative values, values
beyond float range (whose keys are infinities of their sign), pairs whose
floats tie, and instances of a ``Fraction`` subclass, which ``_frac`` passes
through."""
import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from geombs import DiskObj, IntervalObj, Point, RectObj  # noqa: E402
from geombs import ValidationError  # noqa: E402
from geombs.model import (  # noqa: E402
    _disk_ints,
    _frac,
    _key,
    _unit_apart,
)


class Ratio(F):
    """A ``Fraction`` subclass: ``_frac`` and the constructors keep it."""


TINY = F(1, 10 ** 30)

plain = st.one_of(
    st.fractions(max_denominator=10 ** 6),
    # beyond float range either way, or just inside it
    st.builds(F, st.integers(-10 ** 400, 10 ** 400), st.integers(1, 10 ** 90)),
)
rationals = st.one_of(plain, plain.map(Ratio))


@st.composite
def pairs(draw):
    """(a, b), b often a near neighbour of a: equal, one apart, a float
    tie, or a value past the float's precision."""
    a = draw(rationals)
    step = draw(st.sampled_from(["any", "equal", "one", "float", "tiny"]))
    if step == "any":
        return a, draw(rationals)
    if step == "equal":
        return a, draw(st.sampled_from([F, Ratio]))(a)
    if step == "one":
        return a, a + draw(st.sampled_from([1, -1]))
    if step == "float":
        try:
            return a, F(float(a))
        except OverflowError:
            return a, -a
    return a, a + draw(st.sampled_from([TINY, -TINY]))


def _float(v):
    """float(v), or the infinity of its sign beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


@given(rationals)
def test_frac_passes_values_through(v):
    assert _frac(v) is v


@given(pairs())
def test_key_orders_as_fraction(pair):
    a, b = pair
    ka, kb = _key(a), _key(b)
    assert ka == (_float(a), a) and ka[1] is a
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)
    assert (ka > kb) == (a > b)


def _accepts(build):
    try:
        build()
    except ValidationError:
        return False
    return True


@given(pairs())
def test_less_is_fraction_less(pair):
    # the constructors compare cross-multiplied slot ints inline
    a, b = pair
    lo, hi = F(-10 ** 500), F(10 ** 500)
    for x, y in ((a, b), (b, a)):
        assert _accepts(lambda: IntervalObj(x, y)) == (x < y)
        assert _accepts(lambda: RectObj(x, y, lo, hi)) == (x < y)
        assert _accepts(lambda: RectObj(lo, hi, x, y)) == (x < y)


@given(pairs())
def test_unit_apart_is_fraction_difference(pair):
    lo, hi = pair
    assert _unit_apart(lo, hi) == (hi - lo == 1)


@given(rationals, rationals)
def test_disk_ints_are_the_centre_over_the_lcm(x, y):
    center = Point(x, y)
    assert center.x is x and center.y is y
    xs, ys, den = _disk_ints(DiskObj(center))
    assert type(xs) is type(ys) is type(den) is int
    assert den == math.lcm(x.denominator, y.denominator)
    assert F(xs, den) == x and F(ys, den) == y
