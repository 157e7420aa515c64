"""Property tests of the instance parser: on generated documents
``instance_from_dict`` equals a per-value ``Fraction(str)`` parse of the
rational grammar's texts and refuses every other spelling, the batch read
of a value list equals ``parse_rational`` of each value down to the first
fault's message, a document with one fault is a ``ValidationError``, and
instance and solution documents read back exactly what the writer
wrote."""
import json
import math
import re
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from geombs import (  # noqa: E402
    ArcObj,
    DiskObj,
    GeometricInstance,
    IntervalObj,
    Point,
    RectObj,
    Solution,
    ValidationError,
)
from geombs.model import _rationals  # noqa: E402
from geombs.serialize import (  # noqa: E402
    instance_from_dict,
    instance_to_dict,
    parse_rational,
    solution_from_dict,
    solution_to_dict,
)

FIELDS = {
    "intervals": ("left", "right"),
    "arcs": ("start", "end"),
    "unit_disks": ("x", "y"),
    "unit_squares": ("x_min", "x_max", "y_min", "y_max"),
    "unit_height_rects": ("x_min", "x_max", "y_min", "y_max"),
    "rects": ("x_min", "x_max", "y_min", "y_max"),
}

# texts beyond the canonical "p/q", most of which Fraction(str) reads on
# some Python; the parser takes only those in the grammar
GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
ODD_SPELLINGS = ["+{p}/{q}", " {p}/{q}", "{p}/{q} ", "0{p}/{q}", "{p}/0{q}",
                 "{p}_0/{q}0"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def spelled(draw, value):
    """One text (or, for an integer, possibly a JSON int) of ``value``."""
    p, q = value.as_integer_ratio()
    k = draw(st.integers(1, 3))
    choice = draw(st.integers(0, 4))
    if choice == 0 or (choice == 1 and q != 1):
        return f"{p * k}/{q * k}"
    if choice == 1:
        return draw(st.sampled_from([p, str(p)]))
    if choice == 2 and p >= 0:
        return draw(st.sampled_from(ODD_SPELLINGS)).format(p=p, q=q)
    if choice == 3:
        return f"{p}/{q}".translate(ARABIC_INDIC)
    return f"{p}/{q}"


def rationals(lo=-6, hi=6):
    return st.builds(F, st.integers(lo * 4, hi * 4), st.sampled_from([1, 2, 4]))


@st.composite
def object_values(draw, kind):
    """Field values, in the kind's field order, of one valid object."""
    if kind == "arcs":
        s, e = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2,
                             unique=True))
        return [F(s, 8), F(e, 8)]
    if kind == "unit_disks":
        return [draw(rationals()), draw(rationals())]
    pairs = []
    for _ in range(len(FIELDS[kind]) // 2):
        lo = draw(rationals())
        pairs += [lo, lo + draw(st.sampled_from([F(1), F(1, 2), F(3)]))]
    return pairs


@st.composite
def documents(draw, min_n=0):
    """An instance document of up to 8 valid objects, every value spelled;
    a square side or a height need not be one unit, so the scene's kind may
    refuse it."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    objects = []
    for _ in range(draw(st.integers(min_n, 8))):
        vals = draw(object_values(kind))
        objects.append({name: draw(spelled(v))
                        for name, v in zip(FIELDS[kind], vals)})
    doc = {"format": 1, "kind": kind, "objects": objects}
    if kind == "unit_disks":
        doc["disk_radius"] = draw(spelled(draw(rationals(1, 3))))
    if draw(st.booleans()):
        doc["weights"] = [draw(spelled(draw(rationals(0, 3))))
                          for _ in objects]
    return doc


def _read(value):
    """A JSON int as ``Fraction(int)``, a text in the grammar as
    ``Fraction(str)``; any other text raises ``ValueError``."""
    if isinstance(value, str) and not GRAMMAR.fullmatch(value):
        raise ValueError(f"{value!r} is outside the grammar")
    return F(value)


def _fraction_parse(doc):
    """The document read one value at a time by ``_read``, every value
    before the scene is built."""
    kind = doc["kind"]
    objects = []
    for rec in doc["objects"]:
        v = [_read(rec[name]) for name in FIELDS[kind]]
        if kind == "intervals":
            objects.append(IntervalObj(*v))
        elif kind == "arcs":
            objects.append(ArcObj(*v))
        elif kind == "unit_disks":
            objects.append(DiskObj(Point(*v)))
        else:
            objects.append(RectObj(*v))
    radius = _read(doc["disk_radius"]) if "disk_radius" in doc else None
    weights = [_read(w) for w in doc["weights"]] if "weights" in doc else None
    return GeometricInstance(kind, tuple(objects), radius), weights


@settings(max_examples=100, deadline=None)
@given(documents())
def test_parse_equals_fraction_parse_on_generated_documents(doc):
    try:
        want = _fraction_parse(doc)
    except (ValueError, ZeroDivisionError):  # outside the grammar, or q = 0
        with pytest.raises(ValidationError):
            instance_from_dict(doc)
        return
    except ValidationError as exc:  # a scene its kind refuses
        with pytest.raises(ValidationError) as info:
            instance_from_dict(doc)
        assert str(info.value) == str(exc)
        return
    assert instance_from_dict(doc) == want


BAD_VALUES = [True, False, 0.5, 1.0, None, [1], {"p": 1}, "1/0", "0/0", "",
              "abc", "1/", "/2", "--1", "1//2", "²", "1/2/3", "0x10", "nan",
              "inf"]


@st.composite
def broken_documents(draw):
    """A document with one fault: a value that is not an exact rational, a
    missing or unknown field, or a record that is not a mapping."""
    doc = draw(documents(min_n=1))
    rec = draw(st.sampled_from(doc["objects"]))
    fault = draw(st.integers(0, 4))
    if fault == 0:
        rec[draw(st.sampled_from(sorted(rec)))] = draw(st.sampled_from(BAD_VALUES))
    elif fault == 1:
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif fault == 2:
        rec[draw(st.sampled_from(["z", "weight", "x_mid", "Left"]))] = "0"
    elif fault == 3:
        i = doc["objects"].index(rec)
        doc["objects"][i] = draw(st.sampled_from(
            [list(rec.values()), "0", 0, None]))
    elif "weights" in doc:
        doc["weights"][0] = draw(st.sampled_from(BAD_VALUES + ["-1"]))
    else:
        doc["weight"] = ["1"] * len(doc["objects"])
    return doc


@settings(max_examples=100, deadline=None)
@given(broken_documents())
def test_one_fault_is_a_validation_error(doc):
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


# texts int accepts but the grammar refuses, grammar edge cases, and a text
# past the interpreter's int digit limit
ODD_TEXTS = ["+1", " 1", "1_0", "\uff11", "1/-2", "-0", "007", "0/0", "1/",
             "/2", "1//2", "--1", "7" * 4301]

mixed_values = st.one_of(
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 4)),
    st.integers(-6, 6).map(str),
    st.integers(-6, 6),
    st.sampled_from([True, False, None, [1]]),
    st.floats(allow_nan=False),
    st.sampled_from(ODD_TEXTS),
)


def _per_value(values):
    """``parse_rational`` of each value in order, or the first refusal's
    message."""
    try:
        return [parse_rational(v) for v in values]
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_values, max_size=10)
       | st.lists(st.sampled_from(ODD_TEXTS[5:7]) | mixed_values.filter(
           lambda v: type(v) is str), max_size=10))
def test_batch_read_equals_per_value_read(values):
    # the second family is all text, so it takes the one character check
    want = _per_value(values)
    try:
        got = _rationals(values)
    except ValidationError as exc:
        assert str(exc) == want
        return
    assert got == want
    for value in got:
        assert type(value) is F and value._denominator > 0
        assert math.gcd(value._numerator, value._denominator) == 1


def exact(lo=None):
    """Rationals of any sign and size, or above ``lo`` when given."""
    values = st.fractions(min_value=lo, max_denominator=10 ** 12)
    return values if lo is None else values.filter(lambda v: v > lo)


@st.composite
def scene_objects(draw, kind):
    """One valid object of ``kind`` on arbitrary exact rationals."""
    if kind == "arcs":
        turn = st.fractions(0, 1, max_denominator=10 ** 12).filter(
            lambda v: v < 1)
        start = draw(turn)
        return ArcObj(start, draw(turn.filter(lambda v: v != start)))
    if kind == "unit_disks":
        return DiskObj(Point(draw(exact()), draw(exact())))
    x, y = draw(exact()), draw(exact())
    if kind == "intervals":
        return IntervalObj(x, x + draw(exact(0)))
    width = 1 if kind == "unit_squares" else draw(exact(0))
    height = draw(exact(0)) if kind == "rects" else 1
    return RectObj(x, x + width, y, y + height)


@st.composite
def scenes(draw):
    """``(instance, weights-or-None)`` of any kind, up to 8 objects."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    objects = tuple(draw(st.lists(scene_objects(kind), max_size=8)))
    radius = draw(exact(0)) if kind == "unit_disks" else None
    weights = draw(st.none() | st.lists(exact(0) | st.just(F(0)),
                                        min_size=len(objects),
                                        max_size=len(objects)))
    return GeometricInstance(kind, objects, radius), weights


@settings(max_examples=100, deadline=None)
@given(scenes())
def test_instance_documents_round_trip(scene):
    # the strict grammar reads every rational the writer writes
    text = json.dumps(instance_to_dict(*scene))
    assert instance_from_dict(json.loads(text)) == scene


@st.composite
def solutions(draw):
    """``(solution, mode)``, with a 0/1 colouring of some selected indices
    or none."""
    selected = draw(st.lists(st.integers(0, 10 ** 6), unique=True, max_size=8))
    coloring = None
    if draw(st.booleans()):
        coloring = {v: draw(st.integers(0, 1)) for v in selected
                    if draw(st.booleans())}
    mode = draw(st.sampled_from(["bipartite", "triangle_free", "independent"]))
    return Solution(tuple(selected), coloring), mode


@settings(max_examples=100, deadline=None)
@given(solutions())
def test_solution_documents_round_trip(solved):
    text = json.dumps(solution_to_dict(*solved))
    assert solution_from_dict(json.loads(text)) == solved
