"""Instance and solution files: lossless rational round-trips and strict
input validation."""
from fractions import Fraction as F

import pytest

from geombs import (
    KINDS,
    GeometricInstance,
    Solution,
    ValidationError,
    generate_instance,
    generate_weights,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)
from geombs.serialize import (
    format_rational,
    instance_from_dict,
    instance_to_dict,
    parse_rational,
    solution_from_dict,
    solution_to_dict,
)


def test_rational_formatting():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(7) == F(7)
    with pytest.raises(ValidationError):
        parse_rational("1/0")
    with pytest.raises(ValidationError):
        parse_rational("abc")
    with pytest.raises(ValidationError):
        parse_rational(0.5)


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True, False])
def test_floats_and_bools_are_not_coerced_on_output(value):
    with pytest.raises(ValidationError):
        format_rational(value)
    # as a weight
    inst = generate_instance("unit_disks", 2, 1)
    with pytest.raises(ValidationError):
        instance_to_dict(inst, [F(1, 2), value])
    # as a coordinate, on an object whose checks were bypassed
    rect = generate_instance("rects", 1, 1).objects[0]
    object.__setattr__(rect, "y_max", value)
    with pytest.raises(ValidationError):
        instance_to_dict(GeometricInstance("rects", (rect,)))


@pytest.mark.parametrize("kind", KINDS)
def test_instance_round_trip(kind, tmp_path):
    inst = generate_instance(kind, 7, 42)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded, weights = load_instance(path)
    assert loaded == inst and weights is None


def test_weights_round_trip(tmp_path):
    inst = generate_instance("unit_disks", 5, 1)
    wts = generate_weights(5, 1)
    path = tmp_path / "inst.json"
    save_instance(inst, path, weights=wts)
    _, loaded = load_instance(path)
    assert loaded == wts


def test_canonical_form_is_fixed_point():
    inst = generate_instance("arcs", 6, 9)
    doc = instance_to_dict(inst)
    again, _ = instance_from_dict(doc)
    assert instance_to_dict(again) == doc


def test_solution_round_trip(tmp_path):
    sol = Solution((2, 0, 5), {0: 0, 2: 1, 5: 0})
    path = tmp_path / "sol.json"
    save_solution(sol, path)
    loaded, mode = load_solution(path)
    assert loaded == sol and mode == "bipartite"


def test_solution_document_validation():
    with pytest.raises(ValidationError):
        solution_from_dict({"selected": [0, 0]})
    with pytest.raises(ValidationError):
        solution_from_dict({"selected": [-1]})
    with pytest.raises(ValidationError):
        solution_from_dict({"selected": [0], "mode": "maximal"})
    with pytest.raises(ValidationError):
        solution_from_dict({"selected": [0], "coloring": {"0": 2}})
    sol, mode = solution_from_dict(
        solution_to_dict(Solution((1,), {1: 1}), mode="triangle_free")
    )
    assert mode == "triangle_free" and sol.coloring == {1: 1}


def test_instance_document_validation():
    with pytest.raises(ValidationError):
        instance_from_dict({"kind": "polygons", "objects": []})
    with pytest.raises(ValidationError):
        instance_from_dict({"kind": "intervals", "objects": [{"left": "0"}]})
    with pytest.raises(ValidationError):
        instance_from_dict({
            "kind": "intervals",
            "objects": [{"left": "0", "right": "1"}],
            "weights": ["-1"],
        })


@pytest.mark.parametrize("doc", [
    {"kind": "intervals", "objects": [{"left": False, "right": True}]},
    {"kind": "unit_disks", "objects": [{"x": "0", "y": "0"}],
     "disk_radius": True},
])
def test_instance_booleans_rejected(doc):
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


@pytest.mark.parametrize("doc", [
    {"selected": [True, 0]},
    {"selected": [0, 1], "coloring": {"0": True, "1": False}},
])
def test_solution_booleans_rejected(doc):
    with pytest.raises(ValidationError):
        solution_from_dict(doc)


@pytest.mark.parametrize("doc", [
    {"selected": [10], "coloring": {"1_0": 1}},
    {"selected": [5], "coloring": {" 5": 0}},
    {"selected": [5], "coloring": {"05": 0}},
    {"selected": [10], "coloring": {"10": 1, "-1": 0}},
    {"selected": [10], "coloring": {"10": 1, "5": 0}},
])
def test_coloring_keys_are_selected_decimal_indices(doc):
    with pytest.raises(ValidationError):
        solution_from_dict(doc)


def test_unreadable_file(tmp_path):
    with pytest.raises(ValidationError):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_instance(bad)


BAD_FORMATS = [99, "x", "1", True, 1.0, None]


@pytest.mark.parametrize("fmt", BAD_FORMATS)
def test_instance_format_must_be_1(fmt):
    doc = instance_to_dict(generate_instance("intervals", 3, 1))
    doc["format"] = fmt
    with pytest.raises(ValidationError, match="format"):
        instance_from_dict(doc)
    del doc["format"]
    assert instance_from_dict(doc)[0] == generate_instance("intervals", 3, 1)


@pytest.mark.parametrize("fmt", BAD_FORMATS)
def test_solution_format_must_be_1(fmt):
    doc = solution_to_dict(Solution((0, 2), {0: 0, 2: 1}))
    doc["format"] = fmt
    with pytest.raises(ValidationError, match="format"):
        solution_from_dict(doc)
    del doc["format"]
    assert solution_from_dict(doc)[0] == Solution((0, 2), {0: 0, 2: 1})
