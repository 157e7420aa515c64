"""Instance and solution files: lossless rational round-trips and strict
input validation."""
from fractions import Fraction as F

import pytest

from geombs import (
    KINDS,
    ArcObj,
    DiskObj,
    GeometricInstance,
    IntervalObj,
    Point,
    RectObj,
    Solution,
    ValidationError,
    generate_instance,
    generate_weights,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)
from geombs import model
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
    with pytest.raises(ValidationError, match="must be a mapping"):
        solution_from_dict([0])
    with pytest.raises(ValidationError, match="'coloring' must map"):
        solution_from_dict({"selected": [0], "coloring": [0]})
    sol, mode = solution_from_dict(
        solution_to_dict(Solution((1,), {1: 1}), mode="triangle_free")
    )
    assert mode == "triangle_free" and sol.coloring == {1: 1}


def test_instance_document_validation():
    with pytest.raises(ValidationError, match="must be a mapping"):
        instance_from_dict([{"left": "0", "right": "1"}])
    with pytest.raises(ValidationError, match="needs an 'objects' list"):
        instance_from_dict({"kind": "intervals"})
    with pytest.raises(ValidationError, match="needs an 'objects' list"):
        instance_from_dict({"kind": "intervals", "objects": {"left": "0"}})
    with pytest.raises(ValidationError, match="one weight per object"):
        instance_to_dict(generate_instance("intervals", 3, 1),
                         generate_weights(2, 1))
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


@pytest.mark.parametrize("doc, unknown", [
    # a misspelt "weights" would otherwise load as an unweighted scene
    ({"kind": "intervals", "objects": [{"left": "0", "right": "1"}],
      "weight": ["2"]}, "instance document has unknown keys ['weight']"),
    # a third coordinate would otherwise load as a plain disk
    ({"kind": "unit_disks", "disk_radius": "1",
      "objects": [{"x": "0", "y": "0", "z": "5"}]},
     "object record has unknown keys ['z']"),
    ({"kind": "rects", "objects": [
        {"x_min": "0", "x_max": "1", "y_min": "0", "y_max": "1"},
        {"x_min": "0", "x_max": "1", "y_min": "0", "y_max": "1",
         "x_mid": "1/2", "label": "b"}]},
     "object record has unknown keys ['x_mid', 'label']"),
])
def test_instance_unknown_keys_rejected(doc, unknown):
    with pytest.raises(ValidationError) as info:
        instance_from_dict(doc)
    assert str(info.value) == unknown


def test_object_record_reports_missing_before_unknown():
    with pytest.raises(ValidationError, match=r"missing fields \['y'\]"):
        instance_from_dict({"kind": "unit_disks", "disk_radius": "1",
                            "objects": [{"x": "0", "z": "5"}]})


# Documents with two faults each, and the one reported: the record shapes
# first, then the weights list, then the values in document order, then the
# objects' own checks, then the scene's, then the weights' signs.
TWO_FAULTS = [
    # a bad value in record 1, a missing field in record 3
    ({"kind": "intervals", "objects": [{"left": "1/x", "right": "1"},
                                       {"left": "0", "right": "1"},
                                       {"left": "0"}]},
     "object record missing fields ['right']"),
    ({"kind": "intervals", "objects": [{"left": True, "right": "1"}, [0, 1]]},
     "object record must be a mapping, got [0, 1]"),
    ({"kind": "intervals", "objects": [{"left": "1/x", "right": "1"}],
      "weights": []},
     "'weights' must list one rational per object"),
    # a degenerate interval in record 1, a bad value in record 2
    ({"kind": "intervals", "objects": [{"left": "1", "right": "0"},
                                       {"left": "0", "right": "1/x"}]},
     "bad rational '1/x'"),
    # the kind's field order, not the record's key order
    ({"kind": "intervals", "objects": [{"right": "1/y", "left": "1/x"}]},
     "bad rational '1/x'"),
    ({"kind": "unit_disks", "objects": [{"x": "0", "y": "0"}],
      "disk_radius": "1/x", "weights": ["1/y"]},
     "bad rational '1/x'"),
    ({"kind": "unit_disks", "objects": [{"x": "0", "y": 0.5}],
      "disk_radius": "1/x"},
     "expected an exact rational, got 0.5"),
    ({"kind": "intervals", "objects": [{"left": "1", "right": "0"}],
      "weights": ["-1"]},
     "interval needs left < right"),
    # a square of side 2, a negative weight
    ({"kind": "unit_squares",
      "objects": [{"x_min": "0", "x_max": "2", "y_min": "0", "y_max": "2"}],
      "weights": ["-1"]},
     "non-unit square"),
    ({"kind": "unit_disks", "objects": [{"x": "0", "y": "0"}],
      "weights": ["-1"]},
     "unit_disks scene needs disk_radius > 0"),
]


@pytest.mark.parametrize("doc, message", TWO_FAULTS)
def test_two_faults_report_the_first_in_order(doc, message):
    with pytest.raises(ValidationError) as info:
        instance_from_dict(doc)
    assert str(info.value).startswith(message)


def test_solution_unknown_keys_rejected():
    doc = solution_to_dict(Solution((0, 2), {0: 0, 2: 1}))
    doc["colouring"] = doc.pop("coloring")
    with pytest.raises(ValidationError) as info:
        solution_from_dict(doc)
    assert str(info.value) == "solution document has unknown keys ['colouring']"


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


def _counted_reader(monkeypatch):
    """Patch the grammar's step per text, which the batch read behind
    ``instance_from_dict`` and ``_frac`` both call; returns the list of the
    texts it is given."""
    read = []
    step = model._read_texts

    def counted(memo):
        read.extend(memo)
        return step(memo)

    monkeypatch.setattr(model, "_read_texts", counted)
    return read


def _texts(doc):
    """Every rational text of an instance document."""
    texts = [v for rec in doc["objects"] for v in rec.values()]
    texts += doc.get("weights", [])
    if "disk_radius" in doc:
        texts.append(doc["disk_radius"])
    return texts


def _repeating_doc():
    inst = generate_instance("unit_disks", 40, 3, spread=3)
    doc = instance_to_dict(inst, generate_weights(40, 3))
    texts = _texts(doc)
    assert len(set(texts)) < len(texts), "the scene should repeat a value"
    return inst, doc, texts


def test_each_distinct_text_is_read_once_per_document(monkeypatch):
    inst, doc, texts = _repeating_doc()
    read = _counted_reader(monkeypatch)
    assert instance_from_dict(doc)[0] == inst
    assert sorted(read) == sorted(set(texts))


def test_same_document_twice_reads_twice(monkeypatch):
    # nothing read in one call outlives it
    inst, doc, texts = _repeating_doc()
    read = _counted_reader(monkeypatch)
    assert instance_from_dict(doc)[0] == instance_from_dict(doc)[0] == inst
    assert len(read) == 2 * len(set(texts))
    assert set(read) == set(texts)


def test_ints_beside_texts_still_read_each_text_once(monkeypatch):
    # JSON ints are read on their own, beside strings read once each
    doc = {"kind": "intervals",
           "objects": [{"left": "1/2", "right": 1}, {"left": 0, "right": "1/2"},
                       {"left": "1/2", "right": 2}]}
    read = _counted_reader(monkeypatch)
    instance, _ = instance_from_dict(doc)
    assert read == ["1/2"]
    assert instance.objects == (IntervalObj(F(1, 2), 1), IntervalObj(0, F(1, 2)),
                                IntervalObj(F(1, 2), 2))


def test_repeated_malformed_text_fails_like_one():
    with pytest.raises(ValidationError) as once:
        parse_rational("1/x")
    doc = {"kind": "intervals",
           "objects": [{"left": "0", "right": "1/x"},
                       {"left": "1/x", "right": "1/x"}]}
    with pytest.raises(ValidationError) as repeated:
        instance_from_dict(doc)
    assert str(repeated.value) == str(once.value)
    assert str(once.value).startswith("bad rational '1/x'")


@pytest.mark.parametrize("doc", [
    {"kind": "intervals", "objects": [{"left": 0, "right": 1},
                                      {"left": 0, "right": True}]},
    {"kind": "intervals", "objects": [{"left": "0", "right": "1"},
                                      {"left": "0", "right": True}]},
    {"kind": "unit_disks", "objects": [{"x": 1, "y": 1}], "disk_radius": True},
    {"kind": "unit_disks", "objects": [{"x": "1", "y": 1}, {"x": 0, "y": 0}],
     "disk_radius": 1, "weights": [1, True]},
])
def test_true_never_aliases_one(doc):
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


def _fraction_parse(doc):
    """The instance and weights of ``doc``, every string read by
    ``Fraction(str)`` on its own."""
    kind = doc["kind"]
    objects = []
    for rec in doc["objects"]:
        v = {name: F(text) for name, text in rec.items()}
        if kind == "intervals":
            objects.append(IntervalObj(v["left"], v["right"]))
        elif kind == "arcs":
            objects.append(ArcObj(v["start"], v["end"]))
        elif kind == "unit_disks":
            objects.append(DiskObj(Point(v["x"], v["y"])))
        else:
            objects.append(RectObj(v["x_min"], v["x_max"], v["y_min"], v["y_max"]))
    radius = F(doc["disk_radius"]) if "disk_radius" in doc else None
    weights = [F(w) for w in doc["weights"]] if "weights" in doc else None
    return GeometricInstance(kind, tuple(objects), radius), weights


@pytest.mark.parametrize("kind", KINDS)
def test_parse_equals_per_value_fraction_parse(kind):
    for seed in range(20):
        n = 1 + seed * 3
        inst = generate_instance(kind, n, seed, spread=1 + seed % 4)
        doc = instance_to_dict(inst, generate_weights(n, seed) if seed % 2 else None)
        got, weights = instance_from_dict(doc)
        want, want_weights = _fraction_parse(doc)
        assert got == want == inst and weights == want_weights, seed
