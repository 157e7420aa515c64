"""Self-tests of the benchmark's output checker and guarantee table.

    python3 -m pytest -q perfbench
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpus  # noqa: E402

# Two objects of each kind that touch at exactly one point or edge, so they
# intersect only under closed semantics.
TOUCHING = {
    "intervals": {"kind": "intervals",
                  "objects": [{"left": "0", "right": "1"}, {"left": "1", "right": "5/2"}]},
    "arcs": {"kind": "arcs",
             "objects": [{"start": "3/4", "end": "1/8"}, {"start": "1/8", "end": "1/2"}]},
    "unit_disks": {"kind": "unit_disks", "disk_radius": "1/2",
                   "objects": [{"x": "0", "y": "0"}, {"x": "3/5", "y": "4/5"}]},
    "unit_squares": {"kind": "unit_squares",
                     "objects": [{"x_min": "0", "x_max": "1", "y_min": "0", "y_max": "1"},
                                 {"x_min": "1", "x_max": "2", "y_min": "1", "y_max": "2"}]},
}


@pytest.mark.parametrize("kind", sorted(TOUCHING))
def test_flipping_one_colour_on_an_edge_is_flagged(kind):
    scene = check.Scene.from_doc(TOUCHING[kind])
    assert scene.intersect(0, 1)
    assert check.check_output(scene, "bipartite", [0, 1], {0: 0, 1: 1}) == []
    assert check.check_output(scene, "bipartite", [0, 1], {0: 1, 1: 1})
    assert check.check_output(scene, "independent", [0, 1], None)


def test_wrapping_arcs_apart_and_together():
    doc = {"kind": "arcs", "objects": [{"start": "7/8", "end": "1/8"},
                                       {"start": "1/4", "end": "3/4"},
                                       {"start": "15/16", "end": "1/16"}]}
    scene = check.Scene.from_doc(doc)
    assert not scene.intersect(0, 1)
    assert scene.intersect(0, 2)
    assert not scene.intersect(1, 2)


def test_selection_and_colouring_shape():
    scene = check.Scene.from_doc(TOUCHING["intervals"])
    assert check.check_output(scene, "bipartite", [0, 0], {0: 0})
    assert check.check_output(scene, "bipartite", [0, 2], {0: 0, 2: 1})
    assert check.check_output(scene, "bipartite", [0, 1], {0: 0})
    assert check.check_output(scene, "bipartite", [0, 1], {0: 0, 1: 2})
    assert check.check_output(scene, "bipartite", [0, 1], None)


def test_triangle_is_flagged():
    doc = {"kind": "intervals", "objects": [{"left": "0", "right": "3"},
                                            {"left": "1", "right": "4"},
                                            {"left": "2", "right": "5"}]}
    scene = check.Scene.from_doc(doc)
    assert check.check_output(scene, "triangle_free", [0, 1, 2], None)
    assert check.check_output(scene, "triangle_free", [0, 1], None) == []


def test_doubled_scene_pairs_each_object_with_its_copy():
    scene = check.Scene.from_doc(TOUCHING["intervals"]).doubled()
    assert len(scene.objects) == 4 and scene.intersect(0, 2)


@pytest.mark.parametrize("algorithm, size, opt, holds", [
    ("intervals", 5, 5, True), ("intervals", 4, 5, False),
    ("arcs", 4, 5, True), ("arcs", 3, 5, False),
    ("two_sided", 3, 6, True), ("two_sided", 2, 5, False),
    ("3approx", 2, 6, True), ("3approx", 1, 4, False),
    ("ptas", 3, 6, True), ("ptas", 2, 5, False),
    ("unit_height", 7, 6, False),
    ("exact_mtfs", 9, 6, None),
])
def test_guarantees(algorithm, size, opt, holds):
    assert corpus.guarantee_holds(algorithm, 15, size, opt) is holds
