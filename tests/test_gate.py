"""The certificate gate holds without ``assert``: no module uses one, a
wrong solver result is still refused under ``python -O``, and every public
solver returns through exactly one ``certify`` call.  A scene is validated
once, when it is built: only ``GeometricInstance`` calls
``validate_instance``, and a solve calls it zero times.  One graph per
solve: no solver module builds a scene or a graph object of its own, and
the interval, arc and unit-height solvers certify on their selection's
graph alone.  The interval and arc graph builds run no pair test.  The
interval sweeps and graph builds, the disk solvers, the PTAS and its
slab solver from a given bottom, the disk graph build and the arc solver
make no more ``Fraction`` order comparisons than there are objects, and
all but the interval sweeps no ``Fraction`` arithmetic.  On generated
rectangle scenes, whose equal coordinates are one object each, the graph
build, the unit-height solver and the square PTAS make no ``Fraction``
comparison at all, ``__eq__`` included.  The graph build
and every scene solver read a value's ints off its two slots, calling
``as_integer_ratio()`` or the ``numerator``/``denominator`` properties a
constant number of times per solve, whatever n; only ``model`` and
``serialize`` name the slots, and the other modules read offsets through
``model._offsets``.  The arc solver's cuts share one sweep, and it re-checks
only cuts that improve on its best and hold two arcs meeting at the cut,
building the circular graph's masks only then.  The PTAS pays one
component join per 2-colourable box subset, and lists no subsets for a box
of one object that meets no object of either neighbouring box.  Parsing a document does no
``Fraction`` comparison or arithmetic, calls no ``Fraction`` constructor
on text, and builds each object once."""
import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geombs
from geombs import model, serialize

PACKAGE = Path(geombs.__file__).parent


def test_library_has_no_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_only_model_and_serialize_name_the_slots():
    # the solvers take offsets from model._offsets, so a Fraction's two
    # slots are named, as an attribute or as text, in two modules only
    slots = ("_numerator", "_denominator")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("model.py", "serialize.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in slots
                  or isinstance(node, ast.Constant) and node.value in slots]
    assert not found, found


# A 3-clique on the line; the patched chain DP claims all three disks.
WRONG_CHAIN = """
from geombs import (CertificateError, DiskObj, GeometricInstance, Point,
                    UNIT_DISKS, _kernels, solve_one_sided)
_kernels.chain_mbs = lambda masks: (3, [0, 1, 2])
inst = GeometricInstance(UNIT_DISKS, tuple(DiskObj(Point(x, 0))
                                           for x in (0, 1, 2)), 1)
try:
    solve_one_sided(inst)
except CertificateError as exc:
    print("refused:", exc)
"""


def test_wrong_result_refused_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-O", "-c", WRONG_CHAIN], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused: odd cycle witness (0, 1, 2)"), out.stdout


def _scene(kind, n, seed, **kw):
    return geombs.generate_instance(kind, n, seed, spread=2, **kw)


def _graph(kind):
    return geombs.build_intersection_graph(_scene(kind, 6, 5))


# solver name -> call on a small nonempty scene
SOLVER_CALLS = {
    "solve_intervals": lambda: geombs.solve_intervals(
        _scene("intervals", 7, 1)),
    "solve_arcs": lambda: geombs.solve_arcs(_scene("arcs", 6, 2)),
    "solve_one_sided": lambda: geombs.solve_one_sided(
        _scene("unit_disks", 7, 3, disk_mode="one_sided")),
    "one_sided_mis": lambda: geombs.one_sided_mis(
        _scene("unit_disks", 7, 3, disk_mode="one_sided")),
    "solve_two_sided": lambda: geombs.solve_two_sided(
        _scene("unit_disks", 7, 4, disk_mode="two_sided")),
    "solve_3approx": lambda: geombs.solve_3approx(_scene("unit_disks", 8, 5)),
    "solve_logn": lambda: geombs.solve_logn(_scene("unit_disks", 8, 6)),
    "solve_slab": lambda: geombs.solve_slab(
        _scene("unit_disks", 6, 7, disk_mode="slab", slab_k=1), 1,
        slab_bottom=0),
    "solve_ptas": lambda: geombs.solve_ptas(
        _scene("unit_squares", 7, 8), Fraction(1, 2)),
    "solve_ptas_weighted": lambda: geombs.solve_ptas_weighted(
        _scene("unit_disks", 7, 9), geombs.generate_weights(7, 9),
        Fraction(1, 2)),
    "solve_unit_height": lambda: geombs.solve_unit_height(
        _scene("unit_height_rects", 9, 10)),
    "exact_mbs": lambda: geombs.exact_mbs(_graph("rects")),
    "exact_mtfs": lambda: geombs.exact_mtfs(_graph("unit_disks")),
    "exact_mis": lambda: geombs.exact_mis(_graph("intervals")),
}

SOLVER_MODULES = ("intervals", "arcs", "diskline", "diskgeneral", "ptas",
                  "rects", "oracle")


def test_solvers_build_no_sub_scene_or_graph():
    # sub-problems are index lists over the caller's graph, which only the
    # model's builders construct
    found = []
    for name in SOLVER_MODULES:
        path = PACKAGE / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("GeometricInstance", "IntersectionGraph")]
    assert not found, found


@pytest.mark.parametrize("solver", sorted(SOLVER_CALLS))
def test_every_solver_returns_through_certify(solver, monkeypatch):
    calls = []

    def spy(graph, solution, mode="bipartite"):
        calls.append(solution)
        return model.certify(graph, solution, mode)

    for name in SOLVER_MODULES:
        monkeypatch.setattr(importlib.import_module(f"geombs.{name}"),
                            "certify", spy, raising=False)
    out = SOLVER_CALLS[solver]()
    selected = out if isinstance(out, tuple) else out.selected
    assert selected, "the scene should give a nonempty selection"
    assert [s.selected for s in calls] == [selected]


def test_only_the_scene_constructor_validates():
    # a scene is valid once built, so nothing else in the package checks it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "validate_instance"]
    assert len(found) == 1 and found[0].startswith("model.py:"), found


@pytest.mark.parametrize(
    "solver", sorted(s for s in SOLVER_CALLS if not s.startswith("exact_")))
def test_every_scene_solver_validates_once(solver, monkeypatch):
    # the one check runs when the scene is built, and the solve makes zero
    # calls; the oracle solvers take a graph and are left out
    calls = []
    validate = model.validate_instance

    def spy(instance):
        calls.append(sys._getframe(1).f_code)
        return validate(instance)

    monkeypatch.setattr(model, "validate_instance", spy)
    SOLVER_CALLS[solver]()
    assert calls == [model.GeometricInstance.__post_init__.__code__], calls


# public scene solver -> (a call on a scene, the kinds it solves)
DISKS, SHIFTED = ("unit_disks",), ("unit_disks", "unit_squares")
SCENE_SOLVERS = {
    "solve_intervals": (geombs.solve_intervals, ("intervals",)),
    "solve_arcs": (geombs.solve_arcs, ("arcs",)),
    "solve_unit_height": (geombs.solve_unit_height, ("unit_height_rects",)),
    "solve_one_sided": (geombs.solve_one_sided, DISKS),
    "one_sided_mis": (geombs.one_sided_mis, DISKS),
    "solve_two_sided": (geombs.solve_two_sided, DISKS),
    "solve_3approx": (geombs.solve_3approx, DISKS),
    "solve_logn": (geombs.solve_logn, DISKS),
    "solve_slab": (lambda inst: geombs.solve_slab(inst, 1, slab_bottom=0),
                   SHIFTED),
    "build_slab_dag": (lambda inst: geombs.ptas.build_slab_dag(inst, 1),
                       SHIFTED),
    "solve_ptas": (lambda inst: geombs.solve_ptas(inst, Fraction(1, 2)),
                   SHIFTED),
    "solve_ptas_weighted": (lambda inst: geombs.solve_ptas_weighted(
        inst, [1] * inst.n, Fraction(1, 2)), SHIFTED),
}


# kind -> one valid object of it
ONE_OBJECT = {
    "intervals": geombs.IntervalObj(0, 1),
    "arcs": geombs.ArcObj(0, Fraction(1, 2)),
    "unit_disks": geombs.DiskObj(geombs.Point(0, 0)),
    "unit_squares": geombs.RectObj(0, 1, 0, 1),
    "unit_height_rects": geombs.RectObj(0, 3, 0, 1),
    "rects": geombs.RectObj(0, 3, 0, 2),
}


@pytest.mark.parametrize("solver", sorted(SCENE_SOLVERS))
def test_every_scene_solver_refuses_other_kinds_and_empty_scenes(solver):
    # the kind first, then emptiness; a kind that is none of the scene
    # kinds is refused when its scene is built
    call, kinds = SCENE_SOLVERS[solver]
    for kind in geombs.KINDS:
        radius = 1 if kind == "unit_disks" else None
        empty = geombs.GeometricInstance(kind, (), radius)
        if kind in kinds:
            message = "instance has no objects"
        else:
            wanted = " or ".join(map(repr, kinds))
            message = f"expected a scene of kind {wanted}, got '{kind}'"
            with pytest.raises(geombs.ValidationError, match=message):
                call(geombs.GeometricInstance(kind, (ONE_OBJECT[kind],),
                                              radius))
        with pytest.raises(geombs.ValidationError, match=message):
            call(empty)
    with pytest.raises(geombs.ValidationError, match="unknown kind 'hexagons'"):
        call(geombs.GeometricInstance("hexagons", ()))


@pytest.mark.parametrize("call", [
    geombs.solve_one_sided, geombs.one_sided_mis, geombs.solve_two_sided,
    geombs.solve_3approx, geombs.solve_logn,
    lambda inst: geombs.solve_slab(inst, 1, slab_bottom=0),
    lambda inst: geombs.ptas.build_slab_dag(inst, 1),
    lambda inst: geombs.solve_ptas(inst, Fraction(1, 2)),
    lambda inst: geombs.solve_ptas_weighted(inst, [1], Fraction(1, 2)),
])
def test_malformed_scene_rejected_before_its_objects_are_read(call):
    # a unit-disk scene holding an interval is refused when it is built, so
    # no solver is handed it
    with pytest.raises(geombs.ValidationError, match="holds a IntervalObj"):
        call(geombs.GeometricInstance(
            "unit_disks", (geombs.IntervalObj(0, 1),), 1))


# solver -> (scene kind, n) of a scene whose selection leaves objects out
SELECTION_GRAPHS = {
    "solve_intervals": ("intervals", 2000),
    "solve_arcs": ("arcs", 300),
    "solve_unit_height": ("unit_height_rects", 2000),
}
# those seed-1 scenes, and arc scenes of 120 objects at seeds 1 to 3
SELECTION_SCENES = [
    *(pytest.param(solver, n, 1, id=solver)
      for solver, (_, n) in sorted(SELECTION_GRAPHS.items())),
    *(pytest.param("solve_arcs", 120, seed, id=f"solve_arcs-120-{seed}")
      for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("solver, n, seed", SELECTION_SCENES)
def test_certificate_graph_reads_only_the_selection(solver, n, seed,
                                                    monkeypatch):
    # the solver builds one graph, over its selection: the whole scene's
    # graph would list every object.  Every graph build passes its index
    # list through model._sweep_items, for every kind.  Generated arcs have
    # distinct endpoints, so no cut re-checks on the circular graph
    scene = geombs.generate_instance(SELECTION_GRAPHS[solver][0], n, seed)
    listed = []
    sweep_items = model._sweep_items

    def listing(instance, indices):
        listed.append(sorted(indices))
        return sweep_items(instance, indices)

    monkeypatch.setattr(model, "_sweep_items", listing)
    selected = getattr(geombs, solver)(scene).selected
    assert 0 < len(selected) < n
    assert listed == [list(selected)]


# kind -> the pair tests its graph build does not call
PAIR_TESTS = {
    "intervals": ("intervals_intersect",),
    "arcs": ("arcs_intersect", "_on_arc"),
}


@pytest.mark.parametrize("kind", sorted(PAIR_TESTS))
def test_graph_build_calls_no_pair_test(kind, monkeypatch):
    # work, not wall clock: interval edges follow from the sweep's order and
    # arc edges from coverage masks, so no pair test runs, and Fraction
    # order comparisons stay at one per object or fewer
    n = 2000
    scene = geombs.generate_instance(kind, n, 1)
    calls, compares = [], []
    richcmp = Fraction._richcmp

    def refused(*args):
        calls.append(args)
        raise AssertionError("the graph build ran a pair test")

    def counted(a, b, op):
        compares.append(None)
        return richcmp(a, b, op)

    for name in PAIR_TESTS[kind]:
        monkeypatch.setattr(model, name, refused)
    monkeypatch.setattr(Fraction, "_richcmp", counted)
    graph = geombs.build_intersection_graph(scene)
    assert not calls
    assert len(compares) <= n, len(compares)
    assert any(graph.masks)


@pytest.mark.parametrize("solver", ["solve_intervals", "solve_unit_height"])
def test_interval_sweeps_compare_floats(solver, monkeypatch):
    # work, not wall clock: the sorts and sweeps compare float-first exact
    # keys, so Fraction order comparisons stay at one per object or fewer
    kind, n = SELECTION_GRAPHS[solver]
    scene = geombs.generate_instance(kind, n, 1)
    compares = []
    richcmp = Fraction._richcmp

    def counted(a, b, op):
        compares.append(None)
        return richcmp(a, b, op)

    monkeypatch.setattr(Fraction, "_richcmp", counted)
    assert getattr(geombs, solver)(scene).size
    assert len(compares) <= n, len(compares)


GATE_N = 120
# call -> (scene kind, generator options of its seeded scenes, the arguments
# it takes after the scene)
DISK_AND_ARC_CALLS = {
    "solve_one_sided": ("unit_disks", {"disk_mode": "one_sided"}, ()),
    "solve_two_sided": ("unit_disks", {"disk_mode": "two_sided"}, ()),
    "solve_3approx": ("unit_disks", {}, ()),
    "solve_logn": ("unit_disks", {}, ()),
    "solve_arcs": ("arcs", {}, ()),
    "build_intersection_graph": ("unit_disks", {}, ()),
    "solve_ptas": ("unit_squares", {}, (Fraction(1, 2),)),
    "solve_slab": ("unit_disks", {"disk_mode": "slab"}, (2, 0)),
    "solve_ptas_weighted": ("unit_disks", {},
                            (geombs.generate_weights(GATE_N, 1), Fraction(1, 2))),
}
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__")


@pytest.mark.parametrize("call", sorted(DISK_AND_ARC_CALLS))
def test_disk_and_arc_solvers_do_no_fraction_arithmetic(call, monkeypatch):
    # work, not wall clock: after parsing, coordinates are read as
    # cross-multiplied ints and float-first keys, so no Fraction arithmetic
    # runs and Fraction order comparisons stay at one per object or fewer
    kind, options, args = DISK_AND_ARC_CALLS[call]
    n = GATE_N
    scenes = [geombs.generate_instance(kind, n, seed, **options)
              for seed in (1, 2, 3)]
    calls = {}

    def counting(name):
        method = getattr(Fraction, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return method(*args)
        return counted

    for name in FRACTION_ARITHMETIC + ("_richcmp",):
        monkeypatch.setattr(Fraction, name, counting(name))
    for seed, scene in enumerate(scenes):
        calls.clear()
        getattr(geombs, call)(scene, *args)
        compares = calls.pop("_richcmp", 0)
        assert not calls, (seed, calls)
        assert compares <= n, (seed, compares)


# call -> (scene kind, the call on a generated scene)
KEY_TIE_CALLS = {
    **{f"build_intersection_graph-{kind}": (
        kind, geombs.build_intersection_graph)
       for kind in ("unit_height_rects", "unit_squares", "rects")},
    "solve_unit_height": ("unit_height_rects", geombs.solve_unit_height),
    "solve_ptas": ("unit_squares",
                   lambda inst: geombs.solve_ptas(inst, Fraction(1, 2))),
}


@pytest.mark.parametrize("call", sorted(KEY_TIE_CALLS))
def test_generated_key_ties_compare_no_fraction(call, monkeypatch):
    # work, not wall clock: the generator builds one object per distinct
    # value of a scene, so two _keys whose floats tie hold the same object,
    # and the tuple comparison settles them by identity
    kind, solve = KEY_TIE_CALLS[call]
    calls = []

    def counting(name, method):
        def counted(*args):
            calls.append(name)
            return method(*args)
        return counted

    for name in ("__eq__", "_richcmp"):
        monkeypatch.setattr(Fraction, name,
                            counting(name, getattr(Fraction, name)))
    for seed in (1, 2, 3):
        scene = geombs.generate_instance(kind, GATE_N, seed)
        calls.clear()
        solve(scene)
        assert not calls, (seed, len(calls))


# call -> (scene kind, generator options, the call on a scene); the graph
# build runs on every kind
INT_READ_CALLS = {
    "solve_intervals": ("intervals", {}, geombs.solve_intervals),
    "solve_arcs": ("arcs", {}, geombs.solve_arcs),
    "solve_unit_height": ("unit_height_rects", {}, geombs.solve_unit_height),
    "solve_one_sided": ("unit_disks", {"disk_mode": "one_sided"},
                        geombs.solve_one_sided),
    "one_sided_mis": ("unit_disks", {"disk_mode": "one_sided"},
                      geombs.one_sided_mis),
    "solve_two_sided": ("unit_disks", {"disk_mode": "two_sided"},
                        geombs.solve_two_sided),
    "solve_3approx": ("unit_disks", {}, geombs.solve_3approx),
    "solve_logn": ("unit_disks", {}, geombs.solve_logn),
    "solve_slab": ("unit_disks", {"disk_mode": "slab", "slab_k": 1},
                   lambda inst: geombs.solve_slab(inst, 1, slab_bottom=0)),
    "solve_ptas": ("unit_squares", {},
                   lambda inst: geombs.solve_ptas(inst, Fraction(1, 2))),
    "solve_ptas_weighted": ("unit_disks", {}, lambda inst:
                            geombs.solve_ptas_weighted(
                                inst, geombs.generate_weights(inst.n, 1),
                                Fraction(1, 2))),
    **{f"build_intersection_graph-{kind}": (
        kind, {}, geombs.build_intersection_graph) for kind in geombs.KINDS},
}


@pytest.mark.parametrize("call", sorted(INT_READ_CALLS))
def test_ints_are_read_off_the_slots(call, monkeypatch):
    # work, not wall clock: every per-object read of a value's ints takes
    # its _numerator/_denominator slots, so the library's calls of
    # as_integer_ratio() and of the numerator/denominator properties stay at
    # a constant few per solve, the same at n = 60 and n = 120.  Only calls
    # from the library count: Fraction's own methods read the properties of
    # their other operand, e.g. when two equal values tie in a sort key
    kind, options, solve = INT_READ_CALLS[call]
    reads = []

    def counting(name, read):
        def counted(self):
            if sys._getframe(1).f_globals.get("__name__", "").startswith(
                    "geombs"):
                reads.append(name)
            return read(self)
        return counted

    monkeypatch.setattr(Fraction, "as_integer_ratio",
                        counting("as_integer_ratio", Fraction.as_integer_ratio))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(
            counting(name, getattr(Fraction, name).fget)))
    per_n = {}
    for n in (60, 120):
        for seed in (1, 2, 3):
            scene = geombs.generate_instance(kind, n, seed, **options)
            reads.clear()
            solve(scene)
            per_n.setdefault(n, []).append(len(reads))
    assert per_n[60] == per_n[120], per_n
    assert max(per_n[120]) <= 2, per_n


def test_arcs_recheck_only_improving_cuts(monkeypatch):
    # a cut's candidate is re-checked on the circular graph only when it
    # would replace the best so far and holds an arc starting at the cut and
    # one ending there.  Generated endpoints are distinct, so no cut
    # re-checks and the one 2-colouring left is the certificate's
    two_color = geombs._kernels.two_color
    calls = []

    def counted(masks, mask):
        calls.append(None)
        return two_color(masks, mask)

    monkeypatch.setattr(geombs._kernels, "two_color", counted)
    for seed in (1, 2, 3):
        scene = geombs.generate_instance("arcs", 120, seed)
        starts, ends, size = model._positions(scene.objects)
        assert size == 2 * scene.n, seed
        cuts = len(geombs.arcs._unrolled(starts, ends, size)[1])
        calls.clear()
        geombs.solve_arcs(scene)
        assert len(calls) == 1 < cuts, (seed, len(calls), cuts)


def test_arcs_cuts_share_one_sweep(monkeypatch):
    # work, not wall clock: a cut sweeps from its window's start only until
    # its state meets the last cut's, then sweeps on past the last cut's
    # stop.  Each step reads one entry of the steps list; one sweep per cut
    # read about 840n entries at n = 500, the shared sweep about 50n
    n = 500
    reads = []

    class Counted(list):
        def __getitem__(self, j):
            reads.append(None)
            return list.__getitem__(self, j)

    sweeps = geombs.arcs._window_sweeps
    monkeypatch.setattr(geombs.arcs, "_window_sweeps",
                        lambda steps, windows: sweeps(Counted(steps), windows))
    for seed in (1, 2, 3):
        reads.clear()
        geombs.solve_arcs(geombs.generate_instance("arcs", n, seed))
        assert 0 < len(reads) <= 100 * n, (seed, len(reads))


@pytest.mark.parametrize("kind", ["unit_disks", "unit_squares"])
def test_ptas_boxes_join_once_per_feasible_subset(kind, monkeypatch):
    # work, not wall clock: a box's subsets grow one join at a time from the
    # empty set, and no infeasible subset is ever joined
    joins, listed = [], []
    join = geombs._kernels.bipartite_join
    search = geombs._kernels.bipartite_subsets

    def counted(*args):
        joins.append(None)
        return join(*args)

    def listing(*args):
        out = search(*args)
        listed.append(out)
        return out

    monkeypatch.setattr(geombs._kernels, "bipartite_join", counted)
    monkeypatch.setattr(geombs._kernels, "bipartite_subsets", listing)
    for seed in range(4):
        # one slab holding the whole scene, with 8 to 15 objects per box
        scene = geombs.generate_instance(kind, 24, seed, spread=3)
        joins.clear()
        listed.clear()
        geombs.ptas.build_slab_dag(scene, 40)
        assert len(joins) == sum(len(s) - 1 for s in listed), seed
        per_box = [sum(sel.bit_count() == 1 for sel, _ in s) for s in listed]
        assert max(per_box) >= 8, seed


@pytest.mark.parametrize("kind", ["unit_disks", "unit_squares"])
def test_ptas_searches_no_lone_box_apart_from_its_neighbours(kind,
                                                             monkeypatch):
    # work, not wall clock: on sparse scenes most boxes hold one object that
    # meets no object of either neighbouring box; the DP reads only such a
    # box's heaviest subset, so no subset search runs for it, and exactly
    # one runs for every other box
    searched, expected, lone = [], [], []
    search = geombs._kernels.bipartite_subsets
    real_dag = geombs.ptas._slab_dag

    def counted(masks, cand, limit):
        searched.append(cand)
        return search(masks, cand, limit)

    def spy(graph, xs, members, *rest):
        # boxes one diameter wide from the slab's leftmost anchor
        lo = min(anchors[i] for i in members)
        boxes = {}
        for i in members:
            boxes.setdefault((anchors[i] - lo) // width, []).append(i)
        for b in sorted(boxes):
            near = boxes.get(b - 1, []) + boxes.get(b + 1, [])
            if len(boxes[b]) == 1 and not any(
                    graph.adjacent(boxes[b][0], j) for j in near):
                lone.append(b)
            else:
                expected.append(sum(1 << i for i in boxes[b]))
        return real_dag(graph, xs, members, *rest)

    monkeypatch.setattr(geombs._kernels, "bipartite_subsets", counted)
    monkeypatch.setattr(geombs.ptas, "_slab_dag", spy)
    for seed in range(1, 4):
        scene = geombs.generate_instance(kind, 80, seed)
        if kind == "unit_disks":
            anchors = [o.center.x for o in scene.objects]
            width = 2 * scene.disk_radius
        else:
            anchors, width = [o.x_min for o in scene.objects], 1
        searched.clear()
        expected.clear()
        lone.clear()
        geombs.solve_ptas(scene, Fraction(1, 2))
        assert searched == expected, seed
        assert len(lone) > len(expected), seed


# kind -> the constructors a record of that kind runs, once each
RECORD_CONSTRUCTORS = {
    "intervals": (geombs.IntervalObj,),
    "arcs": (geombs.ArcObj,),
    "unit_disks": (geombs.Point, geombs.DiskObj),
    "unit_squares": (geombs.RectObj,),
    "unit_height_rects": (geombs.RectObj,),
    "rects": (geombs.RectObj,),
}


@pytest.mark.parametrize("kind", geombs.KINDS)
def test_parse_does_no_fraction_arithmetic(kind, monkeypatch):
    # work, not wall clock: values are read from their text once per
    # distinct string and built from their reduced ints without
    # Fraction.__new__, the objects' order checks and the weights' signs
    # compare ints, and each record runs its constructors once
    n = 60
    docs = [serialize.instance_to_dict(
                geombs.generate_instance(kind, n, seed, spread=3),
                geombs.generate_weights(n, seed))
            for seed in (1, 2, 3)]
    calls, built = {}, {}

    def counting(table, name, method):
        def counted(*args, **kwargs):
            table[name] = table.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted

    for name in FRACTION_ARITHMETIC + ("_richcmp", "__new__"):
        monkeypatch.setattr(Fraction, name,
                            counting(calls, name, getattr(Fraction, name)))
    for cls in RECORD_CONSTRUCTORS[kind]:
        monkeypatch.setattr(cls, "__init__",
                            counting(built, cls.__name__, cls.__init__))
    for seed, doc in enumerate(docs, 1):
        calls.clear()
        built.clear()
        instance, weights = serialize.instance_from_dict(doc)
        assert instance.n == len(weights) == n
        assert not calls, (seed, calls)
        assert built == {cls.__name__: n for cls in RECORD_CONSTRUCTORS[kind]}
