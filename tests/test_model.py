"""Geometry predicates, graph construction, the three subset verifiers,
and the slotted model dataclasses."""
import copy
import inspect
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F

import pytest

from geombs import (
    ARCS,
    INTERVALS,
    RECTS,
    UNIT_DISKS,
    UNIT_HEIGHT_RECTS,
    UNIT_SQUARES,
    ArcObj,
    CertificateError,
    DiskObj,
    GeometricInstance,
    IntersectionGraph,
    IntervalObj,
    Point,
    RectObj,
    Solution,
    ValidationError,
    build_intersection_graph,
    certify,
    generate_instance,
    is_bipartite,
    is_independent,
    is_triangle_free,
    one_sided_mis,
    solve_3approx,
    solve_arcs,
    solve_intervals,
    solve_logn,
    solve_one_sided,
    solve_ptas,
    solve_two_sided,
    solve_unit_height,
    translate_instance,
    validate_instance,
)
from geombs.model import (
    _frac,
    _graph_over,
    _on_arc,
    arcs_intersect,
    disks_intersect,
    intervals_intersect,
    rects_intersect,
)
from conftest import graph_from_edges


def disks(centers, r=1):
    return GeometricInstance(
        UNIT_DISKS, tuple(DiskObj(Point(x, y)) for x, y in centers), F(r)
    )


# value -> what _frac reads, or None where it must refuse
RATIONALS = [
    ("3/4", F(3, 4)), ("-3/4", F(-3, 4)), ("-0", F(0)), ("007/4", F(7, 4)),
    ("6/8", F(3, 4)), ("-6/4", F(-3, 2)), ("0/5", F(0)), ("-0/7", F(0)),
    ("10/5", F(2)), ("12" * 30 + "/18", F(int("12" * 30), 18)), (7, F(7)),
] + [(text, None) for text in [
    " 3/4", "3/4 ", "3/ 4", "3 / 4", "+3", "1_0", "٣", "²", "3/", "/4", "3/0",
    "1e3", "1.5", "0.5", "--3", "-3/-4", "", "7" * 4301, 0.5, True]]


class TestObjects:
    def test_interval_needs_left_below_right(self):
        with pytest.raises(ValidationError):
            IntervalObj(2, 2)
        with pytest.raises(ValidationError):
            IntervalObj(3, 1)

    def test_arc_angles_in_unit_turn(self):
        with pytest.raises(ValidationError):
            ArcObj(0, 1)
        with pytest.raises(ValidationError):
            ArcObj(F(1, 2), F(1, 2))
        a = ArcObj(F(3, 4), F(1, 4))  # wraps through 0
        assert a.contains(0) and a.contains(F(7, 8))
        assert not a.contains(F(1, 2))

    def test_arc_contains_reduces_any_angle(self):
        a = ArcObj(F(3, 4), F(1, 4))
        assert a.contains(1) and a.contains(F(15, 8)) and a.contains(-F(1, 8))
        assert not a.contains(F(3, 2)) and not a.contains(-F(1, 2))
        b = ArcObj(F(1, 4), F(1, 2))
        assert b.contains(F(5, 4)) and b.contains(-F(1, 2))
        assert not b.contains(-F(1, 4)) and not b.contains(2)
        with pytest.raises(ValidationError):
            b.contains(0.375)  # floats are never coerced

    def test_arcs_intersect_is_endpoint_containment(self):
        # the predicate skips the reduction mod 1 but keeps contains' answer
        rng = random.Random(7)
        for _ in range(2000):
            s, e = rng.sample(range(8), 2)
            t, f = rng.sample(range(8), 2)
            a, b = ArcObj(F(s, 8), F(e, 8)), ArcObj(F(t, 8), F(f, 8))
            assert arcs_intersect(a, b) == (
                a.contains(b.start) or a.contains(b.end)
                or b.contains(a.start) or b.contains(a.end)), (a, b)

    def test_rect_degenerate(self):
        with pytest.raises(ValidationError):
            RectObj(0, 0, 0, 1)

    def test_coordinates_are_exact(self):
        p = Point("1/3", 2)
        assert p.x == F(1, 3) and isinstance(p.x, F)
        with pytest.raises(ValidationError):
            Point(0.5, 0)
        with pytest.raises(ValidationError):
            IntervalObj(False, True)

    @pytest.mark.parametrize("text", ["abc", "1/0", ""])
    def test_malformed_string_is_validation_error(self, text):
        with pytest.raises(ValidationError):
            Point(text, 0)

    @pytest.mark.parametrize("text, want", RATIONALS,
                             ids=[t if isinstance(t, str)
                                  else f"{type(t).__name__}:{t!r}"
                                  for t, _ in RATIONALS])
    def test_parser_agrees_with_fraction(self, text, want):
        # text in the grammar reads as Fraction(text) does, down to its
        # hash, repr, ratio and pickle; every other text, and every float or
        # bool, is refused on every supported Python
        if want is None:
            with pytest.raises(ValidationError) as got:
                _frac(text)
            if isinstance(text, str):
                assert str(got.value).startswith(f"bad rational {text!r}: ")
        else:
            got, ref = _frac(text), F(text)
            assert got == want == ref and type(got) is F
            assert hash(got) == hash(ref) and repr(got) == repr(ref)
            assert got.as_integer_ratio() == ref.as_integer_ratio()
            back = pickle.loads(pickle.dumps(got))
            assert type(back) is F and repr(back) == repr(ref)


# one object of each model dataclass, some built from fields the
# constructors coerce; the coloured solution is the one unhashable object
SLOTTED = {
    "IntervalObj": IntervalObj("1/3", 2),
    "ArcObj": ArcObj(F(3, 4), F(1, 4)),
    "Point": Point(F(-1, 2), 5),
    "DiskObj": DiskObj(Point(1, F(2, 3))),
    "RectObj": RectObj(0, 1, F(1, 7), F(8, 7)),
    "GeometricInstance": GeometricInstance(
        UNIT_DISKS, [DiskObj(Point(0, 0)), DiskObj(Point(1, 1))], "1/2"),
    "IntersectionGraph": IntersectionGraph(3, (2, 0, 1)),
    "Solution": Solution((2, 0)),
    "Solution, coloured": Solution((2, 0), {0: 0, 2: 1}),
}


class TestSlots:
    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_no_instance_dict(self, name):
        obj = SLOTTED[name]
        assert not hasattr(obj, "__dict__")
        assert type(obj).__slots__ == tuple(f.name for f in fields(obj))

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_equality_hash_and_repr(self, name):
        # as a frozen dataclass without slots: equal fields compare equal,
        # the hash is the fields' tuple's, and the repr lists the fields
        obj = SLOTTED[name]
        cls, values = type(obj), [getattr(obj, f.name) for f in fields(obj)]
        twin = cls(*values)
        assert twin == obj and twin is not obj and obj != values
        assert all(obj != other for other in SLOTTED.values() if other is not obj)
        assert repr(obj) == f"{cls.__name__}(" + ", ".join(
            f"{f.name}={v!r}" for f, v in zip(fields(obj), values)) + ")"
        if name == "Solution, coloured":
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        else:
            assert hash(obj) == hash(twin) == hash(tuple(values))

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_pickle_round_trip(self, name):
        obj = SLOTTED[name]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is type(obj) and back == obj, protocol
            assert repr(back) == repr(obj), protocol
            assert [type(getattr(back, f.name)) for f in fields(obj)] == [
                type(getattr(obj, f.name)) for f in fields(obj)], protocol

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_assignment_is_refused(self, name):
        # a field is frozen, and setting or deleting a new name is refused
        # the same way on every supported Python
        obj = SLOTTED[name]
        first = fields(obj)[0].name
        before = getattr(obj, first)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, first, before)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, first)
        with pytest.raises(FrozenInstanceError):
            obj.extra = 1
        with pytest.raises(FrozenInstanceError):
            del obj.extra
        assert getattr(obj, first) is before and not hasattr(obj, "extra")


class Ratio(F):
    """A ``Fraction`` subclass, which the constructors keep as it is."""


# class -> its signature, which the member-descriptor __init__ keeps
SIGNATURES = {
    Point: "(x: 'Fraction', y: 'Fraction') -> None",
    IntervalObj: "(left: 'Fraction', right: 'Fraction') -> None",
    ArcObj: "(start: 'Fraction', end: 'Fraction') -> None",
    DiskObj: "(center: 'Point') -> None",
    RectObj: "(x_min: 'Fraction', x_max: 'Fraction', y_min: 'Fraction', "
             "y_max: 'Fraction') -> None",
    GeometricInstance: "(kind: 'str', objects: 'tuple', "
                       "disk_radius: 'Optional[Fraction]' = None) -> None",
    IntersectionGraph: "(n: 'int', masks: 'tuple') -> None",
    Solution: "(selected: 'tuple', coloring: 'Optional[dict]' = None) -> None",
}

# example name -> a change that ``replace`` must refuse, and the message
REFUSED_CHANGES = {
    "Point": ({"x": 0.5}, "expected an exact rational"),
    "IntervalObj": ({"right": F(1, 3)}, "interval needs left < right"),
    "ArcObj": ({"end": F(3, 4)}, "arc needs start != end"),
    "RectObj": ({"x_max": 0}, "degenerate rectangle"),  # x_max = x_min
    "GeometricInstance": ({"disk_radius": "1/0"}, "bad rational '1/0'"),
    "Solution": ({"selected": (2, 2)}, "repeated indices"),
}


class TestConstructors:
    @pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
    def test_signature_and_defaults(self, cls):
        assert str(inspect.signature(cls)) == SIGNATURES[cls]
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"

    def test_defaults_apply(self):
        assert GeometricInstance(INTERVALS, ()).disk_radius is None
        assert Solution((1,)).coloring is None
        assert GeometricInstance(INTERVALS, (), disk_radius=None).disk_radius is None

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_replace_rebuilds_through_the_checks(self, name):
        obj = SLOTTED[name]
        first = fields(obj)[0].name
        assert replace(obj) == obj
        assert replace(obj, **{first: getattr(obj, first)}) == obj
        change, message = REFUSED_CHANGES.get(name.split(",")[0], (None, None))
        if change is not None:
            with pytest.raises(ValidationError, match=message):
                replace(obj, **change)

    @pytest.mark.parametrize("cls, names", [
        (Point, ("x", "y")), (IntervalObj, ("left", "right")),
        (ArcObj, ("start", "end")),
        (RectObj, ("x_min", "x_max", "y_min", "y_max"))])
    def test_ints_and_texts_are_coerced_subclasses_kept(self, cls, names):
        values = [F(1, 8), F(3, 4), F(1, 4), F(7, 8)][:len(names)]
        if cls is ArcObj:
            values = [F(3, 4), F(1, 8)]
        for spell in (str, lambda v: v, Ratio):
            args = [spell(v) for v in values]
            if cls is not ArcObj:
                args[-1] = 1  # a JSON int
            obj = cls(*args)
            for name, arg in zip(names, args):
                got = getattr(obj, name)
                assert got == F(arg) and isinstance(got, F)
                if isinstance(arg, F):
                    assert got is arg
                else:
                    assert type(got) is F
        with pytest.raises(ValidationError, match="bad rational '1_0'"):
            cls(*(["1_0"] + [str(v) for v in values[1:]]))

    def test_scene_and_solution_fields_are_normalised(self):
        disks = [DiskObj(Point(0, 0)), DiskObj(Point(1, 1))]
        scene = GeometricInstance(UNIT_DISKS, disks, "3/6")
        assert scene.objects == tuple(disks) and type(scene.objects) is tuple
        assert scene.disk_radius == F(1, 2) and type(scene.disk_radius) is F
        radius = Ratio(1, 2)
        assert GeometricInstance(UNIT_DISKS, disks, radius).disk_radius is radius
        assert Solution([3, 1, 2]).selected == (1, 2, 3)
        center = Point(1, 2)
        assert DiskObj(center).center is center
        masks = (0, 1)
        assert IntersectionGraph(2, masks).masks is masks  # already a tuple

    def test_graph_copies_a_mask_list(self):
        masks = [2, 1]
        graph = IntersectionGraph(2, masks)
        masks[0] = 0
        assert graph.masks == (2, 1) and type(graph.masks) is tuple
        assert hash(graph) == hash(IntersectionGraph(2, (2, 1)))

    @pytest.mark.parametrize("n, masks", [(2, [0]), (1, (0, 0)), (0, [1])])
    def test_graph_needs_one_mask_per_vertex(self, n, masks):
        with pytest.raises(ValidationError, match=f"needs {n} masks"):
            IntersectionGraph(n, masks)

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_copy_and_deepcopy(self, name):
        obj = SLOTTED[name]
        for twin in (copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj
            assert repr(twin) == repr(obj)
        assert copy.copy(obj) is not obj


class TestValidation:
    # a scene is validated when it is built, so an invalid one never exists
    def test_kind_payload_mismatch(self):
        with pytest.raises(ValidationError):
            GeometricInstance(INTERVALS, (DiskObj(Point(0, 0)),))
        with pytest.raises(ValidationError, match="unknown kind 'hexagons'"):
            GeometricInstance("hexagons", ())

    def test_disk_radius_required(self):
        with pytest.raises(ValidationError):
            GeometricInstance(UNIT_DISKS, (DiskObj(Point(0, 0)),))
        with pytest.raises(ValidationError):
            GeometricInstance(INTERVALS, (IntervalObj(0, 1),), F(1))

    def test_unit_spans_enforced(self):
        with pytest.raises(ValidationError):
            GeometricInstance(UNIT_SQUARES, (RectObj(0, 2, 0, 1),))
        with pytest.raises(ValidationError):
            GeometricInstance(UNIT_HEIGHT_RECTS, (RectObj(0, 1, 0, 2),))
        validate_instance(GeometricInstance(RECTS, (RectObj(0, 3, 0, 2),)))

    def test_unit_spans_are_exact(self, rng):
        # the checks read numerators and denominators; the reference
        # subtracts Fractions
        values = sorted({F(p, q) for q in (1, 2, 3, 6) for p in range(-7, 8)})
        for _ in range(2000):
            lo, hi = sorted(rng.sample(values, 2))
            unit = hi - lo == 1
            for kind, rect in [(UNIT_HEIGHT_RECTS, RectObj(0, 5, lo, hi)),
                               (UNIT_SQUARES, RectObj(lo, hi, 0, 1)),
                               (UNIT_SQUARES, RectObj(0, 1, lo, hi))]:
                if unit:
                    validate_instance(GeometricInstance(kind, (rect,)))
                else:
                    with pytest.raises(ValidationError):
                        GeometricInstance(kind, (rect,))

    def test_object_orders_are_exact(self, rng):
        # the constructors compare cross-multiplied ints; the reference is
        # Fraction <, on small grids, huge values and near-equal neighbours
        big = 10 ** 40
        values = sorted({F(p, q) for q in (1, 2, 3, 7) for p in range(-5, 6)}
                        | {F(s * big + e, big + d) for s in (-1, 1)
                           for e in (-1, 0, 1) for d in (0, 1)}
                        | {F(1, big), F(-1, big), F(big), F(-big)})
        for _ in range(3000):
            a, b = rng.choice(values), rng.choice(values)
            c, d = rng.choice(values), rng.choice(values)
            for build, ok, message in [
                    (lambda: IntervalObj(a, b), a < b, "left < right"),
                    (lambda: RectObj(a, b, c, d), a < b and c < d,
                     "degenerate rectangle")]:
                if ok:
                    build()
                else:
                    with pytest.raises(ValidationError, match=message):
                        build()

    def test_arc_orders_are_exact(self, rng):
        # ArcObj's checks, _on_arc and arcs_intersect compare cross-multiplied
        # ints; the reference is Fraction comparison, on small grids, values
        # at the 10^40 scale and near-equal neighbours, in and around [0, 1)
        big = 10 ** 40
        values = sorted({F(p, q) for q in (1, 2, 3, 7) for p in range(-2, 9)}
                        | {F(k * big + e, 4 * big + d) for k in range(5)
                           for e in (-1, 0, 1) for d in (-1, 0, 1)}
                        | {F(1, big), F(-1, big), F(big - 1, big)})

        def on_arc(s, e, a):
            return s <= a <= e if s < e else a >= s or a <= e

        arcs = []
        for _ in range(3000):
            s, e = rng.choice(values), rng.choice(values)
            if not (0 <= s < 1 and 0 <= e < 1 and s != e):
                with pytest.raises(ValidationError, match="arc"):
                    ArcObj(s, e)
                continue
            arc = ArcObj(s, e)
            for a in (s, e, rng.choice(values) % 1):
                assert _on_arc(arc, a) == on_arc(s, e, a), (s, e, a)
            arcs.append(arc)
        for _ in range(3000):
            a, b = rng.choice(arcs), rng.choice(arcs)
            assert arcs_intersect(a, b) == (
                on_arc(a.start, a.end, b.start) or on_arc(a.start, a.end, b.end)
                or on_arc(b.start, b.end, a.start)
                or on_arc(b.start, b.end, a.end)), (a, b)


# solver -> (scene kind, generator options, the call on a scene, whether the
# scene may move in y); line-stabbed disks shift in x only
TRANSLATED_SOLVERS = {
    "solve_intervals": (INTERVALS, {}, solve_intervals, False),
    "solve_arcs": (ARCS, {}, solve_arcs, False),
    "solve_unit_height": (UNIT_HEIGHT_RECTS, {}, solve_unit_height, True),
    "solve_one_sided": (UNIT_DISKS, {"disk_mode": "one_sided"},
                        solve_one_sided, False),
    "one_sided_mis": (UNIT_DISKS, {"disk_mode": "one_sided"},
                      lambda inst: Solution(one_sided_mis(inst)), False),
    "solve_two_sided": (UNIT_DISKS, {"disk_mode": "two_sided"},
                        solve_two_sided, False),
    "solve_3approx": (UNIT_DISKS, {}, solve_3approx, True),
    "solve_logn": (UNIT_DISKS, {}, solve_logn, True),
    "solve_ptas-disks": (UNIT_DISKS, {},
                         lambda inst: solve_ptas(inst, F(1, 2)), True),
    "solve_ptas-squares": (UNIT_SQUARES, {},
                           lambda inst: solve_ptas(inst, F(1, 3)), True),
}


class TestPredicates:
    def test_interval_overlap_edge(self):
        inst = GeometricInstance(
            INTERVALS, (IntervalObj(0, 2), IntervalObj(1, 3))
        )
        assert build_intersection_graph(inst).adjacent(0, 1)

    def test_interval_shared_endpoint_is_closed(self):
        inst = GeometricInstance(
            INTERVALS, (IntervalObj(0, 1), IntervalObj(1, 2))
        )
        assert build_intersection_graph(inst).adjacent(0, 1)

    def test_disk_tangency_counts(self):
        g = build_intersection_graph(disks([(0, 0), (2, 0)]))
        assert g.adjacent(0, 1)

    def test_far_disks_edgeless(self):
        g = build_intersection_graph(disks([(0, 0), (5, 0), (10, 0)]))
        assert g.masks == (0, 0, 0)

    def test_arc_overlap(self):
        inst = GeometricInstance(
            ARCS,
            (ArcObj(0, F(1, 4)), ArcObj(F(1, 8), F(3, 8)),
             ArcObj(F(1, 2), F(5, 8))),
        )
        g = build_intersection_graph(inst)
        assert g.adjacent(0, 1) and not g.adjacent(0, 2)

    def test_arc_containment_case(self):
        # one arc entirely inside another still intersects
        inst = GeometricInstance(
            ARCS, (ArcObj(0, F(1, 2)), ArcObj(F(1, 8), F(1, 4)))
        )
        assert build_intersection_graph(inst).adjacent(0, 1)

    def test_rect_corner_touch_is_closed(self):
        inst = GeometricInstance(
            RECTS, (RectObj(0, 1, 0, 1), RectObj(1, 2, 1, 2))
        )
        assert build_intersection_graph(inst).adjacent(0, 1)

    def test_build_deterministic(self):
        inst = generate_instance(UNIT_DISKS, 10, 5)
        assert (build_intersection_graph(inst).masks
                == build_intersection_graph(inst).masks)

    @pytest.mark.parametrize("kind", [INTERVALS, ARCS, UNIT_DISKS, RECTS])
    def test_translation_invariance(self, kind):
        rng = random.Random(11)
        for seed in range(20):
            inst = generate_instance(kind, 2 + seed % 7, seed)
            dx = F(rng.randrange(-8, 9), 4)
            dy = F(rng.randrange(-8, 9), 4)
            moved = translate_instance(inst, dx, dy)
            assert (build_intersection_graph(inst).masks
                    == build_intersection_graph(moved).masks)

    @pytest.mark.parametrize("solver", sorted(TRANSLATED_SOLVERS))
    def test_solver_translation_invariance(self, solver):
        # shifts by thirds, sevenths and tenths leave most float keys
        # inexact, so equal values tie as floats and the exact tie-break
        # decides; every solver reads positions relative to the scene
        kind, options, solve, y_shift = TRANSLATED_SOLVERS[solver]
        rng = random.Random(solver)
        for seed in range(60):
            inst = generate_instance(kind, 1 + seed % 24, seed,
                                     spread=1 + seed % 6, **options)
            den = (3, 7, 10)[seed % 3]
            dx = F(rng.randrange(-50 * den, 50 * den), den)
            dy = F(rng.randrange(-50 * den, 50 * den), den) if y_shift else 0
            want, got = solve(inst), solve(translate_instance(inst, dx, dy))
            assert (got.selected, got.coloring) == (
                want.selected, want.coloring), (seed, dx, dy)


def _all_pairs_masks(inst):
    """Reference adjacency: the kind's public predicate on every pair."""
    def meets(a, b):
        if inst.kind == INTERVALS:
            return intervals_intersect(a, b)
        if inst.kind == ARCS:
            return arcs_intersect(a, b)
        if inst.kind == UNIT_DISKS:
            return disks_intersect(a, b, inst.disk_radius)
        return rects_intersect(a, b)

    objs = inst.objects
    return tuple(
        sum(1 << j for j in range(len(objs)) if j != i and meets(objs[i], objs[j]))
        for i in range(len(objs))
    )


def intervals(*pairs):
    return GeometricInstance(INTERVALS, tuple(IntervalObj(a, b) for a, b in pairs))


def rects(*quads):
    return GeometricInstance(RECTS, tuple(RectObj(*q) for q in quads))


def arcs(*pairs):
    return GeometricInstance(ARCS, tuple(ArcObj(a, b) for a, b in pairs))


# closed-semantics corner cases for the x-extent sweep and the arcs'
# coverage masks
SWEEP_CASES = {
    "disks 2r apart on x": disks([(4, 0), (0, 0), (2, 0), (6, 1), (8, 0)]),
    "disks 2r apart on x, on and off a line": disks(
        [(0, 0), (3, 0), (3, 1), (6, 1)], r=F(3, 2)),
    "rect x_max meets x_min": rects((2, 3, 0, 1), (0, 1, 0, 1), (1, 2, 0, 1),
                                    (3, 4, 5, 6)),
    "shared interval endpoints": intervals((1, 2), (0, 1), (2, 3), (3, 5)),
    "equal left ends": intervals((0, 1), (0, 3), (0, 2), (2, 4), (3, 4)),
    "long interval covers later starts": intervals(
        (0, 20), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (19, 21), (20, 22),
        (21, 23)),
    "arcs sharing one endpoint": arcs(
        (0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(1, 4), F(5, 8)),
        (F(7, 8), F(1, 4))),
    "arc wrapping through 0 beside one starting at 0": arcs(
        (F(3, 4), F(1, 8)), (0, F(1, 4)), (F(1, 2), 0), (F(1, 8), F(1, 2)),
        (F(1, 4), F(3, 4)), (F(5, 8), F(11, 16))),
    "nested arcs": arcs(
        (0, F(1, 2)), (F(1, 8), F(1, 4)), (F(1, 16), F(3, 8)),
        (F(3, 4), F(1, 4)), (F(7, 8), F(1, 8)), (F(5, 8), F(11, 16))),
    "covering C5": arcs(*((F(i, 5), (F(i, 5) + F(3, 10)) % 1) for i in range(5))),
}


# values where float keys tie or leave float range: the builder must fall
# back to the exact values there
THIRD = F(1, 3)
NEAR_THIRD = F(float(THIRD))  # the same float as 1/3, a different value
TINY = F(1, 10**30)
HUGE = F(10**400)
EXTREME_POINTS = [0, 1, -1, 2 * TINY, -TINY, THIRD, NEAR_THIRD, THIRD + TINY,
                  THIRD + 2 * TINY, NEAR_THIRD + 2 * TINY, 2 * THIRD,
                  2 * NEAR_THIRD, HUGE, -HUGE, HUGE + THIRD, HUGE + NEAR_THIRD]
EXTREME_WIDTHS = [TINY, 2 * TINY, THIRD - NEAR_THIRD, THIRD, 1, HUGE, 2 * HUGE]
EXTREME_RADII = [TINY, THIRD, NEAR_THIRD, 1, HUGE]
# in [0, 1): 1 - TINY is the float 1.0, above every other angle's float
EXTREME_ANGLES = [0, TINY, 2 * TINY, THIRD, NEAR_THIRD, THIRD + TINY,
                  NEAR_THIRD + 2 * TINY, F(1, 2), 2 * THIRD, 2 * NEAR_THIRD,
                  1 - TINY]


def _extreme_scene(kind, rng):
    objs = []
    for _ in range(rng.randrange(1, 9)):
        x, y = rng.choice(EXTREME_POINTS), rng.choice(EXTREME_POINTS)
        w, h = rng.choice(EXTREME_WIDTHS), rng.choice(EXTREME_WIDTHS)
        objs.append(ArcObj(*rng.sample(EXTREME_ANGLES, 2)) if kind == ARCS
                    else DiskObj(Point(x, y)) if kind == UNIT_DISKS
                    else IntervalObj(x, x + w) if kind == INTERVALS
                    else RectObj(x, x + w, y, y + h))
    radius = rng.choice(EXTREME_RADII) if kind == UNIT_DISKS else None
    return GeometricInstance(kind, tuple(objs), radius)


# disk scenes of radius 3/7 whose exact tests the x-extent sweep must not
# skip: the sweep keys are floats, and the pair test cross-multiplies ints
R37 = F(3, 7)
PRIMES = (3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)  # and 7 in r


def _radius_3_7_scene(rng):
    return disks([(F(rng.randrange(-24, 25), 7), F(rng.randrange(-24, 25), 7))
                  for _ in range(rng.randrange(1, 12))], r=R37)


def _coprime_scene(rng):
    # every coordinate has its own prime denominator, coprime to r's 7
    dens = rng.sample(PRIMES, 2 * rng.randrange(1, len(PRIMES) // 2 + 1))
    coords = [F(rng.randrange(-2 * q, 2 * q + 1), q) for q in dens]
    return disks(list(zip(coords[::2], coords[1::2])), r=R37)


def _tangent_scene(rng):
    # pairs exactly 2r apart, and pairs 2r +- TINY apart, whose sweep keys
    # tie as floats either way; horizontal and vertical
    centers = []
    for _ in range(rng.randrange(1, 5)):
        x = F(rng.randrange(-60, 61), rng.choice(PRIMES))
        y = F(rng.randrange(-9, 10), 11)
        gap = 2 * R37 + rng.choice((0, TINY, -TINY))
        centers += [(x, y), (x + gap, y) if rng.randrange(2) else (x, y + gap)]
    return disks(centers, r=R37)


def _huge_scene(rng):
    def coord():
        return rng.choice((HUGE, -HUGE, 0)) + F(rng.randrange(-9, 10), 7)
    return disks([(coord(), coord()) for _ in range(rng.randrange(1, 9))],
                 r=R37)


DISK_EDGE_SCENES = {
    "radius 3/7": _radius_3_7_scene,
    "pairwise-coprime denominators": _coprime_scene,
    "tangent pairs tying as floats": _tangent_scene,
    "coordinates beyond float range": _huge_scene,
}


class TestBuilder:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_corner_cases_match_all_pairs(self, case):
        inst = SWEEP_CASES[case]
        assert build_intersection_graph(inst).masks == _all_pairs_masks(inst)

    @pytest.mark.parametrize("kind", [INTERVALS, ARCS, UNIT_DISKS, UNIT_SQUARES,
                                      UNIT_HEIGHT_RECTS, RECTS])
    def test_seeded_scenes_match_all_pairs(self, kind):
        for seed in range(60):
            inst = generate_instance(kind, 1 + seed % 30, seed,
                                     spread=1 + seed % 5)
            assert (build_intersection_graph(inst).masks
                    == _all_pairs_masks(inst)), seed

    @staticmethod
    def _check_graph_over(inst, rng):
        full = _all_pairs_masks(inst)
        for _ in range(4):
            idx = rng.sample(range(inst.n), rng.randrange(inst.n + 1))
            keep = sum(1 << i for i in idx)
            want = tuple(full[i] & keep if keep >> i & 1 else 0
                         for i in range(inst.n))
            assert _graph_over(inst, idx).masks == want, idx

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_graph_over_corner_cases(self, case, rng):
        self._check_graph_over(SWEEP_CASES[case], rng)

    @pytest.mark.parametrize("kind", [INTERVALS, ARCS, UNIT_DISKS, UNIT_SQUARES,
                                      UNIT_HEIGHT_RECTS, RECTS])
    def test_graph_over_seeded_scenes(self, kind, rng):
        for seed in range(60):
            inst = generate_instance(kind, 1 + seed % 30, seed,
                                     spread=1 + seed % 5)
            self._check_graph_over(inst, rng)

    @pytest.mark.parametrize("kind", [INTERVALS, ARCS, UNIT_DISKS, RECTS])
    def test_exact_at_float_ties_and_beyond_float_range(self, kind, rng):
        assert float(THIRD) == float(NEAR_THIRD) and THIRD != NEAR_THIRD
        for trial in range(600):
            inst = _extreme_scene(kind, rng)
            full = _all_pairs_masks(inst)
            assert build_intersection_graph(inst).masks == full, trial
            self._check_graph_over(inst, rng)
            if kind == UNIT_DISKS:
                # the public disk predicate against squared distances in
                # Fractions
                r, objs = inst.disk_radius, inst.objects
                for i, a in enumerate(objs):
                    for j, b in enumerate(objs):
                        dx = a.center.x - b.center.x
                        dy = a.center.y - b.center.y
                        near = dx * dx + dy * dy <= 4 * r * r
                        assert (full[i] >> j & 1) == (near and i != j), trial

    @pytest.mark.parametrize("family", sorted(DISK_EDGE_SCENES))
    def test_disk_edge_cases_match_all_pairs(self, family, rng):
        ties = 0
        for trial in range(300):
            inst = DISK_EDGE_SCENES[family](rng)
            assert (build_intersection_graph(inst).masks
                    == _all_pairs_masks(inst)), trial
            self._check_graph_over(inst, rng)
            if family == "tangent pairs tying as floats":
                xs = [d.center.x for d in inst.objects]
                ties += sum(float(b) == float(a + 2 * R37) and b > a + 2 * R37
                            for a in xs for b in xs)
        if family == "tangent pairs tying as floats":
            # disjoint pairs whose sweep keys tie as floats did occur
            assert ties > 0

    def test_induced_masks_relabel_by_position(self, rng):
        from conftest import random_graph
        for trial in range(300):
            g = random_graph(rng, rng.randrange(1, 12), rng.random())
            order = rng.sample(range(g.n), rng.randrange(g.n + 1))
            want = [sum(1 << q for q, w in enumerate(order) if g.adjacent(v, w))
                    for v in order]
            assert g.induced_masks(order) == want, (trial, order)


class TestVerifiers:
    def test_even_cycle_coloring(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        col = is_bipartite(g, range(4))
        assert col == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_triangle_not_bipartite(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert is_bipartite(g, range(3)) is None
        assert is_triangle_free(g, range(3)) == (0, 1, 2)

    def test_empty_subset(self):
        g = graph_from_edges(3, [(0, 1)])
        assert is_bipartite(g, []) == {}
        assert is_triangle_free(g, []) is None
        assert is_independent(g, []) is None

    def test_k4_has_triangle_witness(self):
        g = graph_from_edges(
            4, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        )
        w = is_triangle_free(g, range(4))
        assert w is not None and len(set(w)) == 3

    def test_c5_triangle_free_not_bipartite(self):
        g = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert is_triangle_free(g, range(5)) is None
        assert is_bipartite(g, range(5)) is None

    def test_independent_witness(self):
        g = graph_from_edges(3, [(0, 2)])
        assert is_independent(g, [0, 2]) == (0, 2)
        assert is_independent(g, [0, 1]) is None
        assert is_independent(g, [1]) is None

    def test_out_of_range_subset(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValidationError):
            is_bipartite(g, [3])
        with pytest.raises(ValidationError):
            is_independent(g, [-1])

    @pytest.mark.parametrize("index", [True, False, 1.0])
    def test_non_int_index_rejected(self, index):
        g = graph_from_edges(3, [(0, 1)])
        for check in (is_bipartite, is_triangle_free, is_independent):
            with pytest.raises(ValidationError, match="not an int"):
                check(g, [index, 2])
        with pytest.raises(ValidationError, match="not an int"):
            certify(g, Solution((index, 2)))

    def test_coloring_proper_and_implies_triangle_free(self, rng):
        from conftest import random_graph

        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 9))
            sub = [v for v in range(g.n) if rng.random() < 0.7]
            col = is_bipartite(g, sub)
            if col is None:
                continue
            for u in sub:
                for v in sub:
                    if u < v and g.adjacent(u, v):
                        assert col[u] != col[v]
            assert is_triangle_free(g, sub) is None


class TestCertify:
    # path 0-1-2 plus the triangle 2-3-4
    EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)]

    def graph(self):
        return graph_from_edges(5, self.EDGES)

    def test_returns_the_solution(self):
        g = self.graph()
        sol = Solution((0, 1, 2), {0: 0, 1: 1, 2: 0})
        assert certify(g, sol) is sol
        assert certify(g, Solution((0, 1, 2))) is not None
        assert certify(g, Solution((0, 2)), "independent") is not None
        assert certify(g, Solution((0, 1, 2, 3)), "triangle_free") is not None
        assert certify(g, Solution(())) is not None

    def test_uncolored_vertex(self):
        with pytest.raises(CertificateError, match="uncolored vertex 2"):
            certify(self.graph(), Solution((0, 1, 2), {0: 0, 1: 1}))

    def test_color_outside_selection(self):
        with pytest.raises(CertificateError, match=r"outside the selection \[3\]"):
            certify(self.graph(), Solution((0, 1), {0: 0, 1: 1, 3: 0}))

    def test_monochromatic_edge(self):
        with pytest.raises(CertificateError,
                           match=r"monochromatic edge \(1, 2\)"):
            certify(self.graph(), Solution((0, 1, 2), {0: 0, 1: 1, 2: 1}))

    def test_odd_cycle_without_coloring(self):
        with pytest.raises(CertificateError,
                           match=r"odd cycle witness \(2, 3, 4\)"):
            certify(self.graph(), Solution((1, 2, 3, 4)))

    def test_triangle(self):
        with pytest.raises(CertificateError,
                           match=r"triangle witness \(2, 3, 4\)"):
            certify(self.graph(), Solution((0, 2, 3, 4)), "triangle_free")

    def test_edge(self):
        with pytest.raises(CertificateError, match=r"edge witness \(0, 1\)"):
            certify(self.graph(), Solution((0, 1, 3)), "independent")

    def test_out_of_range_index_is_validation_error(self):
        with pytest.raises(ValidationError):
            certify(self.graph(), Solution((0, 5), {0: 0, 5: 1}))
        with pytest.raises(ValidationError):
            certify(self.graph(), Solution((0,)), "maximal")

    def test_matches_a_pairwise_check(self, rng):
        from conftest import random_graph

        for _ in range(200):
            g = random_graph(rng, rng.randrange(1, 9))
            sub = [v for v in range(g.n) if rng.random() < 0.6]
            coloring = {v: rng.randrange(2) for v in sub}
            proper = all(coloring[u] != coloring[v] for u in sub for v in sub
                         if u < v and g.adjacent(u, v))
            try:
                certify(g, Solution(sub, coloring))
                passed = True
            except CertificateError:
                passed = False
            assert passed == proper, (g.masks, coloring)


class TestSolution:
    def test_selected_sorted_deduplicated_order(self):
        s = Solution((3, 1, 2))
        assert s.selected == (1, 2, 3) and s.size == 3

    def test_repeated_indices_rejected(self):
        with pytest.raises(ValidationError, match="repeated"):
            Solution((1, 1), {1: 0})
