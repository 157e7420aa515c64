"""Circular arcs: cut-and-linearize solver within one of the optimum."""
import random
from fractions import Fraction as F

import pytest

from geombs import (
    ARCS,
    ArcObj,
    CertificateError,
    GeometricInstance,
    build_intersection_graph,
    exact_mbs,
    exact_mtfs,
    generate_instance,
    is_bipartite,
    solve_arcs,
)
from geombs import arcs as arcs_module
from geombs.intervals import _sweep, _window_sweeps
from geombs.model import arcs_intersect
import kernel_reference
from conftest import graph_edges


def _uncovered_point(instance):
    """The first position after which no arc covers the circle up to the
    next position, or None if the arcs cover the whole circle."""
    return arcs_module._unrolled(*arcs_module._positions(instance.objects))[3]


def arcs(*pairs):
    return GeometricInstance(ARCS, tuple(ArcObj(a, b) for a, b in pairs))


def c5_arcs():
    # five arcs of length 3/10 spaced 1/5 apart: an induced 5-cycle
    # covering the whole circle
    return arcs(*(((F(i, 5), (F(i, 5) + F(3, 10)) % 1) for i in range(5))))


class TestGolden:
    def test_induced_c5_covering_circle(self):
        inst = c5_arcs()
        g = build_intersection_graph(inst)
        assert sorted(graph_edges(g)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert _uncovered_point(inst) is None
        sol = solve_arcs(inst)
        assert sol.size == 4 == exact_mbs(g).size

    def test_pairwise_disjoint(self):
        inst = arcs((0, F(1, 8)), (F(1, 4), F(3, 8)), (F(1, 2), F(5, 8)))
        assert solve_arcs(inst).selected == (0, 1, 2)

    def test_three_mutually_overlapping_covering_circle(self):
        inst = arcs((0, F(2, 5)), (F(7, 20), F(3, 4)), (F(7, 10), F(1, 20)))
        g = build_intersection_graph(inst)
        assert len(list(graph_edges(g))) == 3  # a triangle
        assert solve_arcs(inst).size == 2

    def test_single_arc(self):
        assert solve_arcs(arcs((0, F(1, 2)))).selected == (0,)

    def test_certifies_its_coloring(self, monkeypatch):
        # a shared sweep that keeps every surviving arc passes the triangle,
        # whose arcs share no endpoint, so no cut re-checks it; the
        # certificate, on the model's own graph of the selection, refuses it
        monkeypatch.setattr(
            arcs_module, "_window_sweeps",
            lambda steps, windows: (
                sum(bit for left, _, bit in steps[start:stop] if left > floor)
                for start, stop, floor in windows))
        inst = arcs((0, F(1, 2)), (F(1, 8), F(5, 8)), (F(1, 4), F(3, 4)))
        with pytest.raises(CertificateError):
            solve_arcs(inst)


class TestProperties:
    def test_within_one_of_optimum_and_bipartite(self):
        for seed in range(300):
            inst = generate_instance(ARCS, 1 + seed % 10, seed)
            sol = solve_arcs(inst)
            g = build_intersection_graph(inst)
            opt = exact_mbs(g).size
            assert opt - 1 <= sol.size <= opt, (seed, sol.size, opt)
            assert is_bipartite(g, sol.selected) is not None

    def test_exact_when_circle_not_covered(self):
        # leaving an uncovered point makes the scene an interval graph
        for seed in range(100):
            inst = generate_instance(ARCS, 2 + seed % 8, seed)
            half = GeometricInstance(
                ARCS,
                tuple(ArcObj(min(a.start, a.end) / 2, max(a.start, a.end) / 2)
                      for a in inst.objects),
            )
            assert _uncovered_point(half) is not None
            assert (solve_arcs(half).size
                    == exact_mbs(build_intersection_graph(half)).size)

    def test_covering_triangle_free_family_has_at_most_one_cycle(self):
        # a triangle-free arc family covering the circle: at most one cycle
        checked = 0
        for seed in range(200):
            inst = generate_instance(ARCS, 3 + seed % 10, seed)
            g = build_intersection_graph(inst)
            keep = exact_mtfs(g).selected
            sub = GeometricInstance(
                ARCS, tuple(inst.objects[i] for i in keep)
            )
            if _uncovered_point(sub) is None:
                sg = build_intersection_graph(sub)
                m = len(list(graph_edges(sg)))
                comps = _component_count(sg)
                assert m - sg.n + comps <= 1, (seed, keep)
                checked += 1
        assert checked >= 10


def tie_heavy_arcs(seed):
    """Up to 14 arcs whose endpoints are multiples of 1/q, q in 4..64, so
    shared endpoints and arcs meeting at one point are common."""
    rng = random.Random(seed)
    q = rng.randrange(4, 65)
    pairs = []
    while len(pairs) < 1 + seed % 14:
        a, b = rng.randrange(q), rng.randrange(q)
        if a != b:
            pairs.append((F(a, q), F(b, q)))
    return arcs(*pairs)


TIE_HEAVY = [tie_heavy_arcs(seed) for seed in range(1200)]


class TestReference:
    def test_matches_fraction_cut_loop(self):
        for seed, inst in enumerate(TIE_HEAVY):
            sol = solve_arcs(inst)
            assert ((sol.selected, sol.coloring)
                    == kernel_reference.reference_arcs(inst)), seed

    def test_position_masks_match_builder(self):
        # the coverage masks, which build every arc graph, against the
        # public pair predicate on every pair
        for seed, inst in enumerate(TIE_HEAVY):
            objs = inst.objects
            want = tuple(sum(1 << j for j, b in enumerate(objs)
                             if j != i and arcs_intersect(a, b))
                         for i, a in enumerate(objs))
            assert build_intersection_graph(inst).masks == want, seed

    def test_uncovered_gap_is_the_reference_midpoint(self):
        for seed, inst in enumerate(TIE_HEAVY):
            gap = _uncovered_point(inst)
            mid = kernel_reference._uncovered_point(inst)
            assert (gap is None) == (mid is None), seed
            if mid is not None:
                values = {a.start for a in inst.objects} | {a.end for a in inst.objects}
                below = sum(v < mid for v in values)
                assert gap == (below - 1) % len(values), seed

    def test_shared_sweep_matches_one_sweep_per_cut(self):
        # every cut's candidate from the shared sweep against the interval
        # sweep run alone on that cut's window and floor
        for seed, inst in enumerate(TIE_HEAVY):
            starts, ends, size = arcs_module._positions(inst.objects)
            steps, windows, _, gap = arcs_module._unrolled(starts, ends, size)
            assert len(windows) == size + (gap is not None)
            lefts = [left for left, _, _ in steps]
            rights = [right for _, right, _ in steps]
            shared = list(_window_sweeps(steps, windows))
            for (start, stop, floor), candidate in zip(windows, shared):
                alone = _sweep(lefts, rights, range(start, stop), floor)
                assert candidate == sum(steps[j][2] for j in alone), (seed, floor)


def _component_count(g):
    seen = set()
    comps = 0
    for root in range(g.n):
        if root in seen:
            continue
        comps += 1
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if v not in seen and g.adjacent(u, v):
                    seen.add(v)
                    stack.append(v)
    return comps
