"""Unit-height rectangles: stabbing-line grouping and the parity-union
2-approximation."""
import random
from fractions import Fraction as F

import pytest

from geombs import (
    UNIT_HEIGHT_RECTS,
    CertificateError,
    GeometricInstance,
    RectObj,
    ValidationError,
    build_intersection_graph,
    exact_mbs,
    generate_instance,
    is_bipartite,
    solve_unit_height,
)
from geombs import rects as rects_module
from geombs.model import _bands
import kernel_reference
from conftest import graph_edges


def group_rects(inst):
    """The unit bands of the rectangles' bottoms, as the solver groups them."""
    return _bands([o.y_min for o in inst.objects], 1)


def rects(*quads):
    return GeometricInstance(
        UNIT_HEIGHT_RECTS,
        tuple(RectObj(x0, x1, y0, y0 + 1) for x0, x1, y0 in quads),
    )


class TestGolden:
    def test_single_group_triangle(self):
        inst = rects((0, 2, 0), (1, 3, F(1, 4)), (F(3, 2), 4, F(1, 2)))
        assert solve_unit_height(inst).size == 2

    def test_same_parity_groups_both_kept(self):
        inst = rects((0, 1, 0), (0, 1, 2))  # groups 0 and 2
        assert solve_unit_height(inst).selected == (0, 1)

    def test_parity_tie_keeps_even_groups(self):
        inst = rects((5, 6, 1), (0, 1, 0), (2, 3, 3), (8, 9, 2))  # groups 1 0 3 2
        sol = solve_unit_height(inst)
        assert sol.selected == (1, 3) and sol.coloring == {1: 0, 3: 0}

    def test_disjoint_rects_across_adjacent_groups(self):
        inst = rects((0, 1, 0), (2, 3, F(1, 2)), (4, 5, 0), (6, 7, F(3, 2)))
        assert solve_unit_height(inst).size >= 2

    def test_certifies_its_coloring(self, monkeypatch):
        # a sweep that keeps the whole triangle group must be refused
        monkeypatch.setattr(rects_module, "_sweep",
                            lambda lefts, rights, order: list(order))
        inst = rects((0, 2, 0), (1, 3, F(1, 4)), (F(3, 2), 4, F(1, 2)))
        with pytest.raises(CertificateError):
            solve_unit_height(inst)

    def test_wrong_kind_rejected(self):
        # the scene refuses a height of 2 when it is built
        with pytest.raises(ValidationError):
            solve_unit_height(
                GeometricInstance(UNIT_HEIGHT_RECTS, (RectObj(0, 1, 0, 2),)))


class TestGrouping:
    def test_same_group_adjacency_is_x_overlap(self):
        for seed in range(100):
            inst = generate_instance(UNIT_HEIGHT_RECTS, 2 + seed % 10, seed)
            g = build_intersection_graph(inst)
            for _, members in group_rects(inst).items():
                for a in members:
                    for b in members:
                        if a >= b:
                            continue
                        ra, rb = inst.objects[a], inst.objects[b]
                        overlap = (ra.x_min <= rb.x_max
                                   and rb.x_min <= ra.x_max)
                        assert g.adjacent(a, b) == overlap

    def test_same_parity_groups_disjoint(self):
        for seed in range(100):
            inst = generate_instance(UNIT_HEIGHT_RECTS, 2 + seed % 10, seed)
            g = build_intersection_graph(inst)
            groups = group_rects(inst)
            where = {}
            for t, members in groups.items():
                for i in members:
                    where[i] = t
            for u, v in graph_edges(g):
                tu, tv = where[u], where[v]
                if tu != tv:
                    assert tu % 2 != tv % 2, (u, v, tu, tv)


class TestProperties:
    def test_half_ratio_and_feasibility(self):
        for seed in range(300):
            inst = generate_instance(UNIT_HEIGHT_RECTS, 1 + seed % 12, seed)
            sol = solve_unit_height(inst)
            g = build_intersection_graph(inst)
            assert 2 * sol.size >= exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None


def tie_heavy_rects(seed):
    """Up to 14 unit-height rectangles with corners on a grid of step 1,
    1/2 or 1/4 inside [0, 6] x [0, 4], so shared x-endpoints, touching
    sides and band boundaries are common."""
    rng = random.Random(seed)
    q = rng.choice((1, 2, 4))
    quads = []
    while len(quads) < 1 + seed % 14:
        a, b = sorted(rng.sample(range(6 * q + 1), 2))
        quads.append((F(a, q), F(b, q), F(rng.randrange(3 * q + 1), q)))
    return rects(*quads)


class TestReference:
    def test_matches_perturbed_key_sweep(self):
        for seed in range(1200):
            inst = tie_heavy_rects(seed)
            sol = solve_unit_height(inst)
            assert ((sol.selected, sol.coloring)
                    == kernel_reference.reference_unit_height(inst)), seed
