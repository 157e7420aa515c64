"""General unit-disk scenes: stabbing-line 3-approximation and the
median-split log-factor algorithm."""
import math
from fractions import Fraction as F

import pytest

from geombs import (
    UNIT_DISKS,
    DiskObj,
    GeometricInstance,
    Point,
    build_intersection_graph,
    exact_mbs,
    generate_instance,
    is_bipartite,
    solve_3approx,
    solve_logn,
    solve_one_sided,
)
from geombs import diskgeneral
from geombs.diskline import one_sided_mis
from geombs.model import _bands, _key
from conftest import graph_edges


def disks(centers, r=1):
    return GeometricInstance(
        UNIT_DISKS, tuple(DiskObj(Point(x, y)) for x, y in centers), F(r)
    )


def line_groups(inst):
    """``(base, group)``: the lowest center y and each disk's line index,
    from the radius-wide bands that ``solve_3approx`` groups by."""
    ys = [d.center.y for d in inst.objects]
    group = [None] * inst.n
    for t, indices in _bands(ys, inst.disk_radius).items():
        assert indices == sorted(indices)
        for i in indices:
            group[i] = t
    return min(ys, key=_key), group


class TestSlabAssignment:
    # the line of group t lies at base + t r
    def test_every_disk_assigned_to_one_stabbing_line(self):
        for seed in range(100):
            inst = generate_instance(UNIT_DISKS, 1 + seed % 12, seed)
            base, group = line_groups(inst)
            assert len(group) == inst.n
            r = inst.disk_radius
            for i, t in enumerate(group):
                c = inst.objects[i].center
                # stabbed, with the center on or above its line
                assert 0 <= c.y - (base + t * r) < r

    def test_no_edges_between_far_groups(self):
        for seed in range(100):
            inst = generate_instance(UNIT_DISKS, 2 + seed % 12, seed)
            _, group = line_groups(inst)
            g = build_intersection_graph(inst)
            for u, v in graph_edges(g):
                assert abs(group[u] - group[v]) <= 2

    def test_group_sizes_sum_to_at_least_optimum(self):
        # per-group exact optima jointly dominate the global optimum
        for seed in range(60):
            inst = generate_instance(UNIT_DISKS, 2 + seed % 10, seed)
            base, _ = line_groups(inst)
            ys = [d.center.y for d in inst.objects]
            total = 0
            for t, indices in _bands(ys, inst.disk_radius).items():
                sub = GeometricInstance(
                    UNIT_DISKS,
                    tuple(inst.objects[i] for i in indices),
                    inst.disk_radius,
                )
                total += solve_one_sided(
                    sub, line_y=base + t * inst.disk_radius).size
            opt = exact_mbs(build_intersection_graph(inst)).size
            assert total >= opt, seed


class TestThreeApprox:
    def test_single_group_equals_one_sided(self):
        base = generate_instance(UNIT_DISKS, 9, 2, disk_mode="one_sided")
        # keep all center heights strictly below r so one line covers all
        inst = GeometricInstance(
            UNIT_DISKS,
            tuple(DiskObj(Point(d.center.x, d.center.y * F(3, 4)))
                  for d in base.objects),
            base.disk_radius,
        )
        assert set(line_groups(inst)[1]) == {0}
        assert solve_3approx(inst).size == solve_one_sided(inst).size

    def test_two_far_triangles(self):
        tri = [(0, F(1, 10)), (1, F(1, 10)), (2, F(1, 10))]
        far = [(x + 50, y) for x, y in tri]
        sol = solve_3approx(disks(tri + far))
        assert sol.size == 4

    def test_pairwise_disjoint(self):
        inst = disks([(0, 0), (5, 0), (0, 5), (5, 5)])
        assert solve_3approx(inst).size == 4

    def test_ratio_and_feasibility(self):
        for seed in range(200):
            inst = generate_instance(UNIT_DISKS, 1 + seed % 12, seed)
            sol = solve_3approx(inst)
            g = build_intersection_graph(inst)
            assert 3 * sol.size >= exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None


class TestLogN:
    def test_single_disk(self):
        assert solve_logn(disks([(0, 0)])).selected == (0,)

    def test_two_disks_colour_in_index_order(self):
        # larger scenes split in x order; two disks are coloured by index
        # whatever their x order
        sol = solve_logn(disks([(1, 0), (0, 0)]))
        assert sol.selected == (0, 1) and sol.coloring == {0: 0, 1: 1}

    def test_pairwise_disjoint(self):
        inst = disks([(0, 0), (5, 0), (10, 0), (15, 0), (20, 0)])
        assert solve_logn(inst).size == 5

    def test_band_sides_break_y_ties_in_band_order(self):
        # disks 1 and 2 tie in y and intersect; the band lists them in
        # (x, index) order, 2 before 1, so the right side keeps disk 2
        inst = disks([(0, 0), (F(1, 2), 5), (F(1, 4), 5)])
        assert solve_logn(inst).selected == (0, 2)

    def test_band_holds_disks_at_dx_plus_minus_r(self, monkeypatch):
        # the top-level band around the median x = 0 holds the disks at
        # dx = -r, 0 and r, and none at r + TINY or beyond; its sides split
        # at the median line, a center on it going right (east)
        r, tiny = F(3, 7), F(1, 10**30)
        inst = disks([(-r - tiny, 0), (-r, 1), (0, 2), (r, 3), (r + tiny, 4)],
                     r=r)
        bands = []
        two_sided = diskgeneral._two_sided

        def spy(graph, east, west):
            bands.append((list(east), list(west)))
            return two_sided(graph, east, west)

        monkeypatch.setattr(diskgeneral, "_two_sided", spy)
        solve_logn(inst)
        assert bands[0] == ([2, 3], [1])

    def test_ratio_and_feasibility(self):
        for seed in range(200):
            n = 1 + seed % 12
            inst = generate_instance(UNIT_DISKS, n, seed)
            sol = solve_logn(inst)
            g = build_intersection_graph(inst)
            factor = max(1, 2 * math.log2(n)) if n > 1 else 1
            assert factor * sol.size >= exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None
