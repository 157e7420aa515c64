"""Line-stabbed unit disks: exact one-sided DP, MIS chain, 2-approximation,
and the structural facts they rely on."""
import random
import time
from fractions import Fraction as F

import pytest

from geombs import (
    UNIT_DISKS,
    CertificateError,
    DiskObj,
    GeometricInstance,
    Point,
    ValidationError,
    build_intersection_graph,
    exact_mbs,
    exact_mis,
    exact_mtfs,
    generate_instance,
    is_bipartite,
    is_independent,
    one_sided_mis,
    solve_one_sided,
    solve_two_sided,
    translate_instance,
)
from geombs import _kernels
from kernel_reference import has_induced_cycle_at_least


def disks(centers, r=1):
    return GeometricInstance(
        UNIT_DISKS, tuple(DiskObj(Point(x, y)) for x, y in centers), F(r)
    )


def x_order(inst):
    return sorted(range(inst.n), key=lambda i: (inst.objects[i].center.x, i))


class TestOneSidedGolden:
    def test_tight_triple_is_triangle(self):
        inst = disks([(0, F(1, 10)), (1, F(1, 10)), (2, F(1, 10))])
        assert solve_one_sided(inst).size == 2
        # out of x-order every pair is still a best one; the lowest two stay
        inst = disks([(2, F(1, 10)), (0, F(1, 10)), (1, F(1, 10))])
        assert solve_one_sided(inst).selected == (0, 1)

    def test_disjoint_triple(self):
        inst = disks([(0, F(1, 2)), (3, F(1, 2)), (6, F(1, 2))])
        assert solve_one_sided(inst).selected == (0, 1, 2)

    def test_two_intersecting(self):
        inst = disks([(0, 0), (1, 0)])
        sol = solve_one_sided(inst)
        assert sol.size == 2 and sol.coloring[0] != sol.coloring[1]

    def test_validation(self):
        # one disk at any height is one-sided; centers spanning more than r
        # in height are not, wherever they lie
        assert solve_one_sided(disks([(0, 2)])).selected == (0,)
        assert solve_one_sided(disks([(0, F(-1, 2))])).selected == (0,)
        tiny = F(1, 10**30)
        with pytest.raises(ValidationError):
            solve_one_sided(disks([(0, 2), (3, 1 - tiny)]))
        with pytest.raises(ValidationError):
            solve_one_sided(disks([(0, F(-1, 2)), (3, F(1, 2) + tiny)]))

    @pytest.mark.parametrize("line_y", [0.0, True, "x", None])
    def test_line_must_be_exact(self, line_y):
        # the one-sided solvers take no line; the two-sided one reads its
        # line exactly, and None is no line
        with pytest.raises(ValidationError):
            solve_two_sided(disks([(0, 1)]), line_y=line_y)


class TestOneSidedProperties:
    def test_exact_and_equal_to_triangle_free_optimum(self):
        for seed in range(200):
            inst = generate_instance(
                UNIT_DISKS, 1 + seed % 11, seed, disk_mode="one_sided"
            )
            sol = solve_one_sided(inst)
            g = build_intersection_graph(inst)
            assert sol.size == exact_mbs(g).size == exact_mtfs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None

    def test_mis_chain_exact(self):
        for seed in range(200):
            inst = generate_instance(
                UNIT_DISKS, 1 + seed % 12, seed + 5000, disk_mode="one_sided"
            )
            picked = one_sided_mis(inst)
            g = build_intersection_graph(inst)
            assert is_independent(g, picked) is None
            assert len(picked) == exact_mis(g).size, seed

    def test_exact_at_any_height_and_radius(self):
        # no line is given: centers spanning at most r, moved up or down
        # and at any radius, are solved exactly
        rng = random.Random(32)
        for seed in range(400):
            radius = rng.choice([F(1, 3), F(1), F(5, 2)])
            inst = generate_instance(UNIT_DISKS, 1 + seed % 12, seed,
                                     radius=radius, disk_mode="one_sided")
            dy = F(rng.randrange(-40, 41), rng.choice([1, 3, 7]))
            inst = translate_instance(inst, 0, dy)
            g = build_intersection_graph(inst)
            assert solve_one_sided(inst).size == exact_mbs(g).size, seed
            assert len(one_sided_mis(inst)) == exact_mis(g).size, seed


class TestStructure:
    """Facts about one-sided stabbed-disk graphs that the DP depends on."""

    def fuzz(self, check, count=150, max_n=12):
        for seed in range(count):
            inst = generate_instance(
                UNIT_DISKS, 3 + seed % (max_n - 2), seed, disk_mode="one_sided"
            )
            check(inst, build_intersection_graph(inst))

    def test_no_long_induced_cycle(self):
        self.fuzz(lambda inst, g: self._no_cycle(g))

    @staticmethod
    def _no_cycle(g):
        assert not has_induced_cycle_at_least(list(g.masks), 5)

    def test_no_claw_with_four_leaves(self):
        # no vertex has four pairwise-disjoint neighbors
        def check(inst, g):
            for v in range(g.n):
                nbrs = [u for u in range(g.n) if g.adjacent(v, u)]
                size, _ = _kernels.max_subset(
                    g.induced_masks(nbrs), _kernels.MODE_INDEPENDENT
                )
                assert size <= 3, (v, nbrs)

        self.fuzz(check)

    def test_disjointness_transitive_in_x_order(self):
        def check(inst, g):
            order = x_order(inst)
            n = len(order)
            for a in range(n):
                for b in range(a + 1, n):
                    if g.adjacent(order[a], order[b]):
                        continue
                    for c in range(b + 1, n):
                        if not g.adjacent(order[b], order[c]):
                            assert not g.adjacent(order[a], order[c])

        self.fuzz(check)

    def test_spanned_quadruple_has_no_induced_claw(self):
        # 4 x-ordered disks whose extremes intersect induce no 3-leaf star
        def check(inst, g):
            order = x_order(inst)
            n = len(order)
            from itertools import combinations

            for quad in combinations(range(n), 4):
                vs = [order[t] for t in quad]
                if not g.adjacent(vs[0], vs[3]):
                    continue
                for center in vs:
                    leaves = [u for u in vs if u != center]
                    if all(g.adjacent(center, u) for u in leaves) and not any(
                        g.adjacent(a, b)
                        for a in leaves for b in leaves if a < b
                    ):
                        raise AssertionError((quad, center))

        self.fuzz(check, count=80)

    def test_spanned_quintuple_middle_not_independent(self):
        # 5 x-ordered disks whose extremes intersect: middle three have an edge
        def check(inst, g):
            order = x_order(inst)
            n = len(order)
            from itertools import combinations

            for quint in combinations(range(n), 5):
                vs = [order[t] for t in quint]
                if not g.adjacent(vs[0], vs[4]):
                    continue
                mid = vs[1:4]
                assert any(
                    g.adjacent(a, b) for a in mid for b in mid if a < b
                ), quint

        self.fuzz(check, count=80)


def thirteen_cycle_scene():
    """Two-sided scene whose intersection graph is an induced 13-cycle."""
    above = [(F(19, 10) * t, F(99, 100)) for t in range(6)]
    below = [(F(19, 12) * t, F(-99, 100)) for t in range(7)]
    return disks(above + below)


class TestTwoSided:
    def test_edge_across_the_line(self):
        inst = disks([(0, F(1, 2)), (0, F(-1, 2))])
        sol = solve_two_sided(inst)
        assert sol.selected == (0, 1) and sol.coloring == {0: 0, 1: 1}

    def test_disjoint_on_the_line(self):
        inst = disks([(0, 0), (3, 0), (6, 0)])
        assert solve_two_sided(inst).size == 3

    def test_thirteen_cycle_scene_structure(self):
        inst = thirteen_cycle_scene()
        g = build_intersection_graph(inst)
        assert all(g.masks[v].bit_count() == 2 for v in range(13))
        assert has_induced_cycle_at_least(list(g.masks), 13)

    def test_thirteen_cycle_scene_ratio(self):
        inst = thirteen_cycle_scene()
        g = build_intersection_graph(inst)
        opt = exact_mbs(g).size
        assert opt == 12  # odd cycle minus one vertex
        sol = solve_two_sided(inst)
        assert 2 * sol.size >= opt
        assert is_bipartite(g, sol.selected) is not None

    def test_ratio_on_random_scenes(self):
        for seed in range(200):
            inst = generate_instance(
                UNIT_DISKS, 1 + seed % 12, seed, disk_mode="two_sided"
            )
            sol = solve_two_sided(inst)
            g = build_intersection_graph(inst)
            assert 2 * sol.size >= exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None

    def test_certifies_its_coloring(self, monkeypatch):
        import geombs.diskline as diskline

        # both disks lie above the line and intersect; a side that keeps
        # both colours them alike
        monkeypatch.setattr(diskline, "_mis_chain", lambda graph, order: sorted(order))
        with pytest.raises(CertificateError, match="monochromatic edge"):
            solve_two_sided(disks([(0, F(1, 2)), (1, F(1, 2))]))

    def test_side_labels_are_proper(self):
        for seed in range(50):
            inst = generate_instance(
                UNIT_DISKS, 2 + seed % 10, seed, disk_mode="two_sided"
            )
            sol = solve_two_sided(inst)
            g = build_intersection_graph(inst)
            for u in sol.selected:
                for v in sol.selected:
                    if u < v and g.adjacent(u, v):
                        assert sol.coloring[u] != sol.coloring[v]


class TestStabbingBoundary:
    # the line y = 2/3 and r = 3/7 make every test cross-multiply; TINY
    # moves a center by less than a float can show
    LINE, R, TINY = F(2, 3), F(3, 7), F(1, 10**30)

    def scene(self, *ys):
        return disks([(3 * i, y) for i, y in enumerate(ys)], r=self.R)

    def test_one_sided_accepts_the_line_and_line_plus_r(self):
        # centers spanning exactly r, at any height
        for low in (self.LINE, -self.LINE, 7 * self.LINE, -self.R / 5):
            inst = self.scene(low, low + self.R, low + self.R / 2)
            assert solve_one_sided(inst).selected == (0, 1, 2)
            assert one_sided_mis(inst) == (0, 1, 2)

    @pytest.mark.parametrize("solver", [solve_one_sided, one_sided_mis,
                                        solve_two_sided])
    def test_beyond_line_plus_r_misses(self, solver):
        inst = self.scene(self.LINE, self.LINE + self.R + self.TINY)
        if solver is solve_two_sided:
            with pytest.raises(ValidationError,
                               match="disk 1 does not intersect the line$"):
                solver(inst, line_y=self.LINE)
        else:  # centers spanning r + TINY
            with pytest.raises(ValidationError, match="disk 1 does not "
                               "intersect the line through the lowest center"):
                solver(inst)

    @pytest.mark.parametrize("solver", [solve_one_sided, one_sided_mis,
                                        solve_two_sided])
    def test_refused_before_the_graph_is_built(self, solver, monkeypatch):
        # the line check reads only the centers, so a refused scene costs no
        # graph build; both lines miss a disk of this scene
        import geombs.diskline as diskline

        def no_graph(instance):
            raise AssertionError("graph built for a refused scene")

        monkeypatch.setattr(diskline, "build_intersection_graph", no_graph)
        with pytest.raises(ValidationError, match="does not intersect"):
            solver(self.scene(self.LINE, self.LINE + self.R + self.TINY))

    def test_two_sided_sides_at_the_line_and_line_minus_r(self):
        # a center on the line is above it (colour 0), one at line - r below
        inst = self.scene(self.LINE - self.R, self.LINE, self.LINE - self.TINY,
                          self.LINE + self.R)
        sol = solve_two_sided(inst, line_y=self.LINE)
        assert sol.coloring == {0: 1, 1: 0, 2: 1, 3: 0}
        with pytest.raises(ValidationError, match="disk 1 does not intersect"):
            solve_two_sided(self.scene(self.LINE, self.LINE - self.R - self.TINY),
                            line_y=self.LINE)


def test_one_sided_scales_to_250_disks():
    # the two-chain DP stores only the chain ends inside the forward window;
    # the O(n^4) triple-table reference in kernel_reference takes about 2
    # minutes on this scene on a 2-vCPU VM (Python 3.11), and also selects
    # 150 disks
    inst = generate_instance(UNIT_DISKS, 250, 1, disk_mode="one_sided")
    start = time.perf_counter()
    sol = solve_one_sided(inst)
    assert time.perf_counter() - start < 10
    assert sol.size == 150


def test_radius_scales_the_construction():
    base = generate_instance(UNIT_DISKS, 8, 3, disk_mode="one_sided")
    scaled = GeometricInstance(
        UNIT_DISKS,
        tuple(DiskObj(Point(d.center.x * 5, d.center.y * 5))
              for d in base.objects),
        F(5),
    )
    assert (build_intersection_graph(base).masks
            == build_intersection_graph(scaled).masks)
    assert solve_one_sided(scaled).size == solve_one_sided(base).size
