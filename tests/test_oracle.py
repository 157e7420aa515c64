"""Branch-and-bound oracle: golden small graphs, determinism, and capacity."""
import random

import pytest

from geombs import (
    KINDS,
    CapacityError,
    INTERVALS,
    build_intersection_graph,
    certify,
    exact_mbs,
    exact_mis,
    exact_mtfs,
    generate_instance,
    is_bipartite,
)
from geombs.oracle import DEFAULT_CAP
from conftest import graph_from_edges, random_graph


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


class TestGolden:
    def test_triangle(self):
        g = complete(3)
        assert exact_mbs(g).size == 2
        assert exact_mtfs(g).size == 2
        assert exact_mis(g).size == 1

    def test_c5(self):
        g = cycle(5)
        assert exact_mbs(g).size == 4
        assert exact_mtfs(g).size == 5
        assert exact_mis(g).size == 2

    def test_c4(self):
        assert exact_mis(cycle(4)).size == 2

    def test_k4_triangle_free_optimum(self):
        assert exact_mtfs(complete(4)).size == 2

    def test_path_endpoints(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert exact_mis(g).selected == (0, 2)

    def test_edgeless(self):
        g = graph_from_edges(5, [])
        assert exact_mbs(g).selected == (0, 1, 2, 3, 4)

    def test_lexicographically_smallest_optimum(self):
        # C5: several 4-subsets are optimal; {0,1,2,3} is the smallest
        assert exact_mbs(cycle(5)).selected == (0, 1, 2, 3)


class TestProperties:
    def test_coloring_certificate(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 9))
            sol = exact_mbs(g)
            assert sol.coloring is not None
            assert is_bipartite(g, sol.selected) is not None

    def test_sandwich_bounds(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 10))
            mis = exact_mis(g).size
            mbs = exact_mbs(g).size
            mtfs = exact_mtfs(g).size
            assert mis <= mbs <= 2 * mis
            assert mbs <= mtfs

    def test_interval_mbs_equals_mtfs(self):
        for seed in range(50):
            inst = generate_instance(INTERVALS, 2 + seed % 8, seed)
            g = build_intersection_graph(inst)
            assert exact_mbs(g).size == exact_mtfs(g).size

    @pytest.mark.parametrize("kind", KINDS)
    def test_sandwich_bounds_at_the_cap(self, kind):
        for spread in (None, 2):
            for seed in range(2):
                inst = generate_instance(kind, DEFAULT_CAP, seed, spread=spread)
                g = build_intersection_graph(inst)
                mis, mbs, mtfs = exact_mis(g), exact_mbs(g), exact_mtfs(g)
                certify(g, mis, "independent")
                certify(g, mbs)
                certify(g, mtfs, "triangle_free")
                assert mis.size <= mbs.size <= 2 * mis.size, (spread, seed)
                assert mbs.size <= mtfs.size, (spread, seed)

    def test_capacity_error(self):
        g = graph_from_edges(21, [])
        with pytest.raises(CapacityError):
            exact_mbs(g)
        assert exact_mbs(g, cap=25).size == 21

    def test_capacity_error_past_512_vertices_whatever_the_cap(self):
        # the search recurses once per selected vertex: 512 pairwise-disjoint
        # disks solve, and 513 are refused before the search starts
        def sparse(n):
            return build_intersection_graph(
                generate_instance("unit_disks", n, 1, spread=4000))

        assert exact_mbs(sparse(512), cap=1000).size == 512
        with pytest.raises(CapacityError, match="at most 512"):
            exact_mbs(sparse(513), cap=1000)


@pytest.fixture
def rng():
    return random.Random(4)
