"""Bitmask kernels against brute-force references on small random graphs."""
import itertools
import random

import pytest

import geombs
from geombs import KINDS, _kernels
from geombs.diskline import _x_order
from conftest import graph_from_edges, random_graph
from kernel_reference import (
    brute_max_subset,
    has_induced_cycle_at_least,
    reference_chain_mbs,
    two_colorable,
)

MODES = (_kernels.MODE_INDEPENDENT, _kernels.MODE_BIPARTITE,
         _kernels.MODE_TRIANGLE_FREE)


def test_backend_name():
    assert geombs.BACKEND == "python"


@pytest.mark.parametrize("mode", MODES,
                         ids=("independent", "bipartite", "triangle_free"))
def test_max_subset_matches_brute_force(rng, mode):
    for trial in range(300):
        masks = random_graph(rng, rng.randrange(1, 11)).masks
        assert _kernels.max_subset(masks, mode) == \
            brute_max_subset(masks, mode), (trial, masks)


@pytest.mark.parametrize("kind", KINDS)
def test_max_subset_matches_brute_force_on_dense_scenes(kind):
    # dense geometric graphs have many tied optima, where a search that does
    # not visit sets in lex order returns a different maximum
    for spread in (1, 2):
        for seed in range(3):
            inst = geombs.generate_instance(kind, 10 + seed, seed, spread=spread)
            masks = geombs.build_intersection_graph(inst).masks
            for mode in MODES:
                assert _kernels.max_subset(masks, mode) == \
                    brute_max_subset(masks, mode), (kind, spread, seed, mode)


def test_two_color_matches_brute_force(rng):
    for trial in range(500):
        masks = random_graph(rng, rng.randrange(1, 11)).masks
        mask = rng.randrange(1 << len(masks))
        subset = _kernels.mask_to_indices(mask)
        coloring, cycle = _kernels.two_color(masks, mask)
        assert (coloring is not None) == two_colorable(masks, subset), trial
        if coloring is None:
            # the witness lies in the subset and is itself not 2-colorable
            assert cycle & ~mask == 0
            assert not two_colorable(masks, _kernels.mask_to_indices(cycle))
            continue
        assert cycle is None and sorted(coloring) == list(subset)
        for u in subset:
            for v in subset:
                if masks[u] >> v & 1:
                    assert coloring[u] != coloring[v], trial
        # the smallest vertex of each component is colored 0
        roots = set()
        for v in subset:
            comp = {v}
            grow = [v]
            for u in grow:
                for w in subset:
                    if masks[u] >> w & 1 and w not in comp:
                        comp.add(w)
                        grow.append(w)
            roots.add(min(comp))
        assert all(coloring[r] == 0 for r in roots), trial


class Counted(list):
    """Adjacency masks that count their reads: ``bipartite_join`` reads one
    mask per join."""

    count = 0

    def __getitem__(self, i):
        self.count += 1
        return list.__getitem__(self, i)


def check_bipartite_subsets(rng, trials):
    # the subsets, in order, are the 2-colourable combinations of the
    # candidates; each carries its connected components, as the two sides
    # of a proper colouring and their neighbourhoods
    for trial in range(trials):
        n = rng.randrange(13)
        masks = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8))).masks
        cand = rng.randrange(1 << n)
        verts = _kernels.mask_to_indices(cand)
        want = [sum(1 << v for v in sub)
                for size in range(len(verts) + 1)
                for sub in itertools.combinations(verts, size)
                if _kernels.two_color(masks, sum(1 << v for v in sub))[0]
                is not None]
        got = _kernels.bipartite_subsets(masks, cand, len(want))
        assert [sel for sel, _ in got] == want, (trial, masks, cand)
        # a limit one short of the count, the empty set counted, lists none
        assert _kernels.bipartite_subsets(masks, cand, len(want) - 1) is None
        # an independent set of limit.bit_length() vertices passes the limit
        # on its own: one descent, one join per vertex, then none
        most = len(want).bit_length()
        reads = Counted([0] * most)
        assert _kernels.bipartite_subsets(reads, (1 << most) - 1,
                                          len(want)) is None
        assert reads.count == most, trial
        for sel, comps in got:
            union = 0
            for a, b, na, nb in comps:
                assert a and not a & b and not union & (a | b), trial
                union |= a | b
                for side, nside in ((a, na), (b, nb)):
                    neigh = 0
                    for v in _kernels.mask_to_indices(side):
                        neigh |= masks[v]
                    assert neigh == nside and not neigh & side, trial
                    assert neigh & sel & ~(a | b) == 0, trial
                reach = frontier = a & -a
                while frontier:
                    v = frontier & -frontier
                    frontier ^= v
                    new = masks[v.bit_length() - 1] & (a | b) & ~reach
                    reach |= new
                    frontier |= new
                assert reach == a | b, trial
            assert union == sel, trial


def test_bipartite_subsets_match_filtered_combinations():
    check_bipartite_subsets(random.Random(12), 3000)


def test_lexicographic_tie_break():
    # two disjoint edges: every single vertex is a maximum independent set
    masks = [2, 1, 8, 4]
    size, mask = _kernels.max_subset(masks, _kernels.MODE_INDEPENDENT)
    assert size == 2 and mask == 0b0101  # vertices {0, 2}


def test_bipartite_tie_break_ignores_colorings():
    # {0, 1, 2, 3} and {0, 1, 3, 4} are both maximum; a search that branches
    # on side A / side B / neither meets {0, 1, 3, 4} first
    edges = [(0, 3), (1, 2), (1, 4), (2, 3), (2, 4)]
    g = graph_from_edges(5, edges)
    assert _kernels.max_subset(g.masks, _kernels.MODE_BIPARTITE) == (4, 0b01111)
    assert geombs.exact_mbs(g).selected == (0, 1, 2, 3)


def test_edgeless_graph_keeps_every_vertex():
    n = 26
    size, mask = _kernels.max_subset([0] * n, _kernels.MODE_BIPARTITE)
    assert size == n and mask == (1 << n) - 1


@pytest.mark.parametrize("n, spread", [
    (n, spread) for n in (12, 26, 40) for spread in (1, 2, 4, None)
] + [(60, None)])
def test_chain_mbs_equals_triple_table_dp_on_one_sided_scenes(n, spread):
    # same size, same chain where a triangle-free triple exists; without one
    # the kernel keeps at most two positions, which the solver replaces by
    # the two lowest indices
    for seed in range(6 if n < 60 else 2):
        inst = geombs.generate_instance(geombs.UNIT_DISKS, n, seed,
                                        spread=spread, disk_mode="one_sided")
        graph = geombs.build_intersection_graph(inst)
        masks = graph.induced_masks(_x_order(inst, range(n)))
        size, chain = _kernels.chain_mbs(masks)
        want = reference_chain_mbs(masks)
        if want[0] >= 3:
            assert (size, chain) == want, seed
        else:
            assert size <= 2 and size == len(chain), seed


def test_induced_cycle_known_cases():
    c5 = [0] * 5
    for i in range(5):
        j = (i + 1) % 5
        c5[i] |= 1 << j
        c5[j] |= 1 << i
    assert has_induced_cycle_at_least(c5, 5)
    assert not has_induced_cycle_at_least(c5, 6)
    assert not has_induced_cycle_at_least([0, 0, 0], 4)
