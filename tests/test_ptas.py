"""Shifting PTAS: exact slab solver by one path DP over box subsets,
checked against a reference DAG of colored feasible sets built on each
slab's own sub-scene, the shifted-grid wrapper, and the weighted variant."""
import random
from fractions import Fraction as F

import pytest

import geombs.ptas as ptas
from geombs import _kernels
import kernel_reference
from geombs import (
    CapacityError,
    CertificateError,
    UNIT_DISKS,
    UNIT_SQUARES,
    DiskObj,
    GeometricInstance,
    Point,
    RectObj,
    ValidationError,
    build_intersection_graph,
    certify,
    exact_mbs,
    generate_instance,
    generate_weights,
    is_bipartite,
    solve_ptas,
    solve_ptas_weighted,
    solve_slab,
)


def disks(centers, r=1):
    return GeometricInstance(
        UNIT_DISKS, tuple(DiskObj(Point(x, y)) for x, y in centers), F(r)
    )


def squares(corners):
    return GeometricInstance(
        UNIT_SQUARES, tuple(RectObj(x, x + 1, y, y + 1) for x, y in corners)
    )


def expand(boxes, first=0):
    """``(vertices, step_edges)`` of the slab boxes in the reference's form:
    vertices ``(box, indices, coloring)`` numbered in box, subset, coloring
    order, boxes counted from ``first``, and u in box b -> v in box b + 1
    iff neither class of v meets the neighbors of u's class of the same
    color."""
    vertices, step_edges, prev = [], {}, (None, [])
    for b, subsets in boxes:
        b -= first
        ids = []
        for sel, _, colorings in subsets:
            subset = _kernels.mask_to_indices(sel)
            for cls in colorings:
                ids.append((len(vertices), cls))
                vertices.append((b, subset, {v: cls[1] >> v & 1 for v in subset}))
        for u, (_, _, n0, n1) in prev[1] if prev[0] == b - 1 else ():
            step_edges[u] = [v for v, (c0, c1, _, _) in ids
                             if not (n0 & c0 or n1 & c1)]
        prev = b, ids
    return vertices, step_edges


def as_the_dp_reads_it(instance, vertices, step_edges, wts):
    """``kernel_reference.reference_slab_dag``'s ``(vertices, step_edges)``
    of the one-slab scene ``instance`` as the slab DP lists them: a box none
    of whose objects meets an object of box b - 1 or b + 1 keeps only its
    heaviest vertex under ``wts``, the first on a tie, and the kept
    vertices are numbered afresh, their step edges with them."""
    graph = build_intersection_graph(instance)
    by_box = {}
    for v, (box, _, _) in enumerate(vertices):
        by_box.setdefault(box, []).append(v)
    objects = {box: {i for v in ids for i in vertices[v][1]}
               for box, ids in by_box.items()}
    kept = []
    for box, ids in by_box.items():
        near = objects.get(box - 1, set()) | objects.get(box + 1, set())
        if any(graph.adjacent(i, j) for i in objects[box] for j in near):
            kept += ids
        else:
            kept.append(max(ids, key=lambda v: sum(wts[i]
                                                   for i in vertices[v][1])))
    new_id = {v: new for new, v in enumerate(kept)}
    return ([vertices[v] for v in kept],
            {new_id[u]: [new_id[v] for v in vs if v in new_id]
             for u, vs in step_edges.items() if u in new_id})


class TestSlab:
    def test_one_box_triangle(self):
        inst = disks([(0, 1), (F(1, 2), 1), (1, 1)])
        sol = solve_slab(inst)
        assert sol.size == 2

    def test_two_boxes_one_disk_each(self):
        inst = disks([(0, 1), (10, 1)])
        assert solve_slab(inst).size == 2

    def test_box_capacity(self):
        # one box of four pairwise-disjoint stacks of co-located disks: a
        # stack of s is a clique with 1 + s + s(s-1)/2 bipartite subsets, so
        # s = 5 gives 16^4 = 2^16 subsets, the most a box may have, and
        # s = 6 gives 22^4
        stacks = [(0, 1), (0, F(7, 2)), (F(19, 10), F(9, 4)),
                  (F(19, 10), F(49, 10))]
        inst = disks([c for c in stacks for _ in range(5)])
        sol = solve_slab(inst)
        assert sol.size == 8 == exact_mbs(build_intersection_graph(inst)).size
        inst = disks([c for c in stacks for _ in range(6)])
        with pytest.raises(CapacityError, match="more than 65536"):
            solve_slab(inst)

    def test_deep_box_is_a_capacity_error(self):
        # one box of 1,200 pairwise-disjoint disks: its 2-colorable subsets
        # are all 2^1200, and the listing stops at a set of 17, not at the
        # interpreter's recursion limit
        inst = disks([(0, 3 * i) for i in range(1200)])
        with pytest.raises(CapacityError, match="more than 65536"):
            solve_slab(inst)
        with pytest.raises(CapacityError, match="more than 65536"):
            solve_ptas(inst, F(1, 2000))

    def test_dag_edges_respect_box_order(self):
        for seed in range(30):
            inst = generate_instance(
                UNIT_DISKS, 2 + seed % 9, seed, disk_mode="slab", slab_k=2
            )
            boxes = ptas.build_slab_dag(inst)
            order = [b for b, _ in boxes]
            assert order == sorted(set(order)), seed
            vertices, step_edges = expand(boxes)
            assert all(vertices[u][0] + 1 == vertices[v][0]
                       for u, vs in step_edges.items() for v in vs), seed

    def test_matches_oracle_at_k2(self):
        for seed in range(150):
            inst = generate_instance(
                UNIT_DISKS, 1 + seed % 12, seed, disk_mode="slab", slab_k=2
            )
            sol = solve_slab(inst)
            g = build_intersection_graph(inst)
            assert sol.size == exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None

    def test_exact_on_scenes_of_any_height(self):
        # no slab is given: a disk or square scene many diameters high is
        # one box DP, which equals the oracle and, for n <= 9, the heaviest
        # 2-colourable subset of all 2^n
        tall = 0
        for seed in range(336):
            kind = (UNIT_DISKS, UNIT_SQUARES)[seed % 2]
            n = 1 + seed % 14
            inst = generate_instance(kind, n, seed,
                                     spread=(1, 2, 3, 5)[seed // 2 % 4])
            g = build_intersection_graph(inst)
            assert solve_slab(inst).size == exact_mbs(g).size, seed
            # two diameters hold objects whose anchors span one diameter
            if kind == UNIT_DISKS:
                ys = [o.center.y for o in inst.objects]
                tall += max(ys) - min(ys) > 2 * inst.disk_radius
            else:
                ys = [o.y_min for o in inst.objects]
                tall += max(ys) - min(ys) > 1
            if n <= 9:
                weights = generate_weights(n, seed)
                sol = solve_slab(inst, weights=weights)
                best = max(
                    sum(weights[i] for i in subset)
                    for mask in range(1 << n)
                    for subset in [kernel_reference._indices(mask)]
                    if kernel_reference.two_colorable(g.masks, subset))
                assert sum(weights[i] for i in sol.selected) == best, seed
        assert tall >= 150, tall

    def test_weighted_slab_beats_unweighted_choice(self):
        # triangle with one heavy vertex: the heavy disk must be kept
        inst = disks([(0, 1), (F(1, 2), 1), (1, 1)])
        sol = solve_slab(inst, weights=[1, 10, 1])
        assert 1 in sol.selected


class TestPtas:
    def test_pairwise_disjoint(self):
        inst = disks([(0, 0), (5, 0), (0, 5), (5, 5)])
        assert solve_ptas(inst, F(1, 2)).size == 4

    def test_square_triangle(self):
        inst = squares([(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 8))])
        assert exact_mbs(build_intersection_graph(inst)).size == 2
        assert solve_ptas(inst, F(1, 2)).size == 2

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            solve_ptas(disks([(0, 0)]), 0)

    @pytest.mark.parametrize("epsilon", [True, 0.5])
    def test_epsilon_must_be_exact(self, epsilon):
        with pytest.raises(ValidationError):
            solve_ptas(disks([(0, 0)]), epsilon)

    def test_certifies_its_coloring(self, monkeypatch):
        real = ptas._slab

        def flipped(*args):
            selected, _ = real(*args)
            return selected, {v: 0 for v in selected}

        monkeypatch.setattr(ptas, "_slab", flipped)
        with pytest.raises(CertificateError, match="monochromatic edge"):
            solve_ptas(disks([(0, 0), (1, 0)]), F(1, 2))

    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    def test_half_ratio_at_k2(self, kind):
        for seed in range(100):
            inst = generate_instance(kind, 1 + seed % 12, seed)
            sol = solve_ptas(inst, F(1, 2))
            g = build_intersection_graph(inst)
            assert 2 * sol.size >= exact_mbs(g).size, (kind, seed)
            assert is_bipartite(g, sol.selected) is not None

    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    def test_coarse_epsilon_shifts_as_half(self, kind):
        # an epsilon of 1 or more still shifts over k = 2 offsets: the one
        # offset of k = 1 drops every object
        for seed in range(1, 41):
            inst = generate_instance(kind, 1 + seed % 30, seed)
            wts = generate_weights(inst.n, seed)
            want = solve_ptas(inst, F(1, 2))
            heavy = solve_ptas_weighted(inst, wts, F(1, 2))
            g = build_intersection_graph(inst)
            for epsilon in (1, 2):
                sol = solve_ptas(inst, epsilon)
                assert sol == want and sol.selected, (kind, seed, epsilon)
                assert certify(g, sol) == want
                assert solve_ptas_weighted(inst, wts, epsilon) == heavy

    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    def test_finer_epsilon_ratio(self, kind):
        for seed in range(40):
            inst = generate_instance(kind, 1 + seed % 10, seed)
            sol = solve_ptas(inst, F(1, 3))  # k = 3
            opt = exact_mbs(build_intersection_graph(inst)).size
            assert 3 * sol.size >= 2 * opt, (kind, seed)


def tie_heavy(kind, seed):
    """A dense scene with coordinates on a 1/2 or 1/4 grid."""
    rng = random.Random(seed)
    den, spread = rng.choice((2, 4)), rng.randint(2, 6)
    corners = [(F(rng.randint(0, den * spread), den),
                F(rng.randint(0, den * spread), den))
               for _ in range(rng.randint(1, 10))]
    return disks(corners) if kind == UNIT_DISKS else squares(corners)


def dense_boxes(kind, seed):
    """Columns half a diameter apart, 6 to 8 objects each, with bottoms
    within half a diameter: one slab holds them all, and each of its boxes
    two columns, 12 to 16 objects (the last box of an odd count one)."""
    rng = random.Random(seed)
    d = 2 if kind == UNIT_DISKS else 1
    corners = [(F(c * d, 2), F(rng.randint(0, 2 * d), 4))
               for c in range(rng.randint(2, 4))
               for _ in range(rng.randint(6, 8))]
    return disks(corners) if kind == UNIT_DISKS else squares(corners)


def reference_scenes(kind):
    return ([(seed, tie_heavy(kind, seed)) for seed in range(150)]
            + [(("dense", seed), dense_boxes(kind, seed)) for seed in range(6)])


class TestGrid:
    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    @pytest.mark.parametrize("epsilon", [F(1, 2), F(1, 3)])
    def test_slabs_hold_their_objects(self, kind, epsilon, monkeypatch):
        # every slab fits in k diameters, and each object is dropped for
        # exactly one of the k offsets
        k, d = int(1 / epsilon), (2 if kind == UNIT_DISKS else 1)
        built = []
        real = ptas._slab_dag

        def spy(graph, xs, members, *rest):
            built.append(list(members))
            return real(graph, xs, members, *rest)

        monkeypatch.setattr(ptas, "_slab_dag", spy)
        for seed, inst in reference_scenes(kind):
            built.clear()
            solve_ptas(inst, epsilon)
            bottoms = [o.center.y - 1 if kind == UNIT_DISKS else o.y_min
                       for o in inst.objects]
            for members in built:
                lows = [bottoms[i] for i in members]
                assert max(lows) - min(lows) <= (k - 1) * d, seed
            assert sum(map(len, built)) == (k - 1) * inst.n, seed


class TestReference:
    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    @pytest.mark.parametrize("epsilon", [F(1, 2), F(1, 3)])
    def test_slab_dags_match_sub_scene_reference(self, kind, epsilon,
                                                 monkeypatch):
        # every slab of every offset, under unit weights and under weights
        # with zeros: the DAG over the scene's graph equals the one built on
        # the slab's own sub-scene, indices mapped back: vertex by vertex in
        # a box that meets a neighboring box, its heaviest vertex alone in
        # one that meets neither
        built = []
        real = ptas._slab_dag

        def spy(graph, xs, members, wts, first=0):
            boxes = real(graph, xs, members, wts, first)
            assert all(w == sum(wts[i] for i in _kernels.mask_to_indices(sel))
                       for _, subsets in boxes for sel, w, _ in subsets)
            built.append((list(members), wts, expand(boxes, first)))
            return boxes

        monkeypatch.setattr(ptas, "_slab_dag", spy)
        for j, (seed, inst) in enumerate(reference_scenes(kind)):
            rng = random.Random(j)
            built.clear()
            solve_ptas(inst, epsilon)
            solve_ptas_weighted(
                inst, [rng.randint(0, 2) for _ in inst.objects], epsilon)
            assert built, seed
            for members, wts, (vertices, step_edges) in built:
                sub = GeometricInstance(
                    kind, tuple(inst.objects[i] for i in members),
                    inst.disk_radius)
                ref_vertices, ref_edges = as_the_dp_reads_it(
                    sub, *kernel_reference.reference_slab_dag(sub),
                    [wts[i] for i in members])
                assert vertices == [
                    (box, tuple(members[j] for j in subset),
                     {members[j]: c for j, c in coloring.items()})
                    for box, subset, coloring in ref_vertices], seed
                assert list(step_edges.items()) == list(ref_edges.items()), seed

    @pytest.mark.parametrize("kind", [UNIT_DISKS, UNIT_SQUARES])
    @pytest.mark.parametrize("epsilon", [F(1, 2), F(1, 3)])
    @pytest.mark.parametrize("weighting", ["unit", "generated", "zeros"])
    def test_slab_paths_match_dag_reference(self, kind, epsilon, weighting,
                                            monkeypatch):
        # every offset: the one DP pass over all its slabs' boxes picks the
        # same path, in value and order, as the searches over the step edges
        # of the reference DAGs built on each slab's own sub-scene, joined
        # in slab order
        slabs, offsets = [], []
        real_dag, real_slab = ptas._slab_dag, ptas._slab

        def spy_dag(graph, xs, members, wts, *rest):
            slabs.append((list(members), wts))
            return real_dag(graph, xs, members, wts, *rest)

        def spy_slab(boxes):
            out = real_slab(boxes)
            offsets.append((slabs[:], out))
            slabs.clear()
            return out

        monkeypatch.setattr(ptas, "_slab_dag", spy_dag)
        monkeypatch.setattr(ptas, "_slab", spy_slab)
        for j, (seed, inst) in enumerate(reference_scenes(kind)):
            rng = random.Random(j)
            wts = {"unit": None, "generated": generate_weights(inst.n, j),
                   "zeros": [rng.randint(0, 2) for _ in inst.objects]}[weighting]
            offsets.clear()
            solve_ptas_weighted(inst, wts, epsilon)
            assert len(offsets) == int(1 / epsilon), seed
            for offset_slabs, (selected, coloring) in offsets:
                want_selected, want_coloring = [], []
                for members, scaled in offset_slabs:
                    sub = GeometricInstance(
                        kind, tuple(inst.objects[i] for i in members),
                        inst.disk_radius)
                    ref_selected, ref_coloring = (
                        kernel_reference.reference_slab_path(
                            *kernel_reference.reference_slab_dag(sub),
                            [scaled[i] for i in members]))
                    want_selected += [members[i] for i in ref_selected]
                    want_coloring += [(members[i], c)
                                      for i, c in ref_coloring.items()]
                assert selected == want_selected, seed
                assert list(coloring.items()) == want_coloring, seed


class TestWeighted:
    def test_unit_weights_match_unweighted(self):
        for seed in range(60):
            inst = generate_instance(UNIT_DISKS, 1 + seed % 10, seed)
            a = solve_ptas(inst, F(1, 2))
            b = solve_ptas_weighted(inst, [F(1)] * inst.n, F(1, 2))
            assert a.size == b.size, seed

    def test_heavy_vertex_wins(self):
        inst = disks([(0, 1), (F(1, 2), 1), (1, 1)])
        sol = solve_ptas_weighted(inst, [1, 100, 1], F(1, 4))
        assert 1 in sol.selected

    def test_empty_instance(self):
        # the same error as every other solver, solve_slab included
        inst = GeometricInstance(UNIT_DISKS, (), F(1))
        for solve in (lambda: solve_ptas(inst, F(1, 2)),
                      lambda: solve_ptas_weighted(inst, [], F(1, 2)),
                      lambda: solve_slab(inst)):
            with pytest.raises(ValidationError, match="instance has no objects"):
                solve()

    @pytest.mark.parametrize("weight", [0.5, True])
    def test_inexact_weight_rejected(self, weight):
        inst = disks([(0, 0), (3, 0)])
        with pytest.raises(ValidationError):
            solve_ptas_weighted(inst, [weight, 1], F(1, 2))

    def test_negative_weight_rejected(self):
        inst = disks([(0, 0)])
        with pytest.raises(ValidationError):
            solve_ptas_weighted(inst, [-1], F(1, 2))

    @pytest.mark.parametrize("weights", [[], [1], [1, 1, 1]])
    def test_one_weight_per_object(self, weights):
        with pytest.raises(ValidationError, match="one weight per object"):
            solve_ptas_weighted(disks([(0, 0), (3, 0)]), weights, F(1, 2))

    def test_weight_guarantee(self):
        # k * achieved weight >= (k-1) * optimal weight, via weighted oracle
        from itertools import combinations

        for seed in range(40):
            inst = generate_instance(UNIT_DISKS, 1 + seed % 8, seed)
            wts = generate_weights(inst.n, seed)
            g = build_intersection_graph(inst)
            best = F(0)
            for size in range(inst.n, -1, -1):
                for sub in combinations(range(inst.n), size):
                    if is_bipartite(g, sub) is not None:
                        best = max(best, sum(wts[i] for i in sub))
            sol = solve_ptas_weighted(inst, wts, F(1, 2))
            achieved = sum(wts[i] for i in sol.selected)
            assert 2 * achieved >= best, seed
