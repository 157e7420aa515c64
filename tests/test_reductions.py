"""Doubling reduction: bipartite optimum of the doubled scene equals twice
the independent-set optimum of the original."""
from fractions import Fraction as F

from geombs import (
    KINDS,
    UNIT_DISKS,
    DiskObj,
    GeometricInstance,
    Point,
    build_intersection_graph,
    double_instance,
    exact_mbs,
    exact_mis,
    generate_instance,
)
from conftest import graph_edges


def test_single_object_becomes_an_edge():
    inst = GeometricInstance(UNIT_DISKS, (DiskObj(Point(0, 0)),), F(1))
    g = build_intersection_graph(double_instance(inst))
    assert g.n == 2 and list(graph_edges(g)) == [(0, 1)]


def test_edgeless_scene_becomes_perfect_matching():
    inst = GeometricInstance(
        UNIT_DISKS,
        tuple(DiskObj(Point(5 * i, 0)) for i in range(4)),
        F(1),
    )
    g = build_intersection_graph(double_instance(inst))
    assert sorted(graph_edges(g)) == [(i, i + 4) for i in range(4)]


def test_copy_degree_identity():
    for seed in range(50):
        inst = generate_instance(UNIT_DISKS, 2 + seed % 7, seed)
        g = build_intersection_graph(inst)
        dg = build_intersection_graph(double_instance(inst))
        assert dg.n == 2 * inst.n
        for v in range(inst.n):
            assert (dg.masks[inst.n + v].bit_count()
                    == 2 * g.masks[v].bit_count() + 1)


def test_doubled_bipartite_optimum_is_twice_independent_optimum():
    # every kind, at the generator's default spread and at a dense spread 2
    for seed in range(150):
        for kind in KINDS:
            for spread in (None, 2):
                inst = generate_instance(kind, 1 + seed % 10, seed,
                                         spread=spread)
                mis = exact_mis(build_intersection_graph(inst)).size
                doubled = build_intersection_graph(double_instance(inst))
                assert exact_mbs(doubled).size == 2 * mis, (kind, seed, spread)
