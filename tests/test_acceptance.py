"""Acceptance gate: one test per top-level guarantee, each printing a
single pass/fail line with its corpus size and runtime."""
import json
import math
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from geombs import (
    ARCS,
    INTERVALS,
    KINDS,
    UNIT_DISKS,
    UNIT_HEIGHT_RECTS,
    UNIT_SQUARES,
    _kernels,
    build_intersection_graph,
    double_instance,
    exact_mbs,
    exact_mis,
    exact_mtfs,
    generate_instance,
    is_bipartite,
    solve_3approx,
    solve_arcs,
    solve_intervals,
    solve_logn,
    solve_one_sided,
    solve_ptas,
    solve_ptas_weighted,
    solve_slab,
    solve_two_sided,
    solve_unit_height,
)
from geombs.cli import run_cli
from kernel_reference import has_induced_cycle_at_least
from conftest import graph_edges


@pytest.fixture
def announce(capsys, request):
    """Emit one uncapturable pass/fail line for the criterion."""
    start = time.perf_counter()

    def emit(label, detail=""):
        elapsed = time.perf_counter() - start
        suffix = f" ({detail}, {elapsed:.1f}s)" if detail else f" ({elapsed:.1f}s)"
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS{suffix}")
        return elapsed

    yield emit
    if getattr(request.node, "rep_failed", False):
        with capsys.disabled():
            print(f"[acceptance] {request.node.name}: FAIL")


def graph(inst):
    return build_intersection_graph(inst)


def test_criterion_01_interval_exactness(announce):
    count = 1000
    for seed in range(count):
        inst = generate_instance(INTERVALS, 1 + seed % 16, seed)
        sol = solve_intervals(inst)
        assert sol.size == exact_mbs(graph(inst)).size, seed
    elapsed = announce("01 interval exactness", f"{count} instances, n<=16")
    assert elapsed < 30


def test_criterion_02_arc_near_optimality(announce):
    count = 500
    for seed in range(count):
        inst = generate_instance(ARCS, 1 + seed % 14, seed)
        sol = solve_arcs(inst)
        opt = exact_mbs(graph(inst)).size
        assert opt - 1 <= sol.size <= opt, seed
    elapsed = announce("02 arc near-optimality", f"{count} instances, n<=14")
    assert elapsed < 60


def test_criterion_02_arc_near_optimality_at_larger_n(announce):
    count = 0
    for n in (24, 32):
        for seed in range(8):
            inst = generate_instance(ARCS, n, seed)
            sol = solve_arcs(inst)
            opt = exact_mbs(graph(inst), cap=n).size
            assert opt - 1 <= sol.size <= opt, (n, seed)
            count += 1
    elapsed = announce("02 arc near-optimality, larger n",
                       f"{count} instances, n<=32")
    assert elapsed < 60


def test_criterion_03_one_sided_dp_exactness(announce):
    count = 500
    for seed in range(count):
        inst = generate_instance(
            UNIT_DISKS, 1 + seed % 12, seed, disk_mode="one_sided"
        )
        g = graph(inst)
        assert (solve_one_sided(inst).size
                == exact_mbs(g).size
                == exact_mtfs(g).size), seed
    elapsed = announce("03 one-sided DP exactness", f"{count} instances, n<=12")
    assert elapsed < 120


def test_criterion_03_one_sided_dp_exactness_at_larger_n(announce):
    count = 0
    for n in (24, 28):
        for spread in (2, 4, None):
            for seed in range(8):
                inst = generate_instance(UNIT_DISKS, n, seed, spread=spread,
                                         disk_mode="one_sided")
                g = graph(inst)
                assert (solve_one_sided(inst).size
                        == exact_mbs(g, cap=n).size
                        == exact_mtfs(g, cap=n).size), (n, spread, seed)
                count += 1
    elapsed = announce("03 one-sided DP exactness, larger n",
                       f"{count} instances, n<=28")
    assert elapsed < 60


def test_criterion_04_one_sided_structure_fuzz(announce):
    count = 1000
    for seed in range(count):
        inst = generate_instance(
            UNIT_DISKS, 3 + seed % 12, seed, disk_mode="one_sided"
        )
        g = graph(inst)
        order = sorted(range(inst.n),
                       key=lambda i: (inst.objects[i].center.x, i))
        # no induced cycle of length five or more
        assert not has_induced_cycle_at_least(list(g.masks), 5), seed
        # no vertex with four pairwise-disjoint neighbors
        for v in range(g.n):
            nbrs = [u for u in range(g.n) if g.adjacent(v, u)]
            size, _ = _kernels.max_subset(
                g.induced_masks(nbrs), _kernels.MODE_INDEPENDENT
            )
            assert size <= 3, (seed, v)
        # disjointness is transitive along the x-order
        n = len(order)
        for a in range(n):
            for b in range(a + 1, n):
                if g.adjacent(order[a], order[b]):
                    continue
                for c in range(b + 1, n):
                    if not g.adjacent(order[b], order[c]):
                        assert not g.adjacent(order[a], order[c]), seed
        # spanned quadruples induce no three-leaf star
        for quad in combinations(range(n), 4):
            vs = [order[t] for t in quad]
            if not g.adjacent(vs[0], vs[3]):
                continue
            for center in vs:
                leaves = [u for u in vs if u != center]
                assert not (
                    all(g.adjacent(center, u) for u in leaves)
                    and not any(g.adjacent(x, y)
                                for x in leaves for y in leaves if x < y)
                ), (seed, quad)
        # spanned quintuples: the middle three are never independent
        for quint in combinations(range(n), 5):
            vs = [order[t] for t in quint]
            if not g.adjacent(vs[0], vs[4]):
                continue
            mid = vs[1:4]
            assert any(g.adjacent(x, y) for x in mid for y in mid if x < y), (
                seed, quint
            )
    announce("04 one-sided structural lemmas", f"{count} instances, n<=14")


def test_criterion_05_two_sided_half_ratio(announce):
    count = 500
    for seed in range(count):
        inst = generate_instance(
            UNIT_DISKS, 1 + seed % 14, seed, disk_mode="two_sided"
        )
        sol = solve_two_sided(inst)
        g = graph(inst)
        assert 2 * sol.size >= exact_mbs(g).size, seed
        assert is_bipartite(g, sol.selected) is not None, seed
    announce("05 two-sided 2-approximation", f"{count} instances, n<=14")


def test_criterion_06_general_disk_ratios(announce):
    count = 300
    for seed in range(count):
        n = 1 + seed % 14
        inst = generate_instance(UNIT_DISKS, n, seed)
        opt = exact_mbs(graph(inst)).size
        assert 3 * solve_3approx(inst).size >= opt, seed
        factor = max(1, 2 * math.log2(n)) if n > 1 else 1
        assert factor * solve_logn(inst).size >= opt, seed
    announce("06 general-disk ratio bounds", f"{count} instances, n<=14")


def test_criterion_07_slab_exactness_and_ptas_ratio(announce):
    count = 300
    for seed in range(count):
        inst = generate_instance(
            UNIT_DISKS, 1 + seed % 12, seed, disk_mode="slab", slab_k=2
        )
        opt = exact_mbs(graph(inst)).size
        assert solve_slab(inst, 2, slab_bottom=0).size == opt, seed
        assert 2 * solve_ptas(inst, F(1, 2)).size >= opt, seed
    announce("07 slab exactness + PTAS ratio", f"{count} instances, n<=12, k=2")


def test_criterion_08_weighted_ptas_parity(announce):
    count = 100
    for seed in range(count):
        inst = generate_instance(UNIT_DISKS, 1 + seed % 12, seed)
        a = solve_ptas(inst, F(1, 2)).size
        b = solve_ptas_weighted(inst, [F(1)] * inst.n, F(1, 2)).size
        assert a == b, seed
    announce("08 weighted PTAS parity at unit weights", f"{count} instances")


def test_criterion_09_unit_height_rectangles(announce):
    from geombs.model import _bands

    count = 500
    for seed in range(count):
        inst = generate_instance(UNIT_HEIGHT_RECTS, 1 + seed % 14, seed)
        g = graph(inst)
        sol = solve_unit_height(inst)
        assert 2 * sol.size >= exact_mbs(g).size, seed
        assert is_bipartite(g, sol.selected) is not None, seed
        groups = _bands([o.y_min for o in inst.objects], 1)
        where = {i: t for t, members in groups.items() for i in members}
        for t, members in groups.items():
            for a in members:
                for b in members:
                    if a < b:
                        ra, rb = inst.objects[a], inst.objects[b]
                        assert g.adjacent(a, b) == (
                            ra.x_min <= rb.x_max and rb.x_min <= ra.x_max
                        ), seed
        for u, v in graph_edges(g):
            if where[u] != where[v]:
                assert where[u] % 2 != where[v] % 2, seed
    announce("09 unit-height rectangle 2-approximation",
             f"{count} instances, n<=14")


def test_criterion_10_doubling_identity(announce):
    count = 300
    for seed in range(count):
        kind = KINDS[seed % len(KINDS)]
        inst = generate_instance(kind, 1 + seed % 8, seed)
        mis = exact_mis(graph(inst)).size
        mbs = exact_mbs(graph(double_instance(inst))).size
        assert mbs == 2 * mis, (kind, seed)
    announce("10 doubling reduction identity", f"{count} instances, n<=8")


def test_criterion_11_sandwich_bounds(announce):
    count = 300
    for seed in range(count):
        kind = KINDS[seed % len(KINDS)]
        inst = generate_instance(kind, 1 + seed % 12, seed)
        g = graph(inst)
        mis = exact_mis(g).size
        mbs = exact_mbs(g).size
        mtfs = exact_mtfs(g).size
        assert mis <= mbs <= 2 * mis, (kind, seed)
        assert mbs <= mtfs, (kind, seed)
    announce("11 oracle sandwich bounds", f"{count} instances, all kinds")


def test_criterion_12_cli_round_trip(announce, tmp_path):
    for kind in KINDS:
        inst = tmp_path / f"{kind}.json"
        sol = tmp_path / f"{kind}.sol.json"
        assert run_cli(["generate", "--kind", kind, "--n", "8",
                        "--seed", "13", "-o", str(inst)]) == 0
        assert run_cli(["solve", str(inst), "-o", str(sol)]) == 0
        assert run_cli(["verify", str(inst), str(sol)]) == 0
        # tampering: stuff every vertex back in and drop the certificate
        doc = json.loads(sol.read_text())
        doc["selected"] = list(range(8))
        doc.pop("coloring", None)
        tampered = tmp_path / f"{kind}.bad.json"
        tampered.write_text(json.dumps(doc))
        g = graph(generate_instance(kind, 8, 13))
        if is_bipartite(g, range(8)) is None:
            assert run_cli(["verify", str(inst), str(tampered)]) == 1, kind
        else:
            # the full scene happens to be bipartite; break it with a
            # genuinely impossible index instead
            doc["selected"] = [0, 99]
            tampered.write_text(json.dumps(doc))
            assert run_cli(["verify", str(inst), str(tampered)]) != 0, kind
    announce("12 CLI generate/solve/verify round-trip", "all kinds")
