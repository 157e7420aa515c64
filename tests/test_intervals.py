"""Exact interval sweep: golden cases, degeneracy policy, oracle equality."""
import random
from fractions import Fraction as F

import pytest

from geombs import (
    INTERVALS,
    CertificateError,
    GeometricInstance,
    IntervalObj,
    build_intersection_graph,
    exact_mbs,
    generate_instance,
    is_bipartite,
    solve_intervals,
)
from geombs import intervals as intervals_module
import kernel_reference


def intervals(*pairs):
    return GeometricInstance(
        INTERVALS, tuple(IntervalObj(a, b) for a, b in pairs)
    )


class TestGolden:
    def test_three_intervals_sharing_a_point(self):
        # all three overlap at 3/2 (a triangle); the sweep keeps the first two
        sol = solve_intervals(intervals((0, 2), (1, 3), (F(3, 2), 4)))
        assert sol.selected == (0, 1) and sol.size == 2

    def test_pairwise_disjoint(self):
        sol = solve_intervals(intervals((0, 1), (2, 3), (4, 5)))
        assert sol.selected == (0, 1, 2)

    def test_single_interval(self):
        sol = solve_intervals(intervals((0, 1)))
        assert sol.selected == (0,) and sol.coloring == {0: 0}

    def test_certifies_its_coloring(self, monkeypatch):
        # a sweep that keeps all three intervals through 3/2 must be refused
        # by the certificate on the selection's own graph
        monkeypatch.setattr(intervals_module, "_sweep",
                            lambda lefts, rights, order: list(order))
        with pytest.raises(CertificateError):
            solve_intervals(intervals((0, 2), (1, 3), (F(3, 2), 4)))

    def test_disjoint_branch_keeps_earlier_state(self):
        # the long interval is selected first; the state never blocks
        # the two short disjoint ones
        sol = solve_intervals(intervals((0, 10), (1, 2), (3, 4)))
        assert exact_mbs(build_intersection_graph(
            intervals((0, 10), (1, 2), (3, 4)))).size == sol.size == 3


class TestDegeneracy:
    def test_shared_endpoints_solved_exactly(self):
        # shared endpoints are valid input; closed semantics decide the ties
        assert solve_intervals(intervals((0, 1), (1, 2))).selected == (0, 1)
        for seed in range(300):
            inst = tie_heavy_intervals(seed)
            g = build_intersection_graph(inst)
            sol = solve_intervals(inst)
            assert sol.size == exact_mbs(g).size, seed
            assert is_bipartite(g, sol.selected) is not None

    def test_endpoints_equal_as_floats_are_distinct(self):
        # 1/3 and the float nearest it share a float but not a value; the
        # sweep reads the exact half of each key
        third, near = F(1, 3), F(1 / 3)
        assert float(third) == float(near) and near < third
        sol = solve_intervals(intervals((0, near), (third, 1)))
        assert sol.selected == (0, 1) and sol.coloring == {0: 0, 1: 0}

    def test_perturbation_preserves_graph(self):
        # perturb=True, as the benchmark passes it, changes nothing
        for seed in range(100):
            inst = tie_heavy_intervals(seed)
            assert solve_intervals(inst, perturb=True) == solve_intervals(inst)


class TestProperties:
    def test_oracle_equality(self):
        for seed in range(300):
            inst = generate_instance(INTERVALS, 1 + seed % 12, seed)
            sol = solve_intervals(inst)
            g = build_intersection_graph(inst)
            assert sol.size == exact_mbs(g).size, (seed, inst)
            assert is_bipartite(g, sol.selected) is not None

    def test_no_point_stabs_three_selected(self):
        for seed in range(100):
            inst = generate_instance(INTERVALS, 3 + seed % 10, seed)
            sol = solve_intervals(inst)
            objs = inst.objects
            for a in sol.selected:
                for b in sol.selected:
                    for c in sol.selected:
                        if not a < b < c:
                            continue
                        lo = max(objs[i].left for i in (a, b, c))
                        hi = min(objs[i].right for i in (a, b, c))
                        assert lo > hi, "three selected intervals share a point"


def tie_heavy_intervals(seed):
    """Up to 14 intervals on a grid of step 1, 1/2 or 1/4 inside [0, 6], so
    shared endpoints and intervals meeting at one point are common."""
    rng = random.Random(seed)
    q = rng.choice((1, 2, 4))
    pairs = []
    while len(pairs) < 1 + seed % 14:
        a, b = sorted(rng.sample(range(6 * q + 1), 2))
        pairs.append((F(a, q), F(b, q)))
    return intervals(*pairs)


class TestReference:
    def test_matches_perturbed_key_sweep(self):
        # the sweep on exact endpoints equals the one on symbolically
        # perturbed keys, colouring included
        for seed in range(1200):
            inst = tie_heavy_intervals(seed)
            sol = solve_intervals(inst)
            assert ((sol.selected, sol.coloring)
                    == kernel_reference.reference_intervals(inst)), seed


def tie_heavy_windows(seed):
    """``(steps, windows)`` for ``_window_sweeps``: up to 24 steps on a grid
    of 6 int endpoints, by right endpoint, each bit repeating with a period
    p; up to 16 windows of at most p steps whose starts and stops never
    decrease, some empty, repeated or starting past the last stop, with
    floors from below every endpoint to above them all."""
    rng = random.Random(seed)
    m, p = rng.randint(0, 24), rng.randint(1, 8)
    pairs = sorted((sorted(rng.sample(range(6), 2)) for _ in range(m)),
                   key=lambda pair: pair[1])
    steps = [(a, b, 1 << (j % p)) for j, (a, b) in enumerate(pairs)]
    w = rng.randint(1, 16)
    starts = sorted(rng.randint(0, m) for _ in range(w))
    stops = sorted(rng.randint(0, m) for _ in range(w))
    windows = []
    for start, stop in zip(starts, stops):
        window = (start, min(max(start, stop), start + p), rng.randint(-1, 6))
        windows += [window] * rng.choice((1, 1, 1, 2))
    return steps, windows


def test_window_sweeps_match_one_sweep_per_window():
    # the shared sweep, whose windows reuse the kept steps of the last one,
    # against the interval sweep run alone on each window and its floor
    for seed in range(3000):
        steps, windows = tie_heavy_windows(seed)
        lefts = [left for left, _, _ in steps]
        rights = [right for _, right, _ in steps]
        shared = list(intervals_module._window_sweeps(steps, windows))
        assert len(shared) == len(windows), seed
        for (start, stop, floor), mask in zip(windows, shared):
            alone = intervals_module._sweep(lefts, rights, range(start, stop),
                                            floor)
            assert mask == sum(steps[j][2] for j in alone), (seed, start, stop)
