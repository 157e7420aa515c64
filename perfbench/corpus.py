"""Seeded workloads: which scenes each workload generates and how each is solved.

A workload is a list of scene groups.  Every group draws ``count`` scenes of
one kind and size and runs a fixed list of algorithms on each.  One (scene,
algorithm) pair is an item, the unit that is timed.  Scenes are generated with
``geombs.generate_instance`` and handed to the solvers only as JSON text.
"""
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

EPSILON = Fraction(1, 2)  # solve_ptas(ε = 1/2), so k = 2
PTAS_K = math.ceil(1 / EPSILON)


def _oracle(name):
    def solve(g, inst, weights):
        return getattr(g, name)(g.build_intersection_graph(inst))
    return solve


# algorithm -> (solver(geombs, instance, weights), output mode)
ALGORITHMS = {
    "intervals": (lambda g, inst, w: g.solve_intervals(inst, perturb=True), "bipartite"),
    "unit_height": (lambda g, inst, w: g.solve_unit_height(inst), "bipartite"),
    "arcs": (lambda g, inst, w: g.solve_arcs(inst), "bipartite"),
    "one_sided": (lambda g, inst, w: g.solve_one_sided(inst), "bipartite"),
    "two_sided": (lambda g, inst, w: g.solve_two_sided(inst), "bipartite"),
    "3approx": (lambda g, inst, w: g.solve_3approx(inst), "bipartite"),
    "logn": (lambda g, inst, w: g.solve_logn(inst), "bipartite"),
    "ptas": (lambda g, inst, w: g.solve_ptas(inst, EPSILON), "bipartite"),
    "ptas_weighted": (lambda g, inst, w: g.solve_ptas_weighted(inst, w, EPSILON),
                      "bipartite"),
    "exact_mbs": (_oracle("exact_mbs"), "bipartite"),
    "exact_mtfs": (_oracle("exact_mtfs"), "triangle_free"),
    "exact_mis": (_oracle("exact_mis"), "independent"),
    # exact MBS of the doubled scene; checked against the doubled scene
    "double_mbs": (lambda g, inst, w: g.exact_mbs(
        g.build_intersection_graph(g.double_instance(inst))), "bipartite"),
}


def guarantee_holds(algorithm, n, size, opt):
    """The paper's bound for ``algorithm`` against the exact optimum ``opt``.

    None when the algorithm carries no bound checked here.
    """
    if algorithm == "arcs":
        return opt - 1 <= size <= opt
    factor = {
        "intervals": 1,
        "one_sided": 1,
        "two_sided": 2,
        "unit_height": 2,
        "3approx": 3,
        "logn": max(1.0, 2 * math.log2(n)),
        "ptas": Fraction(PTAS_K, PTAS_K - 1),
    }.get(algorithm)
    if factor is None:
        return None
    return factor * size >= opt and size <= opt


@dataclass(frozen=True)
class Group:
    label: str
    kind: str
    n: int
    count: int
    algorithms: tuple
    spread: Optional[int] = None
    disk_mode: str = "general"


@dataclass(frozen=True)
class Item:
    id: str
    scene_id: str
    algorithm: str
    text: str  # the instance document, as JSON


_MBS_ORACLES = ("exact_mbs", "exact_mtfs", "exact_mis")
_DISK_SOLVERS = ("3approx", "logn", "ptas", "ptas_weighted")

# Every workload has over 110 items, so that its 90th-percentile item time has
# at least ten items above it, and one pass over its corpus takes about a
# second, so that a run times each item dozens of times.  Group counts put the
# median and the 90th percentile inside one group of similar items, not on a
# step between two groups, where a small change of mix would move them.
# Every PTAS box stays far below geombs.ptas.DEFAULT_BOX_CAP (16 objects), so
# that a CapacityError means a regression and not an unlucky scene: over 2000
# seeds of denser scenes (50 disks or 125 squares at the same spread), the
# fullest box held 12 disks or 9 squares.
WORKLOADS = {
    # The polynomial solvers on the largest scenes that fit: the O(n^2) graph
    # build dominates, while the chain DP and the oracle barely run.  In item
    # time order: unit-height rectangles, the disk solvers (the median), the
    # dense-disk PTAS and intervals (the 90th percentile), dense squares.
    "scenes_large": (
        Group("uh_rects", "unit_height_rects", 220, 42, ("unit_height",)),
        Group("disks_sparse", "unit_disks", 36, 8, _DISK_SOLVERS),
        Group("disks_dense", "unit_disks", 36, 4, _DISK_SOLVERS, spread=9),
        Group("squares_dense", "unit_squares", 90, 6, ("ptas",), spread=9),
        Group("intervals", "intervals", 130, 20, ("intervals",)),
    ),
    # Line-stabbed disks (the chain DP and per-side MIS chains) and circular
    # arcs (one interval sweep and one small graph per cut).  In item time
    # order: two-sided disks, arcs (the median), one-sided disks (the 90th
    # percentile).
    "chain_and_cuts": (
        Group("two_sided", "unit_disks", 32, 30, ("two_sided",), disk_mode="two_sided"),
        Group("arcs", "arcs", 15, 60, ("arcs",)),
        Group("one_sided", "unit_disks", 26, 22, ("one_sided",), disk_mode="one_sided"),
    ),
    # Dense small scenes of every kind: the exhaustive oracle, each kind's
    # guarantee algorithms against it, and MBS(double(S)) = 2 MIS(S) on
    # scenes small enough that the doubled scene stays under the oracle cap.
    # The oracle's work grows steeply as the optimum shrinks, so many scenes
    # of moderate density keep the corpus total steady from seed to seed.
    "oracle_small": (
        Group("intervals", "intervals", 12, 6, _MBS_ORACLES + ("intervals",), spread=1),
        Group("arcs", "arcs", 12, 6, _MBS_ORACLES + ("arcs",)),
        Group("one_sided", "unit_disks", 12, 6, _MBS_ORACLES + ("one_sided",),
              spread=2, disk_mode="one_sided"),
        Group("two_sided", "unit_disks", 12, 6, _MBS_ORACLES + ("two_sided",),
              spread=2, disk_mode="two_sided"),
        Group("disks", "unit_disks", 12, 6,
              _MBS_ORACLES + ("3approx", "logn", "ptas"), spread=2),
        Group("squares", "unit_squares", 12, 6, _MBS_ORACLES + ("ptas",), spread=2),
        Group("uh_rects", "unit_height_rects", 12, 6, _MBS_ORACLES + ("unit_height",),
              spread=1),
        Group("rects", "rects", 12, 6, _MBS_ORACLES, spread=1),
        Group("double_intervals", "intervals", 6, 4, ("exact_mis", "double_mbs"), spread=1),
        Group("double_arcs", "arcs", 6, 4, ("exact_mis", "double_mbs")),
        Group("double_disks", "unit_disks", 6, 4, ("exact_mis", "double_mbs"), spread=2),
        Group("double_squares", "unit_squares", 6, 4, ("exact_mis", "double_mbs"),
              spread=2),
        Group("double_rects", "rects", 6, 4, ("exact_mis", "double_mbs"), spread=1),
    ),
}


def build_items(g, workload, seed):
    """Generate and serialise the workload's corpus; returns (items, generate_s).

    ``g`` is the imported ``geombs`` package.  The same workload and seed give
    the same items.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = []
    generate_s = 0.0
    for group in WORKLOADS[workload]:
        for c in range(group.count):
            scene_seed = rng.randrange(2 ** 31)
            start = time.perf_counter()
            inst = g.generate_instance(group.kind, group.n, scene_seed,
                                       spread=group.spread, disk_mode=group.disk_mode)
            weights = (g.generate_weights(group.n, scene_seed)
                       if "ptas_weighted" in group.algorithms else None)
            generate_s += time.perf_counter() - start
            text = json.dumps(g.serialize.instance_to_dict(inst, weights))
            scene_id = f"{group.label}-{c}"
            items.extend(Item(f"{scene_id}/{a}", scene_id, a, text)
                         for a in group.algorithms)
    return items, generate_s
