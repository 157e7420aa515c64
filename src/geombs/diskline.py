"""Unit disks stabbed by a horizontal line.

With all centers on one side of the line the graph has no induced cycle of
length five or more, so maximum bipartite and maximum triangle-free subsets
coincide and the B[i,j,k] chain DP solves the problem exactly.  With
centers on both sides, a maximum independent set per side (longest
disjointness chain in x-order, valid because disjointness is transitive
along the x-order on one side) gives a 2-approximation whose side labels
are the 2-coloring.
"""
from . import _kernels
from .errors import ValidationError
from .model import (
    UNIT_DISKS,
    DiskObj,
    GeometricInstance,
    Point,
    Solution,
    _frac,
    build_intersection_graph,
    certify,
    is_bipartite,
    validate_instance,
)


def _require_disks(instance):
    if instance.kind != UNIT_DISKS:
        raise ValidationError(f"expected a unit_disks scene, got {instance.kind}")
    validate_instance(instance, require_nonempty=True)


def _check_stabbed(instance, line_y, one_sided):
    r = instance.disk_radius
    for i, d in enumerate(instance.objects):
        dy = d.center.y - line_y
        if not (-r <= dy <= r):
            raise ValidationError(f"disk {i} does not intersect the line")
        if one_sided and dy < 0:
            raise ValidationError(f"disk {i} has its center below the line")


def _x_order(instance):
    return sorted(range(instance.n),
                  key=lambda i: (instance.objects[i].center.x, i))


def solve_one_sided(instance: GeometricInstance, line_y=0) -> Solution:
    """Exact maximum bipartite subset; centers on or above the line."""
    _require_disks(instance)
    line_y = _frac(line_y)
    _check_stabbed(instance, line_y, one_sided=True)

    graph = build_intersection_graph(instance)
    n = instance.n
    if n <= 2:
        selected = tuple(range(n))
    else:
        order = _x_order(instance)
        size, chain = _kernels.chain_mbs(graph.induced_masks(order))
        if size >= 3:
            selected = tuple(sorted(order[i] for i in chain))
        else:
            # Every x-ordered triple is a triangle; a best pair remains.
            selected = (0, 1) if n >= 2 else (0,)
    return certify(graph, Solution(selected, is_bipartite(graph, selected)))


def one_sided_mis(instance: GeometricInstance, line_y=0) -> tuple:
    """Exact maximum independent set via the longest disjointness chain."""
    _require_disks(instance)
    line_y = _frac(line_y)
    _check_stabbed(instance, line_y, one_sided=True)

    graph = build_intersection_graph(instance)
    order = _x_order(instance)
    n = len(order)
    # longest[i]: longest chain of pairwise-disjoint disks starting at i.
    longest = [1] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if not graph.adjacent(order[i], order[j]):
                longest[i] = max(longest[i], 1 + longest[j])
    target = max(longest)
    chain = []
    need = target
    start = 0
    while need:
        for i in range(start, n):
            if longest[i] != need:
                continue
            if chain and graph.adjacent(order[chain[-1]], order[i]):
                continue
            chain.append(i)
            start = i + 1
            need -= 1
            break
    return tuple(sorted(order[i] for i in chain))


def _side_subinstance(instance, indices, line_y, below):
    """One-sided sub-scene; centers below the line are reflected onto it."""
    objs = []
    for i in indices:
        c = instance.objects[i].center
        y = 2 * line_y - c.y if below else c.y
        objs.append(DiskObj(Point(c.x, y)))
    return GeometricInstance(UNIT_DISKS, tuple(objs), instance.disk_radius)


def solve_two_sided(instance: GeometricInstance, line_y=0) -> Solution:
    """2-approximation: a maximum independent set per side, unioned.

    Uncertified: building the full graph for ``certify`` costs more than
    the solve, and the side labels are proper by construction.
    """
    _require_disks(instance)
    line_y = _frac(line_y)
    _check_stabbed(instance, line_y, one_sided=False)

    above = [i for i, d in enumerate(instance.objects)
             if d.center.y >= line_y]
    below = [i for i, d in enumerate(instance.objects)
             if d.center.y < line_y]

    selected = []
    coloring = {}
    for side, indices, refl in ((0, above, False), (1, below, True)):
        if not indices:
            continue
        sub = _side_subinstance(instance, indices, line_y, refl)
        for j in one_sided_mis(sub, line_y if not refl else line_y):
            v = indices[j]
            selected.append(v)
            coloring[v] = side
    return Solution(tuple(selected), coloring)
