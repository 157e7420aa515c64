"""Unit disks stabbed by a horizontal line.

With all centers on one side of the line the graph has no induced cycle of
length five or more, so maximum bipartite and maximum triangle-free subsets
coincide and the B[i,j,k] chain DP solves the problem exactly, in
O(n + n*w^3) time and O(n + n*w^2) space after the graph build, where the
forward window w is the largest index gap from a disk to its last neighbour
in x-order.  With centers on both sides, a maximum independent set per side
(longest disjointness chain in x-order, valid because disjointness is
transitive along the x-order on one side, O(n^2) adjacency tests) gives a
2-approximation whose side labels are the 2-coloring.
"""
from . import _kernels
from .errors import ValidationError
from .model import (
    UNIT_DISKS,
    GeometricInstance,
    Solution,
    _frac,
    build_intersection_graph,
    certify,
    is_bipartite,
)


def _require_disks(instance):
    """Reject all but a nonempty unit-disk scene without reading its
    objects: a solver's one graph build validates them, before any other
    access."""
    if instance.kind != UNIT_DISKS:
        raise ValidationError(f"expected a unit_disks scene, got {instance.kind}")
    if not instance.objects:
        raise ValidationError("instance has no objects")


def _stabbed(instance, line_y, one_sided):
    """``(graph, exact line_y)`` of a disk scene whose disks all meet the
    line y = ``line_y``, with centers on or above it if ``one_sided``."""
    _require_disks(instance)
    line_y = _frac(line_y)
    graph = build_intersection_graph(instance)
    r = instance.disk_radius
    for i, d in enumerate(instance.objects):
        dy = d.center.y - line_y
        if not (-r <= dy <= r):
            raise ValidationError(f"disk {i} does not intersect the line")
        if one_sided and dy < 0:
            raise ValidationError(f"disk {i} has its center below the line")
    return graph, line_y


def _x_order(instance, indices):
    return sorted(indices, key=lambda i: (instance.objects[i].center.x, i))


def _chain(graph, order):
    """Exact maximum bipartite subset of one-sided disks ``order``, listed
    in (x, index) order; returns ascending indices."""
    if len(order) <= 2:
        return sorted(order)
    size, chain = _kernels.chain_mbs(graph.induced_masks(order))
    if size >= 3:
        return sorted(order[i] for i in chain)
    # Every x-ordered triple is a triangle; a best pair remains.
    return sorted(order)[:2]


def _mis_chain(graph, order):
    """Longest chain of pairwise-disjoint disks along ``order``; returns
    ascending indices."""
    n = len(order)
    # longest[i]: longest chain of pairwise-disjoint disks starting at i;
    # nxt[i]: the first disk after i that continues such a chain
    longest, nxt = [1] * n, [None] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if longest[j] >= longest[i] and not graph.adjacent(order[i], order[j]):
                longest[i], nxt[i] = longest[j] + 1, j
    chain = []
    i = max(range(n), key=longest.__getitem__, default=None)
    while i is not None:
        chain.append(order[i])
        i = nxt[i]
    return sorted(chain)


def _two_sided(graph, above, below):
    """Union of the per-side disjointness chains as (selected, coloring),
    ``above`` coloured 0 and ``below`` 1; each side is listed in its chain
    order."""
    coloring = {}
    for side, order in enumerate((above, below)):
        for v in _mis_chain(graph, order):
            coloring[v] = side
    return sorted(coloring), coloring


def solve_one_sided(instance: GeometricInstance, line_y=0) -> Solution:
    """Exact maximum bipartite subset; centers on or above the line."""
    graph, line_y = _stabbed(instance, line_y, one_sided=True)
    selected = _chain(graph, _x_order(instance, range(instance.n)))
    return certify(graph, Solution(tuple(selected), is_bipartite(graph, selected)))


def one_sided_mis(instance: GeometricInstance, line_y=0) -> tuple:
    """Exact maximum independent set via the longest disjointness chain."""
    graph, line_y = _stabbed(instance, line_y, one_sided=True)
    selected = _mis_chain(graph, _x_order(instance, range(instance.n)))
    return certify(graph, Solution(tuple(selected)), "independent").selected


def solve_two_sided(instance: GeometricInstance, line_y=0) -> Solution:
    """2-approximation: a maximum independent set per side, unioned."""
    graph, line_y = _stabbed(instance, line_y, one_sided=False)
    above = [i for i, d in enumerate(instance.objects) if d.center.y >= line_y]
    below = [i for i, d in enumerate(instance.objects) if d.center.y < line_y]
    selected, coloring = _two_sided(
        graph, _x_order(instance, above), _x_order(instance, below)
    )
    return certify(graph, Solution(tuple(selected), coloring))
