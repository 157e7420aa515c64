"""Unit disks stabbed by a horizontal line.

With all centers on one side of the line, disjoint disks lie over sqrt(3)*r
apart in x, so "before in x-order and disjoint" is a strict order whose
chains are the independent sets.  The two-chain DP over pairs of chain ends
solves the problem exactly in O(n*w^2) time and O(n*w) space after the graph
build, where the forward window w is the largest index gap from a disk to
its last neighbour in x-order.  With centers on both sides, a maximum
independent set per side (longest chain in x-order, O(n^2) adjacency tests)
gives a 2-approximation whose side labels are the 2-coloring.

Which side of the line a center lies on, and whether its disk meets the
line, is read off ``model._offsets`` (``_line_sides``, which the command
line's algorithm choice also asks); the x-order sorts exact ``_key``s.
"""
from . import _kernels
from .errors import ValidationError
from .model import (
    UNIT_DISKS,
    GeometricInstance,
    Solution,
    _expect,
    _key,
    _offsets,
    build_intersection_graph,
    certify,
    is_bipartite,
)


def _line_sides(instance, line_y):
    """Per disk of a valid unit-disk scene, whether its center lies on or
    above the line y = ``line_y``, or None if the disk misses the line:
    |y - line_y| <= r and y >= line_y, on the ``_offsets`` (y - line_y) / r."""
    ys = [d.center.y for d in instance.objects]
    return [None if abs(p) > q else p >= 0
            for p, q in _offsets(ys, line_y, instance.disk_radius)]


def _stabbed(instance, line_y, one_sided):
    """``(graph, sides)`` of a disk scene whose disks all meet the line
    y = ``line_y``, with centers on or above it if ``one_sided``; ``sides``
    is the scene's ``_line_sides``."""
    _expect(instance, UNIT_DISKS)
    graph = build_intersection_graph(instance)
    sides = _line_sides(instance, line_y)
    for i, above in enumerate(sides):
        if above is None:
            raise ValidationError(f"disk {i} does not intersect the line")
        if one_sided and not above:
            raise ValidationError(f"disk {i} has its center below the line")
    return graph, sides


def _x_order(instance, indices):
    """``indices`` by (center x, index), on exact ``_key``s."""
    objs = instance.objects
    return sorted(indices, key=lambda i: (_key(objs[i].center.x), i))


def _chain(graph, order):
    """Exact maximum bipartite subset of one-sided disks ``order``, listed
    in (x, index) order; returns ascending indices."""
    size, chain = _kernels.chain_mbs(graph.induced_masks(order))
    if size >= 3:
        return sorted(order[i] for i in chain)
    # At most two disks, or all pairwise intersecting: keep the lowest two.
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
    graph, _ = _stabbed(instance, line_y, one_sided=True)
    selected = _chain(graph, _x_order(instance, range(instance.n)))
    return certify(graph, Solution(tuple(selected), is_bipartite(graph, selected)))


def one_sided_mis(instance: GeometricInstance, line_y=0) -> tuple:
    """Exact maximum independent set via the longest disjointness chain."""
    graph, _ = _stabbed(instance, line_y, one_sided=True)
    selected = _mis_chain(graph, _x_order(instance, range(instance.n)))
    return certify(graph, Solution(tuple(selected)), "independent").selected


def solve_two_sided(instance: GeometricInstance, line_y=0) -> Solution:
    """2-approximation: a maximum independent set per side, unioned."""
    graph, sides = _stabbed(instance, line_y, one_sided=False)
    above = [i for i, up in enumerate(sides) if up]
    below = [i for i, up in enumerate(sides) if not up]
    selected, coloring = _two_sided(
        graph, _x_order(instance, above), _x_order(instance, below)
    )
    return certify(graph, Solution(tuple(selected), coloring))
