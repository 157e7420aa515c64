"""2-approximation for unit-height rectangles.

Rectangles are grouped by ``floor(y_min - a)`` with ``a`` the global
minimum (``model._bands``); every group is stabbed by one horizontal line,
so within a group the intersection graph is the interval graph of the
x-projections and the interval sweep solves it exactly.  Groups of equal parity are vertically
disjoint, so each parity class unions its per-group optima into one
bipartite set; the larger class has at least half the optimum.  Groups are
swept on exact x-projection keys, and the graph of the chosen union alone,
not the scene's, colours and certifies it.
"""
from .intervals import (
    _sweep,
    solve_intervals,  # unused here, but perfbench/tracing.py patches rects.solve_intervals
)
from .model import (
    UNIT_HEIGHT_RECTS,
    GeometricInstance,
    Solution,
    _bands,
    _expect,
    _graph_over,
    _key,
    certify,
    is_bipartite,
)


def solve_unit_height(instance: GeometricInstance) -> Solution:
    """Best parity class of per-group interval optima (parity 0 on a tie)."""
    _expect(instance, UNIT_HEIGHT_RECTS)
    lefts = [_key(o.x_min) for o in instance.objects]
    rights = [_key(o.x_max) for o in instance.objects]
    unions = [[], []]
    for g, indices in _bands([o.y_min for o in instance.objects], 1).items():
        order = sorted(indices, key=rights.__getitem__)
        unions[g % 2] += _sweep(lefts, rights, order)

    best = max(unions, key=len)
    graph = _graph_over(instance, best)
    return certify(graph, Solution(tuple(best), is_bipartite(graph, best)))
