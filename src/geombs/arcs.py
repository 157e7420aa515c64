"""Near-optimal maximum bipartite subset of circular arcs.

For every arc endpoint p, the arcs avoiding p form an interval scene once
the circle is cut at p, and the exact interval sweep applies.  The best of
these candidate solutions is within one vertex of the optimum.  When some
point of the circle is uncovered the whole scene is already an interval
scene, so one extra cut there makes that case exact.

The cuts run on the integer positions of ``model._positions``, which keep
every order and tie of the exact angles.  The circle is unrolled once to
twice its positions, so a cut is a window of one list presorted by right
endpoint.  Arcs meeting exactly at a cut lose that adjacency when unrolled,
so a candidate is re-checked on the circular graph, but only when it would
replace the best so far.  That graph's masks come from ``model._coverage``
and ``model._adjacency``, which build every arc graph.
"""
from bisect import bisect_right

from . import _kernels
from .intervals import (
    _sweep,
    solve_intervals,  # unused here, but perfbench/tracing.py patches arcs.solve_intervals
)
from .model import (
    ARCS,
    GeometricInstance,
    Solution,
    _adjacency,
    _coverage,
    _expect,
    _graph_over,
    _positions,
    build_intersection_graph,  # unused here, but perfbench/tracing.py patches arcs.build_intersection_graph
    certify,
    is_bipartite,
    validate_instance,
)


def solve_arcs(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT - 1, in O(n^2): O(n) cuts, each
    an O(n) sweep, and an O(n + m) check on n-bit masks of each candidate
    that would replace the best so far; plus a certificate on the graph of
    the k selected arcs alone, O(k log k) plus O(k) mask operations."""
    _expect(instance, ARCS)
    validate_instance(instance)

    labels = range(instance.n)
    starts, ends, size = _positions(instance.objects)
    covering, began, gap = _coverage(starts, ends, size, labels)
    masks = _adjacency(starts, ends, covering, began, labels)
    # The circle unrolled once to 2·size positions: arc i runs from s to
    # e' (e + size if it wraps) and its copy n + i from s + size to
    # e' + size.  Cut at c, the circle is the window (c, c + size]: the
    # copies ending there, each arc at most once, in the sweep's order of
    # right endpoint then arc index.  Those starting before c hold the cut
    # strictly inside and are dropped, as the sweep's markers start at c - 1.
    n = len(starts)
    lefts = starts + [s + size for s in starts]
    rights = [e if s < e else e + size for s, e in zip(starts, ends)]
    rights += [e + size for e in rights]
    by_end = sorted(range(2 * n), key=lambda k: (rights[k], k % n))
    end_keys = [rights[k] for k in by_end]
    bits = [1 << i for i in range(n)] * 2
    cuts = list(range(0, size, 2))
    if gap is not None:
        cuts.append(gap)

    best, best_size = 0, 0
    for cut in cuts:
        window = by_end[bisect_right(end_keys, cut):
                        bisect_right(end_keys, cut + size)]
        candidate = sum(map(bits.__getitem__,
                            _sweep(lefts, rights, window, cut - 1)))
        # the largest candidate, then the lexicographically smallest
        # sorted index tuple: the lowest differing index is the candidate's
        count = candidate.bit_count()
        diff = candidate ^ best
        if count > best_size or (count == best_size and candidate & diff & -diff):
            # Arcs meeting exactly at the cut point lose that adjacency
            # when unrolled, so re-check feasibility on the circular graph.
            if _kernels.two_color(masks, candidate)[1] is None:
                best, best_size = candidate, count

    best = _kernels.mask_to_indices(best)
    graph = _graph_over(instance, best)
    return certify(graph, Solution(best, is_bipartite(graph, best)))
