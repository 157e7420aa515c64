"""Near-optimal maximum bipartite subset of circular arcs.

For every arc endpoint p, the arcs avoiding p form an interval scene once
the circle is cut at p, and the exact interval sweep applies.  The best of
these candidate solutions is within one vertex of the optimum.  When some
point of the circle is uncovered the whole scene is already an interval
scene, so one extra cut there makes that case exact.

The cuts run on integer positions: the D distinct endpoint values are
ranked once, value v sits at position 2·rank(v) on a circle of 2D
positions, and the odd positions are the gaps between consecutive values.
Ranking, on exact ``_key``s, preserves every order and tie, so each cut
makes the same comparisons as one made on the exact angles.  The circle is
unrolled once to 4D positions, so a cut is a window of one list presorted
by right endpoint.  Arcs meeting exactly at a cut lose that adjacency when
unrolled, so a candidate is re-checked on the circular graph, but only when
it would replace the best so far.
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
    _expect,
    _graph_over,
    _key,
    build_intersection_graph,  # unused here, but perfbench/tracing.py patches arcs.build_intersection_graph
    certify,
    is_bipartite,
    validate_instance,
)


def _positions(instance):
    """``(starts, ends, size)``: each arc's endpoint positions on a circle of
    ``size`` = 2D positions, D being the number of distinct endpoint values."""
    n = instance.n
    keys = ([_key(a.start) for a in instance.objects]
            + [_key(a.end) for a in instance.objects])
    positions = [0] * (2 * n)
    size, last = 0, None
    for j in sorted(range(2 * n), key=keys.__getitem__):
        if keys[j] != last:
            last = keys[j]
            size += 2
        positions[j] = size - 2
    return positions[:n], positions[n:], size


def _coverage(starts, ends, size):
    """One pass over the positions: ``(covering, began, gap)``.

    ``covering[x]`` is the bitmask of the arcs containing position x and
    ``began[x]`` that of the arcs starting at or before x.  ``gap`` is the
    first odd position that no arc covers, or None if the arcs cover the
    circle.
    """
    at_start, at_end = [0] * size, [0] * size
    wrapping = 0  # arcs through position 0 that do not start there
    for i, (s, e) in enumerate(zip(starts, ends)):
        at_start[s] |= 1 << i
        at_end[e] |= 1 << i
        if s > e:
            wrapping |= 1 << i
    covering, began = [], []
    current, b, gap = wrapping, 0, None
    for x in range(size):
        current |= at_start[x]
        covering.append(current)
        current &= ~at_end[x]
        if gap is None and not current:
            gap = x + 1  # x is even, as nothing starts or ends at odd x
        b |= at_start[x]
        began.append(b)
    return covering, began, gap


def _adjacency(starts, ends, covering, began):
    """Neighbour bitmasks of the arcs, from their positions and the masks of
    ``_coverage``, in O(n) operations on n-bit masks.

    Arc b meets arc a iff b covers a's start or starts in the circular range
    (s(a), e(a)]: an arc that meets a but misses its start cannot enter a
    from outside, so it starts inside.
    """
    masks = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        inside = (began[e] & ~began[s] if s < e
                  else began[e] | began[-1] & ~began[s])
        masks.append((covering[s] | inside) & ~(1 << i))
    return masks


def solve_arcs(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT - 1, in O(n^2): O(n) cuts, each
    an O(n) sweep, and an O(n + m) check on n-bit masks of each candidate
    that would replace the best so far; plus a certificate on the graph of
    the selection alone."""
    _expect(instance, ARCS)
    validate_instance(instance)

    starts, ends, size = _positions(instance)
    covering, began, gap = _coverage(starts, ends, size)
    masks = _adjacency(starts, ends, covering, began)
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
