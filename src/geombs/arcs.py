"""Near-optimal maximum bipartite subset of circular arcs.

For every arc endpoint p, the arcs avoiding p form an interval scene once
the circle is cut at p, and the exact interval sweep applies.  The best of
these candidate solutions is within one vertex of the optimum.  When some
point of the circle is uncovered the whole scene is already an interval
scene, so one extra cut there makes that case exact.

The cuts run on integer positions: the D distinct endpoint values are
ranked once, value v sits at position 2·rank(v) on a circle of 2D
positions, and the odd positions are the gaps between consecutive values.
Ranking preserves every order and tie, so each cut makes the same
comparisons as one made on the exact angles.
"""
from bisect import bisect_right

from . import _kernels
from .errors import ValidationError
from .intervals import (
    _sweep,
    solve_intervals,  # unused here, but perfbench/tracing.py patches arcs.solve_intervals
)
from .model import (
    ARCS,
    GeometricInstance,
    Solution,
    _graph_over,
    build_intersection_graph,  # unused here, but perfbench/tracing.py patches arcs.build_intersection_graph
    certify,
    is_bipartite,
    validate_instance,
)


def _positions(instance):
    """``(starts, ends, size)``: each arc's endpoint positions on a circle of
    ``size`` = 2D positions, D being the number of distinct endpoint values."""
    n = instance.n
    angles = ([a.start for a in instance.objects]
              + [a.end for a in instance.objects])
    positions = [0] * (2 * n)
    size, last = 0, None
    for j in sorted(range(2 * n), key=angles.__getitem__):
        if angles[j] != last:
            last = angles[j]
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
    an O(n) sweep and an O(n + m) check on n-bit masks; plus a certificate
    on the graph of the selection alone."""
    if instance.kind != ARCS:
        raise ValidationError(f"expected an arcs scene, got {instance.kind}")
    validate_instance(instance, require_nonempty=True)

    starts, ends, size = _positions(instance)
    covering, began, gap = _coverage(starts, ends, size)
    masks = _adjacency(starts, ends, covering, began)
    # every arc by (end position, index); a cut at c rotates it to the
    # sweep's order by right endpoint: ends after c, then ends up to c
    by_end = sorted(range(len(ends)), key=ends.__getitem__)
    end_keys = [ends[i] for i in by_end]
    cuts = list(range(0, size, 2))
    if gap is not None:
        cuts.append(gap)

    best, best_size = 0, 0
    for cut in cuts:
        # unrolled at the cut, an arc runs from lo to hi, hi = 0 read as
        # size; it survives iff lo < hi, so only arcs with the cut strictly
        # inside are dropped
        lo = [(s - cut) % size for s in starts]
        hi = [(e - cut) % size or size for e in ends]
        k = bisect_right(end_keys, cut)
        order = [i for i in by_end[k:] + by_end[:k] if lo[i] < hi[i]]
        candidate = sum(1 << i for i in _sweep(lo, hi, order))
        # Arcs meeting exactly at the cut point lose that adjacency when
        # unrolled, so re-check feasibility against the circular graph.
        if _kernels.two_color(masks, candidate)[1] is not None:
            continue
        # the largest candidate, then the lexicographically smallest
        # sorted index tuple: the lowest differing index is the candidate's
        count = candidate.bit_count()
        diff = candidate ^ best
        if count > best_size or (count == best_size and candidate & diff & -diff):
            best, best_size = candidate, count

    best = _kernels.mask_to_indices(best)
    graph = _graph_over(instance, best)
    return certify(graph, Solution(best, is_bipartite(graph, best)))
