"""Near-optimal maximum bipartite subset of circular arcs.

For every arc endpoint p, the arcs avoiding p form an interval scene once
the circle is cut at p, and the exact interval sweep applies.  The best of
these candidate solutions is within one vertex of the optimum.  When some
point of the circle is uncovered the whole scene is already an interval
scene, so one extra cut there makes that case exact.

The cuts run on the integer positions of ``model._positions``, the ranks
of the distinct endpoint angles, which keep every order and tie of the
exact angles.  The circle is unrolled once to twice its positions, so a cut
is a window of one list presorted by right endpoint, and consecutive cuts
slide along it.  They share one sweep (``intervals._window_sweeps``, which
``test_shared_sweep_matches_one_sweep_per_cut`` holds equal to
``intervals._sweep`` run on each cut alone): a cut sweeps from its window's
start only until its markers equal the last cut's at the same step, on
generated scenes a few dozen steps, and then only past the last cut's
window.  That is O(n^2) steps at worst, as for one sweep per cut; generated
scenes take about 29n, 52n and 99n in all at n = 120, 500 and 2,000.

Arcs meeting exactly at a cut lose that adjacency when unrolled, and no
other edge is lost.  So a candidate is re-checked on the circular graph
only when it would replace the best so far and holds both an arc starting
at the cut and one ending there; the gap cut never is.  That graph is
``build_intersection_graph``'s, built on the solve's first re-check, so
scenes with distinct endpoints (all generated ones) never build it.
"""
from itertools import accumulate

from . import _kernels
from .intervals import (
    _window_sweeps,
    solve_intervals,  # unused here, but perfbench/tracing.py patches arcs.solve_intervals
)
from .model import (
    ARCS,
    GeometricInstance,
    Solution,
    _expect,
    _graph_over,
    _positions,
    build_intersection_graph,
    certify,
    is_bipartite,
)


def _unrolled(starts, ends, size):
    """The circle unrolled once to 2·size positions, and its cuts, as
    ``(steps, windows, dropped, gap)``.  Arc i runs from s to e' (e + size
    if it wraps) and its copy from s + size to e' + size; ``steps`` holds
    the 2n entries ``(left, right, 1 << i)`` by right endpoint, then arc
    index.

    Cut at position c, the circle is the window (c, c + size]: the entries
    ending there, each arc at most once.  Those starting before c hold the
    cut strictly inside and are dropped, as the sweep's floor is c - 1.
    ``gap`` is the first position x such that no arc covers the open
    stretch of circle from x to the next position, or None if the arcs
    cover the circle, found by a running count of the arcs open past each
    position.  The gap cut is cut ``gap``'s window with floor ``gap``, as
    nothing starts or ends inside the gap.  ``windows`` holds the
    ``(start, stop, floor)`` of every cut's run of ``steps``, in cut order,
    so starts and stops never decrease.  Unrolled, a cut's window loses
    only the edges between an arc starting at the cut and one ending
    there; ``dropped`` holds the masks of those two sets, per cut, and the
    gap cut loses none."""
    ranked = []
    starting, ending = [0] * size, [0] * size
    open_ = 0  # open arcs, first those through 0 that do not start there
    for i, (s, e) in enumerate(zip(starts, ends)):
        bit = 1 << i
        starting[s] |= bit
        ending[e] |= bit
        if s > e:
            open_ += 1
            e += size
        ranked += (e, i, s, bit), (e + size, i, s + size, bit)
    ranked.sort()
    gap = None
    for x in range(size):
        open_ += starting[x].bit_count() - ending[x].bit_count()
        if not open_:
            gap = x
            break
    steps = [(s, e, bit) for e, _, s, bit in ranked]
    # below[r]: the number of entries ending at or before r
    below = [0] * (2 * size)
    for e, _, _, _ in ranked:
        if e < 2 * size:
            below[e] += 1
    below = list(accumulate(below))
    windows = list(zip(below, below[size:], range(-1, size - 1)))
    dropped = list(zip(starting, ending))
    if gap is not None:
        windows.insert(gap + 1, (below[gap], below[gap + size], gap))
        dropped.insert(gap + 1, (0, 0))
    return steps, windows, dropped, gap


def solve_arcs(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT - 1, in O(n^2) at worst: O(n)
    cuts sharing one sweep, each sweeping from its window's start until it
    meets the last cut's sweep; an O(n + m) check on n-bit masks of each
    candidate that would replace the best so far and holds two arcs meeting
    at its cut; and a certificate on the graph of the k selected arcs alone,
    O(k log k) plus O(k) mask operations."""
    _expect(instance, ARCS)

    starts, ends, size = _positions(instance.objects)
    steps, windows, dropped, _ = _unrolled(starts, ends, size)

    best, best_size, masks = 0, 0, None
    sweeps = _window_sweeps(steps, windows)
    for (starting, ending), candidate in zip(dropped, sweeps):
        # the largest candidate, then the lexicographically smallest
        # sorted index tuple: the lowest differing index is the candidate's
        count = candidate.bit_count()
        diff = candidate ^ best
        if count > best_size or (count == best_size and candidate & diff & -diff):
            # only two arcs meeting at the cut can close an odd cycle that
            # the unrolled sweep did not see
            if candidate & starting and candidate & ending:
                if masks is None:
                    masks = build_intersection_graph(instance).masks
                if _kernels.two_color(masks, candidate)[1] is not None:
                    continue
            best, best_size = candidate, count

    best = _kernels.mask_to_indices(best)
    graph = _graph_over(instance, best)
    return certify(graph, Solution(best, is_bipartite(graph, best)))
