"""Exact greedy sweep for the maximum bipartite subset of intervals.

The sweep keeps two markers: ``x``, the rightmost point covered twice by the
current selection, and ``y``, the rightmost point it covers at all.
Scanning by increasing right endpoint, an interval is taken when it starts
beyond ``y`` (disjoint from the frontier) or beyond ``x`` (it may stack
once, never twice).  No point is then covered three times, so the selection
induces a forest.  The certificate is checked on the graph of the selection
alone, built by the same x-extent sweep as ``build_intersection_graph``:
O(n log n + k log k) in all for k selected intervals, with no all-pairs
graph of the scene.

Intersection is closed, so shared endpoints need no tie-breaking: a left
endpoint equal to a marker touches the interval that set it.  The sort and
the sweep compare the exact ``(float(v), v)`` endpoint keys, on which floats
decide all but float ties.  Right endpoints of equal value are visited by
increasing index, and shared endpoints are valid input.

Two sweeps write this rule once each: ``_sweep`` over one index list, for
``solve_intervals`` and ``rects.solve_unit_height``, and ``_window_sweeps``
over windows sliding along one presorted list, as the arc solver's cuts
do, sharing the steps on which consecutive windows agree.  The test
``test_window_sweeps_match_one_sweep_per_window`` holds each window's mask
equal to ``_sweep`` run on that window alone.
"""
from .model import (
    INTERVALS,
    GeometricInstance,
    Solution,
    _expect,
    _graph_over,
    _key,
    build_intersection_graph,  # unused here, but perfbench/tracing.py patches intervals.build_intersection_graph
    certify,
    is_bipartite,
)


def _sweep(lefts, rights, order, floor=None):
    """Indices the sweep selects, visiting ``order`` by increasing right
    endpoint; ``lefts``/``rights`` map each index to its exact endpoint keys.
    Both markers start at ``floor``, so no interval starting at or before a
    given ``floor`` is taken.

    Endpoint ties follow closed semantics, as in ``_window_sweeps``: an
    interval is disjoint from the frontier only if it starts strictly
    beyond ``y``, and may stack only if it starts strictly beyond ``x``.
    """
    selected = []
    x = y = floor
    for i in order:
        left = lefts[i]
        if y is None or left > y:
            selected.append(i)
            y = rights[i]
        elif x is None or x < left:  # here left <= y: it overlaps the frontier
            selected.append(i)
            x = y
            y = rights[i]
    return selected


def _window_sweeps(steps, windows):
    """For each window ``(start, stop, floor)`` in turn, the bitmask of the
    sweep of ``steps[start:stop]`` from markers at ``floor``.  A step is an
    entry ``(left, right, bit)`` in sweep order; no bit occurs twice in one
    window.  Starts and stops never decrease, so the windows slide along
    one list and share one sweep, with the tie rule of ``_sweep``.

    The state after a step is the marker pair ``(x, y)``, kept per step
    with the step's pick for the latest window that reached it; past the
    last window's stop ``hi`` no state is kept and every pick is 0.  The
    sweep from a state on is fixed, so once a window's state equals the
    kept one at the same step, it keeps the kept steps up to ``hi`` and
    sweeps on from there to its stop.  Its mask is the last one XORed with
    the entries that left and the picks that changed or were added."""
    xs, ys, picks = [None] * len(steps), [None] * len(steps), [0] * len(steps)
    mask = lo = hi = 0  # the last window's mask and extent
    for start, stop, floor in windows:
        for j in range(lo, start):
            mask ^= picks[j]
        lo = start
        x = y = floor
        j = start
        while j < stop:
            left, right, bit = steps[j]
            if left > y:
                y = right
            elif x < left:
                x, y = y, right
            else:
                bit = 0
            if bit != picks[j]:
                mask ^= bit ^ picks[j]
                picks[j] = bit
            if x == xs[j] and y == ys[j]:
                # the kept steps up to hi are this window's too
                j, x, y = hi, xs[hi - 1], ys[hi - 1]
            else:
                xs[j], ys[j] = x, y
                j += 1
        hi = stop
        yield mask


def solve_intervals(instance: GeometricInstance, perturb: bool = False) -> Solution:
    """Optimal maximum bipartite subset of an interval scene, in
    O(n log n + k log k) for k selected intervals: a sort and a linear
    sweep, then a certificate on the graph of the selection alone.

    Shared endpoint values are valid input.  ``perturb`` does nothing; it is
    kept only for callers that still pass it."""
    _expect(instance, INTERVALS)
    lefts = [_key(o.left) for o in instance.objects]
    rights = [_key(o.right) for o in instance.objects]
    selected = _sweep(lefts, rights, sorted(range(instance.n), key=rights.__getitem__))

    # the greedy selection induces a forest, so its graph has O(k) edges
    # and the coloring always exists
    graph = _graph_over(instance, selected)
    return certify(graph, Solution(tuple(selected), is_bipartite(graph, selected)))
