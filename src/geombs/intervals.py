"""Exact greedy sweep for the maximum bipartite subset of intervals.

The sweep keeps two markers: ``x``, the rightmost point covered twice by the
current selection, and ``y``, the rightmost point it covers at all.
Scanning by increasing right endpoint, an interval is taken when it starts
beyond ``y`` (disjoint from the frontier) or strictly between ``x`` and
``y`` (it may stack once, never twice).  No point is then covered three
times, so the selection induces a forest.  The certificate is checked on the
graph of the selection alone, built by the same x-extent sweep as
``build_intersection_graph``: O(n log n + k log k) in all for k selected
intervals, with no all-pairs graph of the scene.

Without ``perturb`` the endpoints must be pairwise distinct, and duplicates
raise ``ValidationError``.  With ``perturb=True`` duplicates are broken by a
symbolic enlargement (left endpoints nudged down, right endpoints up, by
index-ordered infinitesimals).  Enlargement can only add overlap, and any
two intervals sharing an endpoint value already intersect under closed
semantics, so the perturbation preserves the intersection graph exactly and
the optimality guarantee still refers to the input scene.
"""
from .errors import ValidationError
from .model import (
    INTERVALS,
    GeometricInstance,
    Solution,
    _graph_over,
    build_intersection_graph,  # unused here, but perfbench/tracing.py patches intervals.build_intersection_graph
    certify,
    is_bipartite,
    validate_instance,
)


def _endpoint_keys(instance, perturb):
    lefts, rights = [], []
    for i, obj in enumerate(instance.objects):
        if perturb:
            lefts.append((obj.left, -(i + 1)))
            rights.append((obj.right, i + 1))
        else:
            lefts.append((obj.left, 0))
            rights.append((obj.right, 0))
    if not perturb:
        values = [k[0] for k in lefts] + [k[0] for k in rights]
        if len(set(values)) != len(values):
            raise ValidationError(
                "duplicate interval endpoints; rerun with perturbation enabled"
            )
    return lefts, rights


def _sweep(lefts, rights, order):
    """Indices the sweep selects, visiting ``order`` by increasing right key;
    ``lefts``/``rights`` map each index to its distinct endpoint key."""
    selected = []
    x = y = None
    for i in order:
        left = lefts[i]
        if y is None or left > y:
            selected.append(i)
            y = rights[i]
        elif (x is None or x < left) and left < y:
            selected.append(i)
            x = y
            y = rights[i]
    return selected


def solve_intervals(instance: GeometricInstance, perturb: bool = False) -> Solution:
    """Optimal maximum bipartite subset of an interval scene, in
    O(n log n + k log k) for k selected intervals: a sort and a linear
    sweep, then a certificate on the graph of the selection alone."""
    if instance.kind != INTERVALS:
        raise ValidationError(f"expected an intervals scene, got {instance.kind}")
    validate_instance(instance, require_nonempty=True)
    lefts, rights = _endpoint_keys(instance, perturb)
    selected = _sweep(lefts, rights, sorted(range(instance.n), key=rights.__getitem__))

    # the greedy selection induces a forest, so its graph has O(k) edges
    # and the coloring always exists
    graph = _graph_over(instance, selected)
    return certify(graph, Solution(tuple(selected), is_bipartite(graph, selected)))
