"""Near-optimal maximum bipartite subset of circular arcs.

For every arc endpoint p, the arcs avoiding p form an interval scene once
the circle is cut at p, and the exact interval sweep applies.  The best of
these candidate solutions is within one vertex of the optimum.  When some
point of the circle is uncovered the whole scene is already an interval
scene, so one extra cut there makes that case exact.
"""
from fractions import Fraction

from .errors import ValidationError
from .intervals import (
    _sweep,
    solve_intervals,  # unused here, but perfbench/tracing.py patches arcs.solve_intervals
)
from .model import (
    ARCS,
    GeometricInstance,
    Solution,
    build_intersection_graph,
    certify,
    is_bipartite,
    validate_instance,
)


def _uncovered_point(instance):
    """A point of the circle covered by no arc, or None."""
    points = sorted({a.start for a in instance.objects}
                    | {a.end for a in instance.objects})
    mids = []
    for p, q in zip(points, points[1:]):
        mids.append((p + q) / 2)
    mids.append((points[-1] + points[0] + 1) / 2 % 1)
    for m in mids:
        if not any(a.contains(m) for a in instance.objects):
            return m
    return None


def _cut_candidates(instance):
    cuts = set()
    for a in instance.objects:
        cuts.add(a.start)
        cuts.add(a.end)
    extra = _uncovered_point(instance)
    if extra is not None:
        cuts.add(extra)
    return sorted(cuts)


def _linearize(instance, cut):
    """Perturbed interval endpoint keys, by arc index, of the arcs not
    wrapping across the cut point.

    An arc whose boundary endpoint coincides with the cut still unrolls to
    a valid interval; only arcs with the cut strictly inside are dropped.
    The keys are those of ``solve_intervals(perturb=True)`` on the
    surviving arcs in index order: the arc at position p unrolls to
    ``(lo, -(p+1))`` and ``(hi, p+1)``.
    """
    lefts, rights = {}, {}
    for i, arc in enumerate(instance.objects):
        touches = cut in (arc.start, arc.end)
        if arc.contains(cut) and not touches:
            continue
        lo = (arc.start - cut) % 1
        hi = (arc.end - cut) % 1
        if hi == 0:
            hi = Fraction(1)
        p = len(lefts) + 1
        lefts[i] = (lo, -p)
        rights[i] = (hi, p)
    return lefts, rights


def solve_arcs(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT - 1, in O(n^2 log n + n*m) for
    m edges: O(n) cuts, each an O(n log n) sweep and an O(n + m) check."""
    if instance.kind != ARCS:
        raise ValidationError(f"expected an arcs scene, got {instance.kind}")
    validate_instance(instance, require_nonempty=True)

    graph = build_intersection_graph(instance)
    best: tuple = ()
    for cut in _cut_candidates(instance):
        lefts, rights = _linearize(instance, cut)
        if not lefts:
            continue
        order = sorted(rights, key=rights.__getitem__)
        candidate = tuple(sorted(_sweep(lefts, rights, order)))
        # Arcs meeting exactly at the cut point lose that adjacency when
        # unrolled, so re-check feasibility against the circular graph.
        if is_bipartite(graph, candidate) is None:
            continue
        if len(candidate) > len(best) or (
            len(candidate) == len(best) and candidate < best
        ):
            best = candidate

    return certify(graph, Solution(best, is_bipartite(graph, best)))
