"""Arbitrary unit-disk scenes.

``solve_3approx`` stabs the scene with horizontal lines spaced one radius
apart, assigns each disk to the highest line at or below its center (a
one-sided instance per line), solves each group exactly, and keeps the best
of the three unions over line-index residues mod 3.  Groups three or more
lines apart have center gap above one diameter, so each union is a valid
bipartite set and the best one is within factor 3 of the optimum.

``solve_logn`` recursively splits at the median center x-coordinate; the
middle band is stabbed by the median vertical line and handled by the
two-sided 2-approximation, giving a max(1, 2 log2 n) factor overall.

Both read the centers' ``model._offsets`` as int pairs (the line index
floor((y - base) / r) of ``model._bands``, the band's |x - x_med| <= r) and
sort exact ``_key``s; no line is computed (the line of group t is
base + t r, base the lowest center y).
"""
from .diskline import (
    _chain,
    _two_sided,
    _x_order,
    solve_one_sided,  # unused here, but perfbench/tracing.py patches diskgeneral.solve_one_sided
    solve_two_sided,  # unused here, but perfbench/tracing.py patches diskgeneral.solve_two_sided
)
from .model import (
    UNIT_DISKS,
    GeometricInstance,
    Solution,
    _bands,
    _expect,
    _key,
    _offsets,
    build_intersection_graph,
    certify,
    is_bipartite,
)


def solve_3approx(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT / 3."""
    _expect(instance, UNIT_DISKS)
    graph = build_intersection_graph(instance)
    ys = [d.center.y for d in instance.objects]
    per_group = {
        t: _chain(graph, _x_order(instance, indices))
        for t, indices in _bands(ys, instance.disk_radius).items()
    }

    # groups of one residue are pairwise non-adjacent, so each union is
    # bipartite and colouring it colours every group as on its own
    candidates = [
        sorted(v for t, sel in per_group.items() if t % 3 == residue for v in sel)
        for residue in range(3)
    ]
    # the union over every group is a free upgrade whenever it happens to
    # stay bipartite (e.g. sparse scenes); it never weakens the guarantee
    everything = sorted(v for sel in per_group.values() for v in sel)
    if is_bipartite(graph, everything) is not None:
        candidates.append(everything)

    best = max(candidates, key=len)
    return certify(graph, Solution(tuple(best), is_bipartite(graph, best)))


def solve_logn(instance: GeometricInstance) -> Solution:
    """Divide-and-conquer bipartite subset, factor max(1, 2 log2 n)."""
    _expect(instance, UNIT_DISKS)
    graph = build_intersection_graph(instance)
    objs, r = instance.objects, instance.disk_radius

    def rec(indices):
        """``indices`` in (x, index) order, as ``left`` and ``right`` keep."""
        if len(indices) <= 2:
            return list(indices), {v: c for c, v in enumerate(indices)}
        x_med = objs[indices[(len(indices) - 1) // 2]].center.x
        left, mid, right, east = [], [], [], set()
        xs = [objs[i].center.x for i in indices]
        for i, (p, q) in zip(indices, _offsets(xs, x_med, r)):
            if abs(p) > q:  # |x - x_med| > r
                (left if p < 0 else right).append(i)
            else:
                mid.append(i)
                if p >= 0:
                    east.add(i)
        # the median vertical line stabs the band: its sides are the disks
        # right and left of it, each in y order (ties keep mid's order)
        by_y = sorted(mid, key=lambda i: _key(objs[i].center.y))
        b_med = _two_sided(
            graph,
            [i for i in by_y if i in east],
            [i for i in by_y if i not in east],
        )
        sel_l, col_l = rec(left)
        sel_r, col_r = rec(right)
        # taking all three parts together is a free upgrade whenever the
        # combined set happens to stay bipartite (e.g. sparse scenes)
        combined = sorted(set(b_med[0]) | set(sel_l) | set(sel_r))
        combined_col = is_bipartite(graph, combined)
        if combined_col is not None:
            return combined, combined_col
        if len(b_med[0]) >= len(sel_l) + len(sel_r):
            return b_med
        col_l.update(col_r)
        return sel_l + sel_r, col_l

    # a scene of at most two disks keeps index order, as its colours do
    order = _x_order(instance, range(instance.n))
    selected, coloring = rec(order if instance.n > 2 else sorted(order))
    return certify(graph, Solution(tuple(selected), coloring))
