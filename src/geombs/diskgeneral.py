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

Both read the centers as cross-multiplied ints (the line index
floor((y - base) / r), the band's |x - x_med| <= r) and sort exact
``_key``s; no line is computed (the line of group t is base + t r).
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
    _expect,
    _key,
    build_intersection_graph,
    certify,
    is_bipartite,
)


def _groups(group):
    """Line index -> the ascending indices of the disks assigned to it."""
    out = {}
    for i, t in enumerate(group):
        out.setdefault(t, []).append(i)
    return out


def _line_groups(instance):
    """``(base, group)`` of a valid scene: the lowest center y and, per
    disk, the line index floor((y - base) / r), on cross-multiplied ints."""
    r = instance.disk_radius
    rn, rd = r._numerator, r._denominator
    base = min((d.center.y for d in instance.objects), key=_key)
    bn, bd = base._numerator, base._denominator
    group = []
    for d in instance.objects:
        y = d.center.y
        yd = y._denominator
        # (y - base) / r = (y - base) * yd * bd * rd / (yd * bd * rn)
        group.append((y._numerator * bd - bn * yd) * rd // (yd * bd * rn))
    return base, tuple(group)


def solve_3approx(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT / 3."""
    _expect(instance, UNIT_DISKS)
    graph = build_intersection_graph(instance)
    _, group = _line_groups(instance)
    per_group = {
        t: _chain(graph, _x_order(instance, indices))
        for t, indices in _groups(group).items()
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
    objs = instance.objects
    r = instance.disk_radius
    rn, rd = r._numerator, r._denominator
    x_keys = [(_key(d.center.x), i) for i, d in enumerate(objs)]

    def rec(indices):
        if len(indices) <= 2:
            return list(indices), {v: c for c, v in enumerate(indices)}
        order = sorted(indices, key=x_keys.__getitem__)
        x_med = objs[order[(len(order) - 1) // 2]].center.x
        mn, md = x_med._numerator, x_med._denominator
        left, mid, right, east = [], [], [], set()
        for i in order:
            x = objs[i].center.x
            xd = x._denominator
            dx = x._numerator * md - mn * xd  # (x - x_med) * xd * md
            if abs(dx) * rd > rn * xd * md:  # |x - x_med| > r
                (left if dx < 0 else right).append(i)
            else:
                mid.append(i)
                if dx >= 0:
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

    selected, coloring = rec(list(range(instance.n)))
    return certify(graph, Solution(tuple(selected), coloring))
