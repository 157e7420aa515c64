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
"""
from dataclasses import dataclass
from fractions import Fraction

from .diskline import _require_disks, solve_one_sided, solve_two_sided
from .model import (
    UNIT_DISKS,
    DiskObj,
    GeometricInstance,
    Point,
    Solution,
    build_intersection_graph,
    certify,
    is_bipartite,
)


@dataclass(frozen=True)
class SlabAssignment:
    """Stabbing lines spaced one radius apart and the disk -> line map."""

    lines: tuple
    group: tuple

    def groups(self):
        out = {}
        for i, t in enumerate(self.group):
            out.setdefault(t, []).append(i)
        return out


def assign_slabs(instance: GeometricInstance) -> SlabAssignment:
    _require_disks(instance)
    r = instance.disk_radius
    base = min(d.center.y for d in instance.objects)
    group = []
    for d in instance.objects:
        t = (d.center.y - base) // r
        group.append(int(t))
    top = max(group)
    lines = tuple(base + t * r for t in range(top + 1))
    return SlabAssignment(lines, tuple(group))


def _subinstance(instance, indices):
    objs = tuple(instance.objects[i] for i in indices)
    return GeometricInstance(UNIT_DISKS, objs, instance.disk_radius)


def solve_3approx(instance: GeometricInstance) -> Solution:
    """Bipartite subset of size at least OPT / 3."""
    assignment = assign_slabs(instance)
    per_group = {}
    for t, indices in assignment.groups().items():
        sub = _subinstance(instance, indices)
        sol = solve_one_sided(sub, line_y=assignment.lines[t])
        per_group[t] = (
            [indices[j] for j in sol.selected],
            {indices[j]: c for j, c in sol.coloring.items()},
        )

    candidates = []
    for residue in range(3):
        selected = []
        coloring = {}
        for t, (sel, col) in per_group.items():
            if t % 3 != residue:
                continue
            selected.extend(sel)
            coloring.update(col)
        candidates.append((selected, coloring))
    # the union over every group is a free upgrade whenever it happens to
    # stay bipartite (e.g. sparse scenes); it never weakens the guarantee
    everything = sorted(i for sel, _ in per_group.values() for i in sel)
    graph = build_intersection_graph(instance)
    full_coloring = is_bipartite(graph, everything)
    if full_coloring is not None:
        candidates.append((everything, full_coloring))

    best = max(candidates, key=lambda c: len(c[0]))
    return certify(graph, Solution(tuple(best[0]), best[1]))


def _swap_xy(instance, indices):
    objs = tuple(
        DiskObj(Point(instance.objects[i].center.y, instance.objects[i].center.x))
        for i in indices
    )
    return GeometricInstance(UNIT_DISKS, objs, instance.disk_radius)


def solve_logn(instance: GeometricInstance) -> Solution:
    """Divide-and-conquer bipartite subset, factor max(1, 2 log2 n)."""
    _require_disks(instance)
    r = instance.disk_radius
    graph = build_intersection_graph(instance)

    def rec(indices):
        if len(indices) <= 2:
            return list(indices), {v: c for c, v in enumerate(indices)}
        order = sorted(indices, key=lambda i: (instance.objects[i].center.x, i))
        med = order[(len(order) - 1) // 2]
        x_med = instance.objects[med].center.x
        left, mid, right = [], [], []
        for i in order:
            dx = instance.objects[i].center.x - x_med
            if dx < -r:
                left.append(i)
            elif dx > r:
                right.append(i)
            else:
                mid.append(i)
        sub = _swap_xy(instance, mid)
        sol = solve_two_sided(sub, line_y=x_med)
        b_med = ([mid[j] for j in sol.selected],
                 {mid[j]: c for j, c in sol.coloring.items()})
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
