"""2-approximation for unit-height rectangles.

Rectangles are grouped by ``floor(y_min - a)`` with ``a`` the global
minimum; every group is stabbed by one horizontal line, so within a group
the intersection graph is the interval graph of the x-projections and the
interval sweep solves it exactly.  Groups of equal parity are vertically
disjoint, so each parity class unions its per-group optima into one
bipartite set; the larger class has at least half the optimum.
"""
from .errors import ValidationError
from .intervals import solve_intervals
from .model import (
    INTERVALS,
    UNIT_HEIGHT_RECTS,
    GeometricInstance,
    IntervalObj,
    Solution,
    validate_instance,
)


def group_rects(instance: GeometricInstance) -> dict:
    """Group index -> rectangle indices, by unit bands above the lowest y_min."""
    a = min(o.y_min for o in instance.objects)
    groups = {}
    for i, o in enumerate(instance.objects):
        groups.setdefault(int((o.y_min - a) // 1), []).append(i)
    return groups


def solve_unit_height(instance: GeometricInstance) -> Solution:
    """Best parity class of per-group interval optima.

    Uncertified: building the full graph for ``certify`` costs several
    times the solve; each group's sweep is certified on its own graph.
    """
    if instance.kind != UNIT_HEIGHT_RECTS:
        raise ValidationError(
            f"expected a unit_height_rects scene, got {instance.kind}"
        )
    validate_instance(instance, require_nonempty=True)

    per_group = {}
    for g, indices in group_rects(instance).items():
        sub = GeometricInstance(
            INTERVALS,
            tuple(IntervalObj(instance.objects[i].x_min,
                              instance.objects[i].x_max) for i in indices),
        )
        sol = solve_intervals(sub, perturb=True)
        per_group[g] = (
            [indices[j] for j in sol.selected],
            {indices[j]: c for j, c in sol.coloring.items()},
        )

    best = None
    for parity in (0, 1):
        selected = []
        coloring = {}
        for g, (sel, col) in per_group.items():
            if g % 2 != parity:
                continue
            selected.extend(sel)
            coloring.update(col)
        if best is None or len(selected) > len(best[0]):
            best = (selected, coloring)
    return Solution(tuple(best[0]), best[1])
