"""Shifting-technique PTAS for unit disks and unit squares.

A height-k slab (k in units of one object diameter) is solved exactly:
partition the slab into diameter-wide boxes, enumerate per box every
2-colorable subset together with its proper colorings, and connect
color-compatible choices of consecutive boxes in a vertex-weighted DAG
whose maximum-weight s-t path is an optimal bipartite set for the slab.
Boxes two or more apart cannot interact, so those edges are implicit.

The full solver shifts a grid of slab boundaries over k offsets, drops the
objects crossing a boundary, solves each slab, and keeps the best offset;
each object is dropped for exactly one offset, which yields the
(1 - 1/k) guarantee.  Weighted objects only change the vertex weights.
"""
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import CapacityError, ValidationError
from .model import (
    UNIT_DISKS,
    UNIT_SQUARES,
    GeometricInstance,
    IntersectionGraph,
    Solution,
    _frac,
    build_intersection_graph,
    certify,
    is_bipartite,  # unused here, but perfbench/tracing.py patches ptas.is_bipartite
    validate_instance,
)

DEFAULT_BOX_CAP = 16


def _half_extent(instance) -> Fraction:
    if instance.kind == UNIT_DISKS:
        return instance.disk_radius
    if instance.kind == UNIT_SQUARES:
        return Fraction(1, 2)
    raise ValidationError(
        f"shifting solver handles unit_disks or unit_squares, got {instance.kind}"
    )


def _centers(instance):
    if instance.kind == UNIT_DISKS:
        return [(o.center.x, o.center.y) for o in instance.objects]
    return [((o.x_min + o.x_max) / 2, (o.y_min + o.y_max) / 2)
            for o in instance.objects]


def _check_weights(instance, weights):
    if weights is None:
        return [Fraction(1)] * instance.n
    if len(weights) != instance.n:
        raise ValidationError("one weight per object required")
    out = [_frac(w) for w in weights]
    if any(w < 0 for w in out):
        raise ValidationError("weights must be nonnegative")
    return out


@dataclass(frozen=True)
class ColoredFeasibleSet:
    box: int
    indices: tuple
    coloring: dict = field(hash=False)


@dataclass
class SlabDag:
    """Vertex-weighted DAG over per-box colored feasible sets.

    Edges between consecutive boxes are stored explicitly in
    ``step_edges`` (vertex id -> compatible vertex ids in the next
    nonempty box); pairs of vertices two or more boxes apart never
    interact and form implicit unconditional edges, as do the source and
    target.  All stored edges run from lower to higher box index.
    """

    vertices: list
    step_edges: dict

    def check_acyclic(self) -> bool:
        return all(
            self.vertices[u].box < self.vertices[v].box
            for u, vs in self.step_edges.items()
            for v in vs
        )


def _proper_colorings(graph, indices, boundary):
    """All proper 2-colorings of the induced subgraph.

    Components without any vertex in ``boundary`` (objects that can touch a
    neighboring box) get a single canonical coloring: their colors never
    influence edge compatibility, so enumerating both orientations would
    only blow up the DAG.  Returns [] when the subset is not 2-colorable.
    """
    indices = list(indices)
    if not indices:
        return [{}]
    comps = []
    seen = set()
    for root in indices:
        if root in seen:
            continue
        comp = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in indices:
                if v in comp or not graph.adjacent(u, v):
                    continue
                comp[v] = comp[u] ^ 1
                stack.append(v)
        for u, cu in comp.items():
            for v, cv in comp.items():
                if u != v and cu == cv and graph.adjacent(u, v):
                    return []
        seen |= comp.keys()
        comps.append(comp)
    colorings = [{}]
    for comp in comps:
        flips = (False, True) if comp.keys() & boundary else (False,)
        colorings = [
            {**base, **{v: c ^ flip for v, c in comp.items()}}
            for base in colorings
            for flip in flips
        ]
    return colorings


def build_slab_dag(
    instance: GeometricInstance,
    k: int,
    slab_bottom=None,
    box_cap: int = DEFAULT_BOX_CAP,
    graph=None,
) -> SlabDag:
    """Enumerate colored feasible sets per box and their step edges."""
    validate_instance(instance, require_nonempty=True)
    if k < 1:
        raise ValidationError("slab height multiplier k must be >= 1")
    h = _half_extent(instance)
    d = 2 * h
    centers = _centers(instance)
    bottom = (min(cy for _, cy in centers) - h if slab_bottom is None
              else _frac(slab_bottom))
    top = bottom + k * d
    for i, (_, cy) in enumerate(centers):
        if cy - h < bottom or cy + h > top:
            raise ValidationError(f"object {i} crosses the slab boundary")

    if graph is None:
        graph = build_intersection_graph(instance)
    a = min(cx for cx, _ in centers)
    boxes = {}
    for i, (cx, _) in enumerate(centers):
        boxes.setdefault(int((cx - a) // d), []).append(i)

    vertices = []
    by_box = {}
    order = sorted(boxes)
    for pos, b in enumerate(order):
        members = boxes[b]
        if len(members) > box_cap:
            raise CapacityError(
                f"box with {len(members)} objects exceeds cap {box_cap}"
            )
        neighbors = set()
        for other in (order[pos - 1] if pos else None,
                      order[pos + 1] if pos + 1 < len(order) else None):
            if other is not None and abs(other - b) == 1:
                neighbors.update(boxes[other])
        boundary = {
            i for i in members
            if any(graph.adjacent(i, j) for j in neighbors)
        }
        ids = []
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                for coloring in _proper_colorings(graph, subset, boundary):
                    ids.append(len(vertices))
                    vertices.append(ColoredFeasibleSet(b, subset, coloring))
        by_box[b] = ids

    step_edges = {}
    for pos, b in enumerate(order[:-1]):
        nb = order[pos + 1]
        if nb - b != 1:
            continue
        for u in by_box[b]:
            cu = vertices[u]
            outs = []
            for v in by_box[nb]:
                cv = vertices[v]
                ok = True
                for i in cu.indices:
                    for j in cv.indices:
                        if graph.adjacent(i, j) and \
                                cu.coloring[i] == cv.coloring[j]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    outs.append(v)
            step_edges[u] = outs
    return SlabDag(vertices, step_edges)


def _best_path(dag: SlabDag, weight_of):
    """Maximum-weight path respecting box order; returns (weight, vertices).

    Vertices two or more boxes back are always reachable (implicit edges),
    so a running best over all boxes <= current - 2 replaces them.
    """
    by_box = {}
    for v, cfs in enumerate(dag.vertices):
        by_box.setdefault(cfs.box, []).append(v)
    boxes = sorted(by_box)

    in_step = {}
    for u, outs in dag.step_edges.items():
        for v in outs:
            in_step.setdefault(v, []).append(u)

    best = {}
    parent = {}
    far_best, far_v = Fraction(0), None  # best over boxes <= current - 2
    box_best = []  # (box, best vertex, value) per processed box
    for b in boxes:
        while box_best and b - box_best[0][0] >= 2:
            _, cand_v, cand = box_best.pop(0)
            if cand > far_best:
                far_best, far_v = cand, cand_v
        cur_best_v, cur_best = None, Fraction(-1)
        for v in by_box[b]:
            w = weight_of(dag.vertices[v].indices)
            best[v] = w + far_best
            parent[v] = far_v
            for u in in_step.get(v, ()):
                if best[u] + w > best[v]:
                    best[v] = best[u] + w
                    parent[v] = u
            if best[v] > cur_best:
                cur_best_v, cur_best = v, best[v]
        box_best.append((b, cur_best_v, cur_best))

    if not best:
        return Fraction(0), []
    end = max(best, key=lambda v: (best[v], -v))
    if best[end] <= 0:
        return Fraction(0), []
    path = []
    v = end
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return best[end], path


def _slab(instance, graph, k, slab_bottom, wts, box_cap):
    """Best DAG path of a slab-confined scene with intersection graph
    ``graph``, as (selected, coloring)."""
    dag = build_slab_dag(instance, k, slab_bottom, box_cap, graph=graph)
    _, path = _best_path(
        dag, lambda idxs: sum((wts[i] for i in idxs), Fraction(0))
    )
    selected = []
    coloring = {}
    for v in path:
        cfs = dag.vertices[v]
        selected.extend(cfs.indices)
        coloring.update(cfs.coloring)
    return selected, coloring


def solve_slab(
    instance: GeometricInstance,
    k: int,
    slab_bottom=None,
    weights=None,
    box_cap: int = DEFAULT_BOX_CAP,
) -> Solution:
    """Exact maximum(-weight) bipartite subset of a slab-confined scene."""
    wts = _check_weights(instance, weights)
    graph = build_intersection_graph(instance)
    selected, coloring = _slab(instance, graph, k, slab_bottom, wts, box_cap)
    return certify(graph, Solution(tuple(selected), coloring))


def _grid_drop_offset(cy, h, d, y0, k):
    """Offset index for which this object crosses a slab boundary.

    A slab owns its bottom boundary line, so an object whose extent starts
    exactly on a line still fits; the unique grid line y0 + m*d inside
    (cy-h, cy+h] is the one whose offset drops the object.  Kept objects of
    different slabs are then strictly separated vertically.
    """
    m = (cy + h - y0) // d
    return m % k, m


def solve_ptas(
    instance: GeometricInstance,
    epsilon,
    box_cap: int = DEFAULT_BOX_CAP,
) -> Solution:
    return solve_ptas_weighted(instance, None, epsilon, box_cap)


def solve_ptas_weighted(
    instance: GeometricInstance,
    weights,
    epsilon,
    box_cap: int = DEFAULT_BOX_CAP,
) -> Solution:
    """(1 - 1/k)-approximate maximum-weight bipartite subset, k = ceil(1/eps)."""
    epsilon = _frac(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    validate_instance(instance, require_nonempty=True)
    wts = _check_weights(instance, weights)
    k = math.ceil(1 / epsilon)
    h = _half_extent(instance)
    d = 2 * h
    centers = _centers(instance)
    y0 = min(cy for _, cy in centers) - h
    graph = build_intersection_graph(instance)

    cells = [_grid_drop_offset(cy, h, d, y0, k) for _, cy in centers]

    best = None
    for s in range(k):
        slabs = {}
        for i, (drop_s, m) in enumerate(cells):
            if drop_s == s:
                continue
            cell = int((centers[i][1] - y0) // d)
            slab = (cell - s) // k
            slabs.setdefault(slab, []).append(i)
        selected = []
        coloring = {}
        total = Fraction(0)
        for t, indices in sorted(slabs.items()):
            sub = GeometricInstance(
                instance.kind,
                tuple(instance.objects[i] for i in indices),
                instance.disk_radius,
            )
            sel, col = _slab(
                sub,
                IntersectionGraph(len(indices), tuple(graph.induced_masks(indices))),
                k,
                y0 + (s + t * k) * d,
                [wts[i] for i in indices],
                box_cap,
            )
            for j in sel:
                v = indices[j]
                selected.append(v)
                coloring[v] = col[j]
                total += wts[v]
        if best is None or total > best[0]:
            best = (total, selected, coloring)
    return certify(graph, Solution(tuple(best[1]), best[2]))
