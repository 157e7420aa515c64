"""Shifting-technique PTAS for unit disks and unit squares.

A height-k slab (k in units of one object diameter) is solved exactly:
partition the slab into diameter-wide boxes, enumerate per box every
2-colorable subset together with its proper colorings, and connect
color-compatible choices of consecutive boxes in a vertex-weighted DAG
whose maximum-weight s-t path is an optimal bipartite set for the slab.
Boxes two or more apart cannot interact, so those edges are implicit.  A
box of b <= ``box_cap`` objects costs 2^b subsets, each colored on the
graph's neighbor bitmasks.

The full solver builds the scene's intersection graph once, shifts a grid
of slab boundaries over k offsets, drops the objects crossing a boundary,
solves each slab as a list of scene indices over that one graph, and keeps
the best offset; each object is dropped for exactly one offset, which
yields the (1 - 1/k) guarantee.  Weighted objects only change the vertex
weights.
"""
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import _kernels
from .errors import CapacityError, ValidationError
from .model import (
    UNIT_DISKS,
    UNIT_SQUARES,
    GeometricInstance,
    Solution,
    _frac,
    build_intersection_graph,
    certify,
    is_bipartite,  # unused here, but perfbench/tracing.py patches ptas.is_bipartite
)

DEFAULT_BOX_CAP = 16


def _half_extent(instance) -> Fraction:
    """Half the object diameter of a nonempty disk or square scene, read
    without touching the objects: the solver's graph build validates them."""
    if not instance.objects:
        raise ValidationError("instance has no objects")
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
        return [1] * instance.n
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


def _color_classes(masks, subset, boundary):
    """All proper 2-colorings of the subgraph induced by ``subset``, each as
    its two color classes (bitmasks); [] when it is not 2-colorable.

    Every component starts with its smallest vertex colored 0.  Components
    without a vertex in ``boundary`` (objects that can touch a neighboring
    box) keep that one coloring: their colors never influence edge
    compatibility, so enumerating both orientations would only blow up the
    DAG.  The others, in smallest-vertex order, are flipped in turn, the
    earliest varying slowest.
    """
    mask = 0
    for v in subset:
        mask |= 1 << v
    color, _ = _kernels.two_color(masks, mask)
    if color is None:
        return []
    sides = [0, 0]
    for v, c in color.items():
        sides[c] |= 1 << v
    out = [tuple(sides)]
    rem = mask if mask & boundary else 0
    while rem:
        comp = frontier = rem & -rem
        while frontier:
            v = frontier & -frontier
            frontier ^= v
            new = masks[v.bit_length() - 1] & rem & ~comp
            comp |= new
            frontier |= new
        rem &= ~comp
        if comp & boundary:
            out = [x for c0, c1 in out for x in ((c0, c1), (c0 ^ comp, c1 ^ comp))]
    return out


def _neighbors(masks, mask):
    out = 0
    while mask:
        v = mask & -mask
        mask ^= v
        out |= masks[v.bit_length() - 1]
    return out


def _slab_dag(graph, centers, members, bottom, k, d, box_cap) -> SlabDag:
    """The slab DAG of the objects ``members`` (ascending scene indices of
    ``graph``), which must lie in the slab of height k*d starting at
    ``bottom``; its feasible sets and colorings hold scene indices."""
    h = d / 2
    top = bottom + k * d
    for i in members:
        cy = centers[i][1]
        if cy - h < bottom or cy + h > top:
            raise ValidationError(f"object {i} crosses the slab boundary")

    masks = graph.masks
    a = min(centers[i][0] for i in members)
    boxes = {}
    for i in members:
        boxes.setdefault(int((centers[i][0] - a) // d), []).append(i)

    vertices, classes, by_box = [], [], {}
    for b in sorted(boxes):
        in_box = boxes[b]
        if len(in_box) > box_cap:
            raise CapacityError(
                f"box with {len(in_box)} objects exceeds cap {box_cap}"
            )
        near = 0
        for j in boxes.get(b - 1, []) + boxes.get(b + 1, []):
            near |= 1 << j
        boundary = 0
        for i in in_box:
            if masks[i] & near:
                boundary |= 1 << i
        ids = by_box[b] = []
        for size in range(len(in_box) + 1):
            for subset in combinations(in_box, size):
                for c0, c1 in _color_classes(masks, subset, boundary):
                    ids.append(len(vertices))
                    classes.append((c0, c1))
                    vertices.append(ColoredFeasibleSet(
                        b, subset, {v: c1 >> v & 1 for v in subset}))

    # u and v in consecutive boxes are compatible iff no edge joins
    # same-colored objects: neither class of v meets the neighbors of u's
    # class of the same color
    step_edges = {}
    for b, ids in by_box.items():
        if b + 1 not in by_box:
            continue
        nxt = [(v, *classes[v]) for v in by_box[b + 1]]
        for u in ids:
            n0, n1 = (_neighbors(masks, c) for c in classes[u])
            step_edges[u] = [v for v, c0, c1 in nxt if not (n0 & c0 or n1 & c1)]
    return SlabDag(vertices, step_edges)


def _scene_slab_dag(instance, k, slab_bottom, box_cap):
    """(graph, slab DAG) of a scene that is one slab, validated once."""
    h = _half_extent(instance)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(
            f"slab height multiplier k must be an int >= 1, got {k!r}")
    graph = build_intersection_graph(instance)
    centers = _centers(instance)
    bottom = (min(cy for _, cy in centers) - h if slab_bottom is None
              else _frac(slab_bottom))
    return graph, _slab_dag(graph, centers, range(instance.n), bottom, k,
                            2 * h, box_cap)


def build_slab_dag(
    instance: GeometricInstance,
    k: int,
    slab_bottom=None,
    box_cap: int = DEFAULT_BOX_CAP,
) -> SlabDag:
    """Enumerate colored feasible sets per box and their step edges.

    The whole scene is one slab of height k diameters starting at
    ``slab_bottom`` (by default the lowest object's bottom); the slab is the
    index list ``range(n)`` over the scene's intersection graph.  A box of
    b <= ``box_cap`` objects costs 2^b subsets.
    """
    return _scene_slab_dag(instance, k, slab_bottom, box_cap)[1]


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
    far_best, far_v = 0, None  # best over boxes <= current - 2
    box_best = []  # (box, best vertex, value) per processed box
    for b in boxes:
        while box_best and b - box_best[0][0] >= 2:
            _, cand_v, cand = box_best.pop(0)
            if cand > far_best:
                far_best, far_v = cand, cand_v
        cur_best_v, cur_best = None, -1
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
        return 0, []
    end = max(best, key=lambda v: (best[v], -v))
    if best[end] <= 0:
        return 0, []
    path = []
    v = end
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return best[end], path


def _slab(dag, wts):
    """Best path of a slab DAG, as (selected, coloring) in scene indices."""
    _, path = _best_path(dag, lambda idxs: sum(wts[i] for i in idxs))
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
    graph, dag = _scene_slab_dag(instance, k, slab_bottom, box_cap)
    selected, coloring = _slab(dag, wts)
    return certify(graph, Solution(tuple(selected), coloring))


def _grid_drop_offset(cy, h, d, y0, k):
    """Offset index for which this object crosses a slab boundary.

    A slab owns its bottom boundary line, so an object whose extent starts
    exactly on a line still fits; the unique grid line y0 + m*d inside
    (cy-h, cy+h] is the one whose offset drops the object.  Kept objects of
    different slabs are then strictly separated vertically.
    """
    return (cy + h - y0) // d % k


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
    """(1 - 1/k)-approximate maximum-weight bipartite subset, k = ceil(1/eps).

    One intersection graph serves every offset: each slab is the list of
    its objects' scene indices over that graph, and a box of
    b <= ``box_cap`` objects costs 2^b subsets.
    """
    epsilon = _frac(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    h = _half_extent(instance)
    graph = build_intersection_graph(instance)
    wts = _check_weights(instance, weights)
    k = math.ceil(1 / epsilon)
    d = 2 * h
    centers = _centers(instance)
    y0 = min(cy for _, cy in centers) - h

    # (grid cell, dropping offset) of every object
    cells = [(int((cy - y0) // d), _grid_drop_offset(cy, h, d, y0, k))
             for _, cy in centers]

    best = None
    for s in range(k):
        slabs = {}
        for i, (cell, drop_s) in enumerate(cells):
            if drop_s != s:
                slabs.setdefault((cell - s) // k, []).append(i)
        selected = []
        coloring = {}
        for t, members in sorted(slabs.items()):
            dag = _slab_dag(graph, centers, members, y0 + (s + t * k) * d, k,
                            d, box_cap)
            sel, col = _slab(dag, wts)
            selected += sel
            coloring.update(col)
        total = sum(wts[v] for v in selected)
        if best is None or total > best[0]:
            best = (total, selected, coloring)
    return certify(graph, Solution(tuple(best[1]), best[2]))
