"""Shifting-technique PTAS for unit disks and unit squares.

A height-k slab (k in units of one object diameter) is solved exactly:
partition the slab into diameter-wide boxes, list per box every
2-colorable subset together with its proper colorings, and connect
color-compatible choices of consecutive boxes in a vertex-weighted DAG
whose maximum-weight s-t path is an optimal bipartite set for the slab.
Boxes two or more apart cannot interact, so those edges are implicit.  A
box's subsets come from ``_kernels.bipartite_subsets`` at one component
join each: a box holds O(k) cells of pairwise-intersecting objects, at most
2 per cell in a bipartite set, so b objects give b^O(k) subsets, not 2^b
(Hochbaum & Maass, JACM 1985).

The full solver builds the scene's intersection graph once, shifts a grid
of slab boundaries over k offsets, drops the objects crossing a boundary,
solves each slab as a list of scene indices over that one graph, and keeps
the best offset; each object is dropped for exactly one offset, which
yields the (1 - 1/k) guarantee.  Weighted objects only change the vertex
weights.  Geometry and weight sums are exact int arithmetic.
"""
import math
from dataclasses import dataclass, field
from fractions import Fraction

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


def _units(instance, h):
    """(xs, ys, lowest bottom): each object's position in diameters above
    the lowest, per axis, as int pairs (numerator, positive denominator).

    Positions are read at an anchor, the centre moved by one fixed vector (a
    disk's centre, a square's lower-left corner): no Fraction arithmetic.
    """
    if instance.kind == UNIT_DISKS:
        anchors, lift = [(o.center.x, o.center.y) for o in instance.objects], h
    else:
        anchors, lift = [(o.x_min, o.y_min) for o in instance.objects], 0
    dn, dd = (2 * h).numerator, (2 * h).denominator
    axes = []
    for values in zip(*anchors):
        lo = min(values)
        ln, ld = lo.numerator, lo.denominator
        axes.append([((v.numerator * ld - ln * v.denominator) * dd,
                      v.denominator * ld * dn) for v in values])
    return axes[0], axes[1], lo - lift  # lo: the lowest anchor y


def _check_weights(instance, weights):
    """The weights as ints in their given ratios (scaled by the lcm of the
    denominators)."""
    if weights is None:
        return [1] * instance.n
    if len(weights) != instance.n:
        raise ValidationError("one weight per object required")
    out = [_frac(w) for w in weights]
    if any(w.numerator < 0 for w in out):
        raise ValidationError("weights must be nonnegative")
    scale = math.lcm(*(w.denominator for w in out))
    return [w.numerator * (scale // w.denominator) for w in out]


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


def _colorings(comps, boundary):
    """The proper 2-colorings of a set from its ``_kernels.bipartite_join``
    components, each as bitmasks (class 0, class 1, their neighborhoods).

    Every component's smallest vertex is colored 0.  Components without a
    vertex in ``boundary`` (objects that can touch a neighboring box) keep
    that one coloring: their colors never influence edge compatibility, so
    enumerating both orientations would only blow up the DAG.  The others,
    in smallest-vertex order, are flipped in turn, the earliest varying
    slowest.
    """
    c0 = c1 = n0 = n1 = 0
    flips = []
    for a, b, na, nb in comps:
        if (a | b) & -(a | b) & b:  # the smallest vertex goes to class 0
            a, b, na, nb = b, a, nb, na
        if (a | b) & boundary:
            flips.append((a & -a, a, b, na, nb))
        else:
            c0, c1, n0, n1 = c0 | a, c1 | b, n0 | na, n1 | nb
    out = [(c0, c1, n0, n1)]
    for _, a, b, na, nb in sorted(flips):
        out = [x for c0, c1, n0, n1 in out
               for x in ((c0 | a, c1 | b, n0 | na, n1 | nb),
                         (c0 | b, c1 | a, n0 | nb, n1 | na))]
    return out


def _slab_dag(graph, xs, members, box_cap) -> SlabDag:
    """The slab DAG of the objects ``members`` (ascending scene indices of
    ``graph``, all inside one slab), boxed by their x positions ``xs`` (as
    ``_units`` gives them); its feasible sets and colorings hold scene
    indices."""
    an, am = xs[members[0]]
    for i in members:
        n, m = xs[i]
        if n * am < an * m:
            an, am = n, m
    boxes = {}
    for i in members:
        n, m = xs[i]
        boxes.setdefault((n * am - an * m) // (m * am), []).append(i)

    masks = graph.masks
    bits = {b: sum(1 << i for i in in_box) for b, in_box in boxes.items()}
    vertices, classes, by_box = [], [], {}
    for b in sorted(boxes):
        in_box = boxes[b]
        if len(in_box) > box_cap:
            raise CapacityError(
                f"box with {len(in_box)} objects exceeds cap {box_cap}")
        near = bits.get(b - 1, 0) | bits.get(b + 1, 0)
        boundary = sum(1 << i for i in in_box if masks[i] & near)
        ids = by_box[b] = []
        for sel, comps in _kernels.bipartite_subsets(masks, bits[b]):
            subset = _kernels.mask_to_indices(sel)
            for cls in _colorings(comps, boundary):
                ids.append(len(vertices))
                classes.append(cls)
                vertices.append(ColoredFeasibleSet(
                    b, subset, {v: cls[1] >> v & 1 for v in subset}))

    # u and v in consecutive boxes are compatible iff no edge joins
    # same-colored objects: neither class of v meets the neighbors of u's
    # class of the same color
    step_edges = {}
    for b, ids in by_box.items():
        if b + 1 not in by_box:
            continue
        nxt = [(v, *classes[v][:2]) for v in by_box[b + 1]]
        for u in ids:
            n0, n1 = classes[u][2:]
            step_edges[u] = [v for v, c0, c1 in nxt if not (n0 & c0 or n1 & c1)]
    return SlabDag(vertices, step_edges)


def _scene_slab_dag(instance, k, slab_bottom, box_cap):
    """(graph, slab DAG) of a scene that is one slab, validated once."""
    h = _half_extent(instance)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(
            f"slab height multiplier k must be an int >= 1, got {k!r}")
    graph = build_intersection_graph(instance)
    xs, ys, lowest = _units(instance, h)
    # every bottom must lie in [b, b + k - 1], in diameters above the lowest
    b = Fraction(0) if slab_bottom is None else (_frac(slab_bottom) - lowest) / (2 * h)
    bn, bd = b.numerator, b.denominator
    for i, (n, m) in enumerate(ys):
        if n * bd < bn * m or n * bd > (bn + (k - 1) * bd) * m:
            raise ValidationError(f"object {i} crosses the slab boundary")
    return graph, _slab_dag(graph, xs, range(instance.n), box_cap)


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
    b <= ``box_cap`` objects costs one join per 2-colorable subset.
    """
    return _scene_slab_dag(instance, k, slab_bottom, box_cap)[1]


def _slab(dag, wts):
    """Maximum-weight path of a slab DAG respecting box order, as
    (selected, coloring) in scene indices.

    Vertices two or more boxes back are always reachable (implicit edges),
    so a running best over all boxes <= current - 2 replaces them.
    """
    by_box = {}
    for v, cfs in enumerate(dag.vertices):
        by_box.setdefault(cfs.box, []).append(v)

    in_step = {}
    for u, outs in dag.step_edges.items():
        for v in outs:
            in_step.setdefault(v, []).append(u)

    best, parent = {}, {}
    far_best, far_v = 0, None  # best over boxes <= current - 2
    tops = []  # (box, its first best vertex) per processed box
    for b in sorted(by_box):
        while tops and b - tops[0][0] >= 2:
            top = tops.pop(0)[1]
            if best[top] > far_best:
                far_best, far_v = best[top], top
        for v in by_box[b]:
            w = sum(wts[i] for i in dag.vertices[v].indices)
            best[v] = w + far_best
            parent[v] = far_v
            for u in in_step.get(v, ()):
                if best[u] + w > best[v]:
                    best[v] = best[u] + w
                    parent[v] = u
        tops.append((b, max(by_box[b], key=best.__getitem__)))

    path = []
    end = max(best, key=lambda v: (best[v], -v))
    v = end if best[end] > 0 else None
    while v is not None:
        path.append(dag.vertices[v])
        v = parent[v]
    path.reverse()
    return ([i for cfs in path for i in cfs.indices],
            {i: c for cfs in path for i, c in cfs.coloring.items()})


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
    b <= ``box_cap`` objects costs one join per 2-colorable subset.
    """
    epsilon = _frac(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    h = _half_extent(instance)
    graph = build_intersection_graph(instance)
    wts = _check_weights(instance, weights)
    k = math.ceil(1 / epsilon)
    xs, ys, _ = _units(instance, h)

    # Grid line j lies j diameters above the lowest bottom, and an object
    # spans [z, z + 1].  A slab owns its bottom line, so the offset of the
    # line floor(z) + 1 in (z, z + 1] drops the object, and kept objects of
    # different slabs are strictly separated.  Its centre's cell is
    # floor(z + 1/2).
    cells = [((2 * n + m) // (2 * m), (n // m + 1) % k) for n, m in ys]

    best = None
    for s in range(k):
        slabs = {}
        for i, (cell, drop_s) in enumerate(cells):
            if drop_s != s:
                slabs.setdefault((cell - s) // k, []).append(i)
        selected, coloring = [], {}
        for t, members in sorted(slabs.items()):
            dag = _slab_dag(graph, xs, members, box_cap)
            sel, col = _slab(dag, wts)
            selected += sel
            coloring.update(col)
        total = sum(wts[v] for v in selected)
        if best is None or total > best[0]:
            best = (total, selected, coloring)
    return certify(graph, Solution(tuple(best[1]), best[2]))
