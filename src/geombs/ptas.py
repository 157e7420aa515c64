"""Shifting-technique PTAS for unit disks and unit squares.

A height-k slab (k in units of one object diameter) is solved exactly:
partition the slab into diameter-wide boxes and list per box every
2-colorable subset with its proper colorings, one vertex each.  Vertices of
consecutive boxes combine iff no edge across them joins same-colored
objects; boxes two or more apart never interact.  One DP pass over the
boxes finds a maximum-weight path, an optimal bipartite set for the slab,
testing step edges as it goes, never storing them, and turns only the
chosen path into scene indices.  A box's subsets come from
``_kernels.bipartite_subsets`` at one component join each: a box holds O(k)
cells of pairwise-intersecting objects, at most 2 per cell in a bipartite
set, so b objects give b^O(k) subsets, not 2^b (Hochbaum & Maass, JACM 1985).
A box with more than 2^16 such subsets, the most a 16-object box can have,
raises ``CapacityError`` (exit 4 on the command line) after listing
2^16 + 1 of them, so no box costs more than a 16-object one.

A box none of whose objects meets an object of box b - 1 or b + 1 enters
the DP as one vertex, its heaviest subset (the first listed on a tie) with
its one coloring: every vertex of such a box is compatible with every
vertex of both neighbors, so the DP would read no other.  A lone such
object is listed without a search: itself if its weight is positive,
otherwise the empty set.

The full solver builds the scene's intersection graph once, shifts a grid
of slab boundaries over k offsets, drops the objects crossing a boundary,
and keeps the best offset; each object is dropped for exactly one offset,
which yields the (1 - 1/k) guarantee.  An offset's slabs are lists of scene
indices over that one graph, and one DP pass runs over all their boxes in
slab order, each slab's box numbers starting two past the previous slab's
last: objects of different slabs never meet, so the running best carries
across a slab border as across a gap inside one slab, and the path is the
slabs' optimal paths joined.  Weighted objects only change the vertex
weights.  Geometry and weight sums are exact int arithmetic.
"""
import math
from fractions import Fraction
from operator import itemgetter

from . import _kernels
from .errors import CapacityError, ValidationError
from .model import (
    UNIT_DISKS,
    UNIT_SQUARES,
    GeometricInstance,
    Solution,
    _expect,
    _frac,
    _key,
    _offsets,
    build_intersection_graph,
    certify,
    is_bipartite,  # unused here, but perfbench/tracing.py patches ptas.is_bipartite
)

_BOX_SUBSETS = 1 << 16  # the most subsets a 16-object box can have


def _half_extent(instance) -> Fraction:
    """Half the object diameter of a nonempty disk or square scene."""
    _expect(instance, UNIT_DISKS, UNIT_SQUARES)
    return instance.disk_radius if instance.kind == UNIT_DISKS else Fraction(1, 2)


def _units(instance, h):
    """(xs, ys, lowest anchor y): each object's ``_offsets`` in half extents
    h, ys above the lowest, read at an anchor, the centre moved by one fixed
    vector (a disk's centre, a square's lower-left corner)."""
    objs = instance.objects
    if instance.kind == UNIT_DISKS:
        xs, ys = [o.center.x for o in objs], [o.center.y for o in objs]
    else:
        xs, ys = [o.x_min for o in objs], [o.y_min for o in objs]
    lo = min(ys, key=_key)
    return _offsets(xs, 0, h), _offsets(ys, lo, h), lo


def _check_weights(instance, weights):
    """The weights as ints in their given ratios (scaled by the lcm of the
    denominators)."""
    if weights is None:
        return [1] * instance.n
    if len(weights) != instance.n:
        raise ValidationError("one weight per object required")
    out = _offsets([_frac(w) for w in weights], 0, 1)
    if any(p < 0 for p, _ in out):
        raise ValidationError("weights must be nonnegative")
    scale = math.lcm(*(q for _, q in out))
    return [p * (scale // q) for p, q in out]


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
    if flips:
        flips.sort()
        for _, a, b, na, nb in flips:
            out = [x for c0, c1, n0, n1 in out
                   for x in ((c0 | a, c1 | b, n0 | na, n1 | nb),
                             (c0 | b, c1 | a, n0 | nb, n1 | na))]
    return out


def _slab_dag(graph, xs, members, wts, first=0):
    """The boxes of the objects ``members`` (ascending scene indices of
    ``graph``, all inside one slab) by their x positions ``xs`` in half
    extents, two to a box, as ascending (box, subsets) pairs, the boxes
    numbered from ``first``: the box's 2-colorable subsets in
    ``itertools.combinations`` order, as (bitmask, its weight by ``wts``,
    its ``_colorings``).  Vertex ids count the (subset, coloring) pairs in
    this order.

    A box none of whose objects meets a neighboring box's lists only its
    heaviest subset, the first on a tie, and a lone such object is not
    searched at all (see the module docstring).  A box with more than
    ``_BOX_SUBSETS`` subsets raises ``CapacityError``."""
    an, am = xs[members[0]]
    for i in members:
        n, m = xs[i]
        if n * am < an * m:
            an, am = n, m
    boxes = {}  # box -> bitmask of its objects
    for i in members:
        n, m = xs[i]
        b = (n * am - an * m) // (2 * m * am)
        boxes[b] = boxes.get(b, 0) | 1 << i

    masks = graph.masks
    out = []
    for b in sorted(boxes):
        box = boxes[b]
        near = boxes.get(b - 1, 0) | boxes.get(b + 1, 0)
        boundary, rest = 0, box
        while rest:
            v = rest & -rest
            rest ^= v
            if masks[v.bit_length() - 1] & near:
                boundary |= v
        if not (boundary or box & (box - 1)):  # a lone object
            i = box.bit_length() - 1
            top = ((box, wts[i], [(box, 0, masks[i], 0)]) if wts[i]
                   else (0, 0, [(0, 0, 0, 0)]))
            out.append((first + b, [top]))
            continue
        subsets = _kernels.bipartite_subsets(masks, box, _BOX_SUBSETS)
        if subsets is None:
            raise CapacityError(
                f"box {b} of {box.bit_count()} objects has more than "
                f"{_BOX_SUBSETS} 2-colorable subsets")
        weight, ws = {0: 0}, []
        for sel, _ in subsets:
            low = sel & -sel  # sel less low is a smaller subset, seen before
            w = weight[sel] = (weight[sel ^ low] + wts[low.bit_length() - 1]
                               if sel else 0)
            ws.append(w)
        if not boundary:
            top = ws.index(max(ws))
            subsets, ws = [subsets[top]], [ws[top]]
        out.append((first + b, [(sel, w, _colorings(comps, boundary))
                                for (sel, comps), w in zip(subsets, ws)]))
    return out


def _scene_slab_dag(instance, k, slab_bottom, wts):
    """(graph, slab boxes) of a scene that is one slab."""
    h = _half_extent(instance)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(
            f"slab height multiplier k must be an int >= 1, got {k!r}")
    graph = build_intersection_graph(instance)
    xs, ys, lo = _units(instance, h)
    # every anchor must lie in [b, b + 2k - 2], in half extents above the
    # lowest; by default b = 0, the lowest anchor
    bn, bd = 0, 1
    if slab_bottom is not None:
        (bn, bd), = _offsets([_frac(slab_bottom)], lo, h)
        if instance.kind == UNIT_DISKS:
            bn += bd  # a disk's anchor, its centre, is h above its bottom
    for i, (n, m) in enumerate(ys):
        if n * bd < bn * m or n * bd > (bn + 2 * (k - 1) * bd) * m:
            raise ValidationError(f"object {i} crosses the slab boundary")
    return graph, _slab_dag(graph, xs, range(instance.n), wts)


def build_slab_dag(instance: GeometricInstance, k: int, slab_bottom=None):
    """The boxes of a scene that is one slab, as the slab DP reads them,
    under unit weights: ascending (box, subsets) pairs, each subset a
    (bitmask of scene indices, its size, its colorings), each coloring a
    tuple of bitmasks (class 0, class 1, their neighborhoods), as
    ``_slab_dag`` returns them.  A box none of whose objects meets a
    neighboring box's lists one subset, its largest, the first on a tie.

    The slab is k diameters high from ``slab_bottom`` (by default the lowest
    object's bottom).  Not exported: the name stays for
    ``perfbench/tracing.py``, which traces it.
    """
    return _scene_slab_dag(instance, k, slab_bottom, [1] * instance.n)[1]


def _slab(boxes):
    """Maximum-weight path through ``_slab_dag``'s boxes, as (selected,
    coloring) in scene indices.  A vertex adds its subset's weight to the
    running best over boxes two or more back (always compatible), unless
    the previous box's first compatible vertex of largest best beats it.
    The path ends at the largest best, smallest vertex id."""
    best, links = [], []  # per vertex id: best, (parent, subset, class 1)
    far_best, far_v = 0, None  # best over boxes <= current - 2
    tops, t = [], 0  # (box, best, top vertex) per box; tops[t:] not yet far
    ranked = []  # box b - 1's vertices, best first
    for b, subsets in boxes:
        while t < len(tops) and b - tops[t][0] >= 2:
            _, top_best, top = tops[t]
            t += 1
            if top_best > far_best:
                far_best, far_v = top_best, top
        ranked = ranked if t < len(tops) else []  # tops[t:] is box b - 1
        box = []
        for sel, w, colorings in subsets:
            for c0, c1, n0, n1 in colorings:
                value, par = far_best, far_v
                for bu, u, un0, un1 in ranked:
                    if bu <= far_best:
                        break
                    if not (un0 & c0 or un1 & c1):
                        value, par = bu, u
                        break
                box.append((value + w, len(best), n0, n1))
                best.append(value + w)
                links.append((par, sel, c1))
        box.sort(key=itemgetter(0), reverse=True)  # stable: ids ascend
        ranked = box
        tops.append((b, *box[0][:2]))

    most = max(best, default=0)
    v, path = (best.index(most) if most > 0 else None), []
    while v is not None:
        v, sel, c1 = links[v]
        path.append((sel, c1))
    pairs = [(i, c1 >> i & 1) for sel, c1 in reversed(path)
             for i in _kernels.mask_to_indices(sel)]
    return [i for i, _ in pairs], dict(pairs)


def solve_slab(
    instance: GeometricInstance,
    k: int,
    slab_bottom=None,
    weights=None,
) -> Solution:
    """Exact maximum(-weight) bipartite subset of a slab-confined scene."""
    wts = _check_weights(instance, weights)
    graph, boxes = _scene_slab_dag(instance, k, slab_bottom, wts)
    selected, coloring = _slab(boxes)
    return certify(graph, Solution(tuple(selected), coloring))


def solve_ptas(instance: GeometricInstance, epsilon) -> Solution:
    return solve_ptas_weighted(instance, None, epsilon)


def solve_ptas_weighted(instance: GeometricInstance, weights, epsilon) -> Solution:
    """(1 - 1/k)-approximate maximum-weight bipartite subset, with
    k = max(2, ceil(1/eps)) offsets, so (1 - 1/k) >= 1 - eps: at k = 1 the
    one offset would drop every object.

    One intersection graph serves every offset: each slab is the list of
    its objects' scene indices over that graph, a box costs one join per
    2-colorable subset, and one DP pass covers all of an offset's slabs.
    """
    en, ed = _frac(epsilon).as_integer_ratio()
    if en <= 0:
        raise ValidationError("epsilon must be positive")
    h = _half_extent(instance)
    graph = build_intersection_graph(instance)
    wts = _check_weights(instance, weights)
    k = max(2, -(-ed // en))  # ceil(1 / epsilon), at least two offsets
    xs, ys, _ = _units(instance, h)

    # Grid line j lies j diameters above the lowest bottom, and an object
    # spans [z, z + 1], z = n / 2m diameters.  A slab owns its bottom line,
    # so the offset of the line floor(z) + 1 in (z, z + 1] drops the
    # object, and kept objects of different slabs are strictly separated.
    # Its centre's cell is floor(z + 1/2).
    cells = [((n + m) // (2 * m), (n // (2 * m) + 1) % k) for n, m in ys]

    best = None
    for s in range(k):
        slabs = {}
        for i, (cell, drop_s) in enumerate(cells):
            if drop_s != s:
                slabs.setdefault((cell - s) // k, []).append(i)
        boxes = []
        for _, members in sorted(slabs.items()):
            boxes += _slab_dag(graph, xs, members, wts,
                               boxes[-1][0] + 2 if boxes else 0)
        selected, coloring = _slab(boxes)
        total = sum(wts[v] for v in selected)
        if best is None or total > best[0]:
            best = (total, selected, coloring)
    return certify(graph, Solution(tuple(best[1]), best[2]))
