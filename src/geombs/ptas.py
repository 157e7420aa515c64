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

The full solver builds the scene's intersection graph once, shifts a grid
of slab boundaries over k offsets, drops the objects crossing a boundary,
solves each slab as a list of scene indices over that one graph, and keeps
the best offset; each object is dropped for exactly one offset, which
yields the (1 - 1/k) guarantee.  Weighted objects only change the vertex
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
    build_intersection_graph,
    certify,
    is_bipartite,  # unused here, but perfbench/tracing.py patches ptas.is_bipartite
)

_BOX_SUBSETS = 1 << 16  # the most subsets a 16-object box can have


def _half_extent(instance) -> Fraction:
    """Half the object diameter of a nonempty disk or square scene, read
    without touching the objects: the solver's graph build validates them."""
    _expect(instance, UNIT_DISKS, UNIT_SQUARES)
    return instance.disk_radius if instance.kind == UNIT_DISKS else Fraction(1, 2)


def _units(instance, h):
    """(xs, ys, lowest anchor y): each object's position in diameters, ys
    above the lowest, as int pairs (numerator, positive denominator), read
    at an anchor, the centre moved by one fixed vector (a disk's centre, a
    square's lower-left corner), with no Fraction arithmetic."""
    if instance.kind == UNIT_DISKS:
        anchors = [(o.center.x, o.center.y) for o in instance.objects]
    else:
        anchors = [(o.x_min, o.y_min) for o in instance.objects]
    hn, hd = h.as_integer_ratio()  # a diameter is 2 hn / hd
    lo = min((y for _, y in anchors), key=_key)
    ln, ld = lo.as_integer_ratio()
    xs, ys = [], []
    for x, y in anchors:
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        xs.append((xn * hd, 2 * xd * hn))
        ys.append(((yn * ld - ln * yd) * hd, 2 * yd * ld * hn))
    return xs, ys, lo


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


def _slab_dag(graph, xs, members):
    """The boxes of the objects ``members`` (ascending scene indices of
    ``graph``, all inside one slab) by their x positions ``xs``, as
    ascending (box, subsets) pairs: the box's 2-colorable subsets in
    ``itertools.combinations`` order, as (bitmask, its ``_colorings``).
    Vertex ids count the (subset, coloring) pairs in this order.  A box
    with more than ``_BOX_SUBSETS`` subsets raises ``CapacityError``."""
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
    out = []
    for b in sorted(boxes):
        in_box = boxes[b]
        subsets = _kernels.bipartite_subsets(masks, bits[b], _BOX_SUBSETS)
        if subsets is None:
            raise CapacityError(
                f"box {b} of {len(in_box)} objects has more than "
                f"{_BOX_SUBSETS} 2-colorable subsets")
        near = bits.get(b - 1, 0) | bits.get(b + 1, 0)
        boundary = sum(1 << i for i in in_box if masks[i] & near)
        out.append((b, [(sel, _colorings(comps, boundary))
                        for sel, comps in subsets]))
    return out


def _scene_slab_dag(instance, k, slab_bottom):
    """(graph, slab boxes) of a scene that is one slab, validated once."""
    h = _half_extent(instance)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(
            f"slab height multiplier k must be an int >= 1, got {k!r}")
    graph = build_intersection_graph(instance)
    xs, ys, lo = _units(instance, h)
    # every bottom must lie in [b, b + k - 1], in diameters above the lowest
    lift = h if instance.kind == UNIT_DISKS else 0  # anchor above bottom
    bn, bd = (0, 1) if slab_bottom is None else (
        (_frac(slab_bottom) + lift - lo) / (2 * h)).as_integer_ratio()
    for i, (n, m) in enumerate(ys):
        if n * bd < bn * m or n * bd > (bn + (k - 1) * bd) * m:
            raise ValidationError(f"object {i} crosses the slab boundary")
    return graph, _slab_dag(graph, xs, range(instance.n))


def build_slab_dag(instance: GeometricInstance, k: int, slab_bottom=None):
    """The boxes of a scene that is one slab, as the slab DP reads them:
    ascending (box, subsets) pairs, each subset a (bitmask of scene indices,
    its colorings), each coloring a tuple of bitmasks (class 0, class 1,
    their neighborhoods), as ``_slab_dag`` returns them.

    The slab is k diameters high from ``slab_bottom`` (by default the lowest
    object's bottom).  Not exported: the name stays for
    ``perfbench/tracing.py``, which traces it.
    """
    return _scene_slab_dag(instance, k, slab_bottom)[1]


def _slab(boxes, wts):
    """Maximum-weight path through ``_slab_dag``'s boxes, as (selected,
    coloring) in scene indices.  A vertex adds its subset's weight to the
    running best over boxes two or more back (always compatible), unless
    the previous box's first compatible vertex of largest best beats it.
    The path ends at the largest best, smallest vertex id."""
    best, links = [], []  # per vertex id: best, (parent, subset, class 1)
    far_best, far_v = 0, None  # best over boxes <= current - 2
    tops, ranked = [], []  # (box, best, top vertex); box b - 1's, best first
    for b, subsets in boxes:
        while tops and b - tops[0][0] >= 2:
            _, top_best, top = tops.pop(0)
            if top_best > far_best:
                far_best, far_v = top_best, top
        ranked = ranked if tops else []  # tops holds box b - 1 alone
        weight, box = {0: 0}, []
        for sel, colorings in subsets:
            low = sel & -sel  # sel less low is a smaller subset, seen before
            w = weight[sel] = (weight[sel ^ low] + wts[low.bit_length() - 1]
                               if sel else 0)
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

    end = best.index(max(best))
    v, path = (end if best[end] > 0 else None), []
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
    graph, boxes = _scene_slab_dag(instance, k, slab_bottom)
    selected, coloring = _slab(boxes, wts)
    return certify(graph, Solution(tuple(selected), coloring))


def solve_ptas(instance: GeometricInstance, epsilon) -> Solution:
    return solve_ptas_weighted(instance, None, epsilon)


def solve_ptas_weighted(instance: GeometricInstance, weights, epsilon) -> Solution:
    """(1 - 1/k)-approximate maximum-weight bipartite subset, k = ceil(1/eps).

    One intersection graph serves every offset: each slab is the list of
    its objects' scene indices over that graph, and a box costs one join
    per 2-colorable subset.
    """
    en, ed = _frac(epsilon).as_integer_ratio()
    if en <= 0:
        raise ValidationError("epsilon must be positive")
    h = _half_extent(instance)
    graph = build_intersection_graph(instance)
    wts = _check_weights(instance, weights)
    k = -(-ed // en)  # ceil(1 / epsilon)
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
            sel, col = _slab(_slab_dag(graph, xs, members), wts)
            selected += sel
            coloring.update(col)
        total = sum(wts[v] for v in selected)
        if best is None or total > best[0]:
            best = (total, selected, coloring)
    return certify(graph, Solution(tuple(best[1]), best[2]))
