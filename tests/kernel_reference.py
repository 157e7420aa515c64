"""Brute-force references for tests: small, slow and obviously right.

Graphs are neighbor bitmasks as in ``geombs._kernels``.  Every subset
function here scans all subsets, so keep n at about a dozen or less.  The
interval, unit-height and arc references sweep symbolically perturbed
endpoint keys, on which no comparison ties; the arc reference cuts the
circle in exact ``Fraction`` angles.  The slab DAG reference colours every
triangle-free box subset by pairwise adjacency tests on a slab's own scene
(a 2-colourable set holds no triangle); the slab path reference searches
that reference DAG's own explicit step edges, reversed per vertex, so
neither depends on the library's compact boxes.  The chain reference is a
triple-table DP over triangle-free x-ordered chains, O(n^4): an independent
derivation of the size and the lexicographically first position list that
``_kernels.chain_mbs`` returns on one-sided masks.
"""
import math
from fractions import Fraction
from itertools import combinations

from geombs import UNIT_DISKS, _kernels, build_intersection_graph, is_bipartite


def _indices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def two_colorable(masks, subset):
    """True iff the subgraph induced by ``subset`` has a proper 2-coloring
    (breadth-first layering over pairwise adjacency tests)."""
    color = {}
    for root in subset:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            for v in subset:
                if masks[u] >> v & 1:
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
    return True


def _feasible(masks, subset, mode):
    if mode == _kernels.MODE_INDEPENDENT:
        return not any(masks[u] >> v & 1 for u, v in combinations(subset, 2))
    if mode == _kernels.MODE_TRIANGLE_FREE:
        return not any(_triangle(masks, *t) for t in combinations(subset, 3))
    return two_colorable(masks, subset)


def brute_max_subset(masks, mode):
    """(size, mask) of the largest feasible subset; ties go to the subset
    whose sorted index tuple is lexicographically smallest."""
    best = (0, ())
    for mask in range(1, 1 << len(masks)):
        subset = _indices(mask)
        if (-len(subset), subset) < (-best[0], best[1]) and \
                _feasible(masks, subset, mode):
            best = (len(subset), subset)
    return best[0], sum(1 << v for v in best[1])


def _triangle(masks, a, b, c):
    return masks[a] >> b & 1 and masks[a] >> c & 1 and masks[b] >> c & 1


def reference_chain_mbs(masks):
    """Max triangle-free chain DP over x-ordered adjacency masks.

    Implements the three-case B[i,j,k] recurrence (0 on triangles; 3 when no
    extension exists; else 1 + best extension) and returns
    (size, selected index list) where size is 0 if no K3-free triple exists.
    The table holds one entry per triple i < j < k and each scans every
    extension l > k: O(n^4) time and O(n^3) space.
    """
    n = len(masks)
    if n < 3:
        return 0, []

    def tri(a, b, c):
        return (
            masks[a] >> b & 1 and masks[a] >> c & 1 and masks[b] >> c & 1
        )

    B = {}
    nxt = {}
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if tri(i, j, k):
                    B[i, j, k] = 0
                    continue
                best, best_l = 3, None
                for l in range(k + 1, n):
                    if tri(i, j, l) or tri(i, k, l) or tri(j, k, l):
                        continue
                    v = 1 + B[j, k, l]
                    if v > best:
                        best, best_l = v, l
                B[i, j, k] = best
                nxt[i, j, k] = best_l

    best, start = 0, None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if B[i, j, k] > best:
                    best, start = B[i, j, k], (i, j, k)
    if start is None:
        return 0, []
    i, j, k = start
    chain = [i, j, k]
    while nxt.get((i, j, k)) is not None:
        l = nxt[i, j, k]
        chain.append(l)
        i, j, k = j, k, l
    return best, chain


def has_induced_cycle_at_least(masks, min_len):
    """True iff some induced subgraph is a cycle of length >= min_len."""
    n = len(masks)
    for mask in range(1, 1 << n):
        if bin(mask).count("1") < min_len:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if bin(masks[v] & mask).count("1") != 2:
                ok = False
                break
        if not ok:
            continue
        # connectivity
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nf = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nf |= masks[v] & mask
            nf &= ~seen
            seen |= nf
            frontier = nf
        if seen == mask:
            return True
    return False


def _sweep(lefts, rights, order):
    """The interval sweep on symbolically perturbed endpoint keys: interval
    i runs from ``(left, -(i+1))`` to ``(right, i+1)``, so every key is
    distinct and no comparison ties.  ``order`` lists indices by increasing
    right key."""
    selected = []
    x = y = None
    for i in order:
        left = lefts[i]
        if y is None or left > y:
            selected.append(i)
            y = rights[i]
        elif (x is None or x < left) and left < y:
            selected.append(i)
            x = y
            y = rights[i]
    return selected


def _perturbed(spans):
    """Perturbed ``(lefts, rights)`` keys of ``(left, right)`` pairs."""
    return ([(lo, -(i + 1)) for i, (lo, _) in enumerate(spans)],
            [(hi, i + 1) for i, (_, hi) in enumerate(spans)])


def reference_intervals(instance):
    """``(selected, coloring)`` of ``solve_intervals``: the
    sweep over perturbed keys, coloured on the scene's whole graph."""
    lefts, rights = _perturbed([(o.left, o.right) for o in instance.objects])
    order = sorted(range(instance.n), key=rights.__getitem__)
    selected = tuple(sorted(_sweep(lefts, rights, order)))
    return selected, is_bipartite(build_intersection_graph(instance), selected)


def reference_unit_height(instance):
    """``(selected, coloring)`` of ``solve_unit_height``: the rectangles are
    banded by ``floor(y_min - min y_min)``, each band is swept on perturbed
    x-projection keys, and the larger union of one band parity wins, the
    even one on a tie."""
    lefts, rights = _perturbed([(o.x_min, o.x_max) for o in instance.objects])
    low = min(o.y_min for o in instance.objects)
    bands = {}
    for i, o in enumerate(instance.objects):
        bands.setdefault(math.floor(o.y_min - low), []).append(i)
    unions = [[], []]
    for band, members in bands.items():
        order = sorted(members, key=rights.__getitem__)
        unions[band % 2] += _sweep(lefts, rights, order)
    best = tuple(sorted(unions[1] if len(unions[1]) > len(unions[0])
                        else unions[0]))
    return best, is_bipartite(build_intersection_graph(instance), best)


def _uncovered_point(instance):
    """The midpoint of the first gap between consecutive endpoint angles
    (the wrap-around gap last) that no arc covers, or None."""
    points = sorted({a.start for a in instance.objects}
                    | {a.end for a in instance.objects})
    mids = [(p + q) / 2 for p, q in zip(points, points[1:])]
    mids.append((points[-1] + points[0] + 1) / 2 % 1)
    for m in mids:
        if not any(a.contains(m) for a in instance.objects):
            return m
    return None


def _cut_candidates(instance):
    cuts = {a.start for a in instance.objects} | {a.end for a in instance.objects}
    extra = _uncovered_point(instance)
    if extra is not None:
        cuts.add(extra)
    return sorted(cuts)


def _linearize(instance, cut):
    """Perturbed interval keys, by arc index, of the arcs
    not wrapping across ``cut``: the surviving arc at position p unrolls to
    ``(lo, -(p+1))`` and ``(hi, p+1)``.  ``solve_arcs`` numbers arcs by
    index instead, so a match shows that the numbering decides nothing."""
    lefts, rights = {}, {}
    for i, arc in enumerate(instance.objects):
        if arc.contains(cut) and cut not in (arc.start, arc.end):
            continue
        lo = (arc.start - cut) % 1
        hi = (arc.end - cut) % 1 or Fraction(1)
        p = len(lefts) + 1
        lefts[i] = (lo, -p)
        rights[i] = (hi, p)
    return lefts, rights


def reference_arcs(instance):
    """``(selected, coloring)`` of the cut-and-sweep arc solver, cut by cut
    in exact angles: the largest candidate that is bipartite on the circular
    graph, ties to the lexicographically smallest index tuple."""
    graph = build_intersection_graph(instance)
    best = ()
    for cut in _cut_candidates(instance):
        lefts, rights = _linearize(instance, cut)
        order = sorted(rights, key=rights.__getitem__)
        candidate = tuple(sorted(_sweep(lefts, rights, order)))
        if is_bipartite(graph, candidate) is None:
            continue
        if (-len(candidate), candidate) < (-len(best), best):
            best = candidate
    return best, is_bipartite(graph, best)


def _proper_colorings(graph, indices, boundary):
    """All proper 2-colorings of the subgraph induced by ``indices``, one
    per component unless the component meets ``boundary``, then both
    orientations; [] when it is not 2-colorable."""
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


def _triangle_free_subsets(graph, members):
    """The subsets of the ascending list ``members`` that hold no triangle,
    in ``itertools.combinations`` order: grown depth-first by ascending
    members, never by one that closes a triangle, then stably sorted by
    size.  Every subset of a triangle-free set is triangle-free, so the
    growth misses none."""
    found = []

    def grow(subset, start):
        found.append(subset)
        for pos in range(start, len(members)):
            v = members[pos]
            near = [u for u in subset if graph.adjacent(u, v)]
            if not any(graph.adjacent(u, w) for u, w in combinations(near, 2)):
                grow(subset + (v,), pos + 1)

    grow((), 0)
    return sorted(found, key=len)


def reference_slab_dag(instance):
    """``(vertices, step_edges)`` of the slab DAG of a scene that is one
    slab, built on its own graph: vertices are ``(box, indices, coloring)``
    in the order ``geombs.ptas`` numbers them, and an edge joins boxes b and
    b + 1 iff no adjacent pair across them shares a colour."""
    graph = build_intersection_graph(instance)
    if instance.kind == UNIT_DISKS:
        d = 2 * instance.disk_radius
        xs = [o.center.x for o in instance.objects]
    else:
        d = 1
        xs = [(o.x_min + o.x_max) / 2 for o in instance.objects]
    boxes = {}
    for i, x in enumerate(xs):
        boxes.setdefault(int((x - min(xs)) // d), []).append(i)
    vertices, by_box = [], {}
    for b in sorted(boxes):
        near = boxes.get(b - 1, []) + boxes.get(b + 1, [])
        boundary = {i for i in boxes[b]
                    if any(graph.adjacent(i, j) for j in near)}
        by_box[b] = []
        for subset in _triangle_free_subsets(graph, boxes[b]):
            for coloring in _proper_colorings(graph, subset, boundary):
                by_box[b].append(len(vertices))
                vertices.append((b, subset, coloring))
    step_edges = {}
    for b in sorted(boxes):
        if b + 1 not in boxes:
            continue
        for u in by_box[b]:
            _, iu, cu = vertices[u]
            step_edges[u] = [
                v for v in by_box[b + 1]
                if not any(graph.adjacent(i, j) and cu[i] == vertices[v][2][j]
                           for i in iu for j in vertices[v][1])]
    return vertices, step_edges


def reference_slab_path(vertices, step_edges, wts):
    """Maximum-weight path of ``reference_slab_dag``'s ``(vertices,
    step_edges)`` respecting box order, as (selected, coloring) in its
    indices, each subset's colours in its ascending order, with ``wts``
    indexed by them.

    Vertices two or more boxes back are always reachable (implicit edges),
    so a running best over all boxes <= current - 2 replaces them.  A
    vertex's parent is its first in-neighbour with the largest best if that
    strictly beats the running best; the path ends at the largest best,
    smallest vertex id.
    """
    by_box = {}
    for v, (box, _, _) in enumerate(vertices):
        by_box.setdefault(box, []).append(v)

    in_step = {}
    for u, outs in step_edges.items():
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
            w = sum(wts[i] for i in vertices[v][1])
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
        path.append(vertices[v])
        v = parent[v]
    path.reverse()
    return ([i for _, subset, _ in path for i in subset],
            {i: coloring[i] for _, subset, coloring in path for i in subset})
