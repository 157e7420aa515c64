"""Bitmask kernels: feasibility witnesses, the component join of a
2-colourable set, branch-and-bound subset search and the two-chain DP.

Adjacency is passed as a list of neighbor bitmasks (``masks[v] >> u & 1``
iff u and v are adjacent).  ``max_subset`` and ``bipartite_subsets`` (the
PTAS boxes) grow 2-colourable sets through one ``bipartite_join``.
"""
MODE_INDEPENDENT = 0
MODE_BIPARTITE = 1
MODE_TRIANGLE_FREE = 2


def mask_to_indices(mask):
    """Ascending tuple of the set bits of ``mask``."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def edge_witness(masks, mask):
    """Bitmask of the lex-first edge inside ``mask``, or None."""
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        hit = masks[v] & mask
        if hit:
            u = (hit & -hit).bit_length() - 1
            return (1 << v) | (1 << u)
    return None


def triangle_witness(masks, mask):
    """Bitmask of the lex-first triangle inside ``mask``, or None."""
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        mu = masks[v] & m
        while mu:
            u = (mu & -mu).bit_length() - 1
            mu &= mu - 1
            common = masks[v] & masks[u] & mask
            if common:
                w = (common & -common).bit_length() - 1
                return (1 << v) | (1 << u) | (1 << w)
    return None


def two_color(masks, mask):
    """``(colouring, None)`` for the subgraph induced by ``mask``, with the
    smallest vertex of every component coloured 0, or ``(None, bitmask of
    one odd cycle)``."""
    color = {}
    parent = {}
    rem = mask
    while rem:
        root = (rem & -rem).bit_length() - 1
        rem ^= 1 << root
        color[root] = 0
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            m = masks[u] & mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if v not in color:
                    rem ^= 1 << v
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    stack.append(v)
                elif color[v] == color[u]:
                    # edge (u, v) and the tree paths up from u and v to the
                    # vertex where they meet
                    up = []
                    w = u
                    while w is not None:
                        up.append(w)
                        w = parent[w]
                    cyc = 0
                    w = v
                    while w not in up:
                        cyc |= 1 << w
                        w = parent[w]
                    for x in up[:up.index(w) + 1]:
                        cyc |= 1 << x
                    return None, cyc
    return color, None


def bipartite_join(masks, comps, v):
    """Join the vertex bit ``v``, which it does not block, to a 2-colourable
    set held as its components, each (side a, side b, neighbours of a,
    neighbours of b).  Returns the components of the larger set, v on side a
    of the last one, and the vertices that set blocks: those with neighbours
    on both sides of that component."""
    mv = masks[v.bit_length() - 1]
    a, b, na, nb = v, 0, mv, 0
    rest = []
    for comp in comps:
        ca, cb, cna, cnb = comp
        if mv & ca:
            a, b, na, nb = a | cb, b | ca, na | cnb, nb | cna
        elif mv & cb:
            a, b, na, nb = a | ca, b | cb, na | cna, nb | cnb
        else:
            rest.append(comp)
    rest.append((a, b, na, nb))
    return rest, na & nb


def bipartite_subsets(masks, cand, limit):
    """Every 2-colourable subset of the vertex bitmask ``cand`` as (subset
    bitmask, components), in ``itertools.combinations`` order, or None if
    there are more than ``limit`` of them, the empty set included.

    Bipartiteness is hereditary, so a depth-first search over ascending
    vertices that extends only with unblocked vertices visits exactly these
    subsets, at one ``bipartite_join`` per nonempty subset.  It stops at the
    subset past ``limit``.  Its preorder is lexicographic; a stable sort by
    size gives the combinations order.
    """
    out = []

    def grow(sel, cand, comps):
        out.append((sel, comps))
        while cand and len(out) <= limit:
            v = cand & -cand
            cand ^= v
            joined, blocked = bipartite_join(masks, comps, v)
            grow(sel | v, cand & ~blocked, joined)

    grow(0, cand, [])
    if len(out) > limit:
        return None
    out.sort(key=lambda entry: entry[0].bit_count())
    return out


def max_subset(masks, mode):
    """Largest feasible subset; ties resolved to the lexicographically
    smallest index set.

    Depth-first branch and bound that decides the vertices in index order and
    tries "include" before "exclude".  A node holds the selection S and its
    candidates: the later vertices that can still join S.  Its bound is |S|
    plus a greedy clique cover of the candidates, each clique counting at most
    1 (independent) or 2 (bipartite, triangle-free); the node is pruned when
    the bound does not beat the best size found.  A bipartite S is held as its
    connected components and extended by ``bipartite_join``, so the search
    never branches on colourings and visits every set once.  Sets of one size
    are therefore visited in lex order, and the first maximum found is the
    lex-min one.

    Returns (size, subset_bitmask).
    """
    per_clique = {MODE_INDEPENDENT: 1, MODE_BIPARTITE: 2, MODE_TRIANGLE_FREE: 2}[mode]
    best = [0, 0]

    def cover_exceeds(cand, need):
        # True iff a greedy clique cover of cand counts more than need
        total = 0
        while cand:
            v = cand & -cand
            cand ^= v
            p = cand & masks[v.bit_length() - 1]
            k = 1
            while p:
                w = p & -p
                cand ^= w
                p &= masks[w.bit_length() - 1]
                k += 1
            total += min(k, per_clique)
            if total > need:
                return True
        return False

    # join(masks, state, v) -> (state of S + v, vertices that can no longer
    # join S + v); the state is S's components (bipartite) or S itself
    if mode == MODE_BIPARTITE:
        join, state = bipartite_join, []
    else:
        def join(masks, sel, v):
            mv = masks[v.bit_length() - 1]
            if mode == MODE_INDEPENDENT:
                return sel | v, mv
            # a vertex adjacent to both ends of an edge (v, w) closes a triangle
            reach = 0
            m = mv & sel
            while m:
                w = m & -m
                m ^= w
                reach |= masks[w.bit_length() - 1]
            return sel | v, mv & reach
        state = 0

    def search(sel, size, cand, state):
        while cand:
            if not cover_exceeds(cand, best[0] - size):
                return
            v = cand & -cand
            cand ^= v
            joined, blocked = join(masks, state, v)
            search(sel | v, size + 1, cand & ~blocked, joined)
        if size > best[0]:
            best[:] = size, sel

    search(0, 0, (1 << len(masks)) - 1, state)
    return tuple(best)


def chain_mbs(masks):
    """Maximum bipartite subset of x-ordered adjacency masks on which
    "before and disjoint" is a strict order (unit disks stabbed one-sided by
    a line): the largest union of two chains of that order.

    f[p][q] is the most positions selectable after p when p ends one chain
    and q the other: q is a position before p with a neighbour beyond p, or
    -1 (FREE) when the other chain is empty or its end meets nothing beyond
    p.  A later r can follow either end it is disjoint from.  Every r beyond
    both ends' last neighbours goes to (r, FREE), so a suffix maximum of
    1 + f[r][FREE] covers those r, and only the forward window w (the largest
    gap from a position to its last neighbour) is scanned: O(n*w^2) time and
    O(n*w) space.

    Returns (size, ascending positions), the lexicographically first largest
    list: the walk keeps every state still on a maximum and takes the
    smallest next position.
    """
    n = len(masks)
    masks = list(masks) + [0]  # index -1: FREE, or no chain yet
    hi = [m.bit_length() - 1 for m in masks]
    ends = [[-1] for _ in range(n)]  # the other ends q of p's states
    for q in range(n):
        for p in range(q + 1, hi[q]):
            ends[p].append(q)

    f = [None] * n
    tail = [0] * (n + 1)  # tail[L]: the largest 1 + f[r][FREE] over r >= L
    for p in range(n - 1, -1, -1):
        f[p] = fp = {}
        mp, hp = masks[p], hi[p]
        for q in ends[p]:
            mq, hq = masks[q], hi[q]
            top = max(hp, hq, p)
            v = tail[top + 1] - 1
            for r in range(p + 1, top + 1):
                fr = f[r]
                if not mp >> r & 1 and fr[q if hq > r else -1] > v:
                    v = fr[q if hq > r else -1]
                if not mq >> r & 1 and fr[p if hp > r else -1] > v:
                    v = fr[p if hp > r else -1]
            fp[q] = v + 1
        tail[p] = max(tail[p + 1], fp[-1] + 1)

    size = tail[0]
    chain, p, qs = [], -1, [-1]
    for need in range(size - 1, -1, -1):
        r, mp, nxt = p, masks[p], set()
        while not nxt:
            r += 1
            fr, left = f[r], (p if hi[p] > r else -1)
            for q in qs:
                if not mp >> r & 1 and fr[s := q if hi[q] > r else -1] == need:
                    nxt.add(s)
                if not masks[q] >> r & 1 and fr[left] == need:
                    nxt.add(left)
        chain.append(r)
        p, qs = r, nxt
    return size, chain
