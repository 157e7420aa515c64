"""Bitmask kernels: feasibility witnesses, branch-and-bound subset search and
the chain DP.

Adjacency is passed as a list of neighbor bitmasks (``masks[v] >> u & 1``
iff u and v are adjacent).
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
                    pu = set()
                    w = u
                    while w is not None:
                        pu.add(w)
                        w = parent[w]
                    w = v
                    path_v = []
                    while w not in pu:
                        path_v.append(w)
                        w = parent[w]
                    meet = w
                    cyc = 1 << meet
                    for x in path_v:
                        cyc |= 1 << x
                    w = u
                    while w != meet:
                        cyc |= 1 << w
                        w = parent[w]
                    return None, cyc
    return color, None


def max_subset(masks, mode):
    """Largest feasible subset; ties resolved to the lexicographically
    smallest index set.

    Depth-first branch and bound that decides the vertices in index order and
    tries "include" before "exclude".  A node holds the selection S and its
    candidates: the later vertices that can still join S.  Its bound is |S|
    plus a greedy clique cover of the candidates, each clique counting at most
    1 (independent) or 2 (bipartite, triangle-free); the node is pruned when
    the bound does not beat the best size found.  A bipartite S is held as its
    connected components, each a pair of side bitmasks, so the search never
    branches on colourings and visits every set once.  Sets of one size are
    therefore visited in lex order, and the first maximum found is the
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

    def join(sel, comps, v):
        # (components of S + v, vertices that can no longer join S + v)
        mv = masks[v.bit_length() - 1]
        if mode == MODE_INDEPENDENT:
            return None, mv
        if mode == MODE_TRIANGLE_FREE:
            # a vertex adjacent to both ends of a new edge (v, w) closes a triangle
            reach = 0
            m = mv & sel
            while m:
                w = m & -m
                m ^= w
                reach |= masks[w.bit_length() - 1]
            return None, mv & reach
        # merge the components v touches, v on side a; each component is
        # (side a, side b, neighbours of a, neighbours of b)
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
        # a vertex with neighbours on both sides of a component cannot join
        return rest, na & nb

    def search(sel, size, cand, comps):
        while cand:
            if not cover_exceeds(cand, best[0] - size):
                return
            v = cand & -cand
            cand ^= v
            joined, blocked = join(sel, comps, v)
            search(sel | v, size + 1, cand & ~blocked, joined)
        if size > best[0]:
            best[:] = size, sel

    search(0, 0, (1 << len(masks)) - 1, [])
    return tuple(best)


def chain_mbs(masks):
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
