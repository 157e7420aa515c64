"""Bitmask kernels: feasibility witnesses, the component join of a
2-colourable set, branch-and-bound subset search and the chain DP.

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


def bipartite_subsets(masks, cand):
    """Every 2-colourable subset of the vertex bitmask ``cand`` as (subset
    bitmask, components), in ``itertools.combinations`` order.

    Bipartiteness is hereditary, so a depth-first search over ascending
    vertices that extends only with unblocked vertices visits exactly these
    subsets, at one ``bipartite_join`` per nonempty subset.  Its preorder is
    lexicographic; a stable sort by size gives the combinations order.
    """
    out = []

    def grow(sel, cand, comps):
        out.append((sel, comps))
        while cand:
            v = cand & -cand
            cand ^= v
            joined, blocked = bipartite_join(masks, comps, v)
            grow(sel | v, cand & ~blocked, joined)

    grow(0, cand, [])
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
    """Max triangle-free chain DP over x-ordered adjacency masks.

    B[i,j,k], for i < j < k, is the length of the longest chain starting
    i, j, k: 0 on a triangle, 3 when no extension exists, else 1 + the best
    B[j,k,l] over the l > k that form no triangle with two of i, j, k.
    Returns (size, selected index list) for the largest B, ties going to the
    first maximal l and to the lex-first start triple; (0, []) if every
    triple is a triangle.

    Let hi(i) be the last neighbour of i.  Each triangle condition on an
    extension of (i, j, k) needs an edge from i to k or to some l > k, so for
    k > hi(i) the state forgets i: B[i,j,k] = C[j,k], a pair state.  For the
    same reason C[j,k] = T[k] when k > hi(j).  Only the triples and pairs
    inside the forward window w = max(hi(i) - i) are stored, and extensions
    beyond it are read from suffix maxima: O(n + n*w^3) time and
    O(n + n*w^2) space.
    """
    n = len(masks)
    if n < 3:
        return 0, []
    # A state is coded value * base + n - next (next = n: no extension), so
    # the larger code has the larger value, then the smaller next.
    base = n + 1
    hi = [m.bit_length() - 1 for m in masks]
    triple = {}  # B[i,j,k] for k <= hi(i), triangles left out
    pair = {}  # C[j,k] for k <= hi(j)
    tail = [0] * n  # T[k] = C[j,k] for every j with hi(j) < k
    # best l >= L, coded value * base + n - l, of C[k,l] (pair_best[k, L],
    # for L <= hi(k)) and of T[l] (tail_best[L]); tail_best[n] codes value 2
    # and no l, so 1 + it is the leaf value 3
    pair_best = {}
    tail_best = [0] * n + [2 * base]

    def reach(k, L):
        # max over l >= L of C[k,l], coded by l: the best extension at or
        # beyond L of a state ending in k whose other elements have no
        # neighbour at L or beyond
        return tail_best[L] if L > hi[k] else pair_best[k, L]

    def state(i, j, k):
        # B[i,j,k] of a triple that is not a triangle
        if k <= hi[i]:
            return triple[i, j, k]
        return pair[j, k] if k <= hi[j] else tail[k]

    best, start = 3, None  # B >= 3 on every triple that is not a triangle
    for i in range(n - 1, -1, -1):
        mi = masks[i]
        h = hi[i]
        # triples i < j < k <= h, and the lex-first best start (j, k) for i
        best_i = 2  # below every start
        for j in range(i + 1, h + 1):
            mj = masks[j]
            hj = hi[j]
            top = h if h > hj else hj
            ij = mi >> j & 1
            ks = (1 << (h + 1)) - (2 << j)
            if ij:
                ks &= ~(mi & mj)
            while ks:
                low = ks & -ks
                ks ^= low
                k = low.bit_length() - 1
                mk = masks[k]
                # no triangle condition holds beyond top
                b = reach(k, top + 1) + base
                cand = (1 << (top + 1)) - (2 << k)
                if ij:
                    cand &= ~(mi & mj)
                if mi >> k & 1:
                    cand &= ~(mi & mk)
                if mj >> k & 1:
                    cand &= ~(mj & mk)
                while cand:
                    low = cand & -cand
                    cand ^= low
                    l = low.bit_length() - 1
                    e = (state(j, k, l) // base + 1) * base + n - l
                    if e > b:
                        b = e
                triple[i, j, k] = b
                if b // base > best_i:
                    best_i, start_i = b // base, (j, k)
            e = reach(j, h + 1)
            if e // base > best_i:
                best_i, start_i = e // base, (j, n - e % base)
        for k in range(i + 1, h + 1):
            b = reach(k, h + 1) + base
            cand = (1 << (h + 1)) - (2 << k)
            if mi >> k & 1:
                cand &= ~(mi & masks[k])
            while cand:
                low = cand & -cand
                cand ^= low
                l = low.bit_length() - 1
                e = (triple[i, k, l] // base + 1) * base + n - l
                if e > b:
                    b = e
            pair[i, k] = b
        e = tail_best[h + 1]
        for L in range(h, i, -1):
            c = pair[i, L] // base * base + n - L
            if c > e:
                e = c
            pair_best[i, L] = e
        tail[i] = reach(i, i + 1) + base
        c = tail[i] // base * base + n - i
        e = tail_best[i + 1]
        tail_best[i] = c if c > e else e
        # starts (j, k) with j beyond hi(i): the best T[j], less one
        J = (h if h > i else i) + 1
        if tail_best[J] // base - 1 > best_i:
            j = n - tail_best[J] % base
            best_i, start_i = tail_best[J] // base - 1, (j, n - tail[j] % base)
        if best_i >= best:
            best, start = best_i, (i,) + start_i

    if start is None:
        return 0, []
    i, j, k = start
    chain = [i, j, k]
    while True:
        l = n - state(i, j, k) % base
        if l == n:
            return best, chain
        chain.append(l)
        i, j, k = j, k, l
