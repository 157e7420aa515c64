"""Bitmask kernels: feasibility witnesses, subset search and the chain DP.

Adjacency is passed as a list of neighbor bitmasks (``masks[v] >> u & 1``
iff u and v are adjacent).
"""
from itertools import combinations

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


_WITNESS = {
    MODE_INDEPENDENT: edge_witness,
    MODE_BIPARTITE: two_color,
    MODE_TRIANGLE_FREE: triangle_witness,
}


def max_subset(masks, mode):
    """Largest feasible subset; ties resolved to the lexicographically
    smallest index set.  Enumerates subsets in decreasing size with
    supersets of known infeasibility witnesses pruned.

    Returns (size, subset_bitmask).
    """
    n = len(masks)
    witness = _WITNESS[mode]
    pair = mode == MODE_BIPARTITE  # two_color returns (colouring, cycle)
    bad = []
    for k in range(n, 0, -1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if any(mask & w == w for w in bad):
                continue
            w = witness(masks, mask)
            if pair:
                w = w[1]
            if w is None:
                return k, mask
            if w not in bad:
                bad.append(w)
    return 0, 0


def chain_mbs(masks):
    """Max triangle-free chain DP over x-ordered adjacency masks.

    Implements the three-case B[i,j,k] recurrence (0 on triangles; 3 when no
    extension exists; else 1 + best extension) and returns
    (size, selected index list) where size is 0 if no K3-free triple exists.
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
