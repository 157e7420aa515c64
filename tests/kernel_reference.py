"""Brute-force graph references for tests: small, slow and obviously right.

Graphs are neighbor bitmasks as in ``geombs._kernels``.  Every function here
scans all subsets, so keep n at about a dozen or less.
"""
from itertools import combinations

from geombs import _kernels
from geombs.model import (
    IntersectionGraph,
    is_bipartite,
    is_independent,
    is_triangle_free,
)


def _indices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _feasible(g, subset, mode):
    if mode == _kernels.MODE_INDEPENDENT:
        return is_independent(g, subset) is None
    if mode == _kernels.MODE_TRIANGLE_FREE:
        return is_triangle_free(g, subset) is None
    return is_bipartite(g, subset) is not None


def brute_max_subset(masks, mode):
    """(size, mask) of the largest feasible subset; ties go to the subset
    whose sorted index tuple is lexicographically smallest."""
    g = IntersectionGraph(len(masks), tuple(masks))
    best = (0, ())
    for mask in range(1, 1 << g.n):
        subset = _indices(mask)
        if (-len(subset), subset) < (-best[0], best[1]) and \
                _feasible(g, subset, mode):
            best = (len(subset), subset)
    return best[0], sum(1 << v for v in best[1])


def _triangle(masks, a, b, c):
    return masks[a] >> b & 1 and masks[a] >> c & 1 and masks[b] >> c & 1


def is_chain(masks, chain):
    """True iff ``chain`` is an increasing index sequence of length >= 3 in
    which no three entries within four consecutive ones form a triangle."""
    if len(chain) < 3 or list(chain) != sorted(set(chain)):
        return False
    return not any(_triangle(masks, *triple)
                   for s in range(len(chain) - 2)
                   for triple in combinations(chain[s:s + 4], 3))


def brute_chain_size(masks):
    """Length of the longest chain (see ``is_chain``), or 0 if none exists."""
    return max((len(c) for c in map(_indices, range(1 << len(masks)))
                if is_chain(masks, c)), default=0)


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
