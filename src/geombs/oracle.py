"""Exact solvers for MBS, MTFS, and MIS on small graphs.

These are the ground truth for every guarantee test in the suite.  Each runs
``_kernels.max_subset``, a depth-first branch and bound over the vertices in
index order whose bound is a greedy clique cover of the vertices that can
still join the selection.  Ties between optima break to the lexicographically
smallest index set, so golden outputs are deterministic.
"""
from typing import Optional

from . import _kernels
from .errors import CapacityError
from .model import IntersectionGraph, Solution, certify, is_bipartite

DEFAULT_CAP = 20
MAX_VERTICES = 512  # the search recurses once per selected vertex


def _check_cap(g: IntersectionGraph, cap: Optional[int]):
    cap = DEFAULT_CAP if cap is None else cap
    if g.n > cap:
        raise CapacityError(f"oracle capped at {cap} vertices, got {g.n}")
    if g.n > MAX_VERTICES:
        raise CapacityError(
            f"oracle takes at most {MAX_VERTICES} vertices, whatever the cap: "
            f"its search recurses once per selected vertex; got {g.n}")


def exact_mbs(g: IntersectionGraph, cap: Optional[int] = None) -> Solution:
    """Maximum subset inducing a bipartite subgraph, with its 2-coloring."""
    _check_cap(g, cap)
    _, mask = _kernels.max_subset(g.masks, _kernels.MODE_BIPARTITE)
    selected = _kernels.mask_to_indices(mask)
    return certify(g, Solution(selected, is_bipartite(g, selected)))


def exact_mtfs(g: IntersectionGraph, cap: Optional[int] = None) -> Solution:
    """Maximum subset inducing a triangle-free subgraph."""
    _check_cap(g, cap)
    _, mask = _kernels.max_subset(g.masks, _kernels.MODE_TRIANGLE_FREE)
    return certify(g, Solution(_kernels.mask_to_indices(mask)), "triangle_free")


def exact_mis(g: IntersectionGraph, cap: Optional[int] = None) -> Solution:
    """Maximum independent set."""
    _check_cap(g, cap)
    _, mask = _kernels.max_subset(g.masks, _kernels.MODE_INDEPENDENT)
    return certify(g, Solution(_kernels.mask_to_indices(mask)), "independent")
