import random

import pytest

from geombs.model import IntersectionGraph


def graph_from_edges(n, edges):
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return IntersectionGraph(masks)


def graph_edges(g):
    """The edges (u, v), u < v, of ``g`` in lexicographic order."""
    for u in range(g.n):
        m = g.masks[u] >> (u + 1) << (u + 1)
        while m:
            v = (m & -m).bit_length() - 1
            yield (u, v)
            m &= m - 1


def random_graph(rng, n, p=0.4):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph_from_edges(n, edges)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Record call-phase failures so acceptance tests can print FAIL lines."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        item.rep_failed = rep.failed
