"""Spans at geombs module boundaries, recorded from outside the package.

``Tracer.installed`` replaces the names that one geombs module uses to call
another (for example ``geombs.arcs.solve_intervals``) with wrappers that
record a span, and puts the originals back on exit.  Nothing under ``src/``
changes.  A span is ``[name, start_ns, end_ns, parent, counts]``; ``parent``
is the index of the enclosing span or -1.  Self time is a span's duration
minus the durations of its direct children.
"""
from contextlib import contextmanager
from time import perf_counter_ns


def _graph_counts(graph):
    return {"pairs": graph.n * (graph.n - 1) // 2,
            "edges": sum(bin(m).count("1") for m in graph.masks) // 2}


def _dag_counts(dag):
    return {"vertices": len(dag.vertices),
            "step_edges": sum(len(vs) for vs in dag.step_edges.values())}


def _patches(g):
    """(namespace, attribute, span name, counter) for every traced call site."""
    graph = ("build_intersection_graph", "model.graph", _graph_counts)
    certify = ("is_bipartite", "model.certify", None)
    sites = {
        g: [graph,
            ("solve_intervals", "intervals.solve", None),
            ("solve_unit_height", "rects.solve", None),
            ("solve_arcs", "arcs.solve", None),
            ("solve_one_sided", "diskline.one_sided", None),
            ("solve_two_sided", "diskline.two_sided", None),
            ("solve_3approx", "diskgeneral.3approx", None),
            ("solve_logn", "diskgeneral.logn", None),
            ("solve_ptas", "ptas.solve", None),
            ("solve_ptas_weighted", "ptas.solve", None),
            ("exact_mbs", "oracle", None),
            ("exact_mtfs", "oracle", None),
            ("exact_mis", "oracle", None),
            ("double_instance", "reductions.double", None)],
        g.serialize: [("instance_from_dict", "serialize.parse", None)],
        g._kernels: [("chain_mbs", "kernels.chain_mbs", None),
                     ("max_subset", "kernels.max_subset", None)],
        g.intervals: [graph, certify],
        g.arcs: [graph, certify, ("solve_intervals", "intervals.solve", None)],
        g.rects: [("solve_intervals", "intervals.solve", None)],
        g.diskline: [graph, certify, ("one_sided_mis", "diskline.mis", None)],
        g.diskgeneral: [graph, certify,
                        ("solve_one_sided", "diskline.one_sided", None),
                        ("solve_two_sided", "diskline.two_sided", None)],
        g.ptas: [graph, certify,
                 ("solve_slab", "ptas.slab", None),
                 ("build_slab_dag", "ptas.slab_dag", _dag_counts)],
        g.oracle: [certify],
    }
    return [(ns, attr, name, count)
            for ns, entries in sites.items() for attr, name, count in entries]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                rec[4] = count(out)
            return out

        return traced

    @contextmanager
    def installed(self, g):
        """Trace the geombs package ``g`` inside the ``with`` block."""
        saved = []
        try:
            for ns, attr, name, count in _patches(g):
                original = getattr(ns, attr)
                saved.append((ns, attr, original))
                setattr(ns, attr, self._wrap(name, original, count))
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)


# per-layer metric -> (span names whose self time it sums)
SELF_TIME = {
    "serialize.parse_s": ("serialize.parse",),
    "model.graph_s": ("model.graph",),
    "model.certify_s": ("model.certify",),
    "kernels.chain_mbs_s": ("kernels.chain_mbs",),
    "kernels.max_subset_s": ("kernels.max_subset",),
    "intervals.solve_s": ("intervals.solve",),
    "arcs.solve_s": ("arcs.solve",),
    "diskline.one_sided_s": ("diskline.one_sided",),
    "diskline.two_sided_s": ("diskline.two_sided",),
    "diskline.mis_s": ("diskline.mis",),
    "diskgeneral.3approx_s": ("diskgeneral.3approx",),
    "diskgeneral.logn_s": ("diskgeneral.logn",),
    "ptas.solve_s": ("ptas.solve",),
    "ptas.slab_s": ("ptas.slab",),
    "ptas.slab_dag_s": ("ptas.slab_dag",),
    "rects.solve_s": ("rects.solve",),
    "oracle.s": ("oracle",),
    "reductions.double_s": ("reductions.double",),
}

CALLS = {
    "model.graph_calls": "model.graph",
    "model.certify_calls": "model.certify",
    "kernels.chain_mbs_calls": "kernels.chain_mbs",
    "kernels.max_subset_calls": "kernels.max_subset",
    "intervals.calls": "intervals.solve",
}


def layer_metrics(spans):
    """Per-layer totals over a list of spans (one pass over the corpus)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls, counts = {}, {}, {}
    children_of = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
        if parent >= 0:
            pair = (spans[parent][0], name)
            children_of[pair] = children_of.get(pair, 0) + 1
    out = {metric: sum(self_ns.get(n, 0) for n in names) / 1e9
           for metric, names in SELF_TIME.items()}
    out.update({metric: calls.get(name, 0) for metric, name in CALLS.items()})
    pairs = counts.get(("model.graph", "pairs"), 0)
    edges = counts.get(("model.graph", "edges"), 0)
    out["model.graph_pairs"] = pairs
    out["model.graph_edges"] = edges
    out["model.edge_yield"] = edges / pairs if pairs else 0.0
    out["arcs.cuts"] = children_of.get(("arcs.solve", "intervals.solve"), 0)
    out["diskgeneral.subsolves"] = sum(
        children_of.get((parent, child), 0)
        for parent in ("diskgeneral.3approx", "diskgeneral.logn")
        for child in ("diskline.one_sided", "diskline.two_sided"))
    out["ptas.dag_vertices"] = counts.get(("ptas.slab_dag", "vertices"), 0)
    out["ptas.step_edges"] = counts.get(("ptas.slab_dag", "step_edges"), 0)
    return out
