"""Output checker that does not use ``geombs``.

Scenes are read straight from their JSON documents into exact ``Fraction``
tuples, and intersection uses closed semantics (touching objects intersect),
written here from the definitions rather than taken from ``geombs.model``.
Each ``check_*`` function returns a list of problems; an empty list means the
output is valid.
"""
from fractions import Fraction
from itertools import combinations


class Scene:
    """A scene as the checker sees it: kind, coordinate tuples, disk radius."""

    def __init__(self, kind, objects, radius=None):
        self.kind = kind
        self.objects = objects
        self.radius = radius

    @classmethod
    def from_doc(cls, doc):
        kind = doc["kind"]
        fields = {
            "intervals": ("left", "right"),
            "arcs": ("start", "end"),
            "unit_disks": ("x", "y"),
        }.get(kind, ("x_min", "x_max", "y_min", "y_max"))
        objects = [tuple(Fraction(rec[f]) for f in fields) for rec in doc["objects"]]
        radius = doc.get("disk_radius")
        return cls(kind, objects, None if radius is None else Fraction(radius))

    def doubled(self):
        """The scene with every object repeated once, copy i at index n + i."""
        return Scene(self.kind, self.objects + self.objects, self.radius)

    def intersect(self, i, j):
        a, b = self.objects[i], self.objects[j]
        if self.kind == "intervals":
            return _closed_overlap(a, b)
        if self.kind == "arcs":
            return any(_closed_overlap(p, q)
                       for p in _arc_pieces(a) for q in _arc_pieces(b))
        if self.kind == "unit_disks":
            dx, dy = a[0] - b[0], a[1] - b[1]
            return dx * dx + dy * dy <= 4 * self.radius * self.radius
        return _closed_overlap(a[:2], b[:2]) and _closed_overlap(a[2:], b[2:])


def _closed_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def _arc_pieces(arc):
    """An arc of the unit circle as closed pieces of [0, 1].

    A clockwise arc from s to e with s > e wraps through angle 0, so it is
    [s, 1] together with [0, e]; 1 and 0 are the same point, and both wrapped
    arcs hold it, so the split loses no intersection.
    """
    s, e = arc
    return [(s, e)] if s < e else [(s, Fraction(1)), (Fraction(0), e)]


def check_selection(scene, selected):
    problems = []
    if len(set(selected)) != len(selected):
        problems.append("repeated index in selection")
    bad = [v for v in selected if not (isinstance(v, int) and 0 <= v < len(scene.objects))]
    if bad:
        problems.append(f"indices out of range: {bad[:5]}")
    return problems


def check_bipartite(scene, selected, coloring):
    """Selection plus a proper 2-colouring certificate."""
    problems = check_selection(scene, selected)
    if problems:
        return problems
    if coloring is None:
        return ["no colouring certificate"]
    missing = [v for v in selected if v not in coloring]
    if missing:
        return [f"colouring misses selected indices {missing[:5]}"]
    off = [v for v in selected if coloring[v] not in (0, 1)]
    if off:
        return [f"colour outside {{0, 1}} at {off[:5]}"]
    for u, v in combinations(selected, 2):
        if coloring[u] == coloring[v] and scene.intersect(u, v):
            return [f"objects {u} and {v} intersect and share colour {coloring[u]}"]
    return []


def check_independent(scene, selected, coloring=None):
    problems = check_selection(scene, selected)
    if problems:
        return problems
    for u, v in combinations(selected, 2):
        if scene.intersect(u, v):
            return [f"objects {u} and {v} intersect"]
    return []


def check_triangle_free(scene, selected, coloring=None):
    problems = check_selection(scene, selected)
    if problems:
        return problems
    for u, v, w in combinations(selected, 3):
        if scene.intersect(u, v) and scene.intersect(u, w) and scene.intersect(v, w):
            return [f"objects {u}, {v}, {w} form a triangle"]
    return []


CHECKS = {
    "bipartite": check_bipartite,
    "independent": check_independent,
    "triangle_free": check_triangle_free,
}


def check_output(scene, mode, selected, coloring):
    return CHECKS[mode](scene, list(selected), coloring)
