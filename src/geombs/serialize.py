"""JSON instance and solution files with exact rational coordinates.

Rationals are written as ``"p/q"``, or ``"p"`` for an integer, so the text
format round-trips losslessly.  ``parse_rational`` reads a JSON int or text
in the one grammar ``-?[0-9]+(/[0-9]+)?`` (ASCII, nonzero denominator) that
``format_rational`` writes; other text, a float, a bool or a key the format
does not define is a ``ValidationError``, never coerced.

``instance_from_dict`` reads a document's records into one value list and
reads that list in one batch (``model._rationals``): when every value is a
string, the distinct strings pass one character check together and each is
read once by ``int``; otherwise, or on any fault, the values are read one at
a time in document order, so the first fault and its message are those a
value-by-value read reports.  Nothing is kept from one document to the next.
It then builds the objects column-wise through their constructors, which
write each field through its slot's member descriptor.  Of several faults
it reports the earliest in this order, and in document order within each:
the document's keys, kind and ``objects`` list; a record that is not
exactly the kind's fields; a ``weights`` list of the wrong length; a value
that is not an exact rational (each record's in the kind's field order, then
``disk_radius``, then ``weights``); an object its constructor refuses; a
scene its kind refuses, in the order of ``model.validate_instance``, which
the scene's constructor runs (a ``disk_radius`` missing, not positive or on
another kind, then a square or a height that is not one unit); a negative
weight.  Solution files carry the 2-coloring certificate, which keeps
verification linear in the graph size and independent of whichever solver
produced them.
"""
import json
from functools import partial
from operator import itemgetter

from .errors import ValidationError
from .model import (
    ARCS,
    INTERVALS,
    KINDS,
    UNIT_DISKS,
    ArcObj,
    DiskObj,
    GeometricInstance,
    IntervalObj,
    Point,
    RectObj,
    Solution,
    _frac,
    _rationals,
)

FORMAT_VERSION = 1


def format_rational(value) -> str:
    """``"p/q"`` text, or ``"p"`` for an integer, of what ``_frac`` accepts;
    bools and floats are a ``ValidationError``, never coerced."""
    f = _frac(value)
    num, den = f._numerator, f._denominator
    return str(num) if den == 1 else f"{num}/{den}"


# text in the grammar or an integer; anything else is a ValidationError
parse_rational = _frac


# kind -> (the objects made from the columns of their fields, the fields)
_RECORDS = {
    INTERVALS: (partial(map, IntervalObj), ("left", "right")),
    ARCS: (partial(map, ArcObj), ("start", "end")),
    UNIT_DISKS: (lambda xs, ys: map(DiskObj, map(Point, xs, ys)), ("x", "y")),
}
_RECT_RECORD = (partial(map, RectObj), ("x_min", "x_max", "y_min", "y_max"))


def _object_record(kind, obj) -> dict:
    if kind == UNIT_DISKS:
        obj = obj.center
    return {nm: format_rational(getattr(obj, nm))
            for nm in _RECORDS.get(kind, _RECT_RECORD)[1]}


def _unknown_keys(doc, known, what):
    """Reject the keys of ``doc`` outside ``known``, naming them."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")


def _check_record(rec, names):
    """Reject an object record that is not a mapping of exactly ``names``."""
    if not isinstance(rec, dict):
        raise ValidationError(f"object record must be a mapping, got {rec!r}")
    missing = [nm for nm in names if nm not in rec]
    if missing:
        raise ValidationError(f"object record missing fields {missing}")
    _unknown_keys(rec, names, "object record")


def instance_to_dict(instance: GeometricInstance, weights=None) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "kind": instance.kind,
        "objects": [_object_record(instance.kind, o) for o in instance.objects],
    }
    if instance.disk_radius is not None:
        doc["disk_radius"] = format_rational(instance.disk_radius)
    if weights is not None:
        if len(weights) != instance.n:
            raise ValidationError("one weight per object required")
        doc["weights"] = [format_rational(w) for w in weights]
    return doc


def _check_format(doc):
    """An absent ``format`` is read as the current version."""
    fmt = doc.get("format", FORMAT_VERSION)
    if type(fmt) is not int or fmt != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format {fmt!r}; expected {FORMAT_VERSION}"
        )


_INSTANCE_KEYS = ("format", "kind", "objects", "disk_radius", "weights")
_SOLUTION_KEYS = ("format", "mode", "selected", "coloring")


def instance_from_dict(doc: dict):
    """Parse a document; returns (instance, weights-or-None).  A key the
    format does not define, at the top level or in an object record, is a
    ``ValidationError``; of several faults, the first in the order of the
    module docstring is reported."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a mapping")
    _check_format(doc)
    _unknown_keys(doc, _INSTANCE_KEYS, "instance document")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    objects = doc.get("objects")
    if not isinstance(objects, list):
        raise ValidationError("instance document needs an 'objects' list")
    make, names = _RECORDS.get(kind, _RECT_RECORD)
    width, fields = len(names), itemgetter(*names)
    values = []
    try:
        for rec in objects:
            if type(rec) is not dict or len(rec) != width:
                _check_record(rec, names)
            values += fields(rec)
    except KeyError:  # as many keys as fields, but not the fields
        _check_record(rec, names)
        raise
    m = len(values)
    radius, weights = doc.get("disk_radius"), doc.get("weights")
    if radius is not None:
        values.append(radius)
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != len(objects):
            raise ValidationError("'weights' must list one rational per object")
        values += weights
    values = _rationals(values)
    instance = GeometricInstance(
        kind,
        tuple(make(*[values[i:m:width] for i in range(width)])),
        values[m] if radius is not None else None,
    )
    if weights is not None:
        weights = values[len(values) - len(weights):]
        if any(w._numerator < 0 for w in weights):
            raise ValidationError("weights must be nonnegative")
    return instance, weights


def solution_to_dict(solution: Solution, mode: str = "bipartite") -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "mode": mode,
        "selected": list(solution.selected),
    }
    if solution.coloring is not None:
        doc["coloring"] = {str(v): c for v, c in solution.coloring.items()}
    return doc


def solution_from_dict(doc: dict):
    """Parse a document; returns (solution, mode).  A key the format does
    not define is a ``ValidationError``."""
    if not isinstance(doc, dict):
        raise ValidationError("solution document must be a mapping")
    _check_format(doc)
    _unknown_keys(doc, _SOLUTION_KEYS, "solution document")
    mode = doc.get("mode", "bipartite")
    if mode not in ("bipartite", "triangle_free", "independent"):
        raise ValidationError(f"unknown solution mode {mode!r}")
    selected = doc.get("selected")
    if not isinstance(selected, list) or not all(
        type(v) is int and v >= 0 for v in selected
    ):
        raise ValidationError("'selected' must list nonnegative indices")
    coloring = doc.get("coloring")
    if coloring is not None:
        if not isinstance(coloring, dict):
            raise ValidationError("'coloring' must map index -> 0/1")
        # keys are the canonical decimal text of selected indices
        chosen = {str(v): v for v in selected}
        stray = [key for key in coloring if key not in chosen]
        if stray:
            raise ValidationError(f"coloring keys {stray} are not selected indices")
        coloring = {chosen[key]: c for key, c in coloring.items()}
        if any(type(c) is not int or c not in (0, 1)
               for c in coloring.values()):
            raise ValidationError("coloring values must be 0 or 1")
    return Solution(tuple(selected), coloring), mode


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(doc, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def load_instance(path):
    """Read an instance file; returns (instance, weights-or-None)."""
    return instance_from_dict(_load_json(path))


def save_instance(instance, path, weights=None):
    _dump_json(instance_to_dict(instance, weights), path)


def load_solution(path):
    """Read a solution file; returns (solution, mode)."""
    return solution_from_dict(_load_json(path))


def save_solution(solution, path, mode: str = "bipartite"):
    _dump_json(solution_to_dict(solution, mode), path)
