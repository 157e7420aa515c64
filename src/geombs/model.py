"""Geometric object types, exact intersection predicates, graph construction,
the subset verifiers (bipartite / triangle-free / independent) and ``certify``.

All coordinates are exact rationals (``fractions.Fraction``); predicates
compare squared distances, so there is no tolerance parameter anywhere.
Intersection is closed: tangent objects are adjacent.

From parsing on, no ``Fraction`` arithmetic runs on the objects, and
exactness is kept.  The grammar's step per text, ``_read_texts``, is
written once: on ASCII text of the characters ``0-9``, ``-`` and ``/``
only, where ``int`` accepts exactly ``-?[0-9]+``, it splits at the first
``/``, reads each side with ``int`` and refuses a denominator that is not
positive.  ``_frac`` reads one value with it; ``_rationals`` reads a
document's value list, taking its distinct texts once and checking their
characters together, with one ``isascii()`` and one ``str.translate``.  On
any fault, or a value that is not text, ``_rationals`` reads the values one
at a time in order, so the first fault and its message are ``_frac``'s.
``_from_ints`` builds each value from its numerator and denominator reduced
by ``math.gcd``, setting the two slots ``_numerator`` and ``_denominator``
of a bare ``Fraction``, the only fields a ``Fraction`` has on every
supported Python; ``generate`` builds its values through it too, one object
per distinct value of a scene.  Every per-object
read of a value's ints reads those two slots directly, never
``as_integer_ratio()`` or the ``numerator``/``denominator`` properties,
which each cost a Python call.  ``_offsets`` is the one reader of offsets
(v - origin) / unit, as int pairs that the solvers floor into bands, cells
and boxes or compare into sides; outside this module only ``serialize``
names the slots.  Constructors write their fields through the slots'
member descriptors and coerce only fields that are not a ``Fraction``
yet; the interval and rectangle order checks compare cross-multiplied
slot ints.  Sorts and sweeps compare ``_key``s
``(float(v), v)``, whose correctly rounded float decides a comparison
unless the floats tie, and then the exact value does.  Object orders,
disks and arcs compare cross-multiplied ints.  The objects, scenes, graphs
and solutions are slotted frozen dataclasses: no instance carries a
``__dict__``.

The graph builder makes one pass per kind with no call per pair; the
public predicates are only the pairwise reference it is tested against.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, lcm
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence

from . import _kernels
from .errors import CertificateError, ValidationError

# Scene kinds.
INTERVALS = "intervals"
ARCS = "arcs"
UNIT_DISKS = "unit_disks"
UNIT_SQUARES = "unit_squares"
UNIT_HEIGHT_RECTS = "unit_height_rects"
RECTS = "rects"

KINDS = (INTERVALS, ARCS, UNIT_DISKS, UNIT_SQUARES, UNIT_HEIGHT_RECTS, RECTS)


# The grammar of rational text, and a table that ``str.translate`` uses to
# delete its characters: ASCII text holds only those iff nothing is left.
_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
_GRAMMAR_CHARS = str.maketrans("", "", "0123456789-/")


def _from_ints(p: int, q: int) -> Fraction:
    """The rational p/q of ints with q > 0: ``object.__new__(Fraction)``
    with its slots ``_numerator`` and ``_denominator`` set to the pair
    reduced by g = gcd(p, q), as Python 3.12's own
    ``Fraction._from_coprime_ints`` does.  That relies on ``Fraction``
    keeping exactly these two slots; a layout without them fails on the
    first value with ``AttributeError``."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    f = object.__new__(Fraction)
    f._numerator, f._denominator = p, q
    return f


def _read_texts(memo: dict) -> bool:
    """The grammar's step per text, written once: sets each key of
    ``memo``, ASCII text of the characters ``0-9``, ``-`` and ``/`` only, to
    its rational.  Within that set ``int`` accepts exactly ``-?[0-9]+``, so
    each text is split at its first ``/`` and each side read by ``int``.  A
    ``ValueError`` means a side outside the grammar or past the
    interpreter's int digit limit; False, a denominator that is not
    positive."""
    for text in memo:
        num, slash, den = text.partition("/")
        p, q = int(num), int(den) if slash else 1
        if q <= 0:
            return False
        memo[text] = _from_ints(p, q)
    return True


def _frac(value) -> Fraction:
    """Exact rational from a Fraction, an int or text in the grammar
    ``-?[0-9]+(/[0-9]+)?`` in ASCII with a nonzero denominator, the language
    ``format_rational`` writes; bools, floats and any other text raise
    ``ValidationError``, on every supported Python alike.  Text passes the
    character check of ``_GRAMMAR_CHARS`` and is read by ``_read_texts``.
    Text in the grammar but past the int digit limit is refused with
    ``int``'s message."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        if value.isascii() and not value.translate(_GRAMMAR_CHARS):
            memo = {value: None}
            try:
                if _read_texts(memo):
                    return memo[value]
            except ValueError as exc:
                if _GRAMMAR.fullmatch(value):  # beyond the digit limit
                    raise ValidationError(f"bad rational {value!r}: {exc}") from exc
        raise ValidationError(f"bad rational {value!r}: expected "
                              f"{_GRAMMAR.pattern} with a nonzero denominator")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(int(value))
    raise ValidationError(f"expected an exact rational, got {value!r}")


def _rationals(values) -> list:
    """``[_frac(v) for v in values]``, each distinct text read once.  When
    every value is a ``str``, the distinct texts pass one character check
    together and one ``_read_texts`` reads them; on any fault, or when a
    value is not a ``str``, the values are read one at a time in order,
    texts through a memo, so the first fault and its message are those of
    that order.  Nothing is kept from one call to the next, and a JSON int
    or bool never shares a text's value."""
    try:
        memo = dict.fromkeys(values)
    except TypeError:  # an unhashable value
        memo = None
    if memo and set(map(type, memo)) == {str}:
        texts = "".join(memo)
        if texts.isascii() and not texts.translate(_GRAMMAR_CHARS):
            try:
                if _read_texts(memo):
                    return list(map(memo.__getitem__, values))
            except ValueError:
                pass
    memo = {}
    return [_frac(v) if type(v) is not str
            else memo[v] if v in memo else memo.setdefault(v, _frac(v))
            for v in values]


def _offsets(values, origin, unit):
    """Per rational v of ``values``, ints ``(p, q)`` with q > 0 and
    p/q = (v - origin) / unit, for a positive ``unit``; ``origin`` and
    ``unit`` may be anything ``_frac`` reads.  The one reader of offsets:
    bands, cells, boxes and sides are int floors and compares of these."""
    origin, unit = _frac(origin), _frac(unit)
    on, od = origin._numerator, origin._denominator
    un, ud = unit._numerator, unit._denominator
    return [((v._numerator * od - on * v._denominator) * ud,
             v._denominator * od * un) for v in values]


def _bands(values, unit):
    """``{band: ascending indices}`` of a nonempty list of rationals, index
    i in band floor((v_i - lowest) / unit) for a positive ``unit``: the one
    grouping into unit bands, read off ``_offsets``."""
    bands = {}
    for i, (p, q) in enumerate(_offsets(values, min(values, key=_key), unit)):
        bands.setdefault(p // q, []).append(i)
    return bands


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _frozen(cls):
    """``dataclass(frozen=True, slots=True)`` refusing to set or delete any
    name with ``FrozenInstanceError``.  On Python 3.10-3.13 the generated
    methods test the class the slots replaced, and raise ``TypeError`` from
    ``super()`` for a name that is not a field.

    Its ``__init__``, of the dataclass's signature and defaults, writes each
    field through its slot's member descriptor, where the dataclass's calls
    ``object.__setattr__``.  Unless every field annotated ``Fraction``
    already holds a ``Fraction``, those fields are first read by ``_frac``,
    in field order; the class's ``__post_init__``, if any, runs last."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    names = [f.name for f in fields(cls)]
    exact = [f.name for f in fields(cls) if f.type in ("Fraction", Fraction)]
    lines = [f"def __init__(self, {', '.join(names)}):"]
    if exact:
        lines += [f"    if not ({' is '.join(map('type({})'.format, exact))}"
                  " is Fraction):",
                  f"        {', '.join(exact)} = "
                  f"{', '.join(map('_frac({})'.format, exact))}"]
    lines += [f"    _set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    scope.update(Fraction=Fraction, _frac=_frac)
    exec("\n".join(lines), scope)
    init, generated = scope["__init__"], cls.__init__
    for attr in ("__defaults__", "__annotations__", "__module__",
                 "__qualname__"):
        setattr(init, attr, getattr(generated, attr))
    cls.__init__ = init
    return cls


@_frozen
class Point:
    x: Fraction
    y: Fraction


@_frozen
class IntervalObj:
    left: Fraction
    right: Fraction

    def __post_init__(self):
        a, b = self.left, self.right
        if not a._numerator * b._denominator < b._numerator * a._denominator:
            raise ValidationError(f"interval needs left < right, got {self}")


@_frozen
class ArcObj:
    """Closed arc swept clockwise from ``start`` to ``end``.

    Angles are rational fractions of a full turn in [0, 1); the angle
    parameter increases in the clockwise direction.
    """

    start: Fraction
    end: Fraction

    def __post_init__(self):
        for a in (self.start, self.end):
            if not 0 <= a._numerator < a._denominator:
                raise ValidationError(f"arc angle {a} outside [0, 1)")
        # lowest terms: equal values have equal ints
        if (self.start._numerator == self.end._numerator
                and self.start._denominator == self.end._denominator):
            raise ValidationError("arc needs start != end")

    def contains(self, angle: Fraction) -> bool:
        return _on_arc(self, _frac(angle) % 1)


def _on_arc(arc: ArcObj, a: Fraction) -> bool:
    """``arc.contains(a)`` for ``a`` in [0, 1), on cross-multiplied ints."""
    s, e = arc.start, arc.end
    sn, sd = s._numerator, s._denominator
    en, ed = e._numerator, e._denominator
    an, ad = a._numerator, a._denominator
    from_start = sn * ad <= an * sd
    to_end = an * ed <= en * ad
    return from_start and to_end if sn * ed < en * sd else from_start or to_end


@_frozen
class DiskObj:
    center: Point


@_frozen
class RectObj:
    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self):
        a, b, c, d = self.x_min, self.x_max, self.y_min, self.y_max
        if not (a._numerator * b._denominator < b._numerator * a._denominator
                and c._numerator * d._denominator
                < d._numerator * c._denominator):
            raise ValidationError(f"degenerate rectangle {self}")


@_frozen
class GeometricInstance:
    """A scene of objects of one kind plus global parameters, valid for its
    kind once built: construction runs ``validate_instance`` last, so no
    solver, builder or command checks a scene again."""

    kind: str
    objects: tuple
    disk_radius: Optional[Fraction] = None

    def __post_init__(self):
        GeometricInstance.objects.__set__(self, tuple(self.objects))
        if self.disk_radius is not None:
            GeometricInstance.disk_radius.__set__(self, _frac(self.disk_radius))
        validate_instance(self)

    @property
    def n(self) -> int:
        return len(self.objects)


_OBJECT_TYPES = {
    INTERVALS: IntervalObj,
    ARCS: ArcObj,
    UNIT_DISKS: DiskObj,
    UNIT_SQUARES: RectObj,
    UNIT_HEIGHT_RECTS: RectObj,
    RECTS: RectObj,
}


def _unit_apart(lo: Fraction, hi: Fraction) -> bool:
    """hi == lo + 1, read off the lowest terms: lo + 1 keeps lo's
    denominator."""
    d = lo._denominator
    return hi._denominator == d and hi._numerator - lo._numerator == d


def validate_instance(instance: GeometricInstance):
    """Check kind/payload consistency and per-kind invariants: the one
    check, which every ``GeometricInstance`` runs when it is built."""
    if instance.kind not in KINDS:
        raise ValidationError(f"unknown kind {instance.kind!r}")
    want = _OBJECT_TYPES[instance.kind]
    for obj in instance.objects:
        if not isinstance(obj, want):
            raise ValidationError(
                f"kind {instance.kind!r} holds a {type(obj).__name__}"
            )
    if instance.kind == UNIT_DISKS:
        r = instance.disk_radius
        if r is None or r._numerator <= 0:
            raise ValidationError("unit_disks scene needs disk_radius > 0")
    elif instance.disk_radius is not None:
        raise ValidationError("disk_radius only applies to unit_disks scenes")
    if instance.kind == UNIT_SQUARES:
        for obj in instance.objects:
            if not (_unit_apart(obj.x_min, obj.x_max)
                    and _unit_apart(obj.y_min, obj.y_max)):
                raise ValidationError(f"non-unit square {obj}")
    if instance.kind == UNIT_HEIGHT_RECTS:
        for obj in instance.objects:
            if not _unit_apart(obj.y_min, obj.y_max):
                raise ValidationError(f"non-unit-height rectangle {obj}")


def _expect(instance: GeometricInstance, *kinds):
    """Reject a scene of a kind outside ``kinds``, then an empty scene."""
    if instance.kind not in kinds:
        wanted = " or ".join(map(repr, kinds))
        raise ValidationError(
            f"expected a scene of kind {wanted}, got {instance.kind!r}")
    if not instance.objects:
        raise ValidationError("instance has no objects")


def intervals_intersect(a: IntervalObj, b: IntervalObj) -> bool:
    return a.left <= b.right and b.left <= a.right


def arcs_intersect(a: ArcObj, b: ArcObj) -> bool:
    # Two closed arcs overlap iff one contains an endpoint of the other;
    # endpoints are in [0, 1) already, so none is reduced mod 1.
    return (
        _on_arc(a, b.start)
        or _on_arc(a, b.end)
        or _on_arc(b, a.start)
        or _on_arc(b, a.end)
    )


def disks_intersect(a: DiskObj, b: DiskObj, radius: Fraction) -> bool:
    # the squared center distance, cross-multiplied to ints, is at most (2r)^2
    p, q = _diameter_sq(radius)
    ax, ay, ad = _disk_ints(a)
    bx, by, bd = _disk_ints(b)
    dx = ax * bd - bx * ad
    dy = ay * bd - by * ad
    dd = ad * bd
    return q * (dx * dx + dy * dy) <= p * dd * dd


def _disk_ints(d: DiskObj):
    """A disk's center as ``(X, Y, D)`` ints with x = X/D and y = Y/D."""
    c = d.center
    x, y = c.x, c.y
    xd, yd = x._denominator, y._denominator
    den = lcm(xd, yd)
    return x._numerator * (den // xd), y._numerator * (den // yd), den


def _diameter_sq(radius):
    """(2r)^2 as ``(P, Q)`` ints with (2r)^2 = P/Q."""
    return (2 * radius._numerator) ** 2, radius._denominator ** 2


def rects_intersect(a: RectObj, b: RectObj) -> bool:
    return (
        a.x_min <= b.x_max
        and b.x_min <= a.x_max
        and a.y_min <= b.y_max
        and b.y_min <= a.y_max
    )


@_frozen
class IntersectionGraph:
    """Vertex-indexed adjacency; ``masks[i]`` is the neighbor bitmask of i.
    The masks are kept as a tuple, one per vertex."""

    n: int
    masks: tuple

    def __post_init__(self):
        masks = tuple(self.masks)
        if len(masks) != self.n:
            raise ValidationError(
                f"graph of {self.n} vertices needs {self.n} masks, "
                f"got {len(masks)}")
        IntersectionGraph.masks.__set__(self, masks)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.masks[i] >> j & 1)

    def induced_masks(self, subset: Sequence[int]):
        """Adjacency masks of the induced subgraph, relabelled 0..len-1."""
        order = list(subset)
        pos = {v: i for i, v in enumerate(order)}
        keep = 0
        for v in order:
            keep |= 1 << v
        out = []
        for v in order:
            m = 0
            nb = self.masks[v] & keep & ~(1 << v)
            while nb:
                low = nb & -nb
                nb ^= low
                m |= 1 << pos[low.bit_length() - 1]
            out.append(m)
        return out


def _ratio(num: int, den: int) -> float:
    """The correctly rounded float of num/den for den > 0, or an infinity
    of its sign beyond float range: monotone in the exact quotient, so a
    strict float order is the exact order."""
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _key(v: Fraction):
    """Exact sort key of a rational: ``(_ratio of v, v)``, read off its two
    slots.  The float decides most comparisons; equal floats fall back to
    the exact values."""
    try:
        return v._numerator / v._denominator, v
    except OverflowError:
        return (inf if v._numerator > 0 else -inf), v


def _positions(arcs):
    """``(starts, ends, size)``: the listed arcs' endpoint positions on a
    circle of ``size`` = D positions, D <= 2n being the number of distinct
    endpoint values.  Value v sits at position rank(v), ranked on exact
    ``_key``s, so positions keep every order and tie of the angles.  The
    stretches of circle between consecutive values have no position: a
    cut there is taken at the value before it (see ``arcs._unrolled``'s
    gap)."""
    n = len(arcs)
    keys = [_key(a.start) for a in arcs] + [_key(a.end) for a in arcs]
    positions = [0] * (2 * n)
    size, last = 0, None
    for j in sorted(range(2 * n), key=keys.__getitem__):
        if keys[j] != last:
            last = keys[j]
            size += 1
        positions[j] = size - 1
    return positions[:n], positions[n:], size


def _sweep_items(instance: GeometricInstance, indices):
    """What the kind's builder reads of each listed object, in list order:
    an arc itself; else the bounds of its closed x-extent, its index, and
    the ``_key``s of a rectangle's y-extent or a disk's ``_disk_ints``.
    Intervals and rectangles give exact ``_key`` bounds.  A disk gives the
    ``_ratio`` floats of its center x and of x + 2r, the largest center x of
    a disk it can meet: floats are monotone, so a strict float gap is an
    exact one, and a float tie costs only an exact test."""
    objs = instance.objects
    if instance.kind == INTERVALS:
        return [(_key(objs[i].left), _key(objs[i].right), i) for i in indices]
    if instance.kind == ARCS:
        return [objs[i] for i in indices]
    if instance.kind == UNIT_DISKS:
        r = instance.disk_radius
        reach, rd = 2 * r._numerator, r._denominator
        items = []
        for i in indices:
            x, y, d = _disk_ints(objs[i])
            items.append((_ratio(x, d), _ratio(x * rd + reach * d, d * rd), i,
                          x, y, d))
        return items
    items = []
    for i in indices:
        o = objs[i]
        items.append((_key(o.x_min), _key(o.x_max), i,
                      _key(o.y_min), _key(o.y_max)))
    return items


def _graph_over(instance: GeometricInstance, indices) -> IntersectionGraph:
    """The graph induced by ``indices``, as masks over all n objects with 0
    for every object not listed.

    Arcs are read from coverage masks: one pass over the ``_positions``
    gives, per position x, the mask of the arcs covering x and of those
    starting at or before x.  Arc b meets arc a iff b covers a's start or
    starts in the circular range (s(a), e(a)]: an arc that meets a but
    misses its start cannot enter a from outside, so it starts inside.
    That is O(n) operations on n-bit masks.

    The other kinds sort by left x and sweep (Bentley, Stanat & Williams
    1977): p can meet only the later q with left(q) <= right(p).  For
    intervals those are exactly its later neighbours, one run of the sorted
    list, and its earlier ones are the intervals still open, so no pair is
    tested.  Rectangles compare their y-extents and disks their integer
    squared distance, inline."""
    order = list(indices)
    items = _sweep_items(instance, order)
    masks = [0] * instance.n
    if instance.kind == ARCS:
        starts, ends, size = _positions(items)
        at_start, at_end = [0] * size, [0] * size
        wrapping = 0  # arcs through position 0 that do not start there
        for i, s, e in zip(order, starts, ends):
            at_start[s] |= 1 << i
            at_end[e] |= 1 << i
            if s > e:
                wrapping |= 1 << i
        # covering[x]: the arcs containing x; began[x]: those starting <= x
        covering, began = [], []
        current, b = wrapping, 0
        for x in range(size):
            current |= at_start[x]
            covering.append(current)
            current &= ~at_end[x]
            b |= at_start[x]
            began.append(b)
        for i, s, e in zip(order, starts, ends):
            inside = (began[e] & ~began[s] if s < e
                      else began[e] | began[-1] & ~began[s])
            masks[i] = (covering[s] | inside) & ~(1 << i)
        return IntersectionGraph(instance.n, tuple(masks))
    items.sort(key=itemgetter(0))
    if instance.kind == INTERVALS:
        lefts = [item[0] for item in items]
        # below[q]: the bits of items[:q]
        below = list(accumulate((1 << i for _, _, i in items), or_, initial=0))
        # closing[q]: the bits of the p whose run of later neighbours stops
        # at q; open_: those whose run reaches the current item
        closing = [0] * (len(items) + 1)
        open_ = 0
        for p, (_, right, i) in enumerate(items):
            open_ &= ~closing[p]
            stop = bisect_right(lefts, right, p + 1)
            closing[stop] |= 1 << i
            masks[i] = open_ | below[stop] & ~below[p + 1]
            open_ |= 1 << i
    elif instance.kind == UNIT_DISKS:
        num, den = _diameter_sq(instance.disk_radius)
        for p, (_, right, i, ax, ay, ad) in enumerate(items):
            bit, mask = 1 << i, 0
            for q in range(p + 1, len(items)):
                left, _, j, bx, by, bd = items[q]
                if left > right:
                    break
                dx = ax * bd - bx * ad
                dy = ay * bd - by * ad
                dd = ad * bd
                if den * (dx * dx + dy * dy) <= num * dd * dd:
                    mask |= 1 << j
                    masks[j] |= bit
            masks[i] |= mask
    else:  # rectangles, which the sweep leaves to overlap on y
        for p, (_, right, i, low, high) in enumerate(items):
            bit, mask = 1 << i, 0
            for q in range(p + 1, len(items)):
                left, _, j, b_low, b_high = items[q]
                if left > right:
                    break
                if low <= b_high and b_low <= high:
                    mask |= 1 << j
                    masks[j] |= bit
            masks[i] |= mask
    return IntersectionGraph(instance.n, tuple(masks))


def build_intersection_graph(instance: GeometricInstance) -> IntersectionGraph:
    """O(n log n) plus O(n) operations on n-bit masks for intervals and
    arcs, whose coverage masks hold O(n^2) bits; O(n log n) plus one exact
    test per pair whose x-extents overlap for disks and rectangles.  The
    scene was validated when it was built."""
    return _graph_over(instance, range(instance.n))


def _subset_mask(n: int, subset: Iterable[int]) -> int:
    mask = 0
    for v in subset:
        if type(v) is not int:
            raise ValidationError(f"subset index {v!r} is not an int")
        if not 0 <= v < n:
            raise ValidationError(f"subset index {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


def is_bipartite(g: IntersectionGraph, subset: Iterable[int]):
    """Proper 2-coloring of the induced subgraph, or None."""
    coloring, _ = _kernels.two_color(g.masks, _subset_mask(g.n, subset))
    return coloring


def is_triangle_free(g: IntersectionGraph, subset: Iterable[int]):
    """None if the induced subgraph has no K3, else the lex-first triple."""
    w = _kernels.triangle_witness(g.masks, _subset_mask(g.n, subset))
    return None if w is None else _kernels.mask_to_indices(w)


def is_independent(g: IntersectionGraph, subset: Iterable[int]):
    """None if the subset induces no edge, else the lex-first edge."""
    w = _kernels.edge_witness(g.masks, _subset_mask(g.n, subset))
    return None if w is None else _kernels.mask_to_indices(w)


@_frozen
class Solution:
    """A selected index subset plus an optional 2-coloring certificate."""

    selected: tuple
    coloring: Optional[dict] = None

    def __post_init__(self):
        selected = tuple(sorted(self.selected))
        if len(set(selected)) != len(selected):
            raise ValidationError(f"repeated indices in selection {selected}")
        Solution.selected.__set__(self, selected)

    @property
    def size(self) -> int:
        return len(self.selected)


# mode -> (witness name, witness bitmask of the selection or None)
_WITNESSES = {
    "bipartite": ("odd cycle witness",
                  lambda masks, mask: _kernels.two_color(masks, mask)[1]),
    "triangle_free": ("triangle witness", _kernels.triangle_witness),
    "independent": ("edge witness", _kernels.edge_witness),
}


def certify(
    g: IntersectionGraph, solution: Solution, mode: str = "bipartite"
) -> Solution:
    """Return ``solution`` if its selection is feasible for ``mode`` and its
    coloring, when given, is proper on exactly the selection.

    Otherwise raises ``CertificateError`` naming a witness; an index
    outside ``g`` or an unknown mode is a ``ValidationError``.
    """
    if mode not in _WITNESSES:
        raise ValidationError(f"unknown certificate mode {mode!r}")
    name, witness = _WITNESSES[mode]
    checks = [_subset_mask(g.n, solution.selected)]
    coloring = solution.coloring
    if mode == "bipartite" and coloring is not None:
        # a proper coloring leaves no edge inside either color class
        name, witness, sides = "monochromatic edge", _kernels.edge_witness, [0, 0]
        for v in solution.selected:
            c = coloring.get(v)
            if c not in (0, 1):
                raise CertificateError(f"uncolored vertex {v}")
            sides[c] |= 1 << v
        if len(coloring) != checks[0].bit_count():
            extra = sorted(set(coloring) - set(solution.selected))
            raise CertificateError(f"colored vertices outside the selection {extra}")
        checks = sides
    for mask in checks:
        w = witness(g.masks, mask)
        if w is not None:
            raise CertificateError(f"{name} {_kernels.mask_to_indices(w)}")
    return solution


def translate_instance(
    instance: GeometricInstance, dx: Fraction, dy: Fraction = 0
) -> GeometricInstance:
    """Shift every object by a common vector (1D kinds use only dx)."""
    dx, dy = _frac(dx), _frac(dy)
    objs = []
    for o in instance.objects:
        if isinstance(o, IntervalObj):
            objs.append(IntervalObj(o.left + dx, o.right + dx))
        elif isinstance(o, ArcObj):
            objs.append(ArcObj((o.start + dx) % 1, (o.end + dx) % 1))
        elif isinstance(o, DiskObj):
            objs.append(DiskObj(Point(o.center.x + dx, o.center.y + dy)))
        else:
            objs.append(
                RectObj(o.x_min + dx, o.x_max + dx, o.y_min + dy, o.y_max + dy)
            )
    return GeometricInstance(instance.kind, tuple(objs), instance.disk_radius)
