"""Deterministic seeded scene generators for every supported kind.

All coordinates come out on a quarter-unit grid (eighth of a turn for
arcs), so tangencies and shared endpoints occur with useful frequency
while staying exactly representable.  Interval and arc endpoints are drawn
without replacement, so they are pairwise distinct by construction.  Values
are built from their ints by ``model._from_ints``, one object per distinct
value of a scene, as a parsed document has them: equal coordinates are one
object, so a tie between two of them never reaches ``Fraction.__eq__``.
"""
import random
from fractions import Fraction

from .errors import ValidationError
from .model import (
    ARCS,
    INTERVALS,
    KINDS,
    RECTS,
    UNIT_DISKS,
    UNIT_SQUARES,
    ArcObj,
    DiskObj,
    GeometricInstance,
    IntervalObj,
    Point,
    RectObj,
    _frac,
    _from_ints,
)

DISK_MODES = ("general", "one_sided", "two_sided", "slab")
GRID = 4  # coordinate denominator


def _grid_units(rng, lo_units, hi_units) -> int:
    """Uniform grid point in [lo_units, hi_units], in quarter-units."""
    return rng.randrange(lo_units, hi_units + 1)


def _values(units, num=1, den=GRID):
    """The rationals u * num / den of the ints ``units``, in order, one
    object per distinct value."""
    value = {u: _from_ints(u * num, den) for u in set(units)}
    return [value[u] for u in units]


def generate_instance(
    kind: str,
    n: int,
    seed: int,
    spread=None,
    radius=Fraction(1),
    disk_mode: str = "general",
    slab_k: int = 2,
) -> GeometricInstance:
    """Pseudo-random scene; identical arguments give an identical scene.

    ``spread`` controls the x-extent in object units (defaults to the object
    count, a density that mixes dense and sparse regions).  Disk modes:
    ``general`` places centers anywhere, ``one_sided`` keeps center heights
    in [0, r], ``two_sided`` in [-r, r], and ``slab`` confines whole disks
    to a slab of ``slab_k`` diameters starting at y = 0.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    spread = n if spread is None else spread
    for name, value in (("n", n), ("spread", spread), ("slab_k", slab_k)):
        if type(value) is not int:
            raise ValidationError(f"{name} must be an int, got {value!r}")
    if n < 1:
        raise ValidationError("need n >= 1 objects")
    if disk_mode not in DISK_MODES:
        raise ValidationError(f"unknown disk mode {disk_mode!r}")
    radius = _frac(radius)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    if slab_k < 1:
        raise ValidationError("slab_k must be >= 1")
    if spread < 1:
        raise ValidationError("spread must be >= 1")
    rng = random.Random(seed)

    if kind == INTERVALS:
        pool = max(GRID * spread, 2 * n)
        units = rng.sample(range(pool + 1), 2 * n)
        rng.shuffle(units)
        ends = _values([u for a, b in zip(units[::2], units[1::2])
                        for u in (min(a, b), max(a, b))])
        objs = tuple(map(IntervalObj, ends[::2], ends[1::2]))
        return GeometricInstance(INTERVALS, objs)

    if kind == ARCS:
        den = max(2 * GRID * n, 8)
        units = rng.sample(range(den), 2 * n)
        rng.shuffle(units)
        values = _values(units, den=den)
        objs = tuple(map(ArcObj, values[::2], values[1::2]))
        return GeometricInstance(ARCS, objs)

    if kind == UNIT_DISKS:
        # center heights in quarter-radii; a slab disk lies inside
        # [0, slab_k * 2r], so its center is in r*[1, 2k-1]
        lo, hi = {"one_sided": (0, GRID), "two_sided": (-GRID, GRID),
                  "slab": (GRID, GRID * (2 * slab_k - 1))
                  }.get(disk_mode, (0, GRID * spread))
        rn, rd = radius.as_integer_ratio()
        units = []
        for _ in range(n):
            units += (_grid_units(rng, 0, GRID * spread), _grid_units(rng, lo, hi))
        values = _values(units, rn, rd * GRID)
        objs = tuple(DiskObj(Point(x, y))
                     for x, y in zip(values[::2], values[1::2]))
        return GeometricInstance(UNIT_DISKS, objs, radius)

    units = []
    for _ in range(n):
        x0 = _grid_units(rng, 0, GRID * spread)
        y0 = _grid_units(rng, 0, GRID * spread)
        w = GRID if kind == UNIT_SQUARES else _grid_units(rng, 1, 2 * GRID)
        h = _grid_units(rng, 1, 2 * GRID) if kind == RECTS else GRID
        units += (x0, x0 + w, y0, y0 + h)
    values = _values(units)
    objs = tuple(map(RectObj, values[::4], values[1::4], values[2::4],
                     values[3::4]))
    return GeometricInstance(kind, objs)


def generate_weights(n: int, seed: int):
    """Deterministic positive rational weights on the quarter-unit grid."""
    if n < 1:
        raise ValidationError("need n >= 1 weights")
    rng = random.Random(seed)
    return _values([rng.randrange(1, 4 * GRID + 1) for _ in range(n)])
