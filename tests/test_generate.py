"""Seeded generators: determinism, pinned output and per-mode constraints."""
import hashlib
import json
from fractions import Fraction as F

import pytest

from geombs import (
    KINDS,
    UNIT_DISKS,
    ValidationError,
    generate_instance,
    generate_weights,
    serialize,
)
from geombs.generate import DISK_MODES


@pytest.mark.parametrize("kind", KINDS)
def test_deterministic(kind):
    a = generate_instance(kind, 9, 123)
    b = generate_instance(kind, 9, 123)
    assert a == b
    c = generate_instance(kind, 9, 124)
    assert a != c


def test_scenes_are_pinned():
    # seeded scenes are benchmark and test corpora: a rewrite of the
    # generator must not move one coordinate of any kind, disk mode or radius
    digest = hashlib.sha256()
    for kind in KINDS:
        for seed in range(40):
            variants = ([{"disk_mode": m, "radius": r, "slab_k": 1 + seed % 3}
                         for m in DISK_MODES for r in (F(1), F(3, 2), F(2, 3))]
                        if kind == UNIT_DISKS else [{}])
            for options in variants:
                inst = generate_instance(kind, 9, seed, spread=1 + seed % 12,
                                         **options)
                doc = serialize.instance_to_dict(inst)
                digest.update(json.dumps(doc).encode())
    assert digest.hexdigest()[:16] == "f33d18ffd71e6939"


def test_single_object():
    inst = generate_instance(UNIT_DISKS, 1, 0)
    assert inst.n == 1


def test_distinct_interval_endpoints():
    for seed in range(50):
        inst = generate_instance("intervals", 10, seed)
        pts = [p for o in inst.objects for p in (o.left, o.right)]
        assert len(set(pts)) == len(pts)


def test_distinct_arc_endpoints():
    for seed in range(50):
        inst = generate_instance("arcs", 10, seed)
        pts = [p for o in inst.objects for p in (o.start, o.end)]
        assert len(set(pts)) == len(pts)
        assert all(0 <= p < 1 for p in pts)


def test_one_sided_mode_constraint():
    for seed in range(50):
        inst = generate_instance(
            UNIT_DISKS, 8, seed, radius=F(3, 2), disk_mode="one_sided"
        )
        r = inst.disk_radius
        assert all(0 <= d.center.y <= r for d in inst.objects)


def test_two_sided_mode_constraint():
    for seed in range(50):
        inst = generate_instance(UNIT_DISKS, 8, seed, disk_mode="two_sided")
        r = inst.disk_radius
        assert all(-r <= d.center.y <= r for d in inst.objects)


def test_slab_mode_constraint():
    for seed in range(50):
        inst = generate_instance(
            UNIT_DISKS, 8, seed, disk_mode="slab", slab_k=3
        )
        r = inst.disk_radius
        for d in inst.objects:
            assert 0 <= d.center.y - r and d.center.y + r <= 3 * 2 * r


def test_parameter_validation():
    with pytest.raises(ValidationError):
        generate_instance("blobs", 3, 0)
    with pytest.raises(ValidationError):
        generate_instance(UNIT_DISKS, 0, 0)
    with pytest.raises(ValidationError):
        generate_instance(UNIT_DISKS, 3, 0, disk_mode="sideways")
    with pytest.raises(ValidationError):
        generate_instance(UNIT_DISKS, 3, 0, radius=0)
    with pytest.raises(ValidationError):
        generate_instance(UNIT_DISKS, 3, 0, spread=0)
    with pytest.raises(ValidationError, match="slab_k must be >= 1"):
        generate_instance(UNIT_DISKS, 3, 0, disk_mode="slab", slab_k=0)
    with pytest.raises(ValidationError, match="n >= 1 weights"):
        generate_weights(0, 1)


@pytest.mark.parametrize("radius", [0.5, True, " 1", "+1", "1.5"])
def test_radius_is_an_exact_rational(radius):
    # the radius reads as every other rational does, never coerced
    with pytest.raises(ValidationError):
        generate_instance(UNIT_DISKS, 3, 0, radius=radius)
    assert (generate_instance(UNIT_DISKS, 3, 0, radius="3/2")
            == generate_instance(UNIT_DISKS, 3, 0, radius=F(3, 2)))


@pytest.mark.parametrize("name, value", [
    ("n", True), ("n", 2.5), ("n", "3"),
    ("spread", 2.7), ("spread", True), ("spread", F(2)),
    ("slab_k", 2.0), ("slab_k", True),
])
def test_counts_must_be_ints(name, value):
    args = dict({"n": 3, "spread": 2, "slab_k": 2}, **{name: value})
    with pytest.raises(ValidationError, match=f"{name} must be an int"):
        generate_instance(UNIT_DISKS, args.pop("n"), 0, disk_mode="slab", **args)


def test_weights_deterministic_and_positive():
    a = generate_weights(6, 5)
    assert a == generate_weights(6, 5)
    assert all(w > 0 for w in a)
