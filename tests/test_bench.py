"""Benchmark harness: row structure, guarantee columns, and aggregates."""
from fractions import Fraction as F

import pytest

from geombs import ValidationError, run_bench
from geombs.bench import default_suite


def test_rows_sorted_and_within_guarantees():
    report = run_bench("intervals", 8, 9, seed=5)
    ids = [r.instance_id for r in report.rows]
    assert ids == sorted(ids)
    for row in report.rows:
        assert row.ratio is not None and row.ratio >= 1
        assert row.within_guarantee is True
        assert row.ratio == F(row.optimum, row.size)


def test_exact_algorithms_hit_ratio_one():
    report = run_bench("intervals", 5, 8, seed=2)
    lo, mean = report.aggregates()["intervals"]
    assert lo == mean == 1


def test_disk_suite_guarantees():
    report = run_bench("unit_disks", 5, 9, seed=3, disk_mode="general")
    algos = {r.algorithm for r in report.rows}
    assert algos == set(default_suite("unit_disks", "general"))
    assert all(r.within_guarantee for r in report.rows)


def test_arc_suite_within_one_of_the_optimum():
    # arcs carry an additive guarantee, size >= OPT - 1, not a factor; two
    # of these scenes sit exactly at the bound
    report = run_bench("arcs", 20, 10, seed=220)
    assert {r.algorithm for r in report.rows} == {"arcs"}
    assert all(r.within_guarantee is True for r in report.rows)
    assert any(r.size == r.optimum - 1 for r in report.rows)


def test_no_oracle_mode():
    report = run_bench("arcs", 3, 6, seed=1, with_oracle=False)
    assert all(r.optimum is None and r.ratio is None for r in report.rows)
    assert report.aggregates() == {}


def test_tsv_shape():
    report = run_bench("unit_height_rects", 3, 6, seed=4)
    text = report.to_tsv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("instance\talgorithm")
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 3
    assert any(l.startswith("# unit_height") for l in lines)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValidationError):
        run_bench("intervals", 1, 4, seed=0, algorithms=["magic"])


def test_no_instances_rejected():
    with pytest.raises(ValidationError, match="count >= 1"):
        run_bench("intervals", 0, 4, seed=0)
