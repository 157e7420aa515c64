"""Ratio benchmark: run solver suites over generated corpora.

Each row records one (instance, algorithm) run with the solution size, the
exact optimum from the branch-and-bound oracle when requested, the ratio
optimum/size, the wall time, and whether the algorithm's proven guarantee
held.  Instances are solved one after another, so each row's time is that
solve alone; rows are sorted by instance id and algorithm.
"""
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arcs import solve_arcs
from .diskgeneral import solve_3approx, solve_logn
from .diskline import solve_one_sided, solve_two_sided
from .errors import ValidationError
from .generate import generate_instance
from .intervals import solve_intervals
from .model import (
    ARCS,
    INTERVALS,
    RECTS,
    UNIT_DISKS,
    UNIT_HEIGHT_RECTS,
    UNIT_SQUARES,
    build_intersection_graph,
)
from .oracle import exact_mbs
from .ptas import solve_ptas
from .rects import solve_unit_height

DEFAULT_EPSILON = Fraction(1, 2)


def _solve_oracle(instance):
    return exact_mbs(build_intersection_graph(instance))


# name -> (solver, guarantee factor as a function of n; factor * size >= OPT)
ALGORITHMS = {
    "intervals": (solve_intervals, lambda n: Fraction(1)),
    "arcs": (solve_arcs, None),  # additive: size >= OPT - 1
    "one_sided": (solve_one_sided, lambda n: Fraction(1)),
    "two_sided": (solve_two_sided, lambda n: Fraction(2)),
    "3approx": (solve_3approx, lambda n: Fraction(3)),
    "logn": (solve_logn,
             lambda n: max(Fraction(1), 2 * Fraction(math.log2(n)))),
    # k = ceil(1/epsilon) = 2 at the default epsilon, so the factor is 2.
    "ptas": (lambda inst: solve_ptas(inst, DEFAULT_EPSILON),
             lambda n: Fraction(math.ceil(1 / DEFAULT_EPSILON),
                                math.ceil(1 / DEFAULT_EPSILON) - 1)),
    "unit_height": (solve_unit_height, lambda n: Fraction(2)),
    "oracle": (_solve_oracle, lambda n: Fraction(1)),
}

# default suites per (kind, disk mode)
_SUITES = {
    INTERVALS: ("intervals",),
    ARCS: ("arcs",),
    UNIT_SQUARES: ("ptas",),
    UNIT_HEIGHT_RECTS: ("unit_height",),
    RECTS: ("oracle",),
}
_DISK_SUITES = {
    "general": ("3approx", "logn", "ptas"),
    "slab": ("3approx", "logn", "ptas"),
    "one_sided": ("one_sided",),
    "two_sided": ("two_sided",),
}


def default_suite(kind: str, disk_mode: str = "general"):
    if kind == UNIT_DISKS:
        return _DISK_SUITES[disk_mode]
    return _SUITES[kind]


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    algorithm: str
    size: int
    optimum: Optional[int]
    ratio: Optional[Fraction]
    seconds: float
    within_guarantee: Optional[bool]


@dataclass(frozen=True)
class BenchReport:
    rows: tuple

    def aggregates(self):
        """Algorithm -> (min ratio, mean ratio) over oracle-enabled rows."""
        per = {}
        for row in self.rows:
            if row.ratio is not None:
                per.setdefault(row.algorithm, []).append(row.ratio)
        return {
            algo: (min(ratios), sum(ratios) / len(ratios))
            for algo, ratios in sorted(per.items())
        }

    def to_tsv(self) -> str:
        lines = ["instance\talgorithm\tsize\toptimum\tratio\tseconds\tok"]
        for r in self.rows:
            lines.append("\t".join([
                r.instance_id,
                r.algorithm,
                str(r.size),
                "-" if r.optimum is None else str(r.optimum),
                "-" if r.ratio is None else f"{float(r.ratio):.4f}",
                f"{r.seconds:.4f}",
                "-" if r.within_guarantee is None else str(r.within_guarantee),
            ]))
        for algo, (lo, mean) in self.aggregates().items():
            lines.append(
                f"# {algo}\tmin_ratio={float(lo):.4f}\tmean_ratio={float(mean):.4f}"
            )
        return "\n".join(lines) + "\n"


def _within(algorithm, n, size, optimum):
    if optimum is None:
        return None
    if algorithm == "arcs":
        return size >= optimum - 1
    factor = ALGORITHMS[algorithm][1](n)
    return factor * size >= optimum


def bench_instance(instance, instance_id, algorithms, with_oracle=True):
    """Rows for one instance; the oracle optimum is computed once."""
    optimum = None
    if with_oracle:
        optimum = exact_mbs(build_intersection_graph(instance)).size
    rows = []
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {name!r}")
        solver = ALGORITHMS[name][0]
        start = time.perf_counter()
        sol = solver(instance)
        elapsed = time.perf_counter() - start
        ratio = (Fraction(optimum, sol.size)
                 if optimum is not None and sol.size else None)
        rows.append(BenchRow(
            instance_id, name, sol.size, optimum, ratio, elapsed,
            _within(name, instance.n, sol.size, optimum),
        ))
    return rows


def run_bench(
    kind: str,
    count: int,
    n: int,
    seed: int,
    algorithms=None,
    with_oracle: bool = True,
    disk_mode: str = "general",
) -> BenchReport:
    if count < 1:
        raise ValidationError("need count >= 1 instances")
    if algorithms is None:
        algorithms = default_suite(kind, disk_mode)
    width = len(str(count - 1))
    rows = []
    for i in range(count):
        instance = generate_instance(kind, n, seed + i, disk_mode=disk_mode)
        rows += bench_instance(instance, f"{kind}-{i:0{width}d}",
                               algorithms, with_oracle)
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    return BenchReport(tuple(rows))
