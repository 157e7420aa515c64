"""Maximum bipartite subgraph solvers for geometric intersection graphs.

Exact algorithms for intervals, near-optimal for circular arcs, an exact
DP for unit disks stabbed one-sided by a line, constant/log-factor
approximations for line-stabbed and general unit disks, a shifting PTAS
for unit disks and unit squares (weighted too), a 2-approximation for
unit-height rectangles, an exact branch-and-bound oracle for small scenes,
and a doubling reduction tying bipartite subgraphs to independent sets.
"""
from .arcs import solve_arcs
from .bench import BenchReport, BenchRow, bench_instance, run_bench
from .diskgeneral import SlabAssignment, assign_slabs, solve_3approx, solve_logn
from .diskline import one_sided_mis, solve_one_sided, solve_two_sided
from .errors import CapacityError, CertificateError, GeombsError, ValidationError
from .generate import generate_instance, generate_weights
from .intervals import solve_intervals
from .model import (
    ARCS,
    INTERVALS,
    KINDS,
    RECTS,
    UNIT_DISKS,
    UNIT_HEIGHT_RECTS,
    UNIT_SQUARES,
    ArcObj,
    DiskObj,
    GeometricInstance,
    IntersectionGraph,
    IntervalObj,
    Point,
    RectObj,
    Solution,
    build_intersection_graph,
    certify,
    is_bipartite,
    is_independent,
    is_triangle_free,
    translate_instance,
    validate_instance,
)
from .oracle import exact_mbs, exact_mis, exact_mtfs
from .ptas import SlabDag, build_slab_dag, solve_ptas, solve_ptas_weighted, solve_slab
from .rects import solve_unit_height
from .reductions import double_instance
from .serialize import (
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)

__version__ = "0.1.0"

# The kernels are pure Python; benchmark records report this name.
BACKEND = "python"

__all__ = [
    "ARCS",
    "BACKEND",
    "BenchReport",
    "BenchRow",
    "CapacityError",
    "CertificateError",
    "GeombsError",
    "GeometricInstance",
    "INTERVALS",
    "IntersectionGraph",
    "ArcObj",
    "DiskObj",
    "IntervalObj",
    "KINDS",
    "Point",
    "RECTS",
    "RectObj",
    "SlabAssignment",
    "SlabDag",
    "Solution",
    "UNIT_DISKS",
    "UNIT_HEIGHT_RECTS",
    "UNIT_SQUARES",
    "ValidationError",
    "assign_slabs",
    "bench_instance",
    "build_intersection_graph",
    "build_slab_dag",
    "certify",
    "double_instance",
    "exact_mbs",
    "exact_mis",
    "exact_mtfs",
    "generate_instance",
    "generate_weights",
    "is_bipartite",
    "is_independent",
    "is_triangle_free",
    "load_instance",
    "load_solution",
    "one_sided_mis",
    "run_bench",
    "save_instance",
    "save_solution",
    "solve_3approx",
    "solve_arcs",
    "solve_intervals",
    "solve_logn",
    "solve_one_sided",
    "solve_ptas",
    "solve_ptas_weighted",
    "solve_slab",
    "solve_two_sided",
    "solve_unit_height",
    "translate_instance",
    "validate_instance",
]
