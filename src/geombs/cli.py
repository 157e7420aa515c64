"""Command-line surface: generate, solve, oracle, verify, bench, reduce.

Exit codes: 0 success, 1 failed certificate check, 2 usage error, 3 invalid
input, 4 capacity exceeded.  Errors print one machine-readable line
``error:<category>: <message>`` on stderr.
"""
import argparse
import sys

from .bench import ALGORITHMS, default_suite, run_bench
from .diskline import _line_sides
from .errors import CertificateError, GeombsError, ValidationError
from .generate import DISK_MODES, generate_instance, generate_weights
from .model import (
    KINDS,
    RECTS,
    UNIT_DISKS,
    UNIT_SQUARES,
    _graph_over,
    _subset_mask,
    build_intersection_graph,
    certify,
)
from .oracle import exact_mbs, exact_mis, exact_mtfs
from .ptas import solve_ptas, solve_ptas_weighted
from .reductions import double_instance
from .serialize import (
    load_instance,
    load_solution,
    parse_rational,
    save_instance,
    save_solution,
)

_EXIT_BY_CATEGORY = {"certificate": 1, "validation": 3, "capacity": 4}
_WEIGHTED_KINDS = (UNIT_DISKS, UNIT_SQUARES)  # the kinds 'ptas' weighs


def _load_unweighted(path, command):
    """The scene at ``path``; ``command`` reads no weights, so it has none."""
    instance, weights = load_instance(path)
    if weights:
        raise ValidationError(f"command {command!r} is unweighted; the scene "
                              "has weights")
    return instance


def _pick_algorithm(instance, weights):
    """Strongest applicable algorithm for the scene: on disks, one-sided
    where ``solve_one_sided`` takes the scene, two-sided where the line
    y = 0 stabs it; the PTAS is the only one that reads weights."""
    if weights and instance.kind in _WEIGHTED_KINDS:
        return "ptas"
    if instance.kind == UNIT_DISKS:
        if None not in _line_sides(instance):
            return "one_sided"
        return "3approx" if None in _line_sides(instance, 0) else "two_sided"
    if instance.kind == RECTS:
        return "oracle"  # general rectangles have no guarantee algorithm
    return default_suite(instance.kind)[0]


def _cmd_generate(args):
    instance = generate_instance(
        args.kind, args.n, args.seed,
        spread=args.spread, radius=parse_rational(args.radius),
        disk_mode=args.disk_mode, slab_k=args.slab_k,
    )
    weights = generate_weights(args.n, args.seed) if args.weights else None
    save_instance(instance, args.output, weights)
    print(f"generated {args.kind} n={args.n} seed={args.seed} -> {args.output}")
    return 0


def _cmd_solve(args):
    instance, weights = load_instance(args.instance)
    eps = parse_rational(args.epsilon)  # on every scene, read or not
    algo = args.algo
    if algo == "auto":
        algo = _pick_algorithm(instance, weights)
    if weights and algo != "ptas":  # an empty scene has nothing to weigh
        hint = ("a weighted scene needs 'ptas'" if instance.kind in _WEIGHTED_KINDS
                else f"no solver reads weights for {instance.kind}")
        raise ValidationError(f"algorithm {algo!r} ignores weights; {hint}")
    if algo == "ptas":
        sol = (solve_ptas_weighted(instance, weights, eps)
               if weights is not None else solve_ptas(instance, eps))
    else:
        sol = ALGORITHMS[algo][0](instance)
    if args.output:
        save_solution(sol, args.output)
    print(f"solved kind={instance.kind} n={instance.n} algo={algo} "
          f"size={sol.size} selected={list(sol.selected)}")
    return 0


def _cmd_oracle(args):
    instance = _load_unweighted(args.instance, "oracle")
    graph = build_intersection_graph(instance)
    solver = {"bipartite": exact_mbs, "triangle_free": exact_mtfs,
              "independent": exact_mis}[args.mode]
    sol = solver(graph, cap=args.cap)
    if args.output:
        save_solution(sol, args.output, mode=args.mode)
    print(f"oracle kind={instance.kind} n={instance.n} mode={args.mode} "
          f"size={sol.size} selected={list(sol.selected)}")
    return 0


def _cmd_verify(args):
    instance, _ = load_instance(args.instance)
    solution, mode = load_solution(args.solution)
    _subset_mask(instance.n, solution.selected)  # before the graph indexes them
    try:
        # the selection's graph holds every edge the certificate can name
        certify(_graph_over(instance, solution.selected), solution, mode)
    except CertificateError as exc:
        print(f"verify: FAIL {exc}")
        return 1
    print(f"verify: OK mode={mode} size={solution.size}")
    return 0


def _cmd_bench(args):
    algorithms = args.algos.split(",") if args.algos else None
    report = run_bench(
        args.kind, args.count, args.n, args.seed,
        algorithms=algorithms, with_oracle=not args.no_oracle,
        disk_mode=args.disk_mode,
    )
    text = report.to_tsv()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    if any(row.within_guarantee is False for row in report.rows):
        return 1
    return 0


def _cmd_reduce(args):
    instance = _load_unweighted(args.instance, "reduce")
    doubled = double_instance(instance)
    save_instance(doubled, args.output)
    print(f"doubled kind={instance.kind} n={instance.n} -> "
          f"{doubled.n} objects in {args.output}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geombs",
        description="Maximum bipartite subgraph solvers for geometric "
                    "intersection graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a pseudo-random instance file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--spread", type=int, default=None)
    p.add_argument("--radius", default="1")
    p.add_argument("--disk-mode", choices=DISK_MODES, default="general")
    p.add_argument("--slab-k", type=int, default=2)
    p.add_argument("--weights", action="store_true",
                   help="attach random positive weights")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run a guarantee algorithm on an instance")
    p.add_argument("instance")
    p.add_argument("--algo", default="auto",
                   choices=("auto",) + tuple(sorted(ALGORITHMS)))
    p.add_argument("--epsilon", default="1/2",
                   help="accuracy parameter for the shifting solver; "
                   "every scene checks its grammar")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle",
                       help="exact optimum of a small instance (branch and bound)")
    p.add_argument("instance")
    p.add_argument("--mode", default="bipartite",
                   choices=("bipartite", "triangle_free", "independent"))
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="re-check a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="ratio benchmark over a generated corpus")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--algos", default=None,
                   help="comma-separated algorithm names")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--disk-mode", choices=DISK_MODES, default="general")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("reduce", help="double every object in place")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeombsError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return _EXIT_BY_CATEGORY.get(exc.category, 3)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
