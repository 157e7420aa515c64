"""geombs benchmark: one workload, one seed, sequential, on one thread.

    python3 perfbench/run.py --workload scenes_large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` with
the pure-Python kernels forced.  Set-up imports geombs, then generates and
serialises the seeded corpus, several times; the median is ``setup_s``.  The
measured phase then parses and solves the whole corpus again and again for
about ``--seconds``, timing every item; an item's time is its fastest pass.
Every reported time is scaled to a fixed machine speed by a speed probe timed
before each pass.  Outputs are checked untimed after measuring.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 1`` the metrics are the per-layer
ones, from traced passes run after untraced ones.
"""
import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
PROBE_RUNS = 2  # speed probes before each pass
# The speed probe's fastest time on the machine the benchmark was built on, a
# 2-vCPU virtual machine with Python 3.11.7.  Reported times are scaled to it.
PROBE_NOMINAL_S = 0.0112


def _probe_scene():
    rng = random.Random(0)
    return json.dumps({"kind": "unit_disks", "disk_radius": "1", "objects": [
        {"x": f"{rng.randrange(160)}/4", "y": f"{rng.randrange(40)}/4"} for _ in range(36)]})


PROBE_TEXT = _probe_scene()


def import_geombs():
    """A fresh import of geombs from src/, so that set-up pays for it each time."""
    for name in [m for m in sys.modules if m == "geombs" or m.startswith("geombs.")]:
        del sys.modules[name]
    return importlib.import_module("geombs")


def set_up(workload, seed):
    """SETUP_REPEATS fresh set-ups; returns (geombs, items) of the last one and
    the median set-up and generate times."""
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        g = import_geombs()
        items, gen_s = corpus.build_items(g, workload, seed)
        setup_s.append(time.perf_counter() - start)
        generate_s.append(gen_s)
    return g, items, statistics.median(setup_s), statistics.median(generate_s)


def speed_probe():
    """Seconds for one run of a fixed task that does not use geombs.

    The task parses a fixed scene of 36 unit disks with the checker and finds
    every intersecting pair in exact Fractions: the same kind of work the
    solvers do.  Its fastest time in a run measures how fast the machine ran
    during that run.  The collector is off, so that however much the program
    keeps on its heap, the task's own time does not change.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        scene = check.Scene.from_doc(json.loads(PROBE_TEXT))
        n = len(scene.objects)
        [[j for j in range(n) if j != i and scene.intersect(i, j)] for i in range(n)]
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(g, items):
    """Parse and solve every item once; returns (pass seconds, item seconds,
    outputs).  An output is (selected, coloring) or the text of the exception
    the item raised."""
    times, outputs = [], []
    pass_start = time.perf_counter()
    for item in items:
        solve = corpus.ALGORITHMS[item.algorithm][0]
        start = time.perf_counter()
        try:
            instance, weights = g.serialize.instance_from_dict(json.loads(item.text))
            sol = solve(g, instance, weights)
            output = (list(sol.selected),
                      None if sol.coloring is None else sorted(sol.coloring.items()))
        except Exception as exc:  # a failing item is counted, not fatal
            output = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        outputs.append(output)
    return time.perf_counter() - pass_start, times, outputs


def measure(g, items, seconds, probes, reference=None, traced=False):
    """At least MIN_PASSES whole passes, then more while the next one, as long
    as the last, still ends within ``seconds``.  PROBE_RUNS speed probes run
    untraced before each pass; their times are appended to ``probes``.

    Returns (reference, passes).  The reference is the first pass's outputs
    unless one is given.  A pass is (seconds, item seconds, indices of the
    items whose output differs from the reference, spans); only the reference
    outputs are kept, so memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1][0] <= seconds):
        probes.extend(speed_probe() for _ in range(PROBE_RUNS))
        tracer = Tracer()
        with tracer.installed(g) if traced else contextlib.nullcontext():
            wall, times, outputs = run_pass(g, items)
        if reference is None:
            reference = outputs
        changed = [i for i, (out, ref) in enumerate(zip(outputs, reference)) if out != ref]
        passes.append((wall, times, changed, tracer.spans))
    return reference, passes


def item_seconds(passes):
    """Each item's time: its minimum over the passes.

    Other work on the machine only ever adds time to an item, and it comes
    and goes within seconds, so the fastest of several runs spread over the
    whole measurement is the steadiest estimate of the item's own cost.
    """
    return [min(times) for times in zip(*(times for _, times, _, _ in passes))]


def digest(items, outputs):
    h = hashlib.sha256()
    for item, output in zip(items, outputs):
        h.update(json.dumps([item.id, output]).encode())
    return h.hexdigest()


def find_problems(items, outputs):
    """Item index -> problems, from the checker, the guarantees and the identity."""
    problems = {}
    scenes = {}
    by_scene = {}
    for i, (item, output) in enumerate(zip(items, outputs)):
        if isinstance(output, str):
            problems[i] = [output]
            continue
        scene = scenes.get(item.text)
        if scene is None:
            scene = scenes[item.text] = check.Scene.from_doc(json.loads(item.text))
        if item.algorithm == "double_mbs":
            scene = scene.doubled()
        _, mode = corpus.ALGORITHMS[item.algorithm]
        selected, coloring = output
        found = check.check_output(scene, mode, selected,
                                   None if coloring is None else dict(coloring))
        if found:
            problems[i] = found
        by_scene.setdefault(item.scene_id, {})[item.algorithm] = (i, len(selected))

    for algos in by_scene.values():
        if "exact_mbs" in algos:
            opt = algos["exact_mbs"][1]
            for algorithm, (i, size) in algos.items():
                n = len(scenes[items[i].text].objects)
                if corpus.guarantee_holds(algorithm, n, size, opt) is False:
                    problems.setdefault(i, []).append(
                        f"{algorithm} size {size} breaks its guarantee (OPT {opt})")
        if "double_mbs" in algos and "exact_mis" in algos:
            i, mbs = algos["double_mbs"]
            mis = algos["exact_mis"][1]
            if mbs != 2 * mis:
                problems.setdefault(i, []).append(
                    f"MBS(double) = {mbs} but 2 MIS = {2 * mis}")
    return problems


def environment(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geombs" / "__init__.py").is_file():
        print(f"error: no geombs sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ["GEOMBS_PURE_PYTHON"] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    g, items, setup_s, generate_s = set_up(args.workload, args.seed)
    env = environment(args)
    env["backend"] = g.BACKEND
    if g.BACKEND != "python":
        print(f"error: expected the pure-Python backend, got {g.BACKEND}", file=sys.stderr)
        return 2

    seconds = args.seconds / 2 if args.trace else args.seconds
    probes = []
    reference, plain = measure(g, items, seconds, probes)
    traced = (measure(g, items, seconds, probes, reference, traced=True)[1]
              if args.trace else [])
    # A shared host can run a whole run slower, for longer than a run lasts,
    # and the probe slows with it; scaling every time by the probe's fastest
    # time in the run cancels that and leaves the program's own cost.
    scale = PROBE_NOMINAL_S / min(probes)
    env["probe_fastest_s"] = min(probes)
    env["time_scale"] = scale

    problems = find_problems(items, reference)
    runs = plain + traced
    attempted = len(items) * len(runs)
    # an item run fails if its item failed a check or its output changed
    failed = sum(len(problems.keys() | set(changed)) for _, _, changed, _ in runs)
    plain_digest = digest(items, reference)
    same_digest = not any(changed for _, _, changed, _ in traced)

    times = item_seconds(plain)
    corpus_s = sum(times)
    if args.trace:
        per_pass = [layer_metrics(spans) for _, _, _, spans in traced]
        values = {k: min(p[k] for p in per_pass) for k in per_pass[0]}
        values["generate.s"] = generate_s
        values["trace.overhead_s"] = sum(item_seconds(traced)) - corpus_s
        units = {k: "s" if k.endswith(("_s", ".s")) else "count" for k in values}
        units["model.edge_yield"] = "edge/pair"
    else:
        p90 = statistics.quantiles(times, n=10)[8]
        values = {
            "corpus_s": corpus_s,
            "solve_ms.p50": statistics.median(times) * 1e3,
            "solve_ms.p90": p90 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "selected_total": sum(len(o[0]) for o in reference if not isinstance(o, str)),
        }
        units = {"corpus_s": "s", "solve_ms.p50": "ms", "solve_ms.p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB", "selected_total": "objects"}
    raw = values
    values = {k: v * scale if units[k] in ("s", "ms") else v for k, v in raw.items()}

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# items={len(items)} passes={len(plain)}+{len(traced)} "
          f"digest={plain_digest[:16]} traced_digest_matches={same_digest}")
    if not args.trace:
        print(f"# solve_ms.p90 over {len(times)} items, "
              f"{sum(t > p90 for t in times)} above it")
    print(f"# error_rate={failed}/{attempted} failed/attempted")
    print(f"# speed probe fastest {min(probes) * 1e3:.4g} ms over {len(probes)} runs, "
          f"nominal {PROBE_NOMINAL_S * 1e3:.4g} ms: times below are scaled by {scale:.4f}")
    for i, found in sorted(problems.items()):
        print(f"# FAIL {items[i].id}: {'; '.join(found)}")
    for name, value in values.items():
        unscaled = f" (unscaled {raw[name]:.6g})" if value != raw[name] else ""
        print(f"# {name} = {value:.6g} {units[name]}{unscaled}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": env, "digest": plain_digest, "metrics": values, "unscaled": raw,
              "failed": failed, "attempted": attempted,
              "items": {item.id: t for item, t in zip(items, times)},
              "pass_s": [wall for wall, _, _, _ in runs],
              "span_fields": ["name", "start_ns", "end_ns", "parent", "counts"],
              "spans_per_traced_pass": [spans for _, _, _, spans in traced]}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    result = {
        "correct": failed == 0 and same_digest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
