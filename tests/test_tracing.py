"""The benchmark tracer's contract with the package: every module name it
patches exists, and tracing changes no result.  ``perfbench/tracing.py`` is
read from its source, so nothing is written beside it."""
import types
from fractions import Fraction
from pathlib import Path

import geombs

SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("tracing")
    exec(compile(SOURCE.read_text(), str(SOURCE), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists():
    patches = load_tracing()._patches(geombs)
    missing = [(ns.__name__, attr) for ns, attr, _, _ in patches
               if not hasattr(ns, attr)]
    assert patches and not missing, missing


def test_tracing_changes_no_result():
    tracer = load_tracing().Tracer()
    scene = geombs.generate_instance("unit_disks", 200, 1)
    plain = geombs.solve_ptas(scene, Fraction(1, 2))
    with tracer.installed(geombs):
        traced = geombs.solve_ptas(scene, Fraction(1, 2))
    assert traced == plain
    assert {"ptas.solve", "model.graph"} <= {name for name, *_ in tracer.spans}
    assert geombs.solve_ptas.__module__ == "geombs.ptas"  # patches undone
