"""The certificate gate holds without ``assert``: no module uses one, and a
wrong solver result is still refused under ``python -O``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import geombs

PACKAGE = Path(geombs.__file__).parent


def test_library_has_no_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


# A 3-clique on the line; the patched chain DP claims all three disks.
WRONG_CHAIN = """
from geombs import (CertificateError, DiskObj, GeometricInstance, Point,
                    UNIT_DISKS, _kernels, solve_one_sided)
_kernels.chain_mbs = lambda masks: (3, [0, 1, 2])
inst = GeometricInstance(UNIT_DISKS, tuple(DiskObj(Point(x, 0))
                                           for x in (0, 1, 2)), 1)
try:
    solve_one_sided(inst)
except CertificateError as exc:
    print("refused:", exc)
"""


def test_wrong_result_refused_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-O", "-c", WRONG_CHAIN], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused: odd cycle witness (0, 1, 2)"), out.stdout
