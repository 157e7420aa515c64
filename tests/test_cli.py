"""Command-line surface: round-trips, dispatch, and exit codes."""
import json

import pytest

from geombs import (
    INTERVALS,
    KINDS,
    GeometricInstance,
    IntervalObj,
    build_intersection_graph,
    load_instance,
    save_instance,
)
from geombs.cli import run_cli


def cli(*argv):
    return run_cli([str(a) for a in argv])


def gen(tmp_path, kind, n=8, seed=3, **kw):
    path = tmp_path / f"{kind}.json"
    argv = ["generate", "--kind", kind, "--n", n, "--seed", seed,
            "-o", path]
    for flag, value in kw.items():
        argv += [f"--{flag.replace('_', '-')}", value]
    assert cli(*argv) == 0
    return path


@pytest.mark.parametrize("kind", KINDS)
def test_generate_solve_verify_round_trip(tmp_path, kind, capsys):
    inst = gen(tmp_path, kind)
    sol = tmp_path / "sol.json"
    assert cli("solve", inst, "-o", sol) == 0
    assert cli("verify", inst, sol) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out


def test_tampered_solution_fails_with_witness(tmp_path, capsys):
    inst = gen(tmp_path, "intervals", n=10, seed=1)
    sol = tmp_path / "sol.json"
    assert cli("oracle", inst, "-o", sol) == 0
    doc = json.loads(sol.read_text())
    doc["selected"] = list(range(10))  # stuff everything back in
    doc.pop("coloring", None)
    sol.write_text(json.dumps(doc))
    assert cli("verify", inst, sol) == 1
    assert "FAIL" in capsys.readouterr().out


def test_tampered_coloring_fails(tmp_path, capsys):
    inst = gen(tmp_path, "unit_disks", n=8, seed=2, disk_mode="two_sided")
    sol = tmp_path / "sol.json"
    assert cli("solve", inst, "--algo", "two_sided", "-o", sol) == 0
    doc = json.loads(sol.read_text())
    graph = build_intersection_graph(load_instance(inst)[0])
    selected = doc["selected"]
    u, v = next((u, v) for u in selected for v in selected
                if u < v and graph.adjacent(u, v))
    doc["coloring"][str(u)] = doc["coloring"][str(v)]
    sol.write_text(json.dumps(doc))
    assert cli("verify", inst, sol) == 1
    assert "monochromatic edge" in capsys.readouterr().out


def test_solver_certificate_failure_exits_1(tmp_path, capsys, monkeypatch):
    import geombs.oracle

    inst = gen(tmp_path, "intervals", n=6, seed=4)
    monkeypatch.setattr(geombs.oracle, "is_bipartite", lambda g, s: {})
    assert cli("oracle", inst) == 1
    assert "error:certificate: uncolored vertex" in capsys.readouterr().err


def test_out_of_range_index_is_validation_error(tmp_path):
    inst = gen(tmp_path, "arcs", n=5)
    sol = tmp_path / "sol.json"
    assert cli("solve", inst, "-o", sol) == 0
    doc = json.loads(sol.read_text())
    doc["selected"] = [99]
    doc.pop("coloring", None)
    sol.write_text(json.dumps(doc))
    assert cli("verify", inst, sol) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_verify_rejects_an_index_past_the_scene(tmp_path, capsys, kind):
    # the certificate graph is built over the selection, so the index is
    # checked first and never reaches it as an IndexError
    inst = gen(tmp_path, kind, n=6)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"selected": [0, 6], "coloring": {"0": 0, "6": 1}}))
    assert cli("verify", inst, sol) == 3
    assert "error:validation: subset index 6 out of range 0..5" in \
        capsys.readouterr().err


def test_boolean_indices_are_validation_error(tmp_path):
    inst = gen(tmp_path, "intervals", n=5)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"selected": [True, 0]}))
    assert cli("verify", inst, sol) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli("solve")  # missing positional argument
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli("frobnicate")
    assert err.value.code == 2


def test_capacity_error_exit_code(tmp_path, capsys):
    # pairwise disjoint, so the search above the cap ends at its first subset
    inst = tmp_path / "disjoint.json"
    save_instance(GeometricInstance(
        INTERVALS, tuple(IntervalObj(2 * i, 2 * i + 1) for i in range(25))
    ), inst)
    assert cli("oracle", inst) == 4
    assert "error:capacity:" in capsys.readouterr().err
    assert cli("oracle", inst, "--cap", "25") == 0


def test_oracle_past_512_vertices_is_a_capacity_error(tmp_path, capsys):
    # whatever --cap says: the search would recurse once per selected disk
    inst = gen(tmp_path, "unit_disks", n=1000, seed=1)
    assert cli("oracle", inst, "--cap", "1000") == 4
    assert "error:capacity: oracle takes at most 512" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "blobs", "objects": []}')
    assert cli("solve", bad) == 3
    assert "error:validation:" in capsys.readouterr().err


def test_options_read_the_rational_grammar(tmp_path, capsys):
    # --epsilon and --radius read only the grammar of the files
    path = gen(tmp_path, "unit_squares")
    assert cli("solve", path, "--epsilon", "0.5") == 3
    assert cli("generate", "--kind", "unit_disks", "--n", 3, "--seed", 1,
               "--radius", " 1", "-o", tmp_path / "disks.json") == 3
    err = capsys.readouterr().err
    assert "bad rational '0.5'" in err and "bad rational ' 1'" in err


def test_epsilon_is_read_on_every_scene(tmp_path, capsys):
    # no interval solver reads --epsilon, yet a malformed one is refused
    path = gen(tmp_path, "intervals")
    assert cli("solve", path, "--epsilon", "abc") == 3
    assert cli("solve", path, "--epsilon", "0.5") == 3
    err = capsys.readouterr().err
    assert "bad rational 'abc'" in err and "bad rational '0.5'" in err
    assert cli("solve", path, "--epsilon", "1/3") == 0
    assert "algo=intervals" in capsys.readouterr().out


def test_auto_dispatch_picks_line_algorithms(tmp_path, capsys):
    one = gen(tmp_path, "unit_disks", n=7, seed=5, disk_mode="one_sided")
    assert cli("solve", one) == 0
    assert "algo=one_sided" in capsys.readouterr().out
    two = gen(tmp_path, "unit_disks", n=7, seed=6, disk_mode="two_sided")
    assert cli("solve", two) == 0
    assert "algo=two_sided" in capsys.readouterr().out
    anywhere = gen(tmp_path, "unit_disks", n=7, seed=7)
    assert cli("solve", anywhere) == 0
    assert "algo=" in capsys.readouterr().out


@pytest.mark.parametrize("ys, algo", [
    (["0", "3/7", "1/7"], "one_sided"),
    (["0", "3/7", "-3/7"], "two_sided"),
    (["0", "3/7", "-3/7", "-3000000000000000000000001/7000000000000000000000000"],
     "3approx"),
])
def test_auto_dispatch_at_the_line_boundaries(tmp_path, capsys, ys, algo):
    # the line y = 0 stabs disks of r = 3/7 with centers at |y| <= r exactly
    path = tmp_path / "disks.json"
    path.write_text(json.dumps({
        "kind": "unit_disks", "disk_radius": "3/7",
        "objects": [{"x": str(3 * i), "y": y} for i, y in enumerate(ys)]}))
    assert cli("solve", path) == 0
    assert f"algo={algo} " in capsys.readouterr().out


def test_auto_dispatch_without_radius_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "disks.json"
    path.write_text('{"kind": "unit_disks", "objects": [{"x": "0", "y": "0"}]}')
    assert cli("solve", path) == 3
    assert "error:validation: unit_disks scene needs disk_radius > 0" in \
        capsys.readouterr().err


def test_solve_ptas_with_weights(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert cli("generate", "--kind", "unit_disks", "--n", 6, "--seed", 8,
               "--weights", "-o", path) == 0
    sol = tmp_path / "sol.json"
    assert cli("solve", path, "--algo", "ptas", "--epsilon", "1/2",
               "-o", sol) == 0
    assert cli("verify", path, sol) == 0


def test_reduce_round_trip(tmp_path, capsys):
    inst = gen(tmp_path, "unit_disks", n=4, seed=9)
    doubled = tmp_path / "doubled.json"
    assert cli("reduce", inst, "-o", doubled) == 0
    assert cli("oracle", doubled) == 0
    out = capsys.readouterr().out
    assert "n=8" in out


def test_bench_subcommand(tmp_path, capsys):
    report = tmp_path / "report.tsv"
    assert cli("bench", "--kind", "intervals", "--count", 3, "--n", 6,
               "--seed", 1, "-o", report) == 0
    text = report.read_text()
    assert text.startswith("instance\t")
    assert "# intervals" in text


def weighted(tmp_path, kind):
    path = tmp_path / f"{kind}-weighted.json"
    assert cli("generate", "--kind", kind, "--n", 6, "--seed", 8,
               "--weights", "-o", path) == 0
    return path


@pytest.mark.parametrize("kind, algo", [
    ("unit_disks", "3approx"), ("unit_disks", "logn"), ("unit_disks", "oracle"),
    ("unit_squares", "oracle"), ("intervals", "intervals"),
    ("intervals", "auto"), ("unit_height_rects", "auto"),
    ("arcs", "auto"), ("rects", "auto"), ("unit_height_rects", "unit_height"),
])
def test_unweighted_algorithm_refuses_a_weighted_scene(tmp_path, capsys,
                                                       kind, algo):
    path = weighted(tmp_path, kind)
    assert cli("solve", path, "--algo", algo) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:validation: algorithm '")
    assert "ignores weights" in err
    # only the disk and square kinds have a weighted solver to point to
    if kind in ("unit_disks", "unit_squares"):
        assert "needs 'ptas'" in err
    else:
        assert "needs 'ptas'" not in err
        assert f"no solver reads weights for {kind}" in err


@pytest.mark.parametrize("command", ["oracle", "reduce"])
@pytest.mark.parametrize("kind", KINDS)
def test_unweighted_command_refuses_a_weighted_scene(tmp_path, capsys,
                                                     command, kind):
    path = weighted(tmp_path, kind)
    argv = ("-o", tmp_path / "out.json") if command == "reduce" else ()
    assert cli(command, path, *argv) == 3
    assert capsys.readouterr().err == (
        f"error:validation: command {command!r} is unweighted; the scene "
        "has weights\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind", ["unit_disks", "unit_squares"])
def test_auto_picks_ptas_on_a_weighted_scene(tmp_path, capsys, kind):
    path = weighted(tmp_path, kind)
    sol = tmp_path / "sol.json"
    assert cli("solve", path, "-o", sol) == 0
    assert "algo=ptas" in capsys.readouterr().out
    assert cli("verify", path, sol) == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("algo", ["auto", "oracle"])
def test_empty_weights_solve_like_no_weights(tmp_path, capsys, kind, algo):
    # an empty scene has nothing to weigh, so "weights": [] is no refusal
    doc = {"kind": kind, "objects": []}
    if kind == "unit_disks":
        doc["disk_radius"] = "1"
    runs = []
    for extra in ({}, {"weights": []}):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({**doc, **extra}))
        runs.append((cli("solve", path, "--algo", algo), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert "ignores weights" not in runs[1][1].err
