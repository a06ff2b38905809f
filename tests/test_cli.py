import pytest

from jumpdiff.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main

IMPLICIT = """\
grid.n = 1
grid.m = 32
grid.l = 1.0
kernel.family = porous_medium
kernel.m = 2.0
profile.kind = random_bv
profile.seed = 5
solver.t = 0.02
solver.snapshot_every = 0.005
"""


def run_cli(tmp_path, text, out="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / out)])


def one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def test_oversized_explicit_dt_exits_solver(tmp_path, capsys):
    text = IMPLICIT + "solver.integrator = explicit_euler\nsolver.dt = 0.01\n"
    assert run_cli(tmp_path, text) == EXIT_SOLVER
    assert "CFL" in one_line(capsys.readouterr().err)


def test_empty_neighborhood_exits_config(tmp_path, capsys):
    assert run_cli(tmp_path, IMPLICIT + "solver.epsilon = 0.9\n") == EXIT_CONFIG
    assert "empty neighborhood" in one_line(capsys.readouterr().err)


def test_repeated_implicit_runs_are_byte_identical(tmp_path):
    assert run_cli(tmp_path, IMPLICIT, "a") == EXIT_OK
    assert run_cli(tmp_path, IMPLICIT, "b") == EXIT_OK
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "diagnostics.csv" in files
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
