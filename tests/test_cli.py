import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpdiff
from jumpdiff.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, _snapshot_template, _write_snapshot, main
from jumpdiff.config import _SCHEMA, build_kernel, parse_config, resolve_eps_list, solver_config
from jumpdiff.evolve import continuation_in_epsilon, mollify_initial
from jumpdiff.lattice import Field, Profile, make_grid, sample_profile

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


HEAT2D = """\
grid.n = 2
grid.m = 8
grid.l = 1.0
kernel.family = fractional_heat
profile.kind = random_bv
solver.integrator = explicit_euler
solver.t = 0.002
"""

RUN_WITHOUT_SCIPY = """\
import json, math, sys
from jumpdiff.cli import main
from jumpdiff.kernels import levy_constant, make_variable_order

codes = [main(["run", "--config", path, "--out", path + ".out"]) for path in sys.argv[1:]]
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
k = make_variable_order(lambda s: 0.3 + 0 * s, lambda s: 0.4 + 0 * s, lambda r: 0 * r, 0.3, 0.4)
print(json.dumps({"codes": codes, "scipy": loaded, "variable_order_K": levy_constant(k, 1.0)[0],
                  "scipy_after": "scipy.integrate" in sys.modules}))
"""


def test_run_of_decoupled_kernels_never_imports_scipy(tmp_path):
    paths = []
    for name, text in (("pm1d.cfg", IMPLICIT), ("heat2d.cfg", HEAT2D)):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(jumpdiff.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, *map(str, paths)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [EXIT_OK, EXIT_OK]
    assert result["scipy"] == []
    # A kernel without a density still integrates, importing scipy on first use.
    assert 0.0 < result["variable_order_K"] < math.inf
    assert result["scipy_after"]


COMPARE = """\
grid.n = 1
grid.m = 64
grid.l = 1.0
profile.kind = box
profile.center = 0.5
profile.width = 0.1
profile.mollify = 0.2
profile_b.kind = box
profile_b.center = 0.55
profile_b.width = 0.1
profile_b.mollify = 0.2
solver.t = 0.002
solver.snapshot_every = 0.001
"""


def test_compare_mollifies_both_profiles(tmp_path):
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(COMPARE, encoding="utf-8")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "compare.csv", newline="") as fh:
        first = list(csv.DictReader(fh))[0]
    grid = make_grid(1, 64, 1.0)
    u0, v0 = (mollify_initial(sample_profile(Profile(kind="box", center=(c,), width=0.1), grid), grid, 0.2)
              for c in (0.5, 0.55))
    assert float(first["t"]) == 0.0
    assert float(first["l1_distance"]) == float(np.abs(u0.values - v0.values).sum() * grid.cell_volume)
    assert float(first["l1_distance"]) == pytest.approx(0.03554, abs=1e-5)   # raw boxes: 0.09375


@pytest.mark.parametrize("command, key", [("run", "profile.mollify"), ("compare", "profile_b.mollify"),
                                          ("converge", "profile.mollify")])
def test_mollifier_below_spacing_exits_config(tmp_path, capsys, command, key):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(COMPARE.replace(f"{key} = 0.2", f"{key} = 0.001"), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    line = one_line(capsys.readouterr().err)
    assert line.startswith("invalid configuration (1 problem(s)): ")
    assert f"{key} = 0.001 is below the lattice spacing" in line


@pytest.mark.parametrize("profile_b, checks", [
    ("profile_b.center = 0.5\nprofile_b.height = 2.0\n", ["l1_contraction", "comparison"]),   # u0 <= v0
    ("profile_b.center = 0.5\nprofile_b.height = 0.5\n", ["l1_contraction", "comparison"]),   # v0 <= u0
    ("profile_b.center = 0.55\n", ["l1_contraction"]),                                    # crossing boxes
])
def test_compare_checks_comparison_only_on_ordered_profiles(tmp_path, capsys, profile_b, checks):
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(COMPARE.replace("profile_b.center = 0.55\n", profile_b), encoding="utf-8")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "compare_checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["check"] for row in rows] == checks
    assert all(row["verdict"] == "pass" for row in rows)
    skipped = "initial profiles are not ordered; comparison skipped" in capsys.readouterr().out
    assert skipped == ("comparison" not in checks)


def test_converge_mollifies_the_profile(tmp_path):
    text = COMPARE + "solver.eps_list = 2h, h\n"
    cfg_path = tmp_path / "converge.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "cauchy.csv", newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    cfg = parse_config(text)
    u0 = mollify_initial(sample_profile(Profile(kind="box", center=(0.5,), width=0.1), cfg.grid), cfg.grid, 0.2)
    _, table = continuation_in_epsilon(cfg.grid, build_kernel(cfg), u0, resolve_eps_list(cfg), solver_config(cfg))
    assert rows == [list(row) for row in table]


def test_cauchy_distances_shrink_as_eps_halves(tmp_path):
    text = config_text(SMALL, {"grid.m": "128", "profile.kind": "box", "profile.width": "0.3",
                               "solver.eps_list": "16h, 8h, 4h, 2h, h"})
    cfg = tmp_path / "converge.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "cauchy.csv", newline="") as fh:
        rows = [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]
    assert [row["eps_coarse"] for row in rows] == [16 / 128, 8 / 128, 4 / 128, 2 / 128]
    assert all(row["eps_fine"] == row["eps_coarse"] / 2 for row in rows)
    distances = [row["l1_distance"] for row in rows]
    assert distances[-1] > 0.0
    assert all(fine < coarse for coarse, fine in zip(distances, distances[1:])), distances


SPECIAL_VALUES = (-0.0, 5e-324, -5e-324, 1e16, -1e16, 1 / 3, -1 / 3, -2.5, 0.1, 1e-300)


def reference_snapshot(field):
    """The snapshot file as ``csv.writer`` writes ``i, x[, y], u`` with 17 significant digits."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("i", "x", "u") if field.grid.dimension == 1 else ("i", "x", "y", "u"))
    for i, (xs, u) in enumerate(zip(field.grid.cell_centers(), field.values)):
        writer.writerow([str(i), *(format(float(x), ".17g") for x in xs), format(float(u), ".17g")])
    return buf.getvalue().encode()


@pytest.mark.parametrize("dimension, cells", [(1, 13), (2, 5)])
def test_snapshot_matches_csv_writer_and_round_trips(tmp_path, dimension, cells):
    grid = make_grid(dimension, cells, 1.0)
    values = np.random.default_rng(7).normal(scale=3.0, size=grid.n_cells)
    values[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    field = Field(grid, values)
    path = tmp_path / "snapshot.csv"
    _write_snapshot(path, field, _snapshot_template(grid))
    assert path.read_bytes() == reference_snapshot(field)
    with open(path, newline="") as fh:
        stored = [float(row["u"]) for row in csv.DictReader(fh)]
    assert np.array_equal(np.array(stored), field.values)
    assert [np.signbit(x) for x in stored] == list(np.signbit(field.values))


SMALL = {"grid.n": "1", "grid.m": "32", "grid.l": "1.0", "kernel.family": "porous_medium",
         "kernel.m": "2.0", "solver.t": "0.02"}


def config_text(base, changes):
    return "".join(f"{key} = {value}\n" for key, value in {**base, **changes}.items())


@pytest.mark.parametrize("command, changes, message", [
    ("run", {"solver.picard_max_iters": "0"}, "solver: picard_max_iters must be at least 1"),
    ("run", {"profile.width": "-0.1"}, "profile: profile width -0.1 must lie in (0, period]"),
    ("run", {"profile.width": "5"}, "profile: profile width 5.0 must lie in (0, period]"),
    ("run", {"solver.snapshot_every": "-1"}, "solver: snapshot_every must be positive"),
    ("run", {"solver.r": "-1"}, "solver.r must be positive"),
    ("run", {"kernel.amplitude": "-1"}, "kernel: amplitude must be positive"),
    ("run", {"kernel.mu": "compact_bump", "kernel.r0": "-2"}, "kernel: support radius r0 must be positive"),
    ("run", {"kernel.f": "table", "kernel.f_table": "abc"}, "kernel: f_table must read 'x:y, x:y, ...', got 'abc'"),
    ("run", {"kernel.f": "table", "kernel.f_table": "0:0"}, "kernel: table needs at least two breakpoints"),
    ("run", {"kernel.f": "power_abs"}, "kernel: family 'porous_medium' needs a differentiable non-decreasing f"),
    ("run", {"kernel.family": "nope"}, "kernel: unknown kernel family 'nope'"),
    ("run", {"profile.kind": "random_bv", "profile.seed": "-1"}, "profile: "),
    ("run", {"profile.kind": "random_bv", "profile.low": "2"}, "profile: "),
    ("run", {"grid.m": "3", "grid.l": "4"}, "kernel: epsilon must lie in (0, 1], got 1.33"),
    ("run", {"solver.dt": "nan"}, "solver.dt: expected a finite number, got 'nan'"),
    ("run", {"profile.center": "nan"}, "profile.center: expected a finite number, got 'nan'"),
    ("run", {"profile.center": "inf"}, "profile.center: expected a finite number, got 'inf'"),
    ("converge", {"solver.eps_list": "abc"}, "solver: could not convert"),
    ("converge", {"solver.eps_list": "h, 2h"}, "solver: eps_list must be strictly decreasing"),
    ("converge", {"solver.eps_list": "0.5h"}, "solver: all continuation radii must be at least the lattice spacing"),
    ("converge", {"solver.eps_list": "2, 1"}, "kernel: epsilon must lie in (0, 1], got 2.0"),
    ("validate", {"validate.epsilon": "3"}, "validate: epsilon must lie in (0, 1]"),
    ("validate", {"run.seed": "-1"}, "validate: seed must be non-negative, got -1"),
    ("converge", {"grid.l": "3", "grid.m": "8"}, "solver.eps_list: default radii 4h, 2h, h: epsilon must lie"),
    ("converge", {"grid.l": "1", "grid.m": "4"},
     "solver.eps_list: default radii 4h, 2h, h: empty neighborhood: epsilon = 1 exceeds the largest torus distance 0.5"),
])
def test_invalid_setting_exits_config_in_one_line(tmp_path, capsys, command, changes, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text(SMALL, changes), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    line = one_line(capsys.readouterr().err)
    assert line.startswith("invalid configuration (1 problem(s)): ")
    assert message in line


@pytest.mark.parametrize("amplitude", ["1e306", "1e308"])
@pytest.mark.parametrize("command, integrator", [("run", "explicit_euler"), ("run", "backward_euler_picard"),
                                                 ("converge", "backward_euler_picard")])
def test_non_finite_certified_bound_aborts_in_one_line(tmp_path, capsys, amplitude, command, integrator):
    """1e306: the lattice sum behind M_R overflows; 1e308: its terms do.  Either way no dt > 0 is certified."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config_text(SMALL, {"kernel.family": "fractional_heat", "kernel.amplitude": amplitude,
                                       "solver.t": "0.01", "solver.integrator": integrator}), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err).startswith("solver aborted: ")


def test_explicit_update_beyond_the_float_range_aborts_with_the_trajectory(tmp_path, capsys):
    text = config_text(SMALL, {"kernel.family": "fractional_heat", "profile.kind": "random_bv",
                               "solver.integrator": "explicit_euler", "solver.cfl_override": "true",
                               "solver.dt": "1.5e308", "solver.t": "1.5e308"})
    assert run_cli(tmp_path, text) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err).startswith("solver aborted: ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["diagnostics.csv", "snapshot_000000.csv"]


def run_module(tmp_path, text, command="run", timeout=120):
    """``python -m jumpdiff COMMAND`` on ``text`` in a fresh interpreter, which prints every warning."""
    cfg = tmp_path / "module.cfg"
    cfg.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(jumpdiff.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "jumpdiff", command, "--config", str(cfg),
                           "--out", str(tmp_path / "module_out")],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_module_entry_point_runs_the_cli(tmp_path):
    proc = run_module(tmp_path, IMPLICIT)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert run_cli(tmp_path, IMPLICIT, "in_process") == EXIT_OK
    files = sorted(p.name for p in (tmp_path / "in_process").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "module_out").iterdir())
    for name in files:
        assert (tmp_path / "module_out" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()


@pytest.mark.parametrize("changes", [
    {"kernel.m": "3.5", "solver.r": "1e200"},   # f'(R) = m R^(m - 1) beyond the float range
    {"kernel.family": "p_laplacian", "kernel.p": "4", "solver.r": "1e200"},   # (2R)^(p - 2) too
    {"profile.kind": "box", "profile.height": "1e300", "solver.integrator": "explicit_euler"},   # f(R), |u|^2 too
])
def test_values_beyond_the_float_range_abort_in_one_line(tmp_path, changes):
    proc = run_module(tmp_path, config_text(SMALL, changes))
    assert proc.returncode == EXIT_SOLVER
    assert one_line(proc.stderr).startswith("solver aborted: ")


@pytest.mark.parametrize("command", ["run", "converge"])
def test_a_run_beyond_the_step_budget_aborts_in_one_line(tmp_path, command):
    # M_R is finite at R = 1e200, but its dt = 5.2e-203 would take ~2e200 steps.
    text = config_text(SMALL, {"kernel.family": "p_laplacian", "kernel.p": "3", "solver.t": "0.01",
                               "solver.r": "1e200"})
    proc = run_module(tmp_path, text, command, timeout=60)
    assert proc.returncode == EXIT_SOLVER
    line = one_line(proc.stderr)
    assert line.startswith("solver aborted: the run needs 1.91e+200 steps of dt = 5.23")
    assert "budget" in line


def test_negative_seed_override_exits_config_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(config_text(SMALL, {}), encoding="utf-8")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed: seed must be non-negative" in one_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["run"], ["nope"], []])
def test_usage_error_exits_config_in_one_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    assert one_line(capsys.readouterr().err).startswith("jumpdiff")


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_threads_is_an_unknown_key_and_flag(tmp_path, capsys):
    assert run_cli(tmp_path, IMPLICIT + "run.threads = 4\n") == EXIT_CONFIG
    assert one_line(capsys.readouterr().err).endswith("line 10: unknown key 'run.threads'")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(IMPLICIT, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "8"])
    assert info.value.code == EXIT_CONFIG
    assert one_line(capsys.readouterr().err).endswith("unrecognized arguments: --threads 8")


MUTATION_BASE = {**SMALL, "grid.m": "8", "solver.dt": "0.01"}
MUTATION_VALUES = ("-1", "0", "0.5", "3", "nan", "inf", "abc", "true")


# As many examples as key-value pairs: hypothesis then visits each pair once (~5 s in all).
@settings(max_examples=len(_SCHEMA) * len(MUTATION_VALUES))
@given(key=st.sampled_from(sorted(_SCHEMA)), value=st.sampled_from(MUTATION_VALUES))
def test_any_single_key_mutation_exits_cleanly(key, value):
    """A valid run with one key set to a stock value exits 0, 1 or 3; a failure says why in one line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(MUTATION_BASE, {key: value}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        one_line(err.getvalue())
