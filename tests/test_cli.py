import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpdiff
from jumpdiff import _snapshot_writer, cli
from jumpdiff.axioms import check_axioms
from jumpdiff.cli import EXIT_AXIOM, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from jumpdiff.config import (
    _FAMILIES,
    _KEY_READERS,
    _SCHEMA,
    build_kernel,
    parse_config,
    resolve_eps_list,
    solver_config,
)
from jumpdiff.diagnostics import check_monotone_series
from jumpdiff.evolve import INTEGRATORS, _step_policy, cfl_dt, continuation_in_epsilon, mollify_initial
from jumpdiff.kernels import regular_bound_M, regularize
from jumpdiff.lattice import Field, Profile, make_grid, sample_profile
from jumpdiff.operator import build_context

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


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oversized_explicit_dt_exits_solver(tmp_path, capsys):
    """The dt is refused before the first snapshot, so nothing is written."""
    text = IMPLICIT + "solver.integrator = explicit_euler\nsolver.dt = 0.01\n"
    assert run_cli(tmp_path, text) == EXIT_SOLVER
    assert "CFL" in one_line(capsys.readouterr().err)
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_process()


def test_empty_neighborhood_exits_config(tmp_path, capsys):
    assert run_cli(tmp_path, IMPLICIT + "solver.epsilon = 0.9\n") == EXIT_CONFIG
    assert "empty neighborhood" in one_line(capsys.readouterr().err)


@pytest.mark.parametrize("command, config, out, message", [
    ("run", ".", "out", "cannot read config"),                  # a directory
    ("run", "latin1.cfg", "out", "cannot read config"),         # not UTF-8
    ("run", "missing.cfg", "out", "cannot read config"),
    ("run", "ok.cfg", "ok.cfg", "cannot create output directory"),      # an existing file
    ("run", "ok.cfg", "ok.cfg/out", "cannot create output directory"),  # a path under a file
    ("compare", "ok.cfg", "out", "compare needs a profile_b.* section"),
    # An output directory holding a directory where the run writes a file.
    ("run", "ok.cfg", "blocked_diagnostics", "cannot write output file "),
    ("run", "ok.cfg", "blocked_snapshot", "cannot write output file "),
])
def test_unusable_config_or_output_exits_config_in_one_line(tmp_path, capsys, command, config, out, message):
    (tmp_path / "ok.cfg").write_text(IMPLICIT, encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes(("# d\xe9j\xe0 vu\n" + IMPLICIT).encode("latin-1"))
    (tmp_path / "blocked_diagnostics" / "diagnostics.csv").mkdir(parents=True)
    (tmp_path / "blocked_snapshot" / "snapshot_000000.csv").mkdir(parents=True)
    assert main([command, "--config", str(tmp_path / config), "--out", str(tmp_path / out)]) == EXIT_CONFIG
    line = one_line(capsys.readouterr().err)
    assert line.startswith("invalid configuration (1 problem(s)): ")
    assert message in line


def test_config_line_rules_exit_config_in_one_line(tmp_path, capsys):
    """Blank and ``#`` lines are skipped; a line without ``=`` and a repeated key are problems, each with its line."""
    text = "grid.n = 1\n\n# a comment\ngrid.m = 16\noops\ngrid.m = 8\ngrid.l = 1.0\n"
    assert run_cli(tmp_path, text) == EXIT_CONFIG
    assert one_line(capsys.readouterr().err) == (
        "invalid configuration (2 problem(s)): line 5: expected 'key = value', got 'oops'; "
        "line 6: duplicate key 'grid.m' (first set on line 4)")


def sup_norm_abort():
    """A 1-d explicit config whose dt breaks the sup-norm guard in its first step."""
    text = ("grid.n = 1\ngrid.m = 32\ngrid.l = 1.0\nprofile.kind = box\nprofile.width = 0.3\n"
            "solver.integrator = explicit_euler\nsolver.cfl_override = true\n")
    cfg = parse_config(text)
    ctx = build_context(cfg.grid, regularize(build_kernel(cfg), solver_config(cfg).epsilon), 1.0)
    # Three times 1 / M_R, the largest dt at which every explicit update is a convex combination.
    dt = 6.0 * cfl_dt(ctx, 1.0, 1.0)
    return text + f"solver.dt = {dt!r}\n"


def test_sup_norm_guard_aborts_with_the_partial_trajectory(tmp_path, capsys):
    assert run_cli(tmp_path, sup_norm_abort()) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err).startswith("solver aborted: sup norm grew from 1 to ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["diagnostics.csv", "snapshot_000000.csv"]
    assert_no_child_process()


def test_a_failed_snapshot_write_of_an_aborted_run_exits_config(tmp_path, capsys):
    text = ("grid.n = 1\ngrid.m = 32\ngrid.l = 1.0\nprofile.kind = box\nprofile.width = 0.3\n"
            "solver.integrator = explicit_euler\nsolver.cfl_override = true\nsolver.dt = 1.5e308\n"
            "solver.t = 1.5e308\n")
    (tmp_path / "out" / "snapshot_000000.csv").mkdir(parents=True)
    assert run_cli(tmp_path, text) == EXIT_CONFIG
    path = tmp_path / "out" / "snapshot_000000.csv"
    assert one_line(capsys.readouterr().err).endswith(f"cannot write output file {path}: Is a directory")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["snapshot_000000.csv"]
    assert_no_child_process()


def test_a_later_snapshot_that_cannot_be_written_exits_config(tmp_path, capsys):
    """The writing stops at that file: the earlier snapshots stay, and neither later ones nor diagnostics follow."""
    blocked = tmp_path / "out" / "snapshot_000002.csv"
    blocked.mkdir(parents=True)
    assert run_cli(tmp_path, IMPLICIT) == EXIT_CONFIG
    assert one_line(capsys.readouterr().err) == (
        f"invalid configuration (1 problem(s)): cannot write output file {blocked}: Is a directory")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "snapshot_000000.csv", "snapshot_000001.csv", "snapshot_000002.csv"]
    assert_no_child_process()


def run_outputs(tmp_path, out):
    assert run_cli(tmp_path, IMPLICIT, out) == EXIT_OK
    assert_no_child_process()
    return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}


def no_process(*args, **kwargs):
    raise OSError("no process")


def no_spawn(*args, **kwargs):
    pytest.fail("a run started a writer process where its plan starts none")


def through_the_writer(monkeypatch):
    """Have every planned stream start a writer process; the ``argv`` of each ``os.posix_spawn`` call is kept."""
    monkeypatch.setattr(cli._SnapshotStream, "MAX_ROWS", 0)
    calls, spawn = [], os.posix_spawn

    def spawned(path, argv, *args, **kwargs):
        calls.append(argv)
        return spawn(path, argv, *args, **kwargs)

    monkeypatch.setattr(os, "posix_spawn", spawned)
    return calls


def test_a_short_stream_starts_no_process_and_writes_the_same_files(tmp_path, monkeypatch):
    """IMPLICIT plans 5 snapshots of 32 cells: this process writes them, the bytes a writer process writes."""
    with monkeypatch.context() as patch:
        spawned = through_the_writer(patch)
        expected = run_outputs(tmp_path, "process")
    assert [argv[3] for argv in spawned] == [_snapshot_writer.__file__]
    monkeypatch.setattr(os, "posix_spawn", no_spawn)
    assert run_outputs(tmp_path, "in_process") == expected
    assert len(expected) == 7


@pytest.mark.parametrize("patch", ["raise", "missing", "no_executable", "writer_exits"])
def test_snapshots_without_a_writer_process_are_the_same_files(tmp_path, monkeypatch, patch):
    """Where no writer process starts, or one exits without writing or reporting, this process writes them."""
    spawned = through_the_writer(monkeypatch)
    expected = run_outputs(tmp_path, "process")
    assert len(spawned) == 1
    if patch == "raise":
        monkeypatch.setattr(os, "posix_spawn", no_process)
    elif patch == "missing":
        monkeypatch.delattr(os, "posix_spawn")
    elif patch == "no_executable":   # sys.executable may be None where Python cannot find its own path
        monkeypatch.setattr(sys, "executable", None)
    else:
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
    assert run_outputs(tmp_path, patch) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case, stream", [
    *(pytest.param(case, "writer", id=case) for case in ("success", "blocked", "abort", "no_process")),
    *(pytest.param(case, "in_process", id=f"{case}-in-process") for case in ("success", "blocked", "abort")),
])
def test_run_leaves_no_file_descriptor_open(tmp_path, monkeypatch, case, stream):
    text, code = IMPLICIT, EXIT_OK
    if case == "blocked":
        (tmp_path / "out" / "snapshot_000002.csv").mkdir(parents=True)
        code = EXIT_CONFIG
    elif case == "abort":
        text, code = sup_norm_abort(), EXIT_SOLVER
    spawned = through_the_writer(monkeypatch) if stream == "writer" else []
    if case == "no_process":
        monkeypatch.setattr(os, "posix_spawn", no_process)
    elif stream == "in_process":   # IMPLICIT and the aborted run plan a short stream
        monkeypatch.setattr(os, "posix_spawn", no_spawn)
    before = sorted(os.listdir("/proc/self/fd"))
    assert run_cli(tmp_path, text) == code
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_process()
    assert len(spawned) == (stream == "writer" and case != "no_process")


@pytest.mark.parametrize("files, cells, pays", [
    (1, 131_072, False), (1, 131_073, True), (512, 256, False), (513, 256, True),
    (32, 4096, False), (33, 4096, True), (131_072, 1, False), (131_073, 1, True),
])
def test_a_writer_process_pays_only_above_the_row_threshold(files, cells, pays):
    assert cli._SnapshotStream.MAX_ROWS == 131_072
    assert cli._SnapshotStream.pays(files, cells) is pays


SHORT_RUN = IMPLICIT.replace("solver.t = 0.02\nsolver.snapshot_every = 0.005\n", "")
ZERO_RUN = "grid.n = 1\ngrid.m = 32\ngrid.l = 1.0\nkernel.family = zero\nprofile.kind = box\n"


@pytest.mark.parametrize("text", [
    SHORT_RUN + "solver.t = 0.02\nsolver.snapshot_every = 0.005\n",                   # IMPLICIT: one interval a snapshot
    SHORT_RUN + "solver.t = 0.02\nsolver.snapshot_every = 0.0025\nsolver.dt = 0.004\n",   # one step a snapshot
    SHORT_RUN + "solver.t = 0.02\nsolver.snapshot_every = 0.003\nsolver.dt = 0.0007\n",   # intervals no multiple of dt
    SHORT_RUN + "solver.t = 0.1\nsolver.snapshot_every = 1e-6\nsolver.integrator = explicit_euler\n",   # CFL steps
    # The zero kernel has no CFL limit: dt falls back to the interval.
    ZERO_RUN + "solver.t = 0.02\nsolver.snapshot_every = 0.003\nsolver.integrator = explicit_euler\n",
    ZERO_RUN + "solver.t = 0.02\nsolver.snapshot_every = 0.003\n",
    SHORT_RUN.replace("grid.n = 1\ngrid.m = 32", "grid.n = 2\ngrid.m = 8")
    + "solver.t = 0.02\nsolver.snapshot_every = 0.003\nsolver.dt = 0.0035\n",   # 2-d, one step a snapshot
])
def test_the_planned_stream_is_the_files_the_run_writes(tmp_path, text):
    cfg = parse_config(text)
    (ctx,), _, sc = cli._prepare_run(cfg, cfg.profile)
    assert run_cli(tmp_path, text) == EXIT_OK
    written = [p for p in (tmp_path / "out").iterdir() if p.name.startswith("snapshot_")]
    assert _step_policy(ctx, sc)[2] == len(written)


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("family", _FAMILIES)
def test_every_kernel_family_runs_from_a_config(tmp_path, family, integrator):
    keys = "".join(f"kernel.{key} = {value}\n" for key, value in (("m", 2), ("p", 3)) if family in _KEY_READERS[key])
    text = (f"grid.n = 1\ngrid.m = 32\ngrid.l = 1.0\nkernel.family = {family}\n{keys}profile.kind = box\n"
            f"profile.width = 0.3\nsolver.integrator = {integrator}\nsolver.t = 0.01\n")
    assert run_cli(tmp_path, text) == EXIT_OK


VALIDATE = "grid.n = 1\ngrid.m = 16\ngrid.l = 1.0\nvalidate.budget = 2000\n"


@pytest.mark.parametrize("kernel, code, failed", [
    ("", EXIT_OK, []),
    ("kernel.family = porous_medium\nkernel.f = table\nkernel.f_table = -1:1, 0:0, 1:-1\n", EXIT_AXIOM, ["A1", "A3"]),
])
def test_validate_exit_code_and_witnesses(tmp_path, kernel, code, failed):
    """A decreasing f breaks A1 and A3; every row holds the in-process report, its witness float for float."""
    path = tmp_path / "validate.cfg"
    path.write_text(VALIDATE + kernel, encoding="utf-8")
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    with open(tmp_path / "out" / "axioms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [row["axiom"] for row in rows if row["verdict"] != "pass"] == failed
    assert all(row["verdict"] == "fail" for row in rows if row["axiom"] in failed)
    cfg = parse_config(VALIDATE + kernel)   # the unit box: R = 1; no solver.epsilon: the spacing
    reports = check_axioms(build_kernel(cfg), R=1.0, epsilon=cfg.grid.spacing, sampling=cfg.validate)
    assert [row["axiom"] for row in rows] == [r.axiom for r in reports]
    for row, report in zip(rows, reports):
        assert float(row["worst_violation"]) == report.worst_violation
        witness = dict(item.split("=") for item in row["witness"].split(";")) if row["witness"] else {}
        assert {key: float(value) for key, value in witness.items()} == (report.witness or {})


# A table f that falls on [1, 2]: admissible on [-1, 1], not on [-2, 2].
FALLS_ABOVE_ONE = ("grid.n = 1\ngrid.m = 64\ngrid.l = 1.0\nkernel.family = porous_medium\nkernel.f = table\n"
                   "kernel.f_table = -1:-1, 1:1, 2:0\nprofile.kind = box\nvalidate.budget = 2000\n")


@pytest.mark.parametrize("setting, failed", [
    ("", []),
    ("profile.height = 2\n", ["A1", "A3"]),
    ("profile_b.kind = box\nprofile_b.height = -2\n", ["A1", "A3"]),
    ("solver.r = 2\n", ["A1", "A3"]),
])
def test_validate_samples_the_range_that_run_certifies(tmp_path, capsys, setting, failed):
    """R is solver.r, else max(1, sup|u0|) over every configured profile."""
    path = tmp_path / "validate.cfg"
    path.write_text(FALLS_ABOVE_ONE + setting, encoding="utf-8")
    code = main(["validate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == (EXIT_AXIOM if failed else EXIT_OK)
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if ": fail" in line] == failed


def test_validate_refuses_an_empty_neighborhood_as_run_does(tmp_path, capsys):
    path = tmp_path / "validate.cfg"
    path.write_text(IMPLICIT + "solver.epsilon = 0.9\n", encoding="utf-8")
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "empty neighborhood" in one_line(capsys.readouterr().err)


def test_repeated_implicit_runs_are_byte_identical(tmp_path):
    assert run_cli(tmp_path, IMPLICIT, "a") == EXIT_OK
    assert run_cli(tmp_path, IMPLICIT, "b") == EXIT_OK
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "diagnostics.csv" in files
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def checks_csv(outdir):
    with open(outdir / "checks.csv", newline="") as fh:
        return {row["check"]: row for row in csv.DictReader(fh)}


def test_large_data_pass_the_monotone_checks(tmp_path):
    """An L^1 norm of ~5e8 rises by one ulp, 5.96e-8; each slack scales with the series' first value."""
    text = ("grid.n = 1\ngrid.m = 256\ngrid.l = 1.0\nprofile.kind = random_bv\nprofile.high = 1e9\n"
            "solver.integrator = explicit_euler\nsolver.t = 0.05\nsolver.snapshot_every = 0.001\n")
    assert run_cli(tmp_path, text) == EXIT_OK
    with open(tmp_path / "out" / "diagnostics.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    rows = checks_csv(tmp_path / "out")
    assert [row["verdict"] for row in rows.values()] == ["pass"] * 5
    assert rows["monotone_l1"]["detail"].endswith(f" snapshots, slack {1e-10 * float(first['l1']):g}")


def test_a_failed_structural_check_exits_solver(tmp_path, capsys, monkeypatch):
    def tv_fails(traj, quantity, slack):
        result = check_monotone_series(traj, quantity, slack)
        return dataclasses.replace(result, passed=False, first_violation=1) if quantity == "tv" else result

    monkeypatch.setattr("jumpdiff.cli.check_monotone_series", tv_fails)
    assert run_cli(tmp_path, IMPLICIT) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err) == "structural check failed: monotone_tv"
    verdicts = {name: row["verdict"] for name, row in checks_csv(tmp_path / "out").items()}
    assert verdicts == {"monotone_l1": "pass", "monotone_l2": "pass", "monotone_linf": "pass",
                        "monotone_tv": "fail", "monotone_bv": "pass"}


BOX2D = "grid.n = 2\ngrid.m = 16\ngrid.l = 1.0\nprofile.kind = box\nprofile.width = 0.3\nsolver.t = 0.002\n"


def test_center_y_alone_moves_the_box_in_y(tmp_path):
    """An unset centre coordinate is the middle of the period, 0.5."""
    outputs = {}
    for name, keys in (("none", ""), ("y", "profile.center_y = 0.2\n"),
                       ("both", "profile.center = 0.5\nprofile.center_y = 0.2\n")):
        assert run_cli(tmp_path, BOX2D + keys, name) == EXIT_OK
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert outputs["y"] != outputs["none"]
    assert outputs["y"] == outputs["both"]


HEAT2D = """\
grid.n = 2
grid.m = 8
grid.l = 1.0
kernel.family = fractional_heat
profile.kind = random_bv
solver.integrator = explicit_euler
solver.t = 0.002
"""


def run_script(script, *args):
    """The last stdout line of ``script`` run by a fresh interpreter on this checkout, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(jumpdiff.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


IMPORT_THE_CLI = """\
import json, sys
import jumpdiff.cli

print(json.dumps([name for name in ("subprocess", "jumpdiff._snapshot_writer") if name in sys.modules]))
"""


def test_importing_the_cli_loads_neither_subprocess_nor_the_snapshot_writer():
    """Only a ``run`` loads the writer module, so set-up never pays for it."""
    assert run_script(IMPORT_THE_CLI) == []


COMMANDS_WITH_SCIPY_BLOCKED = """\
import json, sys
sys.modules["scipy"] = None   # every scipy import now raises ImportError
from jumpdiff.cli import main

print(json.dumps([main([command, "--config", path, "--out", path + ".out"])
                  for command, path in zip(sys.argv[1::2], sys.argv[2::2])]))
"""


# Two boxes of width 0.3, profile_b (height 0.5) below profile (height 1).
BOXES = ("grid.n = 1\ngrid.m = 32\ngrid.l = 1.0\nprofile.kind = box\nprofile.width = 0.3\n"
         "profile_b.kind = box\nprofile_b.width = 0.3\nprofile_b.height = 0.5\nsolver.t = 0.01\n")


def test_every_built_in_family_runs_with_scipy_blocked(tmp_path):
    """Each family's majorant moments are closed forms: no command needs scipy."""
    base = BOXES + "validate.budget = 2000\n"
    args = []
    for family in _FAMILIES:
        keys = "".join(f"kernel.{key} = {value}\n" for key, value in (("m", 2), ("p", 3)) if family in _KEY_READERS[key])
        densities = [""] if family in ("zero", "fractional_heat", "variable_order") else \
            ["kernel.mu = power_law\n", "kernel.mu = compact_bump\nkernel.r0 = 0.2\n"]
        for k, mu in enumerate(densities):
            path = tmp_path / f"{family}{k}.cfg"
            path.write_text(base + f"kernel.family = {family}\n{keys}{mu}", encoding="utf-8")
            commands = ("run", "validate", "compare", "converge") if family == "variable_order" else ("run",)
            args += [arg for command in commands for arg in (command, path)]
    heat2d = tmp_path / "heat2d.cfg"
    heat2d.write_text(HEAT2D, encoding="utf-8")
    args += ["run", heat2d]
    assert run_script(COMMANDS_WITH_SCIPY_BLOCKED, *args) == [EXIT_OK] * (len(args) // 2)


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
    u0, v0 = (mollify_initial(sample_profile(Profile(kind="box", center=c, width=0.1), grid), grid, 0.2)
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


def test_compare_writes_the_checked_gaps_when_profile_b_lies_below(tmp_path, capsys):
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(BOXES, encoding="utf-8")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "comparison: pass (worst margin 0.000e+00)" in capsys.readouterr().out.splitlines()
    with open(tmp_path / "out" / "compare.csv", newline="") as fh:
        gaps = [float(row["min_gap"]) for row in csv.DictReader(fh)]
    with open(tmp_path / "out" / "compare_checks.csv", newline="") as fh:
        comparison = {row["check"]: row for row in csv.DictReader(fh)}["comparison"]
    assert gaps[0] == 0.0 and min(gaps) == 0.0 and gaps[-1] > 0.0
    assert comparison["worst_margin"] == "0"
    assert comparison["detail"].startswith(f"min gap {min(gaps):.6g}, ")


@pytest.mark.parametrize("dt_factor", [0.5, 8.0])
@pytest.mark.parametrize("family", ["porous_medium", "convex_diffusion"])
def test_compare_boxes_under_backward_euler(tmp_path, family, dt_factor):
    """Ordered 2-d boxes of a degenerate family, at dt * 2 M_R = dt_factor: contraction and comparison pass."""
    text = (f"grid.n = 2\ngrid.m = 10\ngrid.l = 1.0\nkernel.family = {family}\n"
            "profile.kind = box\nprofile.width = 0.3\nprofile_b.kind = box\nprofile_b.width = 0.3\n"
            "profile_b.height = 0.5\n")
    cfg = parse_config(text)
    ctx = build_context(cfg.grid, regularize(build_kernel(cfg), solver_config(cfg).epsilon), 1.0)
    dt = dt_factor / (2.0 * regular_bound_M(ctx.regkernel, 1.0, ctx.grid))
    path = tmp_path / "compare.cfg"
    path.write_text(text + f"solver.integrator = backward_euler_picard\nsolver.dt = {dt!r}\nsolver.t = {6 * dt!r}\n",
                    encoding="utf-8")
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "compare_checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["check"], row["verdict"]) for row in rows] == [("l1_contraction", "pass"), ("comparison", "pass")]


def test_converge_mollifies_the_profile(tmp_path):
    text = COMPARE + "solver.eps_list = 2h, h\n"
    cfg_path = tmp_path / "converge.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["converge", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "cauchy.csv", newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    cfg = parse_config(text)
    u0 = mollify_initial(sample_profile(Profile(kind="box", center=0.5, width=0.1), cfg.grid), cfg.grid, 0.2)
    R = max(1.0, float(np.max(np.abs(u0.values))))
    contexts = [build_context(cfg.grid, regularize(build_kernel(cfg), eps), R) for eps in resolve_eps_list(cfg)]
    _, table = continuation_in_epsilon(contexts, u0, solver_config(cfg))
    assert rows == [list(row) for row in table]


def test_converge_radius_without_a_neighbour_exits_config_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "converge.cfg"
    cfg.write_text("grid.n = 1\ngrid.m = 4\ngrid.l = 1.0\nsolver.eps_list = 0.75, 0.5\n", encoding="utf-8")
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert one_line(capsys.readouterr().err) == (
        "invalid configuration: empty neighborhood: epsilon = 0.75 exceeds the largest torus distance 0.5")


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


def writer_process(outdir, grid, fields, *args):
    """The writer process run under ``-I -S``, after the interpreter arguments ``args``, on ``fields``."""
    records = b"".join(f.values.tobytes() for f in fields)
    return subprocess.run([sys.executable, "-I", "-S", *args, _snapshot_writer.__file__, str(outdir),
                           str(grid.dimension), str(grid.cells_per_axis), repr(grid.period)],
                          input=records, capture_output=True, timeout=60)


def write_snapshots(outdir, grid, fields, script=None):
    """The writer process run under ``-I -S`` on ``fields``; returns its standard error."""
    proc = writer_process(outdir, grid, fields, *(["-c", script] if script else []))
    proc.check_returncode()
    assert proc.stdout == b""
    return proc.stderr.decode()


@pytest.mark.parametrize("dimension, cells", [(1, 13), (2, 5)])
def test_snapshot_matches_csv_writer_and_round_trips(tmp_path, dimension, cells):
    grid = make_grid(dimension, cells, 1.0)
    values = np.random.default_rng(7).normal(scale=3.0, size=grid.n_cells)
    values[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    fields = [Field(grid, values), Field(grid, -values[::-1])]
    assert write_snapshots(tmp_path, grid, fields) == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_000000.csv", "snapshot_000001.csv"]
    for k, field in enumerate(fields):
        path = tmp_path / f"snapshot_{k:06d}.csv"
        assert path.read_bytes() == reference_snapshot(field)
        with open(path, newline="") as fh:
            stored = [float(row["u"]) for row in csv.DictReader(fh)]
        assert np.array_equal(np.array(stored), field.values)
        assert [np.signbit(x) for x in stored] == list(np.signbit(field.values))


def test_the_writer_exits_1_at_the_first_file_it_cannot_write(tmp_path):
    """Its exit status is its only report: it prints nothing and writes no file after the blocked one."""
    grid = make_grid(1, 4, 1.0)
    (tmp_path / "snapshot_000001.csv").mkdir()
    proc = writer_process(tmp_path, grid, [Field(grid, np.full(4, float(k))) for k in range(4)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot_000000.csv", "snapshot_000001.csv"]


# Runs the writer module's main on the command line that ``python FILE ...`` would give it,
# then names every module loaded.
LOADED_MODULES = """\
import sys
sys.argv = sys.argv[1:]
namespace = {"__name__": "snapshot_writer"}
with open(sys.argv[0], encoding="utf-8") as fh:
    exec(compile(fh.read(), sys.argv[0], "exec"), namespace)
namespace["main"](sys.argv)
sys.stderr.write(" ".join(sorted(sys.modules)))
"""


def test_the_writer_process_loads_neither_numpy_nor_jumpdiff(tmp_path):
    grid = make_grid(2, 4, 1.0)
    loaded = write_snapshots(tmp_path, grid, [Field(grid, np.arange(16.0))], LOADED_MODULES).split()
    assert "os" in loaded
    assert [name for name in loaded if name.split(".")[0] in ("numpy", "jumpdiff")] == []
    assert (tmp_path / "snapshot_000000.csv").read_bytes() == reference_snapshot(Field(grid, np.arange(16.0)))


class FormattedFloats(dict):
    """``format(x, '.17g')`` of each float looked up, formatted once."""

    def __missing__(self, x):
        self[x] = format(x, ".17g")
        return self[x]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("cells", [3, 13, 1000])
@pytest.mark.parametrize("period", [1.0, 0.3, 2 * np.pi])
def test_writer_template_holds_the_grid_cell_centers(dimension, cells, period):
    """The writer's template, formatted from its own centres, is the one formatted from ``cell_centers``."""
    grid = make_grid(dimension, cells, period)
    template = _snapshot_writer.template(dimension, cells, float(period))
    header = "i,x,u\r\n" if dimension == 1 else "i,x,y,u\r\n"
    assert template.startswith(header)
    pos = len(header)
    centers = grid.cell_centers()
    formatted = FormattedFloats()
    for lo in range(0, grid.n_cells, cells):   # one row of the grid at a time
        columns = [map(formatted.__getitem__, centers[lo:lo + cells, d].tolist()) for d in range(dimension)]
        block = "".join([f"{i},{','.join(xs)},%.17g\r\n" for i, xs in enumerate(zip(*columns), start=lo)])
        assert template[pos:pos + len(block)] == block
        pos += len(block)
    assert pos == len(template)


SMALL = {"grid.n": "1", "grid.m": "32", "grid.l": "1.0", "kernel.family": "porous_medium",
         "kernel.m": "2.0", "solver.t": "0.02"}
# SMALL for the families that do not read kernel.m.
SMALL_WITHOUT_M = {key: value for key, value in SMALL.items() if key != "kernel.m"}


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
    ("run", {"profile.center_y": "0.2"}, "profile: center_y is the y coordinate of a 2-d centre; grid.n = 1"),
    ("converge", {"solver.eps_list": "abc"}, "solver: could not convert"),
    ("converge", {"solver.eps_list": "h, 2h"}, "solver: eps_list must be strictly decreasing"),
    ("converge", {"solver.eps_list": "0.5h"}, "solver: all continuation radii must be at least the lattice spacing"),
    ("converge", {"solver.eps_list": "2, 1"}, "kernel: epsilon must lie in (0, 1], got 2.0"),
    ("validate", {"validate.seed": "-1"}, "validate: seed must be non-negative, got -1"),
    ("validate", {"run.seed": "3"}, "line 7: unknown key 'run.seed'"),
    ("run", {"solver.end_time": "0.02"}, "line 7: unknown key 'solver.end_time'"),   # the field of solver.t
    # Check settings that the run determines.
    *((command, {key: "0.5"}, f"line 7: unknown key '{key}'")
      for command, key in (("run", "diag.slack_norms"), ("run", "diag.slack_tv"),
                           ("compare", "diag.slack_contraction"), ("compare", "diag.slack_comparison"),
                           ("validate", "validate.r"), ("validate", "validate.epsilon"))),
    ("converge", {"solver.eps_list": "h"}, "solver: eps_list needs at least two radii, got 'h'"),
    ("run", {"kernel.mu": "compact_bump"}, "kernel: compact_bump density needs kernel.r0"),
    ("run", {"kernel.f": "table"}, "kernel: table nonlinearity needs kernel.f_table breakpoints"),
    # Kernel keys the f kind ignores; SMALL sets kernel.m.  Both configs exited 0 before.
    ("validate", {"kernel.f": "table", "kernel.f_table": "-1:-1, 1:1", "kernel.m": "3"},
     "kernel: kernel.f = table does not use kernel.m"),
    ("validate", {"kernel.f": "power_odd", "kernel.f_table": "-1:-1, 1:1"},
     "kernel: kernel.f = power_odd does not use kernel.f_table"),
    *((command, {"kernel.family": "fractional_heat", "kernel.mu": "compact_bump", "kernel.r0": "0.1"},
       "kernel: family 'fractional_heat' does not use kernel.mu (got 'compact_bump')")
      for command in ("run", "compare", "converge", "validate")),
    ("run", {"kernel.family": "variable_order", "kernel.mu": "compact_bump", "kernel.r0": "0.1"},
     "kernel: family 'variable_order' does not use kernel.mu (got 'compact_bump')"),
    ("validate", {"kernel.family": "zero", "kernel.mu": "compact_bump"},
     "kernel: family 'zero' does not use kernel.mu (got 'compact_bump')"),
    ("run", {"kernel.r0": "0.1"}, "kernel: kernel.r0 is the support radius of kernel.mu = compact_bump"),
    ("compare", {"kernel.family": "fractional_heat", "kernel.r0": "0.1"}, "kernel: kernel.r0 is the support radius"),
    ("converge", {"kernel.family": "variable_order", "kernel.r0": "0.1"}, "kernel: kernel.r0 is the support radius"),
    ("validate", {"kernel.family": "zero", "kernel.r0": "0.1"}, "kernel: kernel.r0 is the support radius"),
    # Kernel keys the family ignores; SMALL sets kernel.m.  The first two configs exited 0 before.
    ("run", {"kernel.family": "fractional_heat", "kernel.m": "3.0", "kernel.p": "4", "kernel.a1": "0.3",
             "kernel.f": "table"},
     "kernel: family 'fractional_heat' does not use kernel.f, kernel.m, kernel.p, kernel.a1"),
    ("run", {"kernel.mu": "compact_bump", "kernel.r0": "0.1", "kernel.alpha": "0.9"},
     "kernel: kernel.mu = compact_bump does not use kernel.alpha (got 0.9)"),
    *((command, {"kernel.family": "p_laplacian"}, "kernel: family 'p_laplacian' does not use kernel.m")
      for command in ("run", "compare", "converge", "validate")),
    ("run", {"kernel.family": "variable_order", "kernel.f_table": "0:0, 1:1"},
     "kernel: family 'variable_order' does not use kernel.m, kernel.f_table"),
    ("run", {"kernel.p": "3"}, "kernel: family 'porous_medium' does not use kernel.p"),
    ("run", {"kernel.family": "convex_diffusion", "kernel.p": "3"},
     "kernel: family 'convex_diffusion' does not use kernel.p"),
    ("run", {"kernel.family": "doubly_nonlinear", "kernel.a2": "0.4"},
     "kernel: family 'doubly_nonlinear' does not use kernel.a2"),
    ("run", {"kernel.family": "variable_order", "kernel.alpha": "0.3", "kernel.amplitude": "2"},
     "kernel: family 'variable_order' does not use kernel.m, kernel.alpha, kernel.amplitude"),
    ("compare", {"kernel.family": "zero", "kernel.amplitude": "2"},
     "kernel: family 'zero' does not use kernel.m, kernel.amplitude"),
    ("validate", {"kernel.mu": "compact_bump", "kernel.r0": "0.1", "kernel.alpha": "0.2"},
     "kernel: kernel.mu = compact_bump does not use kernel.alpha (got 0.2)"),
    # A solver.r below sup|u0| (the box has height 1) ran with a wrong certificate.
    ("run", {"solver.r": "0.05"}, "solver.r = 0.05 is below the initial sup norm 1;"),
    ("converge", {"solver.r": "0.5"}, "solver.r = 0.5 is below the initial sup norm 1;"),
    *((command, {"solver.r": "1.5", "profile_b.kind": "box", "profile_b.height": "-2"},
       "solver.r = 1.5 is below the initial sup norm 2;") for command in ("compare", "validate")),
    # Profile keys the kind ignores; each config but the last exited 0 before.
    ("run", {"profile.seed": "7", "profile.low": "-3", "profile.a": "9"},
     "profile: kind 'box' does not use profile.a, profile.low, profile.seed"),
    ("run", {"profile.kind": "random_bv", "profile.width": "0.2", "profile.height": "3", "profile.center": "0.4"},
     "profile: kind 'random_bv' does not use profile.center, profile.width, profile.height"),
    ("compare", {"profile_b.kind": "step", "profile_b.base": "0.5", "profile_b.b": "0"},
     "profile_b: kind 'step' does not use profile_b.base"),
    ("validate", {"profile_b.kind": "two_level", "profile_b.high": "2", "profile_b.mollify": "0.1"},
     "profile_b: kind 'two_level' does not use profile_b.high"),
    ("run", {"profile.kind": "step", "profile.center_y": "0.2"},
     "profile: center_y is the y coordinate of a 2-d centre; grid.n = 1"),
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


@pytest.mark.parametrize("command, section", [("run", "profile"), ("compare", "profile_b"), ("validate", "profile_b")])
@pytest.mark.parametrize("changes, message", [
    ({"seed": "-1"}, "seed must be non-negative, got -1"),
    ({"low": "2"}, "low must not exceed high, got low = 2, high = 1"),
    ({"low": "-1e308", "high": "1e308"}, "high - low must be finite, got low = -1e+308, high = 1e+308"),
])
def test_random_profile_rules_exit_config_in_one_line(tmp_path, capsys, command, section, changes, message):
    """``lattice.Profile`` states the rules of a ``random_bv`` profile; the sampler's own errors never surface."""
    cfg = tmp_path / "bad.cfg"
    keys = {f"{section}.kind": "random_bv", **{f"{section}.{key}": value for key, value in changes.items()}}
    cfg.write_text(config_text(SMALL, keys), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert one_line(capsys.readouterr().err) == f"invalid configuration (1 problem(s)): {section}: {message}"


@pytest.mark.parametrize("amplitude", ["1e306", "1e308"])
@pytest.mark.parametrize("command, integrator", [("run", "explicit_euler"), ("run", "backward_euler_picard"),
                                                 ("converge", "backward_euler_picard")])
def test_non_finite_certified_bound_aborts_in_one_line(tmp_path, capsys, amplitude, command, integrator):
    """1e306: the lattice sum behind M_R overflows; 1e308: its terms do.  Either way no dt > 0 is certified."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config_text(SMALL_WITHOUT_M, {"kernel.family": "fractional_heat", "kernel.amplitude": amplitude,
                                       "solver.t": "0.01", "solver.integrator": integrator}), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err).startswith("solver aborted: ")


@pytest.mark.parametrize("base, changes", [
    (SMALL_WITHOUT_M, {"kernel.family": "fractional_heat", "kernel.amplitude": "1e306"}),   # the majorant overflows
    (SMALL, {"kernel.m": "3.5", "profile.kind": "box", "profile.height": "1e200"}),        # so does f(u) = u^3.5
])
def test_validate_of_an_overflowing_kernel_is_inconclusive_without_a_warning(tmp_path, capsys, base, changes):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config_text(base, changes), encoding="utf-8")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_AXIOM
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split(":")[0] for line in out.splitlines() if ": inconclusive" in line] == ["A1", "A2", "A3", "A5", "A6"]


def test_explicit_update_beyond_the_float_range_aborts_with_the_trajectory(tmp_path, capsys):
    text = config_text(SMALL_WITHOUT_M, {"kernel.family": "fractional_heat", "profile.kind": "random_bv",
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


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_library_warning_is_one_stderr_line(tmp_path, command):
    proc = run_module(tmp_path, config_text(SMALL, {"solver.epsilon": "0.01"}), command)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert one_line(proc.stderr) == ("warning: epsilon = 0.01 is below the lattice spacing h = 0.03125; "
                                     "the spatial cutoff removes no pairs")


@pytest.mark.parametrize("changes", [
    {"kernel.m": "3.5", "solver.r": "1e200"},   # f'(R) = m R^(m - 1) beyond the float range
    {"kernel.family": "p_laplacian", "kernel.p": "4", "solver.r": "1e200"},   # (2R)^(p - 2) too
    {"profile.kind": "box", "profile.height": "1e300", "solver.integrator": "explicit_euler"},   # f(R), |u|^2 too
])
def test_values_beyond_the_float_range_abort_in_one_line(tmp_path, changes):
    base = SMALL_WITHOUT_M if changes.get("kernel.family") == "p_laplacian" else SMALL
    proc = run_module(tmp_path, config_text(base, changes))
    assert proc.returncode == EXIT_SOLVER
    assert one_line(proc.stderr).startswith("solver aborted: ")


@pytest.mark.parametrize("command, needs", [
    pytest.param("run", "1.91e+200 steps of dt = 5.23", id="run"),
    pytest.param("converge", "5.13e+199 steps of dt = 1.95118e-202, more than the budget of 1e+07", id="converge"),
])
def test_a_run_beyond_the_step_budget_aborts_in_one_line(tmp_path, command, needs):
    # M_R is finite at R = 1e200, but its dt = 5.2e-203 would take ~2e200 steps.  converge refuses
    # at the plan of its first radius, the coarsest, with that radius's own dt.
    text = config_text(SMALL_WITHOUT_M, {"kernel.family": "p_laplacian", "kernel.p": "3", "solver.t": "0.01",
                               "solver.r": "1e200"})
    proc = run_module(tmp_path, text, command, timeout=60)
    assert proc.returncode == EXIT_SOLVER
    line = one_line(proc.stderr)
    assert line.startswith(f"solver aborted: the run needs {needs}")
    assert "budget" in line


SNAPSHOT_BUDGET = ("grid.n = 1\ngrid.m = 256\ngrid.l = 1.0\nprofile.kind = box\nprofile.width = 0.3\n"
                   "profile_b.kind = box\nprofile_b.width = 0.3\nprofile_b.height = 0.5\n"
                   "solver.integrator = explicit_euler\nsolver.t = 0.01\n")


@pytest.mark.parametrize("command", ["run", "compare", "converge"])
@pytest.mark.parametrize("every", ["1e-12", "1e-25"])
def test_snapshot_intervals_beyond_the_step_budget_abort_in_one_line(tmp_path, command, every):
    """Without the budget such a run spends ~dt / snapshot_every additions per step, or never ends."""
    proc = run_module(tmp_path, SNAPSHOT_BUDGET + f"solver.snapshot_every = {every}\n", command, timeout=60)
    assert proc.returncode == EXIT_SOLVER
    assert one_line(proc.stderr) == (
        f"solver aborted: the run asks for {0.01 / float(every):.3g} snapshot intervals of {float(every):g}, "
        "more than the budget of 1e+07")
    assert list((tmp_path / "module_out").iterdir()) == []


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("solver, refusal", [
    pytest.param("solver.dt = 1e-12\n", "the run needs 1e+10 steps of dt = 1e-12", id="steps"),
    pytest.param("solver.snapshot_every = 1e-12\n", "the run asks for 1e+10 snapshot intervals of 1e-12",
                 id="intervals"),
    pytest.param("solver.dt = 1e-12\nsolver.snapshot_every = 1e-12\n", "the run needs 1e+10 steps of dt = 1e-12",
                 id="both"),
])
def test_a_refused_run_starts_no_process_and_writes_no_file(tmp_path, capsys, monkeypatch, integrator, solver,
                                                            refusal):
    """The plan refuses the run before the snapshot stream starts: no writer process, however long the stream."""
    monkeypatch.setattr(os, "posix_spawn", no_spawn)
    text = SNAPSHOT_BUDGET.replace("explicit_euler", integrator) + solver
    assert run_cli(tmp_path, text) == EXIT_SOLVER
    assert one_line(capsys.readouterr().err) == f"solver aborted: {refusal}, more than the budget of 1e+07"
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_process()


def test_negative_seed_override_exits_config_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(config_text(SMALL, {}), encoding="utf-8")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed: seed must be non-negative" in one_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["run"], ["nope"], [],
                                  *([command, "--config", "c.cfg", "--seed", "3"]   # only validate reads a seed
                                    for command in ("run", "compare", "converge"))])
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


def test_validate_seed_is_read_and_seed_flag_overrides_it(tmp_path):
    """``validate.seed`` seeds the axiom sampling; ``--seed`` replaces it."""
    def axioms_csv(name, text, *flags):
        path = tmp_path / f"{name}.cfg"
        path.write_text(VALIDATE + text, encoding="utf-8")
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / name), *flags]) == EXIT_OK
        return (tmp_path / name / "axioms.csv").read_bytes()

    seeded = axioms_csv("file", "validate.seed = 3\n")
    assert seeded != axioms_csv("default", "")
    assert seeded == axioms_csv("flag", "", "--seed", "3") == axioms_csv("both", "validate.seed = 4\n", "--seed", "3")


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
