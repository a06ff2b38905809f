"""The public names and signatures the benchmark in ``perfbench/`` calls.

``perfbench/selftest.py`` runs the benchmark itself (about a minute) and
sits outside the tier-1 suite; this checks, in well under a second, that
the call chain it pins still exists: ``child.prepare`` on every workload's
``tiny`` config, the calls of ``child.layers``, every ``spans.HOOKS``
attribute, the ``max_iters`` argument that ``spans`` binds by name, a
traced ``run`` of every ``tiny`` config in which each hook fires, and that
the pair set ``child.active_offsets`` restates is the operator's.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from jumpdiff import cli, diagnostics, evolve
from jumpdiff.config import solver_config
from jumpdiff.lattice import cutoff_mask
from jumpdiff.operator import apply

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as a module of its own, without putting ``perfbench/`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


child, spans, workloads = load("child"), load("spans"), load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_prepare_runs_on_the_tiny_config(tmp_path, name):
    config = tmp_path / "run.cfg"
    config.write_text(workloads.WORKLOADS[name].config_text("tiny", 5), encoding="utf-8")
    cfg, sc, regk, u0, R, ctx, dt = child.prepare(str(config))
    assert sc.epsilon == regk.epsilon and 0.0 < sc.cfl_theta <= 1.0
    assert dt == evolve.cfl_dt(ctx, R, sc.cfl_theta) > 0.0
    assert apply(ctx, u0, u0).values.shape == u0.values.shape
    assert diagnostics.record(ctx, 0.0, u0).mass == pytest.approx(float(u0.values.sum()) * cfg.grid.cell_volume)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_traced_hook_fires_on_the_tiny_run(tmp_path, name):
    """The traced benchmark run refuses a run in which a hook never fires; its span applies are the counted ones."""
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text("tiny", 5), encoding="utf-8")

    def traced(names):
        tracer = spans.Tracer()
        restore = tracer.install(names)
        try:
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        finally:
            restore()
        return tracer.spans

    every = traced(spans.HOOK_NAMES)
    expected = [h for h in spans.HOOK_NAMES if h not in spans.STEP_HOOKS] + [f"evolve.{workload.step_hook}"]
    assert spans.missing_hooks(every, expected) == []
    assert spans.applies(every) == spans.applies(traced(spans.STEP_HOOKS)) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layers_runs_on_the_tiny_config(tmp_path, monkeypatch, name):
    """Each per-layer figure of the benchmark, from two timed samples per layer."""
    config = tmp_path / "run.cfg"
    config.write_text(workloads.WORKLOADS[name].config_text("tiny", 5), encoding="utf-8")
    repeat, sweeps = child._repeat, child._sweeps
    monkeypatch.setattr(child, "_repeat", lambda fn, consume, **_: repeat(fn, consume, min_n=2, budget_s=0.0, max_n=2))
    monkeypatch.setattr(child, "_sweeps", lambda make_chunks, fn: sweeps(make_chunks, fn, n=2))
    result = child.layers(str(config))
    assert len(result) == 9
    assert all(math.isfinite(value) and value > 0.0 for value in result.values()), result


@pytest.mark.parametrize("module, attr", spans.HOOKS)
def test_every_hooked_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"jumpdiff.{module}"), attr))


def test_the_solve_binds_max_iters_by_name():
    args = (object(), object(), 1e-3, 1e-12, 7)
    bound = inspect.signature(evolve.step_backward_picard).bind(*args)
    assert bound.arguments["max_iters"] == 7
    assert set(spans.STEP_HOOKS) <= set(spans.HOOK_NAMES)


@pytest.mark.parametrize("name, files, writer", [
    ("pm1d_implicit", 4, False), ("heat2d_explicit", 4, False), ("heat1d_snapshots", 625, True)])
def test_only_the_long_snapshot_stream_starts_a_writer_process(name, files, writer):
    """The full ``heat1d_snapshots`` run plans 625 snapshots of 256 cells; the other two write theirs in-process."""
    cfg = cli.parse_config(workloads.WORKLOADS[name].config_text("full", 1))
    (ctx,), _, sc = cli._prepare_run(cfg, cfg.profile)
    assert cli._SnapshotStream.planned_files(ctx, sc) == files
    assert cli._SnapshotStream.pays(files, cfg.grid.n_cells) is writer


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_benchmark_pair_set_is_the_operators(name, size):
    """``child.active_offsets`` restates ``lattice.cutoff_mask``; a change to the operator's pair set needs one to the benchmark."""
    cfg = cli.parse_config(workloads.WORKLOADS[name].config_text(size, 1))
    eps = solver_config(cfg).epsilon
    offsets, _ = child.active_offsets(cfg.grid, eps)
    np.testing.assert_array_equal(offsets, np.flatnonzero(cutoff_mask(cfg.grid, eps)))
