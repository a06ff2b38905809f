"""The benchmark's own tests, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They run the ``tiny`` size of every workload (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
import jumpdiff.cli as cli  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _run_tiny(tmp_path, name, seed, config_text=None):
    w = WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(config_text or w.config_text("tiny", seed), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    return code, out


def _check(name, seed, code, out):
    w = WORKLOADS[name]
    return gate.check_run(out, code, gate.load_reference(name, "tiny"), w.variant(seed), w.shift("tiny", seed))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_tmp").exists()


@pytest.mark.parametrize("name,seed", [("pm1d_implicit", 0), ("pm1d_implicit", 37),
                                       ("heat2d_explicit", 300), ("heat1d_snapshots", 45)])
def test_gate_accepts_a_correct_run(tmp_path, name, seed):
    code, out = _run_tiny(tmp_path, name, seed)
    assert _check(name, seed, code, out) == []


def test_gate_rejects_a_non_zero_exit_code(tmp_path):
    code, out = _run_tiny(tmp_path, "heat1d_snapshots", 2)
    assert _check("heat1d_snapshots", 2, 3, out) == ["exit code 3"]


def test_gate_rejects_a_perturbed_final_snapshot(tmp_path):
    code, out = _run_tiny(tmp_path, "heat2d_explicit", 1)
    last = max(out.glob("snapshot_*.csv"))
    lines = last.read_text().splitlines()
    cells = lines[7].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-9)
    lines[7] = ",".join(cells)
    last.write_text("\n".join(lines) + "\n")
    problems = _check("heat2d_explicit", 1, code, out)
    assert len(problems) == 1 and problems[0].startswith("final field L1 distance")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_rejects_a_slightly_wrong_operator(tmp_path, name):
    text = WORKLOADS[name].config_text("tiny", 4) + "kernel.amplitude = 1.000001\n"
    code, out = _run_tiny(tmp_path, name, 4, text)
    assert code == 0
    problems = _check(name, 4, code, out)
    assert any(p.startswith("final field L1 distance") for p in problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_span_hook_fires_and_is_removed(tmp_path, name):
    tracer = spans.Tracer()
    originals = {h: getattr(sys.modules[f"jumpdiff.{h.split('.')[0]}"], h.split(".")[1])
                 for h in spans.HOOK_NAMES}
    restore = tracer.install()
    try:
        code, out = _run_tiny(tmp_path, name, 3)
    finally:
        restore()
    assert code == 0
    other = {"evolve.step_explicit", "evolve.step_backward_picard"} - {f"evolve.{WORKLOADS[name].step_hook}"}
    assert spans.missing_hooks(tracer.spans, spans.HOOK_NAMES) == sorted(other)
    for h, fn in originals.items():
        assert getattr(sys.modules[f"jumpdiff.{h.split('.')[0]}"], h.split(".")[1]) is fn
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["evolve.applies"] == spans.applies(tracer.spans) > 0
    assert metrics["diagnostics.record_calls"] >= 2


def test_self_times_partition_the_root_span():
    spans_ = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None, "applies": 0, "error": None},
        {"name": "cli.run_solver", "start": 1.0, "end": 9.0, "parent": 0, "applies": 0, "error": None},
        {"name": "evolve.step_explicit", "start": 2.0, "end": 5.0, "parent": 1, "applies": 1, "error": None},
    ]
    assert spans.self_times(spans_) == [2.0, 5.0, 3.0]
    assert spans.layer_time(spans_) == 8.0


def test_a_diverged_attempt_counts_its_iterations():
    class PicardDivergedError(Exception):
        pass

    def diverging(ctx, u, dt, tol, max_iters):
        raise PicardDivergedError

    tracer = spans.Tracer()
    traced = tracer.wrap("evolve.step_backward_picard", diverging)
    with pytest.raises(PicardDivergedError):
        traced(None, None, 0.1, 1e-12, max_iters=7)
    assert tracer.spans[0]["applies"] == 7 and tracer.spans[0]["error"] == "PicardDivergedError"


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "heat1d_snapshots", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
