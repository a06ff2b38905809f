"""Regenerate the reference final fields that the correctness gate compares against.

    python3 perfbench/make_reference.py

Run it only at a commit whose output is trusted.  It regenerates every
reference at once, so that all of them come from that one commit: for each
workload and size it runs ``jumpdiff run`` on every input variant (at
lattice shift 0), counts the time steps at the step functions, and stores the
final snapshot with the step count and the pair geometry in
``reference/<workload>-<size>.npz``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import gate
import spans
from child import active_offsets, prepare
from run import ROOT, TMP_BASE
from workloads import SIZES, WORKLOADS


def make(name: str, size: str, tmp: Path) -> gate.Reference:
    import jumpdiff.cli as cli

    w = WORKLOADS[name]
    finals, steps = [], set()
    for variant in range(w.variants):
        config = tmp / f"{name}-{size}-{variant}.cfg"
        config.write_text(w.config_text(size, variant), encoding="utf-8")
        tracer = spans.Tracer()
        restore = tracer.install(spans.STEP_HOOKS)
        try:
            code = cli.main(["run", "--config", str(config), "--out", str(tmp / "out")])
        finally:
            restore()
        if code != 0:
            raise SystemExit(f"{name} variant {variant}: exit code {code}")
        finals.append(gate.final_snapshot(tmp / "out"))
        steps.add(sum(s["error"] is None for s in tracer.spans))
        shutil.rmtree(tmp / "out")
    if len(steps) != 1:
        raise SystemExit(f"{name}: variants took different step counts {sorted(steps)}")
    cfg, sc, regk, _, R, _, _ = prepare(str(config))
    return gate.Reference(
        final=np.array(finals), steps=steps.pop(), n_off=int(active_offsets(cfg.grid, regk.epsilon)[0].size),
        bound_R=R, volume=cfg.grid.period ** cfg.grid.dimension,
        picard_tol=sc.picard_tol if w.implicit else 0.0,
    )


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=TMP_BASE))
    try:
        for size in SIZES:
            for name in sorted(WORKLOADS):
                ref = make(name, size, tmp)
                gate.save_reference(name, size, ref)
                print(f"{name}-{size}: {ref.final.shape[0]} variant(s), {ref.steps} steps, "
                      f"tolerance {ref.final_tolerance():.3e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    main()
