"""One measurement in a fresh interpreter; ``run.py`` starts it, one at a time.

    python3 perfbench/child.py MODE ROOT CONFIG OUTDIR [SPANS]

Modes:

* ``setup``  -- ``import jumpdiff.cli``, then parse_config -> build_kernel ->
  regularize -> sample_profile -> build_context -> evolve.cfl_dt: what a
  user waits for before the first step;
* ``wall``   -- one untraced ``cli.main(["run", ...])``, timed after the import;
* ``count``  -- the same with counters at the step-function boundary only,
  for the exact operator-apply count;
* ``traced`` -- the same with spans at every hook; the spans go to SPANS;
* ``layers`` -- isolated calls into the public layer functions on the
  workload's own inputs.

The last line of standard output is ``PERFBENCH <json>``.  The child refuses
to run (exit 3) unless ``jumpdiff`` is imported from ``ROOT/src``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

MARK = "PERFBENCH "
# Offsets per chunk in the isolated pair sweeps: about this many pairs each.
_PAIRS_PER_CHUNK = 1_500_000


def prepare(config: str):
    """The set-up chain of ``jumpdiff run``, through public functions."""
    import numpy as np

    from jumpdiff import evolve
    from jumpdiff.config import build_kernel, build_profile, parse_config, solver_config
    from jumpdiff.kernels import regularize
    from jumpdiff.lattice import sample_profile
    from jumpdiff.operator import build_context

    cfg = parse_config(Path(config).read_text(encoding="utf-8"))
    kernel = build_kernel(cfg)
    sc = solver_config(cfg)
    regk = regularize(kernel, sc.epsilon)
    u0 = sample_profile(build_profile(cfg.profile, cfg.grid), cfg.grid)
    R = cfg.solver.r if cfg.solver.r is not None else max(1.0, float(np.max(np.abs(u0.values))))
    ctx = build_context(cfg.grid, regk, R)
    dt = evolve.cfl_dt(ctx, R, sc.cfl_theta)
    return cfg, sc, regk, u0, R, ctx, dt


def _run_main(main_fn, config: str, outdir: str) -> dict:
    start = time.perf_counter()
    code = main_fn(["run", "--config", config, "--out", outdir])
    wall = time.perf_counter() - start
    return {"exit_code": code, "wall_s": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _repeat(fn, consume, min_n: int = 5, budget_s: float = 0.5, max_n: int = 200) -> list[float]:
    """Seconds per call after one warm-up; each result is consumed inside the timing."""
    consume(fn())
    samples = []
    begin = time.perf_counter()
    while len(samples) < max_n and (len(samples) < min_n or time.perf_counter() - begin < budget_s):
        start = time.perf_counter()
        consume(fn())
        samples.append(time.perf_counter() - start)
    return samples


def active_offsets(grid, epsilon):
    """Flat lattice offsets the operator sums over (distance at least ``epsilon``)."""
    import numpy as np

    from jumpdiff.lattice import offset_distances

    dists = offset_distances(grid)
    offsets = np.nonzero(dists >= epsilon)[0]
    return offsets[offsets != 0], dists


def _pair_chunks(grid, values, epsilon):
    """``(a, b, r)`` for every pair of one apply, offsets in chunks.

    ``a`` is the cell's value, ``b`` the value at the cell displaced by the
    offset and ``r`` the offset's torus distance.
    """
    import numpy as np

    offsets, dists = active_offsets(grid, epsilon)
    m, n = grid.cells_per_axis, grid.n_cells
    cells = np.arange(n)
    rows = max(1, _PAIRS_PER_CHUNK // n)
    for lo in range(0, offsets.size, rows):
        off = offsets[lo:lo + rows]
        if grid.dimension == 1:
            idx = (cells[None, :] - off[:, None]) % m
        else:
            i1, i2 = np.divmod(cells, m)
            o1, o2 = np.divmod(off, m)
            idx = ((i1[None, :] - o1[:, None]) % m) * m + (i2[None, :] - o2[:, None]) % m
        yield values[None, :], values[idx], dists[off][:, None]


def _sweeps(make_chunks, fn, n: int = 3) -> list[float]:
    """Seconds inside ``fn`` per sweep over all pairs, after one warm-up sweep.

    Only the calls are timed, not the gathers that build their inputs; one
    element of each result is read inside the timing.
    """
    def sweep():
        total = 0.0
        for args in make_chunks():
            start = time.perf_counter()
            float(fn(*args).flat[-1])
            total += time.perf_counter() - start
        return total

    sweep()
    return [sweep() for _ in range(n)]


def layers(config: str) -> dict:
    import numpy as np

    from jumpdiff import diagnostics, evolve
    from jumpdiff.kernels import smooth_ramp
    from jumpdiff.operator import apply, build_context

    cfg, sc, regk, u0, R, ctx, _ = prepare(config)
    grid, eps, v = cfg.grid, regk.epsilon, u0.values
    pairs = active_offsets(grid, eps)[0].size * grid.n_cells

    def nothing(_):
        pass

    context_s = _repeat(lambda: build_context(grid, regk, R), nothing)
    bound_s = _repeat(lambda: evolve.cfl_dt(ctx, R, sc.cfl_theta), nothing)
    apply_s = _repeat(lambda: apply(ctx, u0, u0), lambda f: float(f.values[-1]), budget_s=1.0)
    record_s = _repeat(lambda: diagnostics.record(ctx, 0.0, u0), lambda r: r.mass)
    eval_s = _sweeps(lambda: _pair_chunks(grid, v, eps), regk.base.eval)
    ramp_s = _sweeps(lambda: ((np.abs(a - b),) for a, b, _ in _pair_chunks(grid, v, eps)),
                     lambda x: smooth_ramp(eps, x))
    apply_p50 = statistics.median(apply_s)
    return {
        "operator.build_context_ms": 1e3 * statistics.median(context_s),
        "kernels.bound_ms": 1e3 * statistics.median(bound_s),
        "operator.apply_ms_p50": 1e3 * apply_p50,
        "operator.apply_ms_p90": 1e3 * statistics.quantiles(apply_s, n=10, method="inclusive")[-1],
        "operator.pairs_per_apply": pairs,
        "operator.mpairs_per_s": pairs / apply_p50 / 1e6,
        "kernels.eval_mpairs_per_s": pairs / statistics.median(eval_s) / 1e6,
        "kernels.ramp_mpairs_per_s": pairs / statistics.median(ramp_s) / 1e6,
        "diagnostics.record_ms": 1e3 * statistics.median(record_s),
    }


def main(argv) -> int:
    mode, root, config, outdir = argv[1:5]
    start = time.perf_counter()
    import jumpdiff.cli as cli

    import_s = time.perf_counter() - start
    src = (Path(root) / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"jumpdiff was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if mode == "setup":
        prepare(config)
        result = {"setup_s": time.perf_counter() - start}
    elif mode == "wall":
        result = _run_main(cli.main, config, outdir)
    elif mode in ("count", "traced"):
        import spans

        tracer = spans.Tracer()
        restore = tracer.install(spans.STEP_HOOKS if mode == "count" else spans.HOOK_NAMES)
        try:
            result = _run_main(tracer.wrap(spans.ROOT, cli.main), config, outdir)
        finally:
            restore()
        result["applies"] = spans.applies(tracer.spans)
        if mode == "traced":
            Path(argv[5]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    elif mode == "layers":
        result = layers(config)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["import_s"] = import_s
    print(MARK + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
