"""Benchmark for jumpdiff: the public ``jumpdiff run`` command on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout that holds ``src/jumpdiff``; the
program is imported from that source tree and nowhere else.  Every
measurement runs in a fresh interpreter (``child.py``), one at a time, with
the BLAS/OpenMP thread counts set to 1, writing into a fresh temporary
directory under ``.perfbench_tmp/`` that is removed afterwards.

``--trace 0`` repeats rounds of set-up, untraced ``run`` and set-up
children for about ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json`` as medians; one extra counted run (counters at the step
functions only, its time discarded) gives the exact operator-apply count.  ``--trace 1`` reports
the per-layer metrics: spans at every module boundary from a traced run,
an untraced run for the tracing overhead, and isolated layer calls.

Every ``run`` child passes through the correctness gate (``gate.py``); a
child that fails it, crashes or misses a hook counts in ``failed``.  A line
of provenance precedes the result, which is the last line of output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import gate
import spans
from child import MARK
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_BASE = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# Whole benchmark process, children included, ends within this many seconds.
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 3
TRACE_ROUNDS = 2
# One round of the ``--trace 0`` loop.  Set-up children sit on both sides of
# each run child, so the two metrics sample the same phases of a machine
# whose speed drifts, and set-up, the shorter child, gets twice the samples.
ROUND = ("setup", "wall", "setup")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Bench:
    """Children for one workload, size and seed, and their failure count."""

    def __init__(self, name: str, size: str, seed: int, started: float):
        self.workload = WORKLOADS[name]
        self.size = size
        self.variant = self.workload.variant(seed)
        self.shift = self.workload.shift(size, seed)
        self.reference = gate.load_reference(name, size)
        self.started = started
        self.attempted = 0
        self.failed = 0
        TMP_BASE.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_BASE))
        self.config = self.tmp / "run.cfg"
        self.config.write_text(self.workload.config_text(size, seed), encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{v: "1" for v in THREAD_VARS}}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass  # another benchmark still uses it

    def fail(self, mode: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {mode} run failed: {why}", file=sys.stderr)

    def child(self, mode: str) -> dict | None:
        """Run one child; its result, or None if it failed before producing one.

        A ``run`` child that produced a result but fails the gate is counted
        as failed and its result is still returned: failed runs are never
        dropped from the figures.
        """
        self.attempted += 1
        outdir = self.tmp / f"out-{self.attempted}"
        spans_path = self.tmp / f"spans-{self.attempted}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(ROOT), str(self.config),
               str(outdir), str(spans_path)]
        timeout = HARD_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.fail(mode, "timed out")
            return None
        marked = [line for line in proc.stdout.splitlines() if line.startswith(MARK)]
        if proc.returncode != 0 or not marked:
            self.fail(mode, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(marked[-1][len(MARK):])
        if "exit_code" in result:
            problems = gate.check_run(outdir, result["exit_code"], self.reference, self.variant, self.shift)
            if problems:
                self.fail(mode, "; ".join(problems))
            files = [p for p in outdir.rglob("*") if p.is_file()]
            result["files_written"] = len(files)
            result["bytes_written"] = sum(p.stat().st_size for p in files)
        if mode == "traced":
            result["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return result

    def results(self, mode: str, n: int) -> list[dict]:
        return [r for r in (self.child(mode) for _ in range(n)) if r is not None]


def end_to_end(bench: Bench, seconds: float) -> dict:
    counted = bench.child("count")
    if counted is None:
        raise BenchError("the counted run failed")
    setups, walls = [], []
    samples = {"setup": setups, "wall": walls}
    deadline = bench.started + seconds
    while True:
        begin = time.monotonic()
        for mode in ROUND:
            result = bench.child(mode)
            if result is not None:
                samples[mode].append(result)
        if len(walls) >= MIN_SAMPLES and time.monotonic() + (time.monotonic() - begin) > deadline:
            break
        if time.monotonic() - bench.started > HARD_LIMIT_S:
            raise BenchError(f"out of time with {len(walls)} run samples")
    if not setups:
        raise BenchError("every set-up run failed")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in walls),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in walls),
        "applies_per_sim_t": counted["applies"] / bench.workload.end_time[bench.size],
    }


def per_layer(bench: Bench) -> dict:
    expected = [h for h in spans.HOOK_NAMES if h not in spans.STEP_HOOKS]
    expected.append(f"evolve.{bench.workload.step_hook}")
    imports = bench.results("setup", MIN_SAMPLES)
    untraced, traced = [], []
    for _ in range(TRACE_ROUNDS):
        untraced += bench.results("wall", 1)
        for result in bench.results("traced", 1):
            missing = spans.missing_hooks(result["spans"], expected)
            if missing:
                bench.fail("traced", f"hooks never fired: {', '.join(missing)}")
            else:
                traced.append(result)
    layers = bench.child("layers")
    if not (imports and untraced and traced and layers):
        raise BenchError("no complete traced measurement")

    per_run = []
    for result in traced:
        m = spans.layer_metrics(result["spans"])
        m["trace.layer_frac"] = spans.layer_time(result["spans"]) / result["wall_s"]
        m["trace.wall_s"] = result["wall_s"]
        m["cli.files_written"] = result["files_written"]
        m["cli.bytes_written"] = result["bytes_written"]
        m["cli.write_mb_per_s"] = result["bytes_written"] / 1e6 / m["cli.write_s"]
        per_run.append(m)
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics.update({k: v for k, v in layers.items() if k != "import_s"})
    metrics["jumpdiff.import_s"] = statistics.median(r["import_s"] for r in imports)
    metrics["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return metrics


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jumpdiff").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, **caches,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": source.hexdigest()[:16], "seed": seed,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jumpdiff" / "cli.py").is_file():
        print(f"perfbench: no jumpdiff source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("provenance: " + json.dumps(provenance(args.seed)), flush=True)
    bench = Bench(args.workload, args.size, args.seed, started)
    try:
        measured = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
