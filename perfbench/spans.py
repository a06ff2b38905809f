"""Spans around the public functions at jumpdiff's module boundaries.

``Tracer`` patches each hooked name in the module where its caller looks it
up (``cli`` and ``evolve`` bind most of them with ``from ... import``, so
patching the defining module alone would miss those calls).  Spans stay in
memory as ``(name, start, end, parent, applies, error)`` and are written out
once the traced call has returned.  ``layer_metrics`` turns the spans of one
traced run into per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (module under jumpdiff, public name), patched in that module's namespace.
HOOKS = (
    ("cli", "parse_config"),
    ("cli", "build_kernel"),
    ("cli", "build_context"),
    ("cli", "run_solver"),
    ("cli", "check_monotone_series"),
    ("evolve", "step_explicit"),
    ("evolve", "step_backward_picard"),
    ("evolve", "cfl_dt"),
    ("evolve", "regular_bound_M"),
    ("diagnostics", "record"),
)
HOOK_NAMES = tuple(f"{mod}.{attr}" for mod, attr in HOOKS)
STEP_HOOKS = ("evolve.step_explicit", "evolve.step_backward_picard")
ROOT = "cli.main"


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._open[-1] if self._open else None, "applies": 0, "error": None}
        self._open.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["end"] = time.perf_counter()
            span["error"] = type(exc).__name__
            if name == "evolve.step_backward_picard" and span["error"] == "PicardDivergedError":
                # A diverged attempt ran every allowed iteration, one apply each.
                span["applies"] = inspect.signature(fn).bind(*args, **kwargs).arguments["max_iters"]
            raise
        else:
            span["end"] = time.perf_counter()
        finally:
            self._open.pop()
        if name == "evolve.step_explicit":
            span["applies"] = 1
        elif name == "evolve.step_backward_picard":
            span["applies"] = int(result[1])
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, names=HOOK_NAMES):
        """Patch the hooked names; returns a function that undoes it."""
        patched = []
        for mod, attr in HOOKS:
            name = f"{mod}.{attr}"
            if name in names:
                module = importlib.import_module(f"jumpdiff.{mod}")
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original))
                patched.append((module, attr, original))

        def restore():
            for module, attr, original in patched:
                setattr(module, attr, original)

        return restore


def applies(spans) -> int:
    """Operator applies counted at the step-function boundary."""
    return sum(s["applies"] for s in spans if s["name"] in STEP_HOOKS)


def self_times(spans) -> list[float]:
    """Span duration minus the time its (sequential) child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_time(spans) -> float:
    """Time spent under a hooked layer: the self times of every span but the root's."""
    return sum(t for s, t in zip(spans, self_times(spans)) if s["name"] != ROOT)


def missing_hooks(spans, expected) -> list[str]:
    fired = {s["name"] for s in spans}
    return [name for name in expected if name not in fired]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it; 100 (the max) if none."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 100.0


def percentile(values, pct: float) -> float:
    if pct >= 100.0:
        return max(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def layer_metrics(spans) -> dict:
    """Per-layer figures from the spans of one traced ``main`` call."""
    own = self_times(spans)

    def self_of(*names):
        return sum(t for s, t in zip(spans, own) if s["name"] in names)

    steps = [s for s in spans if s["name"] in STEP_HOOKS]
    ok = [s for s in steps if s["error"] is None]
    diverged = [s for s in steps if s["error"] == "PicardDivergedError"]
    total_applies = applies(spans)
    step_ms = [1e3 * (s["end"] - s["start"]) for s in ok]
    tail = tail_percentile(len(step_ms))
    return {
        "evolve.applies": total_applies,
        "evolve.iters_per_step": sum(s["applies"] for s in ok) / len(ok),
        "evolve.diverged_attempts": len(diverged),
        "evolve.wasted_apply_frac": sum(s["applies"] for s in diverged) / total_applies,
        "evolve.step_ms_p50": statistics.median(step_ms),
        "evolve.step_ms_tail": percentile(step_ms, tail),
        "evolve.step_tail_pct": tail,
        "evolve.step_samples": len(step_ms),
        "evolve.self_s": self_of("cli.run_solver"),
        "evolve.step_self_s": self_of(*STEP_HOOKS),
        "kernels.bound_self_s": self_of("evolve.cfl_dt", "evolve.regular_bound_M"),
        "config.self_s": self_of("cli.parse_config", "cli.build_kernel"),
        "operator.build_context_self_s": self_of("cli.build_context"),
        "diagnostics.record_self_s": self_of("diagnostics.record"),
        "diagnostics.record_calls": sum(s["name"] == "diagnostics.record" for s in spans),
        "diagnostics.checks_ms": 1e3 * self_of("cli.check_monotone_series"),
        # main's own time: argument parsing, the config file read, the
        # unhooked set-up calls (regularize, sample_profile) and CSV output.
        "cli.write_s": self_of(ROOT),
    }
