"""Per-snapshot measurements and cross-run theorem checks.

A :class:`DiagnosticsRecord` captures the conserved and monotone
quantities of one snapshot (mass, L^p norms, total variation, extrema).
The check functions turn the qualitative statements about the flow --
norms decay, ordered data stay ordered, trajectories contract in L^1 --
into deterministic pass/fail verdicts with explicit slack budgets.  Slacks
are always arguments, never hidden constants; the ``jumpdiff`` commands
derive them from each run (see :mod:`jumpdiff.cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .lattice import Field, mass, norm_lp, total_variation
from .operator import OperatorContext

__all__ = [
    "DiagnosticsRecord",
    "CheckResult",
    "OrderingError",
    "record",
    "check_monotone_series",
    "l1_distances",
    "min_gaps",
    "check_contraction",
    "check_comparison",
]

MONOTONE_QUANTITIES = ("l1", "l2", "linf", "tv", "bv")


class OrderingError(ValueError):
    """Comparison check called on initial data that are not ordered."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    l1: float
    l2: float
    linf: float
    tv: float
    bv: float
    min_value: float
    max_value: float
    tail_estimate: float
    picard_iters: int

    def as_row(self) -> tuple:
        return tuple(getattr(self, c) for c in self.COLUMNS)   # not astuple, which deep-copies


DiagnosticsRecord.COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    first_violation: int | None = None
    detail: str = ""


def record(ctx: OperatorContext | None, t: float, field: Field, picard_iters: int = 0) -> DiagnosticsRecord:
    """Measure one snapshot; pure, so identical fields give identical records."""
    v = field.values
    l1 = norm_lp(field, 1)
    tv = total_variation(field)
    return DiagnosticsRecord(
        t=float(t),
        mass=mass(field),
        l1=l1,
        l2=norm_lp(field, 2),
        linf=norm_lp(field, math.inf),
        tv=tv,
        bv=2.0 * l1 + tv,   # bv_norm(field), from the parts already measured
        min_value=float(v.min()),
        max_value=float(v.max()),
        tail_estimate=ctx.tail_estimate if ctx is not None else 0.0,
        picard_iters=int(picard_iters),
    )


def check_monotone_series(trajectory, quantity: str, slack: float) -> CheckResult:
    """Pass iff the snapshot series of ``quantity`` never rises by more than ``slack``."""
    if quantity not in MONOTONE_QUANTITIES:
        raise ValueError(f"unknown monotone quantity {quantity!r}")
    series = trajectory.series(quantity)
    if not series:
        raise ValueError("trajectory has no snapshots")
    rises = [series[k + 1] - series[k] for k in range(len(series) - 1)]
    worst = max(rises) if rises else 0.0
    first = next((k + 1 for k, rise in enumerate(rises) if rise > slack), None)
    return CheckResult(
        name=f"monotone_{quantity}",
        passed=first is None,
        worst_margin=worst,
        first_violation=first,
        detail=f"{len(series)} snapshots, slack {slack:g}",
    )


def _matched_times(traj_u, traj_v):
    tu, tv = traj_u.times, traj_v.times
    if len(tu) != len(tv) or any(abs(a - b) > 1e-12 * max(1.0, abs(a)) for a, b in zip(tu, tv)):
        raise ValueError("trajectories have mismatched snapshot times")
    if traj_u.grid != traj_v.grid:
        raise ValueError("trajectories live on different grids")


def l1_distances(traj_u, traj_v) -> list[float]:
    """``||u(t) - v(t)||_1`` at each snapshot; ``ValueError`` unless both runs share their times and grid."""
    _matched_times(traj_u, traj_v)
    hn = traj_u.grid.cell_volume
    return [float(np.abs(fu.values - fv.values).sum() * hn) for fu, fv in zip(traj_u.fields, traj_v.fields)]


def min_gaps(traj_lo, traj_hi) -> list[float]:
    """``min(hi(t) - lo(t))`` over the cells at each snapshot; ``ValueError`` unless both runs share their times and grid."""
    _matched_times(traj_lo, traj_hi)
    return [float((fh.values - fl.values).min()) for fl, fh in zip(traj_lo.fields, traj_hi.fields)]


def check_contraction(traj_u, traj_v, slack: float) -> CheckResult:
    """L^1 distance between two runs must never exceed its initial value + slack."""
    dists = l1_distances(traj_u, traj_v)
    d0 = dists[0]
    worst = max(d - d0 for d in dists)
    first = next((k for k, d in enumerate(dists) if d > d0 + slack), None)
    return CheckResult(
        name="l1_contraction",
        passed=first is None,
        worst_margin=worst,
        first_violation=first,
        detail=f"initial distance {d0:.6g}, slack {slack:g}",
    )


def check_comparison(traj_u, traj_v, slack: float) -> CheckResult:
    """With ``u0 <= v0`` pointwise, the ordering must persist up to ``slack``.

    A violated precondition (crossing initial data) raises
    :class:`OrderingError` -- it is a caller mistake, not a failed check.
    """
    gaps = min_gaps(traj_u, traj_v)
    if gaps[0] < 0:
        raise OrderingError("initial data are not ordered: u0 <= v0 fails pointwise")
    worst_gap = min(gaps)
    first = next((k for k, gap in enumerate(gaps) if gap < -slack), None)
    return CheckResult(
        name="comparison",
        passed=first is None,
        worst_margin=0.0 - worst_gap,   # not -worst_gap, which is -0.0 for a gap of 0
        first_violation=first,
        detail=f"min gap {worst_gap:.6g}, slack {slack:g}",
    )
