"""Sampling-based certification and refutation of the kernel conditions.

Sampling cannot prove a universally quantified statement, so every "pass"
verdict means "no violation found at the given budget and seed"; budgets
and seeds are part of the report.  Failures, on the other hand, are sound:
each carries a witness tuple that reproduces the violation when replayed
through the kernel (see :func:`replay_violation`).

Axiom checks (A1-A6) exercise the raw kernel; regularity checks (B1-B2)
exercise row sums on a grid.  Sample streams are nested: enlarging the
budget with the same seed only appends samples, so the recorded worst
violation is non-decreasing in the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operator
from .kernels import JumpKernel, QuadratureDivergenceError, RegularizedKernel, levy_constant, regular_bound_M
from .lattice import Field, GridSpec, make_grid, neighbor_windows, offset_distances

__all__ = ["AxiomReport", "check_axiom_settings", "check_axioms", "check_regular", "replay_violation"]

# Relative tolerance separating float noise from genuine violations.
VIOLATION_RTOL = 1e-12
# A6 diagonal probe: geometric shrink depth and the growth factor that
# counts as a blow-up of the local Lipschitz ratio.
_PROBE_DEPTH = 24
_PROBE_GROWTH_LIMIT = 1e4

_R_LOG_RANGE = (-3.0, 2.0)  # sampled distances are log-uniform in 10^[lo, hi]


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one condition at a given sampling budget."""

    axiom: str
    verdict: str  # pass | fail | inconclusive
    worst_violation: float
    tolerance: float
    witness: dict | None = None
    samples_used: int = 0
    estimate: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _sample_r(rng: np.random.Generator, n: int) -> np.ndarray:
    lo, hi = _R_LOG_RANGE
    return 10.0 ** rng.uniform(lo, hi, size=n)


def _finite_or_none(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)))


def _worst(values: np.ndarray, samples: tuple) -> tuple[float, dict]:
    """Max violation and the witness tuple attaining it."""
    i = int(np.argmax(values))
    witness = {k: float(v[i]) for k, v in samples}
    return float(values[i]), witness


def check_axiom_settings(R: float, epsilon: float, sample_budget: int, seed: int) -> None:
    """Raise ``ValueError`` unless :func:`check_axioms` admits these settings."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if R <= 0:
        raise ValueError("R must be positive")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if sample_budget < 1_000:
        raise ValueError("sample budget must be at least 1000")


def check_axioms(kernel: JumpKernel, R: float, epsilon: float, sample_budget: int = 10_000, seed: int = 0) -> list[AxiomReport]:
    """Check conditions A1-A6 on random samples; one report per condition.

    ``R`` bounds the sampled field values, ``epsilon`` is the off-diagonal
    margin for the Lipschitz condition A6.  The homogeneity condition A4 is
    structural for this interface (the evaluator only sees ``r``), so it
    always passes.
    """
    check_axiom_settings(R, epsilon, sample_budget, seed)
    n = int(sample_budget)
    rng_a1, rng_a2, rng_a3, rng_a5, rng_a6, rng_probe = _rngs(seed, 6)
    reports = []

    # A1: non-negative, finite values.
    a = rng_a1.uniform(-R, R, size=n)
    b = rng_a1.uniform(-R, R, size=n)
    r = _sample_r(rng_a1, n)
    vals = np.asarray(kernel.eval(a, b, r), dtype=float)
    if not _finite_or_none(vals):
        i = int(np.argmin(np.isfinite(vals)))
        reports.append(AxiomReport("A1", "inconclusive", math.inf, 0.0,
                                   {"a": float(a[i]), "b": float(b[i]), "r": float(r[i])}, n,
                                   detail="non-finite kernel value"))
    else:
        scale = max(1.0, float(np.max(np.abs(vals))))
        tol = VIOLATION_RTOL * scale
        worst, wit = _worst(-vals, (("a", a), ("b", b), ("r", r)))
        worst = max(0.0, worst)
        reports.append(AxiomReport("A1", "pass" if worst <= tol else "fail", worst, tol, wit, n))

    # A2: symmetry in (a, b).
    a = rng_a2.uniform(-R, R, size=n)
    b = rng_a2.uniform(-R, R, size=n)
    r = _sample_r(rng_a2, n)
    v1 = np.asarray(kernel.eval(a, b, r), dtype=float)
    v2 = np.asarray(kernel.eval(b, a, r), dtype=float)
    if not (_finite_or_none(v1) and _finite_or_none(v2)):
        reports.append(AxiomReport("A2", "inconclusive", math.inf, 0.0, None, n, detail="non-finite kernel value"))
    else:
        scale = max(1.0, float(np.max(np.abs(v1))))
        tol = VIOLATION_RTOL * scale
        worst, wit = _worst(np.abs(v1 - v2), (("a", a), ("b", b), ("r", r)))
        reports.append(AxiomReport("A2", "pass" if worst <= tol else "fail", worst, tol, wit, n))

    # A3: (a-b) m(a,b) >= (c-d) m(c,d) on sorted quadruples a >= c >= d >= b.
    quad = np.sort(rng_a3.uniform(-R, R, size=(n, 4)), axis=1)[:, ::-1]
    a, c, d, b = quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3]
    r = _sample_r(rng_a3, n)
    outer = (a - b) * np.asarray(kernel.eval(a, b, r), dtype=float)
    inner = (c - d) * np.asarray(kernel.eval(c, d, r), dtype=float)
    if not (_finite_or_none(outer) and _finite_or_none(inner)):
        reports.append(AxiomReport("A3", "inconclusive", math.inf, 0.0, None, n, detail="non-finite kernel value"))
    else:
        scale = max(1.0, float(np.max(np.abs(outer))))
        tol = VIOLATION_RTOL * scale
        worst, wit = _worst(inner - outer, (("a", a), ("c", c), ("d", d), ("b", b), ("r", r)))
        worst = max(0.0, worst)
        reports.append(AxiomReport("A3", "pass" if worst <= tol else "fail", worst, tol, wit, n))

    # A4: spatial dependence through r only -- structural for this interface.
    reports.append(AxiomReport("A4", "pass", 0.0, 0.0, None, 0,
                               detail="structural: evaluator takes the scalar distance only"))

    # A5: majorant domination plus convergence of the Levy integral.
    a = rng_a5.uniform(-R, R, size=n)
    b = rng_a5.uniform(-R, R, size=n)
    r = _sample_r(rng_a5, n)
    vals = np.asarray(kernel.eval(a, b, r), dtype=float)
    maj = np.asarray(kernel.majorant(R, r), dtype=float)
    try:
        k_r, _ = levy_constant(kernel, R)
        levy_ok, levy_detail = True, ""
    except QuadratureDivergenceError as exc:
        k_r, levy_ok, levy_detail = math.inf, False, str(exc)
    if not (_finite_or_none(vals) and _finite_or_none(maj)):
        reports.append(AxiomReport("A5", "inconclusive", math.inf, 0.0, None, n, detail="non-finite value"))
    else:
        scale = max(1.0, float(np.max(np.abs(vals))))
        tol = VIOLATION_RTOL * scale
        worst, wit = _worst(vals - maj, (("a", a), ("b", b), ("r", r)))
        wit["R"] = float(R)
        worst = max(0.0, worst)
        if not levy_ok:
            reports.append(AxiomReport("A5", "fail", math.inf, tol, {"reason": "divergent Levy integral"},
                                       n, estimate=None, detail=levy_detail))
        else:
            reports.append(AxiomReport("A5", "pass" if worst <= tol else "fail", worst, tol, wit, n, estimate=k_r))

    # A6: local Lipschitz ratio away from the diagonal, plus a diagonal
    # continuity probe that detects ratio blow-up as |a - b| -> 0.
    a = rng_a6.uniform(-R, R, size=n)
    b = rng_a6.uniform(-R, R, size=n)
    c = rng_a6.uniform(-R, R, size=n)
    r = _sample_r(rng_a6, n)
    keep = (np.abs(a - b) >= epsilon) & (np.abs(c - b) >= epsilon)
    maj = np.asarray(kernel.majorant(R, r), dtype=float)
    keep &= maj > 0
    keep &= np.abs(a - c) > 1e-14
    c_hat = 0.0
    if np.any(keep):
        va = np.asarray(kernel.eval(a[keep], b[keep], r[keep]), dtype=float)
        vc = np.asarray(kernel.eval(c[keep], b[keep], r[keep]), dtype=float)
        ratios = np.abs(va - vc) / (np.abs(a - c)[keep] * maj[keep])
        if not _finite_or_none(ratios):
            reports.append(AxiomReport("A6", "inconclusive", math.inf, 0.0, None, n, detail="non-finite ratio"))
            return reports
        c_hat = float(np.max(ratios)) if ratios.size else 0.0

    # Diagonal probe: track the Lipschitz ratio at pair separations
    # eps * 2^-k; bounded growth means the kernel stays continuous across
    # the diagonal, blow-up refutes A6.
    n_probe = 32
    pa = rng_probe.uniform(-R + 2 * epsilon, R, size=n_probe)
    pr = _sample_r(rng_probe, n_probe)
    pmaj = np.asarray(kernel.majorant(R, pr), dtype=float)
    ok = pmaj > 0
    growth = 0.0
    wit = None
    first_ratio = last_ratio = 0.0
    if np.any(ok):
        pa, pr, pmaj = pa[ok], pr[ok], pmaj[ok]
        ratios_k = []
        for k in range(_PROBE_DEPTH + 1):
            z = epsilon * 2.0 ** (-k)
            bb = pa - 2.0 * z
            cc = pa - z
            va = np.asarray(kernel.eval(pa, bb, pr), dtype=float)
            vc = np.asarray(kernel.eval(cc, bb, pr), dtype=float)
            ratios_k.append(np.abs(va - vc) / (z * pmaj))
        ratios_k = np.asarray(ratios_k)
        if not _finite_or_none(ratios_k):
            reports.append(AxiomReport("A6", "inconclusive", math.inf, 0.0, None, n, detail="non-finite probe value"))
            return reports
        first_ratio = float(np.max(ratios_k[0]))
        j = int(np.argmax(ratios_k[-1]))
        last_ratio = float(ratios_k[-1][j])
        growth = last_ratio / max(first_ratio, 1.0)
        z = epsilon * 2.0 ** (-_PROBE_DEPTH)
        wit = {"a": float(pa[j]), "b": float(pa[j] - 2 * z), "c": float(pa[j] - z),
               "r": float(pr[j]), "z": z, "R": float(R)}
    verdict = "fail" if growth > _PROBE_GROWTH_LIMIT else "pass"
    reports.append(AxiomReport(
        "A6", verdict, growth, _PROBE_GROWTH_LIMIT,
        wit if verdict == "fail" else None, n, estimate=c_hat,
        detail=f"C_hat(R,eps)={c_hat:.6g}; diagonal ratio {first_ratio:.3g} -> {last_ratio:.3g}",
    ))
    return reports


def _bare_row_sums(grid: GridSpec, kernel: JumpKernel, v: np.ndarray) -> np.ndarray:
    """Row sums of the raw kernel over all distinct pairs (no cutoff, no ramp).

    Both orientations of every pair are evaluated, so kernels that break the
    symmetry A2 show up in the row sums.
    """
    vp = operator._plane(grid, v)
    v_nb = neighbor_windows(vp)
    rows = sum(np.asarray(kernel.eval(vp, v_nb[b.row, b.cols], b.r), dtype=float).sum(axis=0)
               for b in operator._offset_batches(grid, np.arange(grid.n_cells) > 0, half=False))
    return rows.ravel() * grid.cell_volume


def check_regular(regkernel, grid: GridSpec, R: float, sample_budget: int = 2_000, seed: int = 0) -> list[AxiomReport]:
    """Check the regularity conditions B1 (bounded rows) and B2 (Lipschitz in u).

    Accepts either a :class:`RegularizedKernel` (row sums are compared
    against the certified bound) or a bare :class:`JumpKernel` (row sums
    are probed under grid refinement; steady growth refutes B1, as happens
    for any kernel with a non-integrable diagonal singularity).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    rng_b1, rng_b2 = _rngs(seed, 2)
    n_fields = max(4, int(sample_budget) // grid.n_cells)
    reports = []

    if isinstance(regkernel, RegularizedKernel):
        bound = regular_bound_M(regkernel, R, grid)
        ctx = operator.build_context(grid, regkernel, R)
        worst = -math.inf
        wit = None
        for _ in range(n_fields):
            v = Field(grid, rng_b1.uniform(-R, R, size=grid.n_cells))
            s = operator.max_row_sum(ctx, v)
            if s - bound > worst:
                worst, wit = s - bound, {"row_sum": s, "bound": bound}
        worst = max(0.0, worst)
        tol = 1e-9 * max(1.0, bound)
        reports.append(AxiomReport("B1", "pass" if worst <= tol else "fail", worst, tol, wit,
                                   n_fields * grid.n_cells, estimate=bound))
        eval_pairs = regkernel.eval
    else:
        # Bare kernel: refine the lattice and watch the largest row sum.
        sums = []
        for level in range(3):
            g = make_grid(grid.dimension, grid.cells_per_axis * 2**level, grid.period)
            v = rng_b1.uniform(-R, R, size=g.n_cells)
            sums.append(float(_bare_row_sums(g, regkernel, v).max()))
        growth = [sums[k + 1] / max(sums[k], 1e-300) for k in range(2)]
        diverging = min(growth) >= 1.25
        detail = "max row sums under refinement: " + ", ".join(f"{s:.6g}" for s in sums)
        verdict = "fail" if diverging else ("pass" if max(growth) <= 1.1 else "inconclusive")
        reports.append(AxiomReport("B1", verdict, min(growth) if diverging else 0.0, 1.25,
                                   {"row_sums": sums} if diverging else None,
                                   3 * grid.n_cells, estimate=sums[-1], detail=detail))
        eval_pairs = regkernel.eval

    # B2: finite-difference estimate of the Lipschitz constant L_R of the
    # row sums with respect to the field argument.
    keep = offset_distances(grid) >= (regkernel.epsilon if isinstance(regkernel, RegularizedKernel) else 0.0)
    keep[0] = False
    l_hat = 0.0
    nonfinite = False
    for _ in range(n_fields):
        u = rng_b2.uniform(-R, R, size=grid.n_cells)
        g = rng_b2.uniform(-1.0, 1.0, size=grid.n_cells)
        for delta in (1e-2, 1e-4):
            w = np.clip(u + delta * g, -R, R)
            du = _row_sum_difference(grid, eval_pairs, u, w, keep)
            if not math.isfinite(du):
                nonfinite = True
                continue
            denom = _norm_1_inf(grid, u - w)
            if denom > 0:
                l_hat = max(l_hat, du / denom)
    if nonfinite:
        reports.append(AxiomReport("B2", "inconclusive", math.inf, 0.0, None, n_fields * grid.n_cells,
                                   detail="non-finite kernel difference"))
    else:
        reports.append(AxiomReport("B2", "pass", 0.0, 0.0, None, n_fields * grid.n_cells, estimate=l_hat,
                                   detail=f"L_hat(R)={l_hat:.6g}"))
    return reports


def _row_sum_difference(grid, eval_pairs, u, w, keep) -> float:
    """sup_x sum_j |m(u_x,u_j) - m(w_x,w_j)| h^N over the offsets where ``keep`` holds."""
    up, wp = operator._plane(grid, u), operator._plane(grid, w)
    u_nb, w_nb = neighbor_windows(up), neighbor_windows(wp)
    rows = np.zeros(up.shape)
    for b in operator._offset_batches(grid, keep, half=False):
        mu = np.asarray(eval_pairs(up, u_nb[b.row, b.cols], b.r), dtype=float)
        mw = np.asarray(eval_pairs(wp, w_nb[b.row, b.cols], b.r), dtype=float)
        rows += np.abs(mu - mw).sum(axis=0)
    return float(rows.max()) * grid.cell_volume


def _norm_1_inf(grid, x) -> float:
    return float(np.abs(x).sum() * grid.cell_volume + np.abs(x).max())


def replay_violation(kernel, report: AxiomReport) -> float:
    """Recompute the violation from a fail report's witness; 0 if none applies.

    The returned value uses the same measure as ``worst_violation``, so a
    sound failure satisfies ``replay_violation(...) > report.tolerance``.
    """
    w = report.witness
    if w is None:
        return 0.0
    if report.axiom == "A1":
        return max(0.0, -float(kernel.eval(w["a"], w["b"], w["r"])))
    if report.axiom == "A2":
        return abs(float(kernel.eval(w["a"], w["b"], w["r"])) - float(kernel.eval(w["b"], w["a"], w["r"])))
    if report.axiom == "A3":
        outer = (w["a"] - w["b"]) * float(kernel.eval(w["a"], w["b"], w["r"]))
        inner = (w["c"] - w["d"]) * float(kernel.eval(w["c"], w["d"], w["r"]))
        return max(0.0, inner - outer)
    if report.axiom == "A5":
        if "reason" in w:
            return math.inf
        return max(0.0, float(kernel.eval(w["a"], w["b"], w["r"])) - float(kernel.majorant(w["R"], w["r"])))
    if report.axiom == "A6":
        maj = float(kernel.majorant(w["R"], w["r"]))
        va = float(kernel.eval(w["a"], w["b"], w["r"]))
        vc = float(kernel.eval(w["c"], w["b"], w["r"]))
        return abs(va - vc) / (abs(w["a"] - w["c"]) * maj)
    if report.axiom == "B1" and "row_sums" in w:
        s = w["row_sums"]
        return min(s[k + 1] / max(s[k], 1e-300) for k in range(len(s) - 1))
    return 0.0
