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
from dataclasses import dataclass

import numpy as np

from . import operator
from .kernels import JumpKernel, QuadratureDivergenceError, RegularizedKernel, levy_constant, regular_bound_M
from .lattice import Field, GridSpec, cutoff_mask, make_grid, neighbor_windows

__all__ = ["AxiomReport", "AxiomSampling", "check_axioms", "check_regular", "replay_violation"]

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


def _a1(kernel, a, b, r):
    """Non-negativity: the violation is ``-m``."""
    m = np.asarray(kernel.eval(a, b, r), dtype=float)
    return -m, m


def _a2(kernel, a, b, r):
    """Symmetry: the violation is ``|m(a, b) - m(b, a)|``."""
    m = np.asarray(kernel.eval(a, b, r), dtype=float)
    return np.abs(m - np.asarray(kernel.eval(b, a, r), dtype=float)), m


def _a3(kernel, a, c, d, b, r):
    """Monotonicity on ``a >= c >= d >= b``: the violation is ``(c-d) m(c,d) - (a-b) m(a,b)``."""
    outer = (a - b) * np.asarray(kernel.eval(a, b, r), dtype=float)
    inner = (c - d) * np.asarray(kernel.eval(c, d, r), dtype=float)
    return inner - outer, outer


def _a5(kernel, a, b, r, R):
    """Majorant domination: the violation is ``m - m_R``."""
    m = np.asarray(kernel.eval(a, b, r), dtype=float)
    return m - np.asarray(kernel.majorant(R, r), dtype=float), m


# (violation, scale) per sample for each sampled axiom; a sample violates the
# axiom when its violation exceeds VIOLATION_RTOL * max|scale|.
_MEASURES = {"A1": _a1, "A2": _a2, "A3": _a3, "A5": _a5}


def _lipschitz_ratio(kernel, a, b, c, r, dist, maj):
    """The A6 ratio ``|m(a, b) - m(c, b)| / (dist * m_R(r))``."""
    va = np.asarray(kernel.eval(a, b, r), dtype=float)
    vc = np.asarray(kernel.eval(c, b, r), dtype=float)
    return np.abs(va - vc) / (dist * maj)


def _report(axiom: str, kernel, samples: dict, n: int, estimate: float | None = None) -> AxiomReport:
    """Verdict of one sampled axiom from its measure over ``samples`` (the measure's keyword arguments).

    A non-finite sample makes the report inconclusive; otherwise the worst
    sample is the witness, and it fails the axiom above the tolerance.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        violation, scale = _MEASURES[axiom](kernel, **samples)
    finite = np.isfinite(violation) & np.isfinite(scale)
    conclusive = bool(finite.all())
    i = int(np.argmax(violation) if conclusive else np.argmin(finite))
    witness = {k: float(v[i]) if np.ndim(v) else float(v) for k, v in samples.items()}
    if not conclusive:
        return AxiomReport(axiom, "inconclusive", math.inf, 0.0, witness, n, detail="non-finite value")
    tol = VIOLATION_RTOL * max(1.0, float(np.max(np.abs(scale))))
    worst = max(0.0, float(violation[i]))
    return AxiomReport(axiom, "pass" if worst <= tol else "fail", worst, tol, witness, n, estimate)


@dataclass(frozen=True)
class AxiomSampling:
    """The sampling budget and seed of :func:`check_axioms`: at least 1000 samples, a non-negative seed."""

    budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.budget < 1_000:
            raise ValueError("sample budget must be at least 1000")


def check_axioms(kernel: JumpKernel, R: float, epsilon: float, sampling: AxiomSampling = AxiomSampling()) -> list[AxiomReport]:
    """Check conditions A1-A6 on random samples; one report per condition.

    ``R`` bounds the sampled field values, ``epsilon`` is the off-diagonal
    margin for the Lipschitz condition A6, ``sampling`` is ``validate.*``.
    The homogeneity condition A4 is structural for this interface (the
    evaluator only sees ``r``), so it always passes.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    n = int(sampling.budget)
    rng_a1, rng_a2, rng_a3, rng_a5, rng_a6, rng_probe = _rngs(sampling.seed, 6)

    def pairs(rng):
        """``a, b`` uniform in [-R, R] and a distance ``r``, ``n`` of each."""
        return {"a": rng.uniform(-R, R, size=n), "b": rng.uniform(-R, R, size=n), "r": _sample_r(rng, n)}

    reports = [_report("A1", kernel, pairs(rng_a1), n), _report("A2", kernel, pairs(rng_a2), n)]

    # A3 on sorted quadruples a >= c >= d >= b.
    quad = np.sort(rng_a3.uniform(-R, R, size=(n, 4)), axis=1)[:, ::-1]
    reports.append(_report("A3", kernel, {"a": quad[:, 0], "c": quad[:, 1], "d": quad[:, 2], "b": quad[:, 3],
                                          "r": _sample_r(rng_a3, n)}, n))

    # A4: spatial dependence through r only -- structural for this interface.
    reports.append(AxiomReport("A4", "pass", 0.0, 0.0, None, 0,
                               detail="structural: evaluator takes the scalar distance only"))

    # A5: majorant domination plus convergence of the Levy integral.
    try:
        k_r, levy_detail = levy_constant(kernel, R), ""
    except QuadratureDivergenceError as exc:
        k_r, levy_detail = None, str(exc)
    a5 = _report("A5", kernel, {**pairs(rng_a5), "R": float(R)}, n, estimate=k_r)
    if k_r is None and a5.verdict != "inconclusive":
        a5 = AxiomReport("A5", "fail", math.inf, a5.tolerance, {"reason": "divergent Levy integral"},
                         n, detail=levy_detail)
    reports.append(a5)

    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite sample makes A6 inconclusive
        reports.append(_a6(kernel, R, epsilon, n, rng_a6, rng_probe))
    return reports


def _a6(kernel, R: float, epsilon: float, n: int, rng_a6, rng_probe) -> AxiomReport:
    """A6: the local Lipschitz ratio away from the diagonal, plus a diagonal
    continuity probe that detects ratio blow-up as ``|a - b| -> 0``."""
    a, b, c = rng_a6.uniform(-R, R, size=(3, n))
    r = _sample_r(rng_a6, n)
    maj = np.asarray(kernel.majorant(R, r), dtype=float)
    keep = (np.abs(a - b) >= epsilon) & (np.abs(c - b) >= epsilon) & (maj > 0) & (np.abs(a - c) > 1e-14)
    c_hat = 0.0
    if np.any(keep):
        ratios = _lipschitz_ratio(kernel, a[keep], b[keep], c[keep], r[keep], np.abs(a - c)[keep], maj[keep])
        if not np.all(np.isfinite(ratios)):
            return AxiomReport("A6", "inconclusive", math.inf, 0.0, None, n, detail="non-finite ratio")
        c_hat = float(np.max(ratios))

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
        zs = [epsilon * 2.0 ** (-k) for k in range(_PROBE_DEPTH + 1)]
        ratios_k = np.array([_lipschitz_ratio(kernel, pa, pa - 2.0 * z, pa - z, pr, z, pmaj) for z in zs])
        if not np.all(np.isfinite(ratios_k)):
            return AxiomReport("A6", "inconclusive", math.inf, 0.0, None, n, detail="non-finite probe value")
        first_ratio = float(np.max(ratios_k[0]))
        j = int(np.argmax(ratios_k[-1]))
        last_ratio = float(ratios_k[-1][j])
        growth = last_ratio / max(first_ratio, 1.0)
        z = zs[-1]
        wit = {"a": float(pa[j]), "b": float(pa[j] - 2 * z), "c": float(pa[j] - z),
               "r": float(pr[j]), "z": z, "R": float(R)}
    verdict = "fail" if growth > _PROBE_GROWTH_LIMIT else "pass"
    return AxiomReport(
        "A6", verdict, growth, _PROBE_GROWTH_LIMIT,
        wit if verdict == "fail" else None, n, estimate=c_hat,
        detail=f"C_hat(R,eps)={c_hat:.6g}; diagonal ratio {first_ratio:.3g} -> {last_ratio:.3g}",
    )


def _bare_row_sums(grid: GridSpec, kernel: JumpKernel, v: np.ndarray) -> np.ndarray:
    """Row sums of the raw kernel over all distinct pairs (no cutoff, no ramp).

    Both orientations of every pair are evaluated, so kernels that break the
    symmetry A2 show up in the row sums.
    """
    vp = operator._plane(grid, v)
    v_nb = neighbor_windows(vp)
    rows = sum(np.asarray(kernel.eval(vp, v_nb[b.row, b.cols], b.r), dtype=float).sum(axis=0)
               for b in operator._offset_batches(grid, cutoff_mask(grid, 0.0), half=False))
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
    regularized = isinstance(regkernel, RegularizedKernel)

    if regularized:
        bound = regular_bound_M(regkernel, R, grid)
        ctx = operator.build_context(grid, regkernel, R)
        worst = -math.inf
        wit = None
        for _ in range(n_fields):
            v = Field(grid, rng_b1.uniform(-R, R, size=grid.n_cells))
            s = operator.max_row_sum(ctx, v)
            if s - bound > worst:
                worst, wit = s - bound, {"row_sum": s, "bound": bound, "field": v, "R": float(R)}
        worst = max(0.0, worst)
        tol = 1e-9 * max(1.0, bound)
        reports.append(AxiomReport("B1", "pass" if worst <= tol else "fail", worst, tol, wit,
                                   n_fields * grid.n_cells, estimate=bound))
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

    # B2: finite-difference estimate of the Lipschitz constant L_R of the
    # row sums with respect to the field argument.
    keep = cutoff_mask(grid, regkernel.epsilon if regularized else 0.0)
    l_hat = 0.0
    nonfinite = False
    for _ in range(n_fields):
        u = rng_b2.uniform(-R, R, size=grid.n_cells)
        g = rng_b2.uniform(-1.0, 1.0, size=grid.n_cells)
        for delta in (1e-2, 1e-4):
            w = np.clip(u + delta * g, -R, R)
            du = _row_sum_difference(grid, regkernel.eval, u, w, keep)
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

    For A1-A5 this evaluates, at the witness, the same measure whose worst
    sample is ``worst_violation``, so a sound failure replays to
    ``worst_violation`` and hence above ``report.tolerance``.  A B1 failure of
    a regularized kernel (passed as ``kernel``) replays the largest row sum of
    its sampled field less the certified bound, and a bare-kernel B1 failure
    its row-sum growth.  A6 is the exception: it returns
    the Lipschitz ratio at the witness (over ``|a - c|``), not the growth of
    the ratio that the probe reports; for the subquadratic p-Laplacian the
    growth is 4.80191943e10 and the ratio 4.80191944e10.
    """
    w = report.witness
    if w is None:
        return 0.0
    if report.axiom in _MEASURES:
        if "reason" in w:   # A5 with a divergent Levy integral
            return math.inf
        with np.errstate(invalid="ignore", over="ignore"):
            return max(0.0, float(_MEASURES[report.axiom](kernel, **w)[0]))
    if report.axiom == "A6":
        maj = float(kernel.majorant(w["R"], w["r"]))
        return float(_lipschitz_ratio(kernel, w["a"], w["b"], w["c"], w["r"], abs(w["a"] - w["c"]), maj))
    if report.axiom == "B1" and "row_sums" in w:
        s = w["row_sums"]
        return min(s[k + 1] / max(s[k], 1e-300) for k in range(len(s) - 1))
    if report.axiom == "B1":
        v, R = w["field"], w["R"]
        row_sum = operator.max_row_sum(operator.build_context(v.grid, kernel, R), v)
        return max(0.0, row_sum - regular_bound_M(kernel, R, v.grid))
    return 0.0
