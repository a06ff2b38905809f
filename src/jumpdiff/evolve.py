"""Time integration of ``du/dt = -L_u u`` for regularized kernels.

Two integrators are provided.  Explicit Euler is cheap but restricted by a
CFL rule ``dt <= theta / (2 M_R)`` (with ``M_R`` the certified row-sum
bound); under that restriction each step is a convex combination of cell
values, hence order- and bound-preserving.  Backward Euler is the
certifying integrator: the implicit step inherits the L^1 contraction,
comparison and positivity properties of the semigroup exactly (up to the
fixed-point tolerance), with no time-discretization slack.  Its nonlinear
equation is solved by Anderson-accelerated fixed-point iteration, which
converges without the fixed-point map being a contraction; an attempt that
diverges anyway is retried with halved dt.

Both integrators conserve mass to roundoff because every operator
application sums to zero by antisymmetric pairing.

The continuation driver solves the same initial-value problem for a
decreasing sequence of regularization radii and tabulates the L^1 Cauchy
distances between consecutive solutions, mirroring the way solutions for a
bare kernel are obtained as limits of regularized ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics
from .kernels import JumpKernel, RegularizedKernel, regular_bound_M, regularize
from .lattice import Field, GridSpec, Profile, norm_lp, sample_profile
from .operator import NonFiniteKernelError, OperatorContext, _apply_raw, build_context

__all__ = [
    "SolverConfig",
    "Trajectory",
    "CflViolationError",
    "PicardDivergedError",
    "SolverAbortError",
    "cfl_dt",
    "step_explicit",
    "step_backward_picard",
    "run",
    "check_eps_list",
    "continuation_in_epsilon",
    "mollify_initial",
]

INTEGRATORS = ("explicit_euler", "backward_euler_picard")

# Growth allowance for the sup-norm guard; anything above this indicates a
# violated CFL condition or a diverged fixed point, and the run aborts.
SUP_NORM_SLACK = 1e-10

# Anderson acceleration of the implicit solve: the number of past residual
# differences mixed into each iterate, the condition number of the
# least-squares factor above which the oldest of them are dropped, and the
# growth of the residual over its first value that counts as divergence.
ANDERSON_MEMORY = 5
ANDERSON_MAX_COND = 1e10
DIVERGENCE_FACTOR = 1e3


class CflViolationError(ValueError):
    """Explicit step requested with dt above the CFL limit."""


class PicardDivergedError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance.

    ``iterations`` is the number of operator applies the attempt made.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SolverAbortError(RuntimeError):
    """Run aborted on a broken invariant; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class SolverConfig:
    """Integrator choice and step/snapshot policy for one run."""

    integrator: str = "backward_euler_picard"
    end_time: float = 1.0
    epsilon: float | None = None          # None: use the lattice spacing
    dt: float | None = None               # None: CFL policy
    cfl_theta: float = 0.5
    cfl_override: bool = False
    picard_tol: float = 1e-12
    picard_max_iters: int = 60
    snapshot_every: float | None = None   # None: end_time / 10

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (self.end_time > 0):
            raise ValueError("end_time must be positive")
        if not (0.0 < self.cfl_theta <= 1.0):
            raise ValueError("cfl safety factor must lie in (0, 1]")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be at least 1")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")


@dataclass
class Trajectory:
    """Time-stamped snapshots with per-snapshot diagnostics."""

    grid: GridSpec
    times: list[float] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    records: list = field(default_factory=list)
    dts: list[float] = field(default_factory=list)
    picard_iters: list[int] = field(default_factory=list)

    def snapshot_count(self) -> int:
        return len(self.times)

    def series(self, quantity: str) -> list[float]:
        return [getattr(rec, quantity) for rec in self.records]


def cfl_dt(ctx: OperatorContext, R: float, theta: float, fallback: float = 1.0) -> float:
    """Stable explicit step ``theta / (2 M_R)``; ``fallback`` if the bound is 0."""
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    m_bound = regular_bound_M(ctx.regkernel, R, ctx.grid)
    if m_bound <= 0.0:
        return fallback
    return theta / (2.0 * m_bound)


def step_explicit(ctx: OperatorContext, u: Field, dt: float, max_dt: float | None = None,
                  allow_cfl_violation: bool = False) -> Field:
    """One forward Euler step ``u - dt * L_u u``."""
    if max_dt is not None and dt > max_dt * (1.0 + 1e-12) and not allow_cfl_violation:
        raise CflViolationError(f"dt = {dt:g} exceeds the CFL limit {max_dt:g}")
    return Field(ctx.grid, u.values - dt * _apply_raw(ctx, u.values, u.values))


def step_backward_picard(ctx: OperatorContext, u: Field, dt: float, tol: float,
                         max_iters: int) -> tuple[Field, int]:
    """Solve ``w = u - dt * L_w w`` by Anderson-accelerated fixed-point iteration.

    The fixed-point map is ``G(w) = u - dt * L_w w``.  Each iteration makes
    one evaluation of ``G`` (one operator apply) and then mixes the last
    ``ANDERSON_MEMORY`` evaluations (type-II Anderson acceleration, Walker &
    Ni 2011): the next iterate is ``G(w_k) - dG gamma``, where ``gamma``
    minimises ``||f_k - dF gamma||_2`` over the recent residual differences
    ``dF`` (residual ``f = G(w) - w``).  Unlike plain Picard iteration this
    does not need ``G`` to be a contraction, so steps with ``dt * 2 M_R >= 1``
    converge too.

    Stops when ``||G(w) - w||_1 <= tol`` and returns ``(G(w), k)``, ``k``
    being the number of operator applies.  Because the returned field is an
    exact evaluation of ``G``, its mass equals the mass of ``u`` to roundoff
    however far it is from converged.

    Raises :class:`PicardDivergedError` when the tolerance is not reached in
    ``max_iters`` iterations, when the residual is not finite or grows
    ``DIVERGENCE_FACTOR`` times above the first one, or when the kernel
    evaluates to a non-finite value on an iterate.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    hn = ctx.grid.cell_volume
    uv = u.values
    w = uv
    d_f: list[np.ndarray] = []
    d_g: list[np.ndarray] = []
    f_prev = g_prev = None
    first = None
    for k in range(1, max_iters + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                g = uv - dt * _apply_raw(ctx, w, w)
        except NonFiniteKernelError as exc:
            raise PicardDivergedError(f"fixed-point iterate {k} left the kernel's domain: {exc}",
                                      math.inf, k) from exc
        f = g - w
        residual = float(np.abs(f).sum() * hn)
        if residual <= tol:
            return Field(ctx.grid, g), k
        if first is None:
            first = residual
        if not math.isfinite(residual) or residual > DIVERGENCE_FACTOR * first:
            raise PicardDivergedError(
                f"fixed-point iteration diverged at iteration {k} "
                f"(residual {residual:.3e}, first {first:.3e})", residual, k)
        if f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append(g - g_prev)
            if len(d_f) > ANDERSON_MEMORY:
                del d_f[0], d_g[0]
        f_prev, g_prev = f, g
        w = g - _anderson_correction(d_f, d_g, f)
    raise PicardDivergedError(
        f"fixed point not reached in {max_iters} iterations (last residual {residual:.3e})",
        residual, max_iters,
    )


def _anderson_correction(d_f: list, d_g: list, f: np.ndarray):
    """``dG gamma`` with ``gamma = argmin ||f - dF gamma||_2`` (0 without history).

    The least-squares problem is solved through a QR factorisation of
    ``dF``; while its ``R`` factor is worse conditioned than
    ``ANDERSON_MAX_COND`` the oldest columns are dropped from both
    histories (in place).
    """
    while d_f:
        q, r = np.linalg.qr(np.column_stack(d_f))
        if np.linalg.cond(r) <= ANDERSON_MAX_COND:
            gamma = np.linalg.solve(r, q.T @ f)
            return np.column_stack(d_g) @ gamma
        del d_f[0], d_g[0]
    return 0.0


def run(ctx: OperatorContext, u0: Field, config: SolverConfig) -> Trajectory:
    """Integrate from ``u0`` to ``config.end_time``, recording snapshots.

    Snapshots are taken at multiples of ``snapshot_every`` in simulated
    time, snapped to the nearest completed step; the first snapshot is
    ``u0`` and the final time is always recorded.  The sup norm is guarded
    every step: growth beyond roundoff levels aborts the run with the
    partial trajectory attached.

    Implicit steps whose fixed-point iteration diverges are retried with
    halved dt, up to 10 halvings deep, before giving up; dt grows back
    after quick sub-steps.  ``picard_iters`` of each snapshot counts the
    fixed-point iterations of every step since the previous snapshot.
    """
    T = config.end_time
    snapshot_every = config.snapshot_every if config.snapshot_every is not None else T / 10.0
    explicit = config.integrator == "explicit_euler"
    max_dt = None   # the CFL limit, needed for an explicit step or an unset dt
    if explicit or config.dt is None:
        max_dt = cfl_dt(ctx, ctx.bound_R, config.cfl_theta, fallback=snapshot_every)
    dt_base = config.dt if config.dt is not None else max_dt

    traj = Trajectory(grid=ctx.grid)
    sup0 = float(np.max(np.abs(u0.values)))

    def emit(t, u_field, iters):
        rec = diagnostics.record(ctx, t, u_field, picard_iters=iters)
        traj.times.append(t)
        traj.fields.append(u_field)
        traj.records.append(rec)
        traj.picard_iters.append(iters)

    emit(0.0, u0, 0)
    u = u0
    t = 0.0
    next_snap = snapshot_every
    step_index = 0
    iters = 0   # fixed-point iterations since the last snapshot
    while t < T * (1.0 - 1e-14):
        dt = min(dt_base, T - t)
        if explicit:
            u_next = step_explicit(ctx, u, dt, max_dt=max_dt,
                                   allow_cfl_violation=config.cfl_override)
        else:
            u_next, k = _implicit_step_with_retries(ctx, u, dt, config, traj)
            iters += k
        t += dt
        step_index += 1
        traj.dts.append(dt)

        vals = u_next.values
        if not np.all(np.isfinite(vals)):
            raise SolverAbortError(f"non-finite field values after step {step_index} (t = {t:g})", traj)
        sup = float(np.max(np.abs(vals)))
        if sup > sup0 + SUP_NORM_SLACK:
            raise SolverAbortError(
                f"sup norm grew from {sup0:g} to {sup:g} at t = {t:g}; "
                "CFL condition or fixed-point contract violated", traj)
        u = u_next
        if t >= next_snap - 0.5 * dt and t < T * (1.0 - 1e-14):
            emit(t, u, iters)
            iters = 0
            while next_snap <= t + 0.5 * dt:
                next_snap += snapshot_every
    emit(t, u, iters)
    return traj


def _implicit_step_with_retries(ctx, u, dt, config, traj):
    """Backward Euler over ``dt`` in sub-steps, halved on divergence (at most 10 halvings deep).

    A sub-step that converged within half the iteration budget doubles the
    next one, up to ``dt``; after a slower one a doubled attempt tends to
    spend the whole budget and fail.  Returns the new field and the
    fixed-point iterations spent on it, diverged attempts included.
    """
    remaining = dt
    sub_dt = dt
    iters_total = 0
    while remaining > 1e-30:
        step = min(sub_dt, remaining)
        try:
            u, k = step_backward_picard(ctx, u, step, config.picard_tol, config.picard_max_iters)
        except PicardDivergedError as exc:
            iters_total += exc.iterations
            sub_dt = step / 2.0
            if sub_dt < dt / 2**10:
                raise SolverAbortError(
                    f"implicit step failed after 10 dt halvings (residual {exc.residual:.3e})",
                    traj) from exc
            continue
        iters_total += k
        remaining -= step
        if 2 * k <= config.picard_max_iters:
            sub_dt = min(2.0 * sub_dt, dt)
    return u, iters_total


def check_eps_list(eps_list, spacing: float) -> list[float]:
    """``eps_list`` as floats; raises unless strictly decreasing with every radius >= ``spacing``."""
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(e < spacing * (1.0 - 1e-12) for e in eps_list):
        raise ValueError("all continuation radii must be at least the lattice spacing")
    return eps_list


def continuation_in_epsilon(grid: GridSpec, kernel: JumpKernel, u0: Field, eps_list,
                            config: SolverConfig, R: float | None = None):
    """Run the same problem for a decreasing list of regularization radii.

    Returns ``(trajectories, cauchy_table)`` where the table holds one row
    ``(eps_k, eps_k+1, d_k)`` per consecutive pair and
    ``d_k = max_t ||u^{eps_k}(t) - u^{eps_k+1}(t)||_1`` over the shared
    snapshot times.  All runs use a common fixed dt (resolved from the
    finest radius when the config leaves dt to the CFL policy) so snapshot
    times align exactly.
    """
    eps_list = check_eps_list(eps_list, grid.spacing)
    if R is None:
        R = max(1.0, float(np.max(np.abs(u0.values))))

    contexts = [build_context(grid, regularize(kernel, e), R) for e in eps_list]
    snapshot_every = config.snapshot_every if config.snapshot_every is not None else config.end_time / 10.0
    if config.dt is None:
        dt = min(cfl_dt(ctx, ctx.bound_R, config.cfl_theta, fallback=snapshot_every) for ctx in contexts)
        config = replace(config, dt=dt)

    trajectories = [run(ctx, u0, config) for ctx in contexts]
    hn = grid.cell_volume
    table = []
    for k in range(len(eps_list) - 1):
        ta, tb = trajectories[k], trajectories[k + 1]
        if len(ta.times) != len(tb.times):
            raise SolverAbortError("continuation runs produced misaligned snapshots")
        d = max(
            float(np.abs(fa.values - fb.values).sum() * hn)
            for fa, fb in zip(ta.fields, tb.fields)
        )
        table.append((eps_list[k], eps_list[k + 1], d))
    return trajectories, table


def mollify_initial(u0, grid: GridSpec, mollifier_width: float) -> Field:
    """Smooth a field (or profile) by periodic convolution with a bump.

    The discrete mollifier is non-negative with unit sum, so the result is
    a convex combination of shifted copies: the sup norm cannot grow and
    the mass is preserved to roundoff.
    """
    if isinstance(u0, Profile):
        u0 = sample_profile(u0, grid)
    h = grid.spacing
    if mollifier_width < h:
        raise ValueError(f"mollifier width {mollifier_width:g} must be at least the spacing {h:g}")

    m = grid.cells_per_axis
    reach = int(math.floor(mollifier_width / h))
    axis_offsets = np.arange(-min(reach, m // 2), min(reach, m // 2) + 1)
    v = u0.reshaped()
    if grid.dimension == 1:
        offsets = axis_offsets[:, None]
    else:
        o1, o2 = np.meshgrid(axis_offsets, axis_offsets, indexing="ij")
        offsets = np.column_stack([o1.ravel(), o2.ravel()])
    radii = np.hypot(*(offsets * h).T) if grid.dimension == 2 else np.abs(offsets[:, 0] * h)
    s2 = (radii / mollifier_width) ** 2
    weights = np.where(s2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - s2, 1e-300)), 0.0)
    weights /= math.fsum(weights)
    out = np.zeros_like(v)
    for off, w in zip(offsets, weights):
        if w == 0.0:
            continue
        out += w * np.roll(v, shift=tuple(int(o) for o in off), axis=tuple(range(grid.dimension)))
    return Field(grid, out.ravel())
