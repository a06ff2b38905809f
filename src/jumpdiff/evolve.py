"""Time integration of ``du/dt = -L_u u`` for regularized kernels.

Two integrators are provided.  Explicit Euler is cheap but restricted by a
CFL rule ``dt <= theta / (2 M_R)`` (with ``M_R`` the certified row-sum
bound); under that restriction each step is a convex combination of cell
values, hence order- and bound-preserving.  Backward Euler is the
certifying integrator: the implicit step inherits the L^1 contraction,
comparison and positivity properties of the semigroup exactly (up to the
fixed-point tolerance), with no time-discretization slack.  Its nonlinear
equation ``w = G(w) = u - dt L_w w`` is solved by Anderson-accelerated
fixed-point iteration on the preconditioned map
``H(w) = w + P^-1 (G(w) - w)``, which converges without ``G`` being a
contraction.  ``P = I + dt s A`` is linearized backward Euler: ``A`` is the
circulant lattice Laplacian of the kernel majorant, inverted by FFT, and
the effective diffusivity ``s`` is fitted at every iteration to the apply
that iteration makes, so preconditioning costs no apply.  The stop test
and the returned ``G(w)`` are those of the unpreconditioned map, so mass
stays exact.  An attempt whose residual grows, stalls (does not halve
within ``ANDERSON_MEMORY`` iterations) or outlasts the iteration budget is
retried with halved dt.  Each solve of a run starts from
the quadratic extrapolation of the last accepted states, which costs no
operator apply; the first one, and an attempt right after a divergence,
start from the current state.

Both integrators conserve mass to roundoff because every operator
application sums to zero by antisymmetric pairing.

The continuation driver solves the same initial-value problem for a
decreasing sequence of regularization radii and tabulates the L^1 Cauchy
distances between consecutive solutions, mirroring the way solutions for a
bare kernel are obtained as limits of regularized ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics
from .kernels import JumpKernel, RegularizedKernel, lattice_majorant, regular_bound_M, regularize
from .lattice import Field, GridSpec, bump, offset_distances
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

# The most time steps a run may take.  The largest test or benchmark config
# takes 624; a certified but tiny dt would otherwise run for ever.
MAX_STEPS = 10**7

# Anderson acceleration of the implicit solve: the number of past residual
# differences mixed into each iterate (and the span of iterations over
# which the residual must halve), the condition number of the least-squares
# factor above which the oldest of them are dropped, and the growth of the
# residual over its first value that counts as divergence.
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
    """Stable explicit step ``theta / (2 M_R)``; ``fallback`` if the bound is 0.

    Raises :class:`SolverAbortError` when that step is not positive, as for
    a bound ``M_R`` beyond the float range: no time step is certified.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    m_bound = regular_bound_M(ctx.regkernel, R, ctx.grid)
    if m_bound <= 0.0:
        return fallback
    dt = theta / (2.0 * m_bound)
    if not dt > 0.0:
        raise SolverAbortError(f"the certified row-sum bound M_R = {m_bound:g} leaves no positive stable dt")
    return dt


def step_explicit(ctx: OperatorContext, u: Field, dt: float, max_dt: float | None = None,
                  allow_cfl_violation: bool = False) -> Field:
    """One forward Euler step ``u - dt * L_u u``.

    Raises :class:`SolverAbortError` (without a trajectory) when the update
    leaves the float range.
    """
    if max_dt is not None and dt > max_dt * (1.0 + 1e-12) and not allow_cfl_violation:
        raise CflViolationError(f"dt = {dt:g} exceeds the CFL limit {max_dt:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = u.values - dt * _apply_raw(ctx, u.values, u.values)
    if not np.isfinite(values).all():
        raise SolverAbortError(f"the update of dt = {dt:g} is not finite")
    return Field(ctx.grid, values)


def step_backward_picard(ctx: OperatorContext, u: Field, dt: float, tol: float,
                         max_iters: int, guess: Field | None = None) -> tuple[Field, int]:
    """Solve ``w = u - dt * L_w w`` by preconditioned Anderson-accelerated fixed-point iteration.

    The fixed-point map is ``G(w) = u - dt * L_w w``.  The first iterate is
    ``guess``, or ``u`` when no guess is given; a guess is only a starting
    point and costs no apply.  Each iteration makes one evaluation of ``G``
    (one operator apply) and then mixes the last ``ANDERSON_MEMORY``
    evaluations of the preconditioned map ``H(w) = w + P^-1 (G(w) - w)``
    (type-II Anderson acceleration, Walker & Ni 2011): the next iterate is
    ``H(w_k) - dH gamma``, where ``gamma`` minimises ``||p_k - dP gamma||_2``
    over the recent differences ``dP`` of the preconditioned residual
    ``p = P^-1 (G(w) - w)``.  Unlike plain Picard iteration this does not
    need ``G`` to be a contraction, so steps with ``dt * 2 M_R >= 1``
    converge too.

    ``P = I + dt s A`` is linearized backward Euler with a circulant ``A``:
    the lattice Laplacian of the majorant weights on the operator's pair set
    (:func:`kernels.lattice_majorant`), applied through its symbol
    ``lambda_k = sum_o w_o h^N (1 - cos 2 pi k.o / M)`` (one FFT of the
    weights per solve).  The effective diffusivity
    ``s = max(0, <A w, L_w w> / <A w, A w>)`` is fitted at every iteration
    from the apply that iteration makes: about 1 for fractional heat, about
    ``f'(w) / sup f'`` for porous medium, 0 when ``A w = 0``.  Since
    ``lambda_0 = 0``, ``P^-1`` keeps the mass of the residual.  A majorant
    weight that is not finite leaves ``P = I``.

    Stops when ``||G(w) - w||_1 <= tol`` and returns ``(G(w), k)``, ``k``
    being the number of operator applies.  Because the returned field is an
    exact evaluation of ``G``, its mass equals the mass of ``u`` to roundoff
    however far it, or the guess, is from converged.

    Raises :class:`PicardDivergedError` when the tolerance is not reached in
    ``max_iters`` iterations, when the residual is not finite or grows
    ``DIVERGENCE_FACTOR`` times above the first one, when it stalls (is not
    below half its value ``ANDERSON_MEMORY`` iterations earlier), or when
    the kernel evaluates to a non-finite value on an iterate.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    hn = ctx.grid.cell_volume
    uv = u.values
    w = uv if guess is None else guess.values
    precondition = _spectral_preconditioner(ctx)
    d_p: list[np.ndarray] = []
    d_h: list[np.ndarray] = []
    p_prev = h_prev = None
    residuals: list[float] = []
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
        residuals.append(residual)
        if not math.isfinite(residual) or residual > DIVERGENCE_FACTOR * residuals[0]:
            raise PicardDivergedError(
                f"fixed-point iteration diverged at iteration {k} "
                f"(residual {residual:.3e}, first {residuals[0]:.3e})", residual, k)
        if k > ANDERSON_MEMORY and residual >= 0.5 * residuals[-1 - ANDERSON_MEMORY]:
            raise PicardDivergedError(
                f"fixed-point iteration stalled at iteration {k} (residual {residual:.3e}, "
                f"{residuals[-1 - ANDERSON_MEMORY]:.3e} {ANDERSON_MEMORY} iterations earlier)", residual, k)
        p = precondition(w, uv - g, f)
        h = w + p
        if p_prev is not None:
            d_p.append(p - p_prev)
            d_h.append(h - h_prev)
            if len(d_p) > ANDERSON_MEMORY:
                del d_p[0], d_h[0]
        p_prev, h_prev = p, h
        w = h - _anderson_correction(d_p, d_h, p)
    raise PicardDivergedError(
        f"fixed point not reached in {max_iters} iterations (last residual {residual:.3e})",
        residual, max_iters,
    )


def _spectral_preconditioner(ctx: OperatorContext):
    """``(w, dt_lw, f) -> P^-1 f`` with ``P = I + dt s A`` and ``dt_lw = dt * L_w w``.

    ``A`` is the circulant lattice Laplacian of :func:`kernels.lattice_majorant`,
    diagonalized by ``numpy.fft``; ``dt s`` is fitted by least squares,
    ``max(0, <A w, dt_lw> / <A w, A w>)``.  ``P = I`` when that is not a
    positive finite number, and for every call when a weight is not finite.
    """
    grid = ctx.grid
    shape, axes = grid.shape, tuple(range(grid.dimension))
    weights = lattice_majorant(ctx.regkernel, ctx.bound_R, grid)
    if not np.isfinite(weights).all():
        return lambda w, dt_lw, f: f
    w_hat = np.fft.rfftn(weights.reshape(shape), axes=axes).real
    symbol = (w_hat.flat[0] - w_hat) * grid.cell_volume

    def circulant(x, factor):
        return np.fft.irfftn(factor * np.fft.rfftn(x.reshape(shape), axes=axes), s=shape, axes=axes).ravel()

    def precondition(w, dt_lw, f):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            aw = circulant(w, symbol)
            dt_s = float((aw @ dt_lw) / (aw @ aw))
        if not (math.isfinite(dt_s) and dt_s > 0.0):
            return f
        return circulant(f, 1.0 / (1.0 + dt_s * symbol))

    return precondition


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
    partial trajectory attached, as does a non-finite kernel value or
    update in an explicit step.  A run that needs more than ``MAX_STEPS``
    steps of its dt raises :class:`SolverAbortError` before the first one.

    Implicit steps whose fixed-point iteration diverges are retried with
    halved dt, up to 10 halvings deep, before giving up; dt grows back
    after quick sub-steps.  Each implicit solve starts from the degree <= 2
    Lagrange extrapolation, to its own end time, of the last three accepted
    states (``u0`` and every converged sub-step), which costs no apply; the
    first step and an attempt right after a divergence start from the
    current state.  ``picard_iters`` of each snapshot counts the fixed-point
    iterations of every step since the previous snapshot.
    """
    T = config.end_time
    snapshot_every = config.snapshot_every if config.snapshot_every is not None else T / 10.0
    explicit = config.integrator == "explicit_euler"
    max_dt = None   # the CFL limit, needed for an explicit step or an unset dt
    if explicit or config.dt is None:
        max_dt = cfl_dt(ctx, ctx.bound_R, config.cfl_theta, fallback=snapshot_every)
    dt_base = config.dt if config.dt is not None else max_dt
    steps = T / dt_base
    if steps > MAX_STEPS:
        raise SolverAbortError(f"the run needs {steps:.3g} steps of dt = {dt_base:g}, "
                               f"more than the budget of {MAX_STEPS:.0e}")

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
    history = deque([(t, u)], maxlen=3)   # accepted implicit states, the latest last
    next_snap = snapshot_every
    iters = 0   # fixed-point iterations since the last snapshot
    while t < T * (1.0 - 1e-14):
        dt = min(dt_base, T - t)
        if explicit:
            try:
                u_next = step_explicit(ctx, u, dt, max_dt=max_dt, allow_cfl_violation=config.cfl_override)
            except (NonFiniteKernelError, SolverAbortError) as exc:
                raise SolverAbortError(f"explicit step from t = {t:g}: {exc}", traj) from exc
        else:
            u_next, k = _implicit_step_with_retries(ctx, history, dt, config, traj)
            iters += k
        t += dt
        traj.dts.append(dt)

        sup = float(np.max(np.abs(u_next.values)))
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


def _implicit_step_with_retries(ctx, history, dt, config, traj):
    """Backward Euler over ``dt`` in sub-steps, halved on divergence (at most 10 halvings deep).

    ``history`` holds the last accepted ``(t, u)`` states, the current one
    last; every converged sub-step is appended to it.  A sub-step starts
    from their extrapolation to its end time (:func:`_extrapolate`), except
    right after a divergence, when it starts from the current state.  A
    sub-step that converged within half the iteration budget doubles the
    next one, up to ``dt``; after a slower one a doubled attempt tends to
    spend the whole budget and fail.  Returns the new field and the
    fixed-point iterations spent on it, diverged attempts included.
    """
    t, u = history[-1]
    remaining = dt
    sub_dt = dt
    iters_total = 0
    warm = True
    while remaining > 1e-30:
        step = min(sub_dt, remaining)
        guess = _extrapolate(history, t + step) if warm else None
        try:
            u, k = step_backward_picard(ctx, u, step, config.picard_tol, config.picard_max_iters, guess=guess)
        except PicardDivergedError as exc:
            iters_total += exc.iterations
            warm = False
            sub_dt = step / 2.0
            if sub_dt < dt / 2**10:
                raise SolverAbortError(
                    f"implicit step failed after 10 dt halvings (residual {exc.residual:.3e})",
                    traj) from exc
            continue
        iters_total += k
        warm = True
        t += step
        history.append((t, u))
        remaining -= step
        if 2 * k <= config.picard_max_iters:
            sub_dt = min(2.0 * sub_dt, dt)
    return u, iters_total


def _extrapolate(history, t: float) -> Field | None:
    """Lagrange extrapolation to ``t`` through the ``(t_j, u_j)`` states of ``history``.

    None with fewer than two states, or when the result is not finite (as
    for coinciding times): the solve then starts from the latest state.
    """
    if len(history) < 2:
        return None
    times = np.array([s for s, _ in history])
    guess = 0.0
    with np.errstate(all="ignore"):
        for j, (tj, uj) in enumerate(history):
            others = np.delete(times, j)
            guess = guess + np.prod((t - others) / (tj - others)) * uj.values
    if not np.isfinite(guess).all():
        return None
    return Field(history[-1][1].grid, guess)


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
    times align exactly; a dt that needs more than ``MAX_STEPS`` steps
    raises :class:`SolverAbortError` before any run steps.
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


def mollify_initial(u0: Field, grid: GridSpec, mollifier_width: float) -> Field:
    """Smooth a field by periodic convolution with a bump of radius ``mollifier_width``.

    The weight of a cell is the bump at its torus distance, one weight per
    lattice offset.  The discrete mollifier is non-negative with unit sum,
    so the result is a convex combination of shifted copies: the sup norm
    cannot grow and the mass is preserved to roundoff.
    """
    h = grid.spacing
    if mollifier_width < h:
        raise ValueError(f"mollifier width {mollifier_width:g} must be at least the spacing {h:g}")
    weights = bump((offset_distances(grid) / mollifier_width) ** 2)
    weights /= math.fsum(weights)
    v = u0.reshaped()
    out = np.zeros_like(v)
    for o in np.flatnonzero(weights):
        out += weights[o] * np.roll(v, shift=np.unravel_index(o, grid.shape), axis=tuple(range(grid.dimension)))
    return Field(grid, out.ravel())
