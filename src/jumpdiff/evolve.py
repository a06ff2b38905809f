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
contraction.  ``P = I + A diag(E)`` is linearized backward Euler: ``A`` is
the circulant lattice Laplacian of the kernel majorant, and the cell
diffusivity ``E = c D(w) + s`` is the kernel's own diagonal ``D(w)`` over
its majorant, with ``c`` and ``s`` fitted at every iteration to the apply
that iteration makes, so preconditioning costs no apply.  A constant ``E``
is inverted by one FFT pair; otherwise a few GMRES steps, preconditioned by
the circulant ``I + mean(E) A``, solve ``P x = f`` by FFTs.  The stop test
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
from .kernels import lattice_majorant, regular_bound_M
from .lattice import Field, GridSpec, bump, offset_distances
from .operator import NonFiniteKernelError, OperatorContext, _apply_raw

__all__ = [
    "SolverConfig",
    "Trajectory",
    "PicardDivergedError",
    "SolverAbortError",
    "cfl_dt",
    "step_explicit",
    "step_backward_picard",
    "run",
    "continuation_in_epsilon",
    "mollify_initial",
]

INTEGRATORS = ("explicit_euler", "backward_euler_picard")

# Growth allowance for the sup-norm guard; anything above this indicates a
# violated CFL condition or a diverged fixed point, and the run aborts.
SUP_NORM_SLACK = 1e-10

# The most time steps, and snapshot intervals, a run may take.  The largest
# test or benchmark config takes 624 steps and 2,000 intervals; a certified
# but tiny dt, or a tiny snapshot interval, would otherwise run for ever.
MAX_STEPS = 10**7

# Anderson acceleration of the implicit solve: the number of past residual
# differences mixed into each iterate (and the span of iterations over
# which the residual must halve), the condition number of the least-squares
# factor above which the oldest of them are dropped, and the growth of the
# residual over its first value that counts as divergence.
ANDERSON_MEMORY = 5
ANDERSON_MAX_COND = 1e10
DIVERGENCE_FACTOR = 1e3


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
    """Integrator choice and step/snapshot policy for one run; the cutoff radius is the context's."""

    integrator: str = "backward_euler_picard"
    end_time: float = 1.0
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
    steps: int = 0

    def series(self, quantity: str) -> list[float]:
        return [getattr(rec, quantity) for rec in self.records]


def cfl_dt(ctx: OperatorContext, R: float, theta: float, fallback: float = 1.0) -> float:
    """Stable explicit step ``theta / (2 M_R)``; ``fallback`` if the bound is 0.

    ``M_R`` is :func:`kernels.regular_bound_M`, the majorant's lattice sum,
    which dominates every row ``sum_j m_eps(u_i, u_j; r_ij) h^N`` with
    ``|u| <= R``; at this dt each explicit step is a convex combination of
    cell values, ``u_i`` weighing at least ``1 - theta / 2``.  So the dt is
    certified for every kernel that :mod:`jumpdiff.config` builds, and only
    estimated for a custom f or phi (:class:`kernels.ScalarFunction`).

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


def step_explicit(ctx: OperatorContext, u: Field, dt: float) -> Field:
    """One forward Euler step ``u - dt * L_u u``.

    Raises :class:`SolverAbortError` (without a trajectory) when the update
    leaves the float range.  A run checks its dt against the CFL limit
    before its first step (:func:`_step_policy`).
    """
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

    ``P = I + A diag(E)`` is linearized backward Euler with a circulant
    ``A``, the lattice Laplacian of the majorant weights on the operator's
    pair set (:func:`kernels.lattice_majorant`), applied through its symbol
    ``lambda_k = sum_o w_o h^N (1 - cos 2 pi k.o / M)`` (one FFT of the
    weights per solve).  ``E = c D(w) + s`` is the kernel's own cell
    diffusivity: ``D(w)`` is the base kernel's diagonal over its majorant
    (``f'(w) / sup f'`` for porous medium, so ``E`` vanishes on a zero
    background), and ``c, s >= 0`` are fitted at every iteration from the
    apply that iteration makes.  A constant ``E`` is inverted by one FFT
    pair; otherwise ``ANDERSON_MEMORY`` GMRES steps, preconditioned by the
    circulant ``I + mean(E) A``, solve ``P x = f`` by FFTs and no apply
    (:func:`_spectral_preconditioner` gives the fit and the fallbacks).
    ``P^-1`` keeps the mass of the residual and never raises its L^1 norm.
    A majorant weight that is not finite, or a fit that is not positive,
    leaves ``P = I``.

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


def _spectral_preconditioner(ctx: OperatorContext, krylov_steps: int = ANDERSON_MEMORY):
    """``(w, dt_lw, f) -> P^-1 f`` with ``P = I + A diag(E)``, ``E = c D(w) + s`` and ``dt_lw = dt * L_w w``.

    ``A`` is the circulant lattice Laplacian of :func:`kernels.lattice_majorant`,
    diagonalized by ``numpy.fft``.  ``D(w)`` and ``K(w)`` are the base
    kernel's diagonal and chord to 0 over its majorant at the pair set's
    nearest offset (:func:`_majorant_ratio`): ``D`` is the tangent
    coefficient of the flux, ``K`` its secant, so the fit
    ``c, s >= 0 = argmin ||dt_lw - c A(K w) - s A w||_2``
    (:func:`_nonnegative_fit`) measures ``c`` on ``dt L_w w`` itself and
    ``E`` uses it on the tangent: for porous medium ``c = dt`` and
    ``P = I + dt A diag(f'(w) / sup f')`` is the Jacobian of ``w - G(w)``
    without the ramp.

    Fallbacks, in order:

    - a majorant weight that is not finite: ``P = I`` for every call;
    - ``D`` constant, absent (no positive finite majorant at ``r_1``), not
      finite or negative: the scalar fit ``s = <A w, dt_lw> / <A w, A w>``
      alone, and ``E = s``;
    - a fit that is not finite, negative or ``(0, 0)``: ``P = I``;
    - ``c = 0``: ``E = s`` is constant and ``(I + s A)^-1`` is one FFT
      pair, bit for bit the scalar preconditioner's solve;
    - otherwise ``krylov_steps`` GMRES steps (:func:`_krylov_solve`),
      preconditioned by the circulant ``I + mean(E) A``, which returns the
      circulant start ``(I + mean(E) A)^-1 f`` when the GMRES result is not
      finite or exceeds ``||f||_1``.
    """
    grid = ctx.grid
    shape, axes = grid.shape, tuple(range(grid.dimension))
    weights = lattice_majorant(ctx.regkernel, ctx.bound_R, grid)
    if not np.isfinite(weights).all():
        return lambda w, dt_lw, f: f
    w_hat = np.fft.rfftn(weights.reshape(shape), axes=axes).real
    symbol = (w_hat.flat[0] - w_hat) * grid.cell_volume
    ratio = _majorant_ratio(ctx)

    def circulant(x, factor):
        return np.fft.irfftn(factor * np.fft.rfftn(x.reshape(shape), axes=axes), s=shape, axes=axes).ravel()

    def precondition(w, dt_lw, f):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            aw = circulant(w, symbol)
            d = None if ratio is None else ratio(w, w)
            if d is None or not (np.isfinite(d).all() and d.min() >= 0.0) or d.min() == d.max():
                c, s = 0.0, float((aw @ dt_lw) / (aw @ aw))
            else:
                c, s = _nonnegative_fit(circulant(ratio(w, 0.0) * w, symbol), aw, dt_lw)
            if not (math.isfinite(c) and math.isfinite(s) and c >= 0.0 and s >= 0.0 and c + s > 0.0):
                return f
            if c == 0.0:
                return circulant(f, 1.0 / (1.0 + s * symbol))
            e = c * d + s
            mean_inverse = 1.0 / (1.0 + e.mean() * symbol)
            return _krylov_solve(lambda x: x + circulant(e * x, symbol), lambda x: circulant(x, mean_inverse),
                                 f, krylov_steps)

    return precondition


def _majorant_ratio(ctx: OperatorContext):
    """``(a, b) -> m(a, b; r_1) / m_R(r_1)`` for the base kernel at the pair set's nearest offset ``r_1``.

    The diagonal ``D(w) = ratio(w, w)`` is the tangent coefficient of the
    flux: by A5 it lies in [0, 1] where ``|w| <= R``, ``f'(w) / sup f'``
    for porous medium, ``f(w) / max f(+-R)`` for convex diffusion, a
    constant for fractional heat and variable order, and 0 where
    ``phi(z) / z`` vanishes at 0 (p-Laplacian and doubly nonlinear kernels
    with ``p > 2``).  The chord ``K(w) = ratio(w, 0)`` is its secant to 0:
    for porous medium ``A(K w)`` is ``L_w w`` without the ramp.  Built from
    the public ``eval`` and ``majorant``; None when the majorant at ``r_1``
    is not positive and finite.
    """
    base = ctx.regkernel.base
    r1 = float(min(b.r.min() for b in ctx.batches))
    with np.errstate(over="ignore"):
        top = float(base.majorant(ctx.bound_R, r1))
    if not (math.isfinite(top) and top > 0.0):
        return None
    return lambda a, b: base.eval(a, b, r1) / top


def _nonnegative_fit(a1: np.ndarray, a2: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """``(c, s) >= 0`` minimising ``||y - c a1 - s a2||_2``.

    The unconstrained least-squares pair when both are non-negative,
    otherwise the positive one-term fit that lowers the residual more:
    ``c`` alone when it is positive and ``s`` is not, or lowers it more,
    else ``s = <a2, y> / <a2, a2>`` alone, which is not positive when
    neither term helps.  Non-finite products give non-finite values; the
    caller treats both as no fit.
    """
    g11, g12, g22 = a1 @ a1, a1 @ a2, a2 @ a2
    b1, b2 = a1 @ y, a2 @ y
    det = g11 * g22 - g12 * g12
    if det > 0.0:
        c, s = (b1 * g22 - b2 * g12) / det, (b2 * g11 - b1 * g12) / det
        if c >= 0.0 and s >= 0.0:
            return float(c), float(s)
    c, s = b1 / g11, b2 / g22
    return (float(c), 0.0) if c > 0.0 and (s <= 0.0 or b1 * c > b2 * s) else (0.0, float(s))


def _krylov_solve(p_apply, c_inverse, f: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` right-preconditioned GMRES steps on ``P x = f`` from ``x_0 = C^-1 f``.

    ``p_apply`` is ``P`` and ``c_inverse`` the circulant ``C^-1``; both keep
    the mass of their input, so the residual of ``x_0`` and every Krylov
    direction have mass 0 (their roundoff mean is removed), and the result
    keeps the mass of ``f``.  ``P = I + A diag(E)`` with ``E >= 0`` has unit
    column sums and non-positive off-diagonal entries, so ``P^-1`` is
    non-negative and ``||P^-1 f||_1 <= ||f||_1``; a result that is not finite
    or breaks this bound (roundoff at an enormous ``E``) is replaced by
    ``x_0``, which keeps both properties exactly.
    """
    x = c_inverse(f)
    r = f - p_apply(x)
    r -= r.mean()
    beta = float(np.linalg.norm(r))
    if not (math.isfinite(beta) and beta > 0.0):
        return x
    basis, directions = [r / beta], []
    hessenberg = np.zeros((steps + 1, steps))
    for j in range(steps):
        z = c_inverse(basis[j])
        v = p_apply(z)
        for i, b in enumerate(basis):   # modified Gram-Schmidt
            hessenberg[i, j] = b @ v
            v -= hessenberg[i, j] * b
        hessenberg[j + 1, j] = np.linalg.norm(v)
        if not np.isfinite(hessenberg[:j + 2, j]).all():
            break
        directions.append(z)
        if hessenberg[j + 1, j] == 0.0:
            break
        basis.append(v / hessenberg[j + 1, j])
    if not directions:
        return x
    k = len(directions)
    rhs = np.zeros(k + 1)
    rhs[0] = beta
    y = np.linalg.lstsq(hessenberg[:k + 1, :k], rhs, rcond=None)[0]
    dx = np.column_stack(directions) @ y
    out = x + (dx - dx.mean())
    return out if np.isfinite(out).all() and np.abs(out).sum() <= np.abs(f).sum() else x


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


def _step_policy(ctx: OperatorContext, config: SolverConfig) -> tuple[float, float, int]:
    """A run's plan ``(dt, snapshot_every, snapshots)``; ``dt`` is ``config.dt``, or else the CFL limit ``max_dt``.

    The snapshot interval defaults to ``end_time / 10``, and ``max_dt`` takes it as its fallback; only
    an explicit run or an unset dt computes ``max_dt``.  ``snapshots = 1 + ceil(min(T / snapshot_every,
    T / dt))`` counts ``u0`` and at most one snapshot per interval and per step.  Before any snapshot
    is recorded the plan raises :class:`SolverAbortError` for an explicit run whose first step, its
    longest, exceeds ``max_dt`` (unless ``config.cfl_override`` is set), and then for a run of more than
    ``MAX_STEPS`` steps of its dt or snapshot intervals.
    """
    T = config.end_time
    snapshot_every = config.snapshot_every if config.snapshot_every is not None else T / 10.0
    if config.dt is not None and config.integrator != "explicit_euler":
        dt = config.dt
    else:
        max_dt = cfl_dt(ctx, ctx.bound_R, config.cfl_theta, fallback=snapshot_every)
        dt = config.dt if config.dt is not None else max_dt
        longest = min(dt, T)
        if not config.cfl_override and longest > max_dt * (1.0 + 1e-12):
            raise SolverAbortError(f"dt = {longest:g} exceeds the CFL limit {max_dt:g}")
    steps = T / dt
    if steps > MAX_STEPS:
        raise SolverAbortError(f"the run needs {steps:.3g} steps of dt = {dt:g}, "
                               f"more than the budget of {MAX_STEPS:.0e}")
    intervals = T / snapshot_every
    if intervals > MAX_STEPS:   # each interval costs one addition to run's next_snap
        raise SolverAbortError(f"the run asks for {intervals:.3g} snapshot intervals of {snapshot_every:g}, "
                               f"more than the budget of {MAX_STEPS:.0e}")
    return dt, snapshot_every, 1 + math.ceil(min(intervals, steps))


def run(ctx: OperatorContext, u0: Field, config: SolverConfig, on_snapshot=None) -> Trajectory:
    """Integrate from ``u0`` to ``config.end_time``, recording snapshots.

    Snapshots are taken at multiples of ``snapshot_every`` in simulated
    time, snapped to the nearest completed step; the first snapshot is
    ``u0`` and the final time is always recorded.  The sup norm is guarded
    every step: growth beyond roundoff levels aborts the run with the
    partial trajectory attached, as does a non-finite kernel value or
    update in an explicit step.  dt and the snapshot interval are those of
    :func:`_step_policy`, which refuses a dt above the CFL limit and a run
    over the ``MAX_STEPS`` budget before the first snapshot.

    Implicit steps whose fixed-point iteration diverges are retried with
    halved dt, up to 10 halvings deep, before giving up; dt grows back
    after quick sub-steps.  Each implicit solve starts from the degree <= 2
    Lagrange extrapolation, to its own end time, of the last three accepted
    states (``u0`` and every converged sub-step), which costs no apply; the
    first step and an attempt right after a divergence start from the
    current state.  ``picard_iters`` of each snapshot counts the fixed-point
    iterations of every step since the previous snapshot.

    ``on_snapshot(field)``, when given, is called with the field of each
    snapshot right after it is recorded, in order, so a caller can write
    snapshots while the run proceeds.
    """
    T = config.end_time
    explicit = config.integrator == "explicit_euler"
    dt_base, snapshot_every, _ = _step_policy(ctx, config)

    traj = Trajectory(grid=ctx.grid)
    sup0 = float(np.max(np.abs(u0.values)))

    def emit(t, u_field, iters):
        rec = diagnostics.record(ctx, t, u_field, picard_iters=iters)
        traj.times.append(t)
        traj.fields.append(u_field)
        traj.records.append(rec)
        if on_snapshot is not None:
            on_snapshot(u_field)

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
                u_next = step_explicit(ctx, u, dt)
            except (NonFiniteKernelError, SolverAbortError) as exc:
                raise SolverAbortError(f"explicit step from t = {t:g}: {exc}", traj) from exc
        else:
            u_next, k = _implicit_step_with_retries(ctx, history, dt, config, traj)
            iters += k
        t += dt
        traj.steps += 1

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


def continuation_in_epsilon(contexts: list[OperatorContext], u0: Field, config: SolverConfig):
    """Run the same problem on each operator context of ``contexts``.

    ``contexts`` share the grid of ``u0`` and one bound ``R`` and come in
    order of decreasing regularization radius; the rule a configured list
    of radii must keep is checked by :func:`config.resolve_eps_list`.
    Returns ``(trajectories, cauchy_table)`` where the table holds one row
    ``(eps_k, eps_k+1, d_k)`` per consecutive pair and
    ``d_k = max_t ||u^{eps_k}(t) - u^{eps_k+1}(t)||_1`` over the snapshot
    times (:func:`diagnostics.l1_distances`).  All runs use one dt, the
    configured one or else the smallest of their step policies' CFL limits,
    and so share their snapshot times.  A plan over the ``MAX_STEPS`` budget
    raises :class:`SolverAbortError` before any run steps; without a
    configured dt, the first context over it refuses with its own dt.
    """
    if config.dt is None:
        config = replace(config, dt=min(_step_policy(ctx, config)[0] for ctx in contexts))
    trajectories = [run(ctx, u0, config) for ctx in contexts]
    table = [(ca.regkernel.epsilon, cb.regkernel.epsilon, max(diagnostics.l1_distances(ta, tb)))
             for ca, cb, ta, tb in zip(contexts, contexts[1:], trajectories, trajectories[1:])]
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
