import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpdiff import evolve
from jumpdiff.cli import _monotone_checks
from jumpdiff.diagnostics import check_comparison, check_contraction, check_monotone_series
from jumpdiff.evolve import (
    INTEGRATORS,
    SUP_NORM_SLACK,
    SolverAbortError,
    SolverConfig,
    cfl_dt,
    mollify_initial,
    run,
    step_backward_picard,
)
from jumpdiff.kernels import (
    lattice_majorant,
    make_convex_diffusion,
    make_doubly_nonlinear,
    make_fractional_heat,
    make_p_laplacian,
    make_porous_medium,
    make_variable_order,
    make_zero_kernel,
    phi_power,
    power_abs,
    power_law_density,
    power_odd,
    regular_bound_M,
    regularize,
)
from jumpdiff.lattice import Field, Profile, make_grid, mass, sample_profile, torus_distance
from jumpdiff.operator import NonFiniteKernelError, apply, build_context

TOL = SolverConfig().picard_tol


def porous_medium_context(cells):
    grid = make_grid(1, cells, 1.0)
    kernel = make_porous_medium(power_odd(2.0), power_law_density(0.5, 1))
    return build_context(grid, regularize(kernel, grid.spacing), 1.0)


CTX = porous_medium_context(64)
DT = cfl_dt(CTX, 1.0, 0.5)   # dt * 2 M_R = 1/2


def box(ctx, **kw):
    return sample_profile(Profile(kind="box", width=0.3, **kw), ctx.grid)


def random_bv(ctx, seed):
    return sample_profile(Profile(kind="random_bv", seed=seed), ctx.grid)


def implicit(steps, dt=DT, **kw):
    return SolverConfig(end_time=steps * dt, dt=dt, snapshot_every=dt, **kw)


def roundoff(ctx, steps):
    """Worst-case summation error of ``steps`` applies on values bounded by 1."""
    return 4.0 * steps * ctx.grid.n_cells * np.finfo(float).eps * ctx.grid.period


def picard_reference(ctx, u, dt, tol):
    """Backward Euler step by plain fixed-point iteration (converges for dt * 2 M_R < 1)."""
    w = u
    for _ in range(1000):
        w_next = Field(ctx.grid, u.values - dt * apply(ctx, w, w).values)
        if np.abs(w_next.values - w.values).sum() * ctx.grid.cell_volume <= tol:
            return w_next
        w = w_next
    raise AssertionError("reference fixed-point iteration did not converge")


class TestImplicitStructure:
    @pytest.mark.parametrize("u0", [box(CTX), random_bv(CTX, 1), random_bv(CTX, 2)])
    def test_mass_exact_to_roundoff(self, u0):
        traj = run(CTX, u0, implicit(12))
        drift = max(abs(rec.mass - mass(u0)) for rec in traj.records)
        assert drift <= roundoff(CTX, 12)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_l1_contraction_and_comparison(self, seed_a, seed_b):
        a, b = random_bv(CTX, seed_a), random_bv(CTX, seed_b)
        hi = Field(CTX.grid, np.maximum(a.values, b.values))
        steps = 6
        traj_a, traj_b, traj_hi = (run(CTX, u0, implicit(steps)) for u0 in (a, b, hi))
        slack = 2.0 * TOL * steps
        assert check_contraction(traj_a, traj_b, slack).passed
        assert check_comparison(traj_a, traj_hi, slack).passed
        assert check_comparison(traj_b, traj_hi, slack).passed

    @pytest.mark.parametrize("u0", [box(CTX), box(CTX, height=0.5, base=-0.5), random_bv(CTX, 3)])
    def test_sup_norm_and_range(self, u0):
        traj = run(CTX, u0, implicit(12))
        lo, hi = float(u0.values.min()), float(u0.values.max())
        for f in traj.fields:
            assert f.values.max() <= hi + SUP_NORM_SLACK
            assert f.values.min() >= lo - SUP_NORM_SLACK

    @pytest.mark.parametrize("u0", [box(CTX), random_bv(CTX, 4)])
    def test_matches_plain_fixed_point_reference(self, u0):
        steps = 8
        w, w_ref = u0, u0
        for _ in range(steps):
            w, _ = step_backward_picard(CTX, w, DT, TOL, 60)
            w_ref = picard_reference(CTX, w_ref, DT, TOL)
        assert np.abs(w.values - w_ref.values).sum() * CTX.grid.cell_volume <= 2.0 * TOL * steps

    def test_explicit_and_implicit_agree_at_first_order(self):
        u0 = box(CTX)
        T = 40 * DT

        def gap(dt):
            cfgs = [SolverConfig(integrator=name, end_time=T, dt=dt, snapshot_every=T)
                    for name in ("explicit_euler", "backward_euler_picard")]
            ex, im = (run(CTX, u0, c).fields[-1].values for c in cfgs)
            return np.abs(ex - im).sum() * CTX.grid.cell_volume

        coarse, fine = gap(DT), gap(DT / 2)
        assert coarse < 1e-2
        assert 1.8 < coarse / fine < 2.2


@pytest.mark.parametrize("dt_factor", [0.5, 8.0])
@pytest.mark.parametrize("family", ["porous_medium", "convex_diffusion"])
class TestImplicitStructureOnBoxes:
    """:class:`TestImplicitStructure`'s checks on 2-d 10x10 boxes, where ``D(w)`` is 0 off the box."""

    def case(self, family, dt_factor):
        ctx = family_context(family, 2)
        return ctx, dt_factor / (2.0 * regular_bound_M(ctx.regkernel, 1.0, ctx.grid))

    def test_mass_exact_to_roundoff(self, family, dt_factor):
        ctx, dt = self.case(family, dt_factor)
        u0 = box(ctx)
        traj = run(ctx, u0, implicit(12, dt=dt))
        drift = max(abs(rec.mass - mass(u0)) for rec in traj.records)
        assert drift <= roundoff(ctx, 12)

    def test_l1_contraction_and_comparison(self, family, dt_factor):
        ctx, dt = self.case(family, dt_factor)
        a, b = box(ctx), box(ctx, center=0.35, center_y=0.6, height=0.5)
        hi = Field(ctx.grid, np.maximum(a.values, b.values))
        steps = 6
        traj_a, traj_b, traj_hi = (run(ctx, u0, implicit(steps, dt=dt)) for u0 in (a, b, hi))
        slack = 2.0 * TOL * steps
        assert check_contraction(traj_a, traj_b, slack).passed
        assert check_comparison(traj_a, traj_hi, slack).passed
        assert check_comparison(traj_b, traj_hi, slack).passed

    def test_sup_norm_and_range(self, family, dt_factor):
        ctx, dt = self.case(family, dt_factor)
        for u0 in (box(ctx), box(ctx, height=0.5, base=-0.5)):
            traj = run(ctx, u0, implicit(12, dt=dt))
            lo, hi = float(u0.values.min()), float(u0.values.max())
            for f in traj.fields:
                assert f.values.max() <= hi + SUP_NORM_SLACK
                assert f.values.min() >= lo - SUP_NORM_SLACK


def explicit_context(kernel, cells=24):
    grid = make_grid(1, cells, 1.0)
    return build_context(grid, regularize(kernel, grid.spacing), 1.0)


EXPLICIT_CTX = {
    "fractional_heat": explicit_context(make_fractional_heat(0.5)),
    "porous_medium": explicit_context(make_porous_medium(power_odd(2.0), power_law_density(0.5, 1))),
}
EXPLICIT_STEPS = 8


def explicit_run(name, values):
    """``EXPLICIT_STEPS`` explicit Euler steps at the CFL dt, a snapshot after each."""
    ctx = EXPLICIT_CTX[name]
    dt = cfl_dt(ctx, ctx.bound_R, SolverConfig().cfl_theta)
    config = SolverConfig(integrator="explicit_euler", end_time=EXPLICIT_STEPS * dt, dt=dt, snapshot_every=dt)
    u0 = Field(ctx.grid, values)
    return ctx, u0, run(ctx, u0, config)


def profiles(low):
    cells = EXPLICIT_CTX["fractional_heat"].grid.n_cells
    return st.lists(st.floats(low, 1.0), min_size=cells, max_size=cells)


@pytest.mark.parametrize("name", sorted(EXPLICIT_CTX))
class TestExplicitStructure:
    @given(profiles(-1.0))
    def test_mass_and_range(self, name, values):
        ctx, u0, traj = explicit_run(name, values)
        assert len(traj.fields) == EXPLICIT_STEPS + 1
        assert max(abs(rec.mass - mass(u0)) for rec in traj.records) <= roundoff(ctx, EXPLICIT_STEPS)
        lo, hi = float(u0.values.min()), float(u0.values.max())
        for f in traj.fields:
            assert f.values.max() <= hi + SUP_NORM_SLACK
            assert f.values.min() >= lo - SUP_NORM_SLACK

    @given(profiles(0.0))
    def test_norms_do_not_increase_for_nonnegative_data(self, name, values):
        ctx, _, traj = explicit_run(name, values)
        for quantity in ("l1", "linf"):
            assert check_monotone_series(traj, quantity, roundoff(ctx, EXPLICIT_STEPS)).passed, quantity


@pytest.mark.parametrize("integrator", ["explicit_euler", "backward_euler_picard"])
@pytest.mark.parametrize("name", sorted(EXPLICIT_CTX))
@given(values=profiles(-1.0))
def test_tv_and_bv_do_not_increase(name, integrator, values):
    # No solver.dt: both integrators step at the CFL dt, as `jumpdiff run` does by default.
    ctx = EXPLICIT_CTX[name]
    dt = cfl_dt(ctx, ctx.bound_R, SolverConfig().cfl_theta)
    config = SolverConfig(integrator=integrator, end_time=EXPLICIT_STEPS * dt, snapshot_every=dt)
    traj = run(ctx, Field(ctx.grid, values), config)
    assert len(traj.fields) == EXPLICIT_STEPS + 1
    results = {r.name: r for r in _monotone_checks(traj)}   # the slacks `jumpdiff run` checks with
    assert results["monotone_tv"].passed
    assert results["monotone_bv"].passed


class TestImplicitDivergence:
    CTX256 = porous_medium_context(256)

    def dt_times_2m(self, factor):
        return factor / (2.0 * regular_bound_M(self.CTX256.regkernel, 1.0, self.CTX256.grid))

    def test_step_beyond_picard_contraction_completes(self):
        u0 = box(self.CTX256)
        dt = self.dt_times_2m(2.0)
        traj = run(self.CTX256, u0, implicit(3, dt=dt))
        assert traj.times[-1] == pytest.approx(3 * dt)
        drift = max(abs(rec.mass - mass(u0)) for rec in traj.records)
        assert drift <= roundoff(self.CTX256, 3)
        assert max(traj.series("picard_iters")) <= 60

    def test_tight_iteration_budget_halves_dt(self, monkeypatch):
        seen = []
        solve = evolve.step_backward_picard

        def recording(ctx, u, dt, tol, max_iters, guess=None):
            seen.append(dt)
            return solve(ctx, u, dt, tol, max_iters, guess)

        monkeypatch.setattr(evolve, "step_backward_picard", recording)
        dt = self.dt_times_2m(2.0)
        u0 = box(self.CTX256)
        try:
            traj = run(self.CTX256, u0, implicit(2, dt=dt, picard_max_iters=2))
        except SolverAbortError:
            pass
        else:
            assert abs(traj.records[-1].mass - mass(u0)) <= roundoff(self.CTX256, 2)
        assert min(seen) <= dt / 2

    def test_dt_grows_back_after_halving(self, monkeypatch):
        seen = []

        def diverges_twice(ctx, u, dt, tol, max_iters, guess=None):
            seen.append(dt)
            if len(seen) <= 2:
                raise evolve.PicardDivergedError("stub divergence", 1.0, 1)
            return u, 1

        monkeypatch.setattr(evolve, "step_backward_picard", diverges_twice)
        dt = self.dt_times_2m(2.0)
        traj = run(self.CTX256, box(self.CTX256), implicit(1, dt=dt))
        # Diverged at dt and dt/2, then converged at dt/4, dt/2 and dt/4.
        step = seen[0]
        assert step == pytest.approx(dt)
        assert seen == pytest.approx([step, step / 2, step / 4, step / 2, step / 4], rel=1e-12)
        assert traj.series("picard_iters")[-1] == 5

    def test_residual_growth_raises_divergence(self):
        # A majorant weight beyond the float range (f'(R) at R = 1e200) leaves the solve
        # unpreconditioned, and its second residual outgrows the first DIVERGENCE_FACTOR times.
        grid = self.CTX256.grid
        kernel = make_porous_medium(power_odd(3.5), power_law_density(0.5, 1))
        ctx = build_context(grid, regularize(kernel, grid.spacing), 1e200)
        with pytest.raises(evolve.PicardDivergedError, match="diverged at iteration 2") as info:
            step_backward_picard(ctx, box(ctx), self.dt_times_2m(1e3), TOL, 60)
        assert info.value.iterations == 2
        assert info.value.__cause__ is None

    def test_kernel_overflow_raises_divergence(self):
        u0 = box(self.CTX256)
        guess = Field(self.CTX256.grid, 1e200 * u0.values)   # f(a) = a |a| overflows
        with pytest.raises(evolve.PicardDivergedError, match="left the kernel's domain") as info:
            step_backward_picard(self.CTX256, u0, self.dt_times_2m(0.5), TOL, 60, guess=guess)
        assert info.value.iterations == 1
        assert isinstance(info.value.__cause__, NonFiniteKernelError)

    def test_stalled_residual_raises_divergence(self):
        with pytest.raises(evolve.PicardDivergedError, match="stalled") as info:
            step_backward_picard(self.CTX256, box(self.CTX256), self.dt_times_2m(1e100), TOL, 60)
        assert evolve.ANDERSON_MEMORY < info.value.iterations <= 2 * evolve.ANDERSON_MEMORY
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("kernel, u0", [
        (make_porous_medium(power_odd(2.0), power_law_density(0.5, 1)), box),
        (make_fractional_heat(0.5), lambda ctx: random_bv(ctx, 1)),
    ])
    def test_step_at_eight_times_the_contraction_limit_needs_no_halving(self, kernel, u0):
        grid = self.CTX256.grid
        ctx = build_context(grid, regularize(kernel, grid.spacing), 1.0)
        dt = 8.0 / (2.0 * regular_bound_M(ctx.regkernel, 1.0, grid))
        u = u0(ctx)
        # A PicardDivergedError here is what makes `run` halve dt.
        w, k = step_backward_picard(ctx, u, dt, TOL, SolverConfig().picard_max_iters)
        assert abs(mass(w) - mass(u)) <= roundoff(ctx, k)

    def test_empty_iteration_budget_is_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            step_backward_picard(CTX, box(CTX), DT, TOL, 0)
        with pytest.raises(ValueError, match="picard_max_iters must be at least 1"):
            implicit(1, picard_max_iters=0)


def family_kernel(family, dimension):
    mu = power_law_density(0.5, dimension)
    return {
        "fractional_heat": lambda: make_fractional_heat(0.5, dim=dimension),
        "porous_medium": lambda: make_porous_medium(power_odd(2.0), mu),
        "p_laplacian": lambda: make_p_laplacian(phi_power(3.0), mu),
        "doubly_nonlinear": lambda: make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), mu),
        "convex_diffusion": lambda: make_convex_diffusion(power_abs(2.0), mu),
        "variable_order": lambda: make_variable_order(
            lambda s: 0.25 * (1.0 - np.exp(-s)), lambda s: 0.25 * np.exp(-s),
            lambda r: np.full_like(r, 0.25), 0.25, 0.5, dimension),
    }[family]()


def dense_majorant_laplacian(ctx):
    """``(A u)_i = sum_o w_o h^N (u_i - u_{i+o})`` over the majorant weights, as a matrix built offset by offset."""
    grid = ctx.grid
    weights = lattice_majorant(ctx.regkernel, ctx.bound_R, grid).reshape(grid.shape)
    axes = tuple(range(grid.dimension))
    columns = []
    for e in np.eye(grid.n_cells):
        x = e.reshape(grid.shape)
        ax = sum(weights[o] * (x - np.roll(x, tuple(-k for k in o), axis=axes)) for o in zip(*np.nonzero(weights)))
        columns.append(ax.ravel() * grid.cell_volume)
    return np.column_stack(columns)


def circulant(ctx, x, factor):
    """``x`` through the circulant whose FFT symbol is ``factor(lambda)``, ``lambda`` that of ``A``.

    Computed as the scalar-diffusivity preconditioner computed it, so that a
    constant ``E`` can be checked bit for bit.
    """
    grid = ctx.grid
    shape, axes = grid.shape, tuple(range(grid.dimension))
    w_hat = np.fft.rfftn(lattice_majorant(ctx.regkernel, ctx.bound_R, grid).reshape(shape), axes=axes).real
    symbol = (w_hat.flat[0] - w_hat) * grid.cell_volume
    return np.fft.irfftn(factor(symbol) * np.fft.rfftn(x.reshape(shape), axes=axes), s=shape, axes=axes).ravel()


def linearized_step(kernel, dimension, cells):
    """A context and a random ``(w, f, noise)`` on it, each uniform in [-1, 1]."""
    grid = make_grid(dimension, cells, 1.0)
    ctx = build_context(grid, regularize(kernel, grid.spacing), 1.0)
    rng = np.random.default_rng(cells)
    return (ctx, *(rng.uniform(-1.0, 1.0, grid.n_cells) for _ in range(3)))


SMALL_GRIDS = [(1, 15), (1, 16), (2, 5), (2, 6)]


@pytest.mark.parametrize("dimension, cells", SMALL_GRIDS)
def test_preconditioner_solves_the_fitted_linearized_step(dimension, cells):
    ctx, w, f, noise = linearized_step(family_kernel("porous_medium", dimension), dimension, cells)
    a = dense_majorant_laplacian(ctx)
    # f(a) = a |a| at R = 1: the diagonal f'(w) / sup f' and the chord f(w) / w / sup f'.
    d, k = np.abs(w), 0.5 * np.abs(w)
    dt_lw = 0.3 * a @ (k * w) + 0.2 * a @ w + 0.05 * noise
    (c, s), *_ = np.linalg.lstsq(np.column_stack((a @ (k * w), a @ w)), dt_lw, rcond=None)
    assert c > 0.0 and s > 0.0
    e = c * d + s
    p_matrix = np.eye(ctx.grid.n_cells) + a * e
    exact = np.linalg.solve(p_matrix, f)
    solved = evolve._spectral_preconditioner(ctx, krylov_steps=ctx.grid.n_cells)(w, dt_lw, f)
    np.testing.assert_allclose(solved, exact, rtol=0.0, atol=1e-13)
    # The ANDERSON_MEMORY GMRES steps of a solve: mass kept, and no further from P^-1 f in L^1 than
    # their residual, which is below that of the circulant start (I + mean(E) A)^-1 f.
    p = evolve._spectral_preconditioner(ctx)(w, dt_lw, f)
    for x in (solved, p):
        assert math.fsum(x) == pytest.approx(math.fsum(f), abs=1e-13)
    residual = f - p_matrix @ p
    assert np.abs(p - exact).sum() <= np.abs(residual).sum() + 1e-13
    start = circulant(ctx, f, lambda lam: 1.0 / (1.0 + e.mean() * lam))
    assert np.linalg.norm(residual) < np.linalg.norm(f - p_matrix @ start)
    # A negative fit leaves P = I.
    assert np.array_equal(evolve._spectral_preconditioner(ctx)(w, -dt_lw, f), f)


@pytest.mark.parametrize("dimension, cells", SMALL_GRIDS)
@pytest.mark.parametrize("family, fit_c", [("fractional_heat", 0.3), ("p_laplacian", 0.3), ("porous_medium", -0.3)])
def test_a_constant_diffusivity_is_solved_in_closed_form(family, fit_c, dimension, cells):
    """D = 1 (heat), D = 0 (p = 3), or a fit whose chord term would be negative: E = s, inverted by one FFT pair."""
    ctx, w, f, noise = linearized_step(family_kernel(family, dimension), dimension, cells)
    a = dense_majorant_laplacian(ctx)
    dt_lw = 0.3 * a @ w + fit_c * a @ (np.abs(w) * w) + 0.01 * noise
    aw = circulant(ctx, w, lambda lam: lam)
    dt_s = (aw @ dt_lw) / (aw @ aw)
    assert dt_s > 0.0
    p = evolve._spectral_preconditioner(ctx)(w, dt_lw, f)
    assert np.array_equal(p, circulant(ctx, f, lambda lam: 1.0 / (1.0 + dt_s * lam)))
    np.testing.assert_allclose(p, np.linalg.solve(np.eye(ctx.grid.n_cells) + dt_s * a, f), rtol=0.0, atol=1e-13)
    assert math.fsum(p) == pytest.approx(math.fsum(f), abs=1e-13)
    assert np.array_equal(evolve._spectral_preconditioner(ctx)(w, -dt_lw, f), f)


@pytest.mark.parametrize("dimension, cells", SMALL_GRIDS)
def test_preconditioner_stays_bounded_at_an_enormous_step(dimension, cells):
    ctx, w, f, noise = linearized_step(family_kernel("porous_medium", dimension), dimension, cells)
    a = dense_majorant_laplacian(ctx)
    dt_lw = 1e100 * (a @ (np.abs(w) * w) + a @ w)
    p = evolve._spectral_preconditioner(ctx)(w, dt_lw, f)
    assert np.isfinite(p).all()
    assert np.abs(p).sum() <= np.abs(f).sum()
    assert math.fsum(p) == pytest.approx(math.fsum(f), abs=1e-13)


@pytest.mark.parametrize("y, fit", [
    ((2.0, 3.0, 0.0), (2.0, 3.0)),     # inside the quadrant
    ((1.0, -5.0, 0.0), (1.0, 0.0)),    # s < 0 however much it would lower the residual
    ((-1.0, 2.0, 0.0), (0.0, 2.0)),
    ((-1.0, -2.0, 0.0), (0.0, -2.0)),  # neither term helps: the caller leaves P = I
])
def test_nonnegative_fit_stays_in_the_quadrant(y, fit):
    e1, e2 = np.eye(3)[:2]
    assert evolve._nonnegative_fit(e1, e2, np.array(y)) == pytest.approx(fit)


def test_krylov_result_beyond_the_l1_bound_falls_back_to_the_circulant_start():
    # P = I / 10 is no P = I + A diag(E): its inverse multiplies the L^1 norm by 10.
    f = np.random.default_rng(0).uniform(-1.0, 1.0, 16)
    f -= f.mean()
    start = 0.5 * f
    assert np.array_equal(evolve._krylov_solve(lambda x: 0.1 * x, lambda x: 0.5 * x, f, 1), start)
    # So does a Krylov direction that P maps out of the float range.
    calls = []

    def overflowing(x):
        calls.append(x)
        return x if len(calls) == 1 else x * np.inf

    with np.errstate(invalid="ignore"):
        assert np.array_equal(evolve._krylov_solve(overflowing, lambda x: 0.5 * x, f, 1), start)
    assert len(calls) == 2


def test_krylov_returns_the_circulant_start_when_it_solves_the_system():
    f = np.random.default_rng(1).uniform(-1.0, 1.0, 16)
    assert np.array_equal(evolve._krylov_solve(lambda x: x, lambda x: x, f, 3), f)


def test_krylov_stops_at_a_hessenberg_breakdown():
    # P = 2 I maps the first direction onto itself: the Krylov space is exhausted after one step.
    f = np.tile([1.0, -1.0], 8)   # mass 0, with a residual norm (4) and direction (+-1/4) exact in binary
    assert np.array_equal(evolve._krylov_solve(lambda x: 2.0 * x, lambda x: x, f, 3), f / 2)


def test_an_infinite_majorant_weight_leaves_the_residual_unpreconditioned():
    grid = make_grid(1, 16, 1.0)
    kernel = make_porous_medium(power_odd(3.5), power_law_density(0.5, 1))
    ctx = build_context(grid, regularize(kernel, grid.spacing), 1e200)
    w, dt_lw, f = (np.random.default_rng(k).uniform(-1.0, 1.0, 16) for k in range(3))
    assert np.array_equal(evolve._spectral_preconditioner(ctx)(w, dt_lw, f), f)


@pytest.fixture
def applies(monkeypatch):
    """``applies[0]`` counts the operator applies made through ``evolve``."""
    count = [0]
    raw = evolve._apply_raw

    def counting(ctx, v, u):
        count[0] += 1
        return raw(ctx, v, u)

    monkeypatch.setattr(evolve, "_apply_raw", counting)
    return count


@pytest.mark.parametrize("dt_factor, max_iters", [(0.5, 60), (8.0, 8)])
def test_picard_iters_count_every_apply(applies, dt_factor, max_iters):
    dt = 2.0 * dt_factor * DT
    traj = run(CTX, box(CTX), SolverConfig(end_time=9 * dt, dt=dt, snapshot_every=4 * dt,
                                           picard_max_iters=max_iters))
    assert traj.steps == 9 > len(traj.times)
    assert sum(traj.series("picard_iters")) == applies[0]


def family_context(family, dimension):
    grid = make_grid(dimension, 64 if dimension == 1 else 10, 1.0)
    return build_context(grid, regularize(family_kernel(family, dimension), grid.spacing), 1.0)


@pytest.mark.parametrize("dt_factor", [0.5, 8.0])
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family", ["fractional_heat", "porous_medium", "p_laplacian", "doubly_nonlinear",
                                    "convex_diffusion", "variable_order"])
def test_preconditioned_solve_meets_the_unpreconditioned_stop_test(monkeypatch, family, dimension, dt_factor):
    ctx = family_context(family, dimension)
    iterates = []
    raw = evolve._apply_raw

    def recording(ctx, v, u):
        iterates.append(v)
        return raw(ctx, v, u)

    monkeypatch.setattr(evolve, "_apply_raw", recording)
    u0 = random_bv(ctx, 1)
    dt = dt_factor / (2.0 * regular_bound_M(ctx.regkernel, 1.0, ctx.grid))
    w, k = step_backward_picard(ctx, u0, dt, TOL, 60)
    last = Field(ctx.grid, iterates[-1])
    g = u0.values - dt * apply(ctx, last, last).values
    assert k == len(iterates)
    assert np.abs(g - last.values).sum() * ctx.grid.cell_volume <= TOL
    np.testing.assert_allclose(w.values, g, rtol=0.0, atol=1e-15)
    assert abs(mass(w) - mass(u0)) <= roundoff(ctx, k)


WARM_STEPS = 8


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family", ["porous_medium", "p_laplacian", "convex_diffusion"])
class TestWarmStart:
    """``run`` starts each solve from the extrapolated trajectory; a cold start steps from ``u``."""

    def runs(self, family, dimension, applies):
        ctx = family_context(family, dimension)
        u0 = box(ctx)
        dt = cfl_dt(ctx, ctx.bound_R, SolverConfig().cfl_theta)
        cold = [u0]
        for _ in range(WARM_STEPS):
            cold.append(step_backward_picard(ctx, cold[-1], dt, TOL, 60)[0])
        cold_applies = applies[0]
        # No solver.dt: implicit steps at the CFL dt, as `jumpdiff run` takes them by default.
        warm = run(ctx, u0, SolverConfig(end_time=WARM_STEPS * dt, snapshot_every=dt))
        assert len(warm.fields) == WARM_STEPS + 1
        return ctx, cold, cold_applies, warm, applies[0] - cold_applies

    def test_stays_within_the_tolerance_of_a_cold_start(self, family, dimension, applies):
        ctx, cold, _, warm, _ = self.runs(family, dimension, applies)
        for k, (c, w) in enumerate(zip(cold, warm.fields)):
            assert np.abs(c.values - w.values).sum() * ctx.grid.cell_volume <= 2.0 * TOL * k

    def test_spends_fewer_applies_than_a_cold_start(self, family, dimension, applies):
        _, _, cold_applies, warm, warm_applies = self.runs(family, dimension, applies)
        assert warm_applies == sum(warm.series("picard_iters"))
        assert warm_applies < cold_applies


def test_converged_guess_returns_in_one_apply():
    u0 = box(CTX)
    w_star, _ = step_backward_picard(CTX, u0, DT, 1e-14, 60)
    w, k = step_backward_picard(CTX, u0, DT, TOL, 60, guess=w_star)
    assert k == 1
    assert np.abs(w.values - w_star.values).sum() * CTX.grid.cell_volume <= TOL
    assert abs(mass(w) - mass(u0)) <= roundoff(CTX, 1)


def test_the_attempt_after_a_divergence_starts_cold(monkeypatch):
    guesses = []
    solve = evolve.step_backward_picard

    def diverges_once(ctx, u, dt, tol, max_iters, guess=None):
        guesses.append(guess)
        if len(guesses) == 2:
            raise evolve.PicardDivergedError("stub divergence", 1.0, 1)
        return solve(ctx, u, dt, tol, max_iters, guess)

    monkeypatch.setattr(evolve, "step_backward_picard", diverges_once)
    run(CTX, box(CTX), implicit(2))
    # Step 1 from u0; step 2 warm, diverged, retried cold at dt/2; its second half warm again.
    assert [g is None for g in guesses] == [True, False, True, False]


def test_extrapolation_is_exact_for_quadratic_trajectories():
    grid = CTX.grid
    a, b, c = (np.random.default_rng(seed).normal(size=grid.n_cells) for seed in range(3))

    def at(t):
        return Field(grid, a + t * b + t * t * c)

    history = deque([(t, at(t)) for t in (0.0, 0.3, 0.4)], maxlen=3)
    np.testing.assert_allclose(evolve._extrapolate(history, 0.9).values, at(0.9).values, rtol=0, atol=1e-13)
    line = deque([(t, Field(grid, a + t * b)) for t in (0.25, 0.5)])
    np.testing.assert_allclose(evolve._extrapolate(line, 1.0).values, a + b, rtol=0, atol=1e-14)
    assert evolve._extrapolate(deque([(0.0, at(0.0))]), 1.0) is None
    assert evolve._extrapolate(deque([(0.5, at(0.5)), (0.5, at(0.5))]), 1.0) is None   # a repeated time


def test_explicit_step_on_a_non_finite_kernel_value_aborts_with_the_trajectory():
    heat = make_fractional_heat(0.5)
    blowup = replace(heat, eval_fn=lambda a, b, r: np.where(np.maximum(a, b) > 0.5, np.inf, 1.0) * heat.eval_fn(a, b, r))
    ctx = explicit_context(blowup)
    with pytest.raises(SolverAbortError, match="not finite") as info:
        run(ctx, box(ctx), SolverConfig(integrator="explicit_euler", end_time=1.0))
    assert info.value.trajectory.times == [0.0]
    assert isinstance(info.value.__cause__, NonFiniteKernelError)


def mollify_oracle(u, width):
    """Cell i averages every cell j with the weight of the bump at their torus distance."""
    g = u.grid
    out = np.empty(g.n_cells)
    for i in range(g.n_cells):
        s2 = [(torus_distance(g, i, j) / width) ** 2 for j in range(g.n_cells)]
        w = np.array([math.exp(1.0 - 1.0 / (1.0 - x)) if x < 1.0 else 0.0 for x in s2])
        out[i] = math.fsum(w * u.values) / math.fsum(w)
    return out


@pytest.mark.parametrize("width", [0.2, 0.6])
@pytest.mark.parametrize("dimension, cells", [(1, 8), (1, 9), (2, 8), (2, 9)])
def test_mollifier_matches_the_torus_distance_oracle(dimension, cells, width):
    # Width 0.6 reaches past the half period 0.5: on even grids the offset M/2 is one cell, weighted once.
    g = make_grid(dimension, cells, 1.0)
    u = Field(g, np.random.default_rng(cells).uniform(0.5, 1.5, size=g.n_cells))
    np.testing.assert_allclose(mollify_initial(u, g, width).values, mollify_oracle(u, width), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_zero_kernel_steps_by_the_snapshot_interval_and_keeps_u0(integrator):
    """M_R = 0 certifies no CFL dt: an unset dt falls back to the snapshot interval."""
    grid = make_grid(1, 16, 1.0)
    ctx = build_context(grid, regularize(make_zero_kernel(1), grid.spacing), 1.0)
    assert regular_bound_M(ctx.regkernel, 1.0, grid) == 0.0
    assert cfl_dt(ctx, 1.0, 0.5, fallback=0.25) == 0.25
    u0 = sample_profile(Profile(kind="box", width=0.3), grid)
    traj = run(ctx, u0, SolverConfig(integrator=integrator, end_time=1.0, snapshot_every=0.25))
    assert traj.steps == 4
    assert traj.times == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(np.array_equal(f.values, u0.values) for f in traj.fields)
