import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpdiff import evolve
from jumpdiff.config import DiagSection
from jumpdiff.diagnostics import check_comparison, check_contraction, check_monotone_series
from jumpdiff.evolve import (
    SUP_NORM_SLACK,
    SolverAbortError,
    SolverConfig,
    cfl_dt,
    mollify_initial,
    run,
    step_backward_picard,
)
from jumpdiff.kernels import (
    make_fractional_heat,
    make_porous_medium,
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
    slack = DiagSection()   # the slacks `jumpdiff run` checks with
    assert check_monotone_series(traj, "tv", slack.slack_tv).passed
    assert check_monotone_series(traj, "bv", slack.slack_tv + 2 * slack.slack_norms).passed


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
        assert max(traj.picard_iters) <= 60

    def test_tight_iteration_budget_halves_dt(self, monkeypatch):
        seen = []
        solve = evolve.step_backward_picard

        def recording(ctx, u, dt, tol, max_iters):
            seen.append(dt)
            return solve(ctx, u, dt, tol, max_iters)

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

        def diverges_twice(ctx, u, dt, tol, max_iters):
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
        assert traj.picard_iters[-1] == 5

    @pytest.mark.parametrize("factor, cause", [(1e100, type(None)), (1e200, NonFiniteKernelError)])
    def test_runaway_iterate_raises_divergence(self, factor, cause):
        # 1e100: the residual outgrows the first one; 1e200: the kernel overflows.
        with pytest.raises(evolve.PicardDivergedError) as info:
            step_backward_picard(self.CTX256, box(self.CTX256), self.dt_times_2m(factor), TOL, 60)
        assert info.value.iterations == 2
        assert isinstance(info.value.__cause__, cause)

    def test_empty_iteration_budget_is_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            step_backward_picard(CTX, box(CTX), DT, TOL, 0)
        with pytest.raises(ValueError, match="picard_max_iters must be at least 1"):
            implicit(1, picard_max_iters=0)


@pytest.mark.parametrize("dt_factor, max_iters", [(0.5, 60), (8.0, 8)])
def test_picard_iters_count_every_apply(monkeypatch, dt_factor, max_iters):
    applies = 0
    raw = evolve._apply_raw

    def counting(ctx, v, u):
        nonlocal applies
        applies += 1
        return raw(ctx, v, u)

    monkeypatch.setattr(evolve, "_apply_raw", counting)
    dt = 2.0 * dt_factor * DT
    traj = run(CTX, box(CTX), SolverConfig(end_time=9 * dt, dt=dt, snapshot_every=4 * dt,
                                           picard_max_iters=max_iters))
    assert len(traj.dts) > traj.snapshot_count()
    assert sum(traj.picard_iters) == sum(r.picard_iters for r in traj.records) == applies


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

