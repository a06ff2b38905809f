"""The structural properties of the discrete flow, on drawn kernels, grids, integrators and data.

Each example draws a kernel (one of the six families, porous medium with a
table ``f``, or a cone combination of two of these) with its parameters
(``m``, ``p`` and ``alpha`` where the family reads them), a small 1-d or 2-d
grid, an integrator and its dt, and three initial fields: ``u``, a second
field ``v`` (independent random data, or ``u`` changed by a little on a few
cells) and their pointwise maximum.  As ``jumpdiff run`` and ``compare`` do,
the cutoff radius is the lattice spacing and ``R = max(1, sup |u0|)`` over
the three fields.  The checks use the slacks the commands derive: mass,
min and max at roundoff, the monotone norms at :func:`cli._monotone_checks`'
slacks, contraction and comparison at ``2 * picard_tol`` per step.  The
operator's rows stay within the certificate ``M_R`` that the CFL dt divides
by (condition B1), on the drawn fields and on a spike (``R`` on one cell,
``-R`` on the rest), whose rows reach ``M_R`` for a kernel constant in
``(a, b)``.

Mass, extrema and norms are checked on :func:`evolve.run`'s trajectories.
``run`` halves a diverged implicit step for its own field alone, so runs
from different data can take different sub-steps, and the comparison
principle holds only on a common time grid: at ``dt * 2 M_R = 8`` on a 2-d
7x7 grid two ``run`` trajectories from ordered data crossed by 6.1e-4,
while on a shared grid of quarter steps the same data stay ordered.  So
the checks between runs (contraction, comparison, Kato) step every field
on one grid (:func:`advance`).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpdiff.cli import _monotone_checks
from jumpdiff.config import _KEY_READERS, KernelConfig, RunConfig, build_kernel
from jumpdiff.diagnostics import check_comparison, check_contraction
from jumpdiff.evolve import (
    SUP_NORM_SLACK,
    PicardDivergedError,
    SolverConfig,
    Trajectory,
    run,
    step_backward_picard,
    step_explicit,
)
from jumpdiff.kernels import cone_combine, regular_bound_M, regularize
from jumpdiff.lattice import Field, Profile, make_grid, mass, norm_lp, sample_profile
from jumpdiff.operator import apply, build_context, kato_functional, max_row_sum

STEPS = 4
EPS = np.finfo(float).eps

KERNELS = {
    **{name: KernelConfig(family=name) for name in ("fractional_heat", "porous_medium", "convex_diffusion",
                                                     "p_laplacian", "doubly_nonlinear", "variable_order")},
    "porous_table": KernelConfig(family="porous_medium", f="table", f_table="-1:-1, 0:0, 0.3:0.05, 1:1"),
}

# (integrator, dt * 2 M_R): explicit and backward Euler at the CFL dt, and backward Euler at 8.
CFL = SolverConfig().cfl_theta
INTEGRATORS = [("explicit_euler", CFL), ("backward_euler_picard", CFL), ("backward_euler_picard", 8.0)]


def kernel(draw, grid, name):
    """The kernel ``name`` of ``KERNELS`` with its parameters drawn: ``m`` in [1.5, 3] for a power ``f``,
    ``p`` in [2, 4] and ``alpha`` in [0.2, 0.8] where the family reads them."""
    kc = KERNELS[name]
    drawn = {}
    if kc.family != "variable_order":
        drawn["alpha"] = draw(st.floats(0.2, 0.8))
    if kc.family in _KEY_READERS["m"] and kc.f != "table":
        drawn["m"] = draw(st.floats(1.5, 3.0))
    if kc.family in _KEY_READERS["p"]:
        drawn["p"] = draw(st.floats(2.0, 4.0))
    return build_kernel(RunConfig(grid=grid, kernel=replace(kc, **drawn)))


@st.composite
def cases(draw, family):
    """A case of the kernel ``family``, a key of ``KERNELS`` or ``"cone"`` (a combination of two drawn ones)."""
    dim = draw(st.sampled_from([1, 2]))
    grid = make_grid(1, draw(st.integers(16, 32)), 1.0) if dim == 1 else make_grid(2, draw(st.integers(6, 8)), 1.0)
    if family == "cone":
        names = st.sampled_from(sorted(KERNELS))
        k = cone_combine(draw(st.floats(0.1, 1.0)), kernel(draw, grid, draw(names)),
                         draw(st.floats(0.1, 1.0)), kernel(draw, grid, draw(names)))
    else:
        k = kernel(draw, grid, family)
    integrator, dt_factor = draw(st.sampled_from(INTEGRATORS))

    # Amplitudes from a tenth of the cutoff radius eps = h, where most pairs lie on the
    # ramp's band or below it, to several times eps.
    eps = grid.spacing

    def random_bv():
        amp = eps * 10.0 ** draw(st.floats(-1.0, 1.0))
        low = draw(st.sampled_from([-amp, 0.0]))
        return sample_profile(Profile(kind="random_bv", low=low, high=low + 2 * amp,
                                      seed=draw(st.integers(0, 10_000))), grid)

    u = random_bv()
    if draw(st.booleans()):
        v = random_bv()
    else:   # near-equal: u plus a small change on a few cells
        cells = draw(st.lists(st.integers(0, grid.n_cells - 1), min_size=1, max_size=3, unique=True))
        values = u.values.copy()
        values[cells] += draw(st.sampled_from([-1.0, 1.0])) * eps * 10.0 ** draw(st.floats(-6.0, -2.0))
        v = Field(grid, values)
    fields = (u, v, Field(grid, np.maximum(u.values, v.values)))
    R = max(1.0, max(float(np.max(np.abs(f.values))) for f in fields))
    ctx = build_context(grid, regularize(k, eps), R)
    dt = dt_factor / (2.0 * regular_bound_M(ctx.regkernel, R, grid))
    config = SolverConfig(integrator=integrator, end_time=STEPS * dt, dt=dt, snapshot_every=dt)
    return ctx, config, fields


def mass_roundoff(ctx):
    """Summation error of ``STEPS`` applies and the mass sums on values bounded by ``R``."""
    return 4.0 * (STEPS + 1) * ctx.grid.n_cells * EPS * ctx.bound_R * ctx.grid.period ** ctx.grid.dimension


def kato_roundoff(ctx, u, v):
    """Roundoff of ``kato_functional``: ``n_cells * eps`` relative to ``|L_u u|_1 + |L_v v|_1``."""
    scale = norm_lp(apply(ctx, u, u), 1) + norm_lp(apply(ctx, v, v), 1)
    return ctx.grid.n_cells * EPS * max(1.0, scale)


def advance(ctx, config, fields):
    """One step of ``config.dt`` from each of ``fields``, in the fewest ``2^k`` equal sub-steps (at most
    ``2^10``, as ``run`` allows) at which no field's implicit solve diverges."""
    for k in range(11):
        n = 2**k
        current = fields
        try:
            for _ in range(n):
                if config.integrator == "explicit_euler":
                    current = [step_explicit(ctx, u, config.dt / n) for u in current]
                else:
                    current = [step_backward_picard(ctx, u, config.dt / n, config.picard_tol,
                                                    config.picard_max_iters)[0] for u in current]
            return current
        except PicardDivergedError:
            continue
    raise AssertionError("no common sub-step converged for every field")


def shared_trajectories(ctx, config, fields):
    """``STEPS`` steps from each of ``fields`` on one time grid (:func:`advance`), a snapshot per step."""
    snapshots = [list(fields)]
    for _ in range(STEPS):
        snapshots.append(advance(ctx, config, snapshots[-1]))
    times = [k * config.dt for k in range(STEPS + 1)]
    return [Trajectory(ctx.grid, times=times, fields=list(series)) for series in zip(*snapshots)]


# 8 examples a family, 64 in all: about 4.5 s on a 2-core Xeon.
@pytest.mark.parametrize("family", [*KERNELS, "cone"])
@settings(max_examples=8)
@given(data=st.data())
def test_structural_properties(family, data):
    ctx, config, (u0, v0, hi0) = data.draw(cases(family))
    grid, R = ctx.grid, ctx.bound_R
    spike = Field(grid, np.where(np.arange(grid.n_cells) == 0, R, -R))
    bound = regular_bound_M(ctx.regkernel, R, grid)
    for f in (u0, v0, hi0, spike):
        assert max_row_sum(ctx, f) <= bound * (1.0 + 1e-12)

    for f in (u0, v0, hi0):
        traj = run(ctx, f, config)
        assert traj.steps == STEPS and len(traj.fields) == STEPS + 1
        assert max(abs(m - mass(f)) for m in traj.series("mass")) <= mass_roundoff(ctx)
        lows, highs = traj.series("min_value"), traj.series("max_value")
        assert all(b >= a - SUP_NORM_SLACK for a, b in zip(lows, lows[1:])), lows
        assert all(b <= a + SUP_NORM_SLACK for a, b in zip(highs, highs[1:])), highs
        failed = [r.name for r in _monotone_checks(traj) if not r.passed]
        assert not failed, failed

    traj_u, traj_v, traj_hi = shared_trajectories(ctx, config, (u0, v0, hi0))
    slack = 2.0 * config.picard_tol * STEPS
    assert check_contraction(traj_u, traj_v, slack).passed
    assert check_comparison(traj_u, traj_hi, slack).passed
    assert check_comparison(traj_v, traj_hi, slack).passed
    for u, v in zip(traj_u.fields, traj_v.fields):
        assert kato_functional(ctx, u, v) >= -kato_roundoff(ctx, u, v)
