"""The scaling symmetries of the homogeneous decoupled families, on the lattice.

Fractional heat is linear: data ``lam u0`` give ``lam u(t)``.  The porous
medium ``F(u) = u|u|^(m-1)`` maps data ``lam u0`` to ``lam u(lam^(m-1) t)``,
and the p-Laplacian ``phi(z) = z|z|^(p-2)`` to ``lam u(lam^(p-2) t)``.  On
the lattice these laws hold when the regularization radius scales with the
data (the ramp sees ``|lam d| / (lam eps)``) and stays below the spacing,
so that the spatial cutoff drops no pair; for a power-of-2 ``lam`` and
``m = 2`` or ``p = 3`` every product is then scaled exactly in binary.  The
small nonlinear runs also scale their time step, end time and bound R.
"""

import numpy as np
import pytest

from jumpdiff.evolve import SolverConfig, run
from jumpdiff.kernels import (
    make_fractional_heat,
    make_p_laplacian,
    make_porous_medium,
    phi_power,
    power_law_density,
    power_odd,
    regularize,
)
from jumpdiff.lattice import Profile, make_grid, sample_profile
from jumpdiff.operator import build_context

PICARD_TOL = 1e-12
STEPS = 16

# law: (kernel of dimension dim, lam, eps and dt of the height-1 run, time factor 1/lam^(m-1) or 1/lam^(p-2),
#       R of the small run)
LAWS = {
    "fractional_heat": (lambda dim: make_fractional_heat(0.5, 1.0, dim), 2.0 ** -4, 2.0 ** -10, 2.0 ** -8, 1.0, 1.0),
    "porous_medium_m2": (lambda dim: make_porous_medium(power_odd(2.0), power_law_density(0.5, dim)),
                         2.0 ** -2, 2.0 ** -10, 2.0 ** -9, 4.0, 0.25),
    "p_laplacian_p3": (lambda dim: make_p_laplacian(phi_power(3.0), power_law_density(0.5, dim)),
                       2.0 ** -2, 2.0 ** -10, 2.0 ** -10, 4.0, 0.25),
}


def box_run(grid, kernel, eps, R, height, integrator, dt):
    with pytest.warns(UserWarning, match="below the lattice spacing"):
        ctx = build_context(grid, regularize(kernel, eps), R)
    u0 = sample_profile(Profile("box", width=0.3, height=height), grid)
    end_time = STEPS * dt
    config = SolverConfig(integrator=integrator, end_time=end_time, dt=dt, snapshot_every=end_time / 4,
                          picard_tol=PICARD_TOL)
    return u0, run(ctx, u0, config)


@pytest.mark.parametrize("integrator", ["explicit_euler", "backward_euler_picard"])
@pytest.mark.parametrize("dimension, cells", [(1, 64), (2, 16)])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_scaled_data_give_the_scaled_solution(law, dimension, cells, integrator):
    build, lam, eps, dt, time_factor, small_R = LAWS[law]
    grid = make_grid(dimension, cells, 1.0)
    kernel = build(dimension)
    u0, large = box_run(grid, kernel, eps, 1.0, 1.0, integrator, dt)
    _, small = box_run(grid, kernel, lam * eps, small_R, lam, integrator, time_factor * dt)
    assert small.times == [time_factor * t for t in large.times]
    assert not np.array_equal(large.fields[-1].values, u0.values)   # the runs move
    for fl, fs in zip(large.fields, small.fields):
        if integrator == "explicit_euler":
            assert np.array_equal(fs.values, lam * fl.values)
        else:   # the solve stops at an absolute residual, not at a bitwise fixed point
            l1 = np.abs(fs.values - lam * fl.values).sum() * grid.cell_volume
            assert l1 <= 2 * PICARD_TOL * large.steps
