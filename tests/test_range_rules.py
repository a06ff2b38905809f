"""Each range rule of the library raises ``ValueError`` with its own message."""

import re

import numpy as np
import pytest

from jumpdiff.axioms import AxiomSampling, check_axioms
from jumpdiff.diagnostics import check_monotone_series, l1_distances
from jumpdiff.evolve import Trajectory, cfl_dt, mollify_initial
from jumpdiff.kernels import (
    ScalarFunction,
    compact_bump_density,
    cone_combine,
    make_convex_diffusion,
    make_fractional_heat,
    make_p_laplacian,
    make_zero_kernel,
    power_abs,
    power_odd,
    regularize,
)
from jumpdiff.lattice import Field, make_grid, shift_field
from jumpdiff.operator import apply, build_context

GRID = make_grid(1, 8, 1.0)
OTHER_GRID = make_grid(1, 16, 1.0)
MU = compact_bump_density(0.5, 1)
HEAT = make_fractional_heat(0.5)
REG = regularize(HEAT, GRID.spacing)
CTX = build_context(GRID, REG, 1.0)
U = Field(GRID, np.linspace(0.0, 1.0, GRID.n_cells))
FOREIGN = Field(OTHER_GRID, np.zeros(OTHER_GRID.n_cells))


def trajectory(grid, count):
    """``count`` snapshots of zeros on ``grid`` at times 0, 0.1, 0.2, ..."""
    zeros = Field(grid, np.zeros(grid.n_cells))
    return Trajectory(grid, times=[0.1 * k for k in range(count)], fields=[zeros] * count)


@pytest.mark.parametrize("call, message", [
    # kernels
    (lambda: power_abs(0.5), "power_abs requires m >= 1, got 0.5"),
    (lambda: compact_bump_density(0.5, 1, amplitude=-1), "amplitude must be non-negative"),
    (lambda: make_p_laplacian(ScalarFunction(kind="custom", func=lambda z: z), MU),
     "p-laplacian kernel needs the limit of phi(z)/z at 0 (ratio_limit0)"),
    (lambda: make_convex_diffusion(power_odd(2), MU),
     "convex-diffusion kernel needs a convex non-negative f; odd powers are signed"),
    (lambda: cone_combine(1.0, make_zero_kernel(1), 1.0, make_zero_kernel(2)),
     "cannot combine kernels of dimensions 1 and 2"),
    # axioms
    (lambda: check_axioms(HEAT, R=0.0, epsilon=0.5), "R must be positive"),
    (lambda: check_axioms(HEAT, R=1.0, epsilon=1.5), "epsilon must lie in (0, 1]"),
    (lambda: AxiomSampling(budget=10), "sample budget must be at least 1000"),
    (lambda: AxiomSampling(budget=10**7 + 1), "sample budget must be at most 10000000, got 10000001"),
    (lambda: AxiomSampling(seed=-1), "seed must be non-negative, got -1"),
    # evolve
    (lambda: cfl_dt(CTX, 1.0, theta=0.0), "theta must lie in (0, 1]"),
    (lambda: mollify_initial(U, GRID, 0.05), "mollifier width 0.05 must be at least the spacing 0.125"),
    # operator
    (lambda: build_context(GRID, REG, 0.0), "bound R must be positive"),
    (lambda: apply(CTX, FOREIGN, FOREIGN), "field grid does not match operator context"),
    # lattice
    (lambda: shift_field(U, (1, 2)), "offset must have 1 components, got (2,)"),
    # diagnostics
    (lambda: check_monotone_series(trajectory(GRID, 2), "mass", 0.0), "unknown monotone quantity 'mass'"),
    (lambda: check_monotone_series(trajectory(GRID, 0), "l1", 0.0), "trajectory has no snapshots"),
    (lambda: l1_distances(trajectory(GRID, 2), trajectory(OTHER_GRID, 2)), "trajectories live on different grids"),
])
def test_range_rule_raises_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
