import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpdiff.diagnostics import check_comparison, l1_distances, record
from jumpdiff.evolve import SolverConfig, Trajectory, run
from jumpdiff.kernels import make_fractional_heat, make_zero_kernel, regularize
from jumpdiff.lattice import Field, Profile, bump, bv_norm, make_grid, sample_profile
from jumpdiff.operator import _apply_raw, build_context


@given(st.sampled_from([(1, 37), (2, 9)]), st.integers(0, 2**32 - 1))
def test_record_bv_equals_bv_norm_exactly(shape, seed):
    grid = make_grid(*shape, 2.0)
    field = Field(grid, np.random.default_rng(seed).normal(size=grid.n_cells))
    assert record(None, 0.0, field).bv == bv_norm(field)


def hand_trajectory(grid, rows):
    """Snapshots ``rows`` at times 0, 1, 2, ...; the cross-run checks read no records."""
    return Trajectory(grid, times=[float(k) for k in range(len(rows))],
                      fields=[Field(grid, np.array(row, dtype=float)) for row in rows])


class TestCrossRunChecks:
    GRID = make_grid(1, 4, 1.0)
    # hi - lo: min gap 0 at snapshot 0, -0.25 at 1 (beyond the slack 0.125) and -0.75 at 2.
    LO = hand_trajectory(GRID, [[0, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0.5]])
    HI = hand_trajectory(GRID, [[0, 0.125, 0, 0], [0, 0.25, 0, 0], [0, 0, 0, -0.25]])

    def test_comparison_fails_at_the_first_snapshot_out_of_order(self):
        result = check_comparison(self.LO, self.HI, 0.125)
        assert not result.passed
        assert result.first_violation == 1
        assert result.worst_margin == 0.75

    def test_l1_distances_per_snapshot(self):
        assert l1_distances(self.LO, self.HI) == [0.125 / 4, 0.25 / 4, 0.75 / 4]

    def test_l1_distances_need_matching_snapshot_times(self):
        shifted = hand_trajectory(self.GRID, [[0, 0, 0, 0]] * 3)
        shifted.times[1] += 0.5
        with pytest.raises(ValueError, match="mismatched snapshot times"):
            l1_distances(self.LO, shifted)


def make_test_bank(grid, times, count=3):
    """Product bumps ``psi(t, x)`` sampled on the snapshot/cell lattice.

    Each entry has shape ``(len(times), n_cells)``, vanishes at the first
    and last two snapshots (compact support in time) and is a smooth
    periodic bump in space.
    """
    times = np.asarray(times, dtype=float)
    T = times[-1]
    L = grid.period
    bank = []
    lo, hi = 0.15 * T, 0.85 * T
    bt = bump(((times - 0.5 * (lo + hi)) / (0.5 * (hi - lo))) ** 2)
    for k in range(count):
        center = (0.25 + 0.5 * k / max(count - 1, 1)) * L
        radius = L / (3.0 + k)
        bx = sample_profile(Profile("smooth_bump", center=center, width=2.0 * radius), grid).values
        bank.append(bt[:, None] * bx[None, :])
    return bank


def weak_residual(trajectory, ctx, test_bank):
    """Max over test bumps of the discrete space-time integral identity defect.

    Uses centered time differences of the bump (first and last snapshots
    excluded) and the same operator context as the run:

        | sum_k sum_i u_k [ (psi_{k+1} - psi_{k-1}) / (2 dt) - (L_{u_k} psi_k) ]_i h^N dt |.

    For a time-independent solution and a bump vanishing near both ends the
    time part telescopes to zero exactly.  It is a consistency indicator
    (first order in dt), not a proof.
    """
    times = np.asarray(trajectory.times, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least three snapshots for centered differences")
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("weak residual requires uniformly spaced snapshots")
    hn = trajectory.grid.cell_volume
    worst = 0.0
    for psi in test_bank:
        if psi.shape != (len(times), trajectory.grid.n_cells):
            raise ValueError("test bump shape does not match trajectory")
        terms = []
        for k in range(1, len(times) - 1):
            u = trajectory.fields[k].values
            dpsi_dt = (psi[k + 1] - psi[k - 1]) / (2.0 * dt)
            l_psi = _apply_raw(ctx, u, psi[k])
            terms.append(math.fsum(u * (dpsi_dt - l_psi)) * hn * dt)
        worst = max(worst, abs(math.fsum(terms)))
    return worst


class TestWeakResidual:
    GRID = make_grid(1, 32, 1.0)
    U0 = sample_profile(Profile("random_bv", seed=3), GRID)

    def zero_kernel_run(self):
        ctx = build_context(self.GRID, regularize(make_zero_kernel(1), self.GRID.spacing), 1.0)
        return ctx, run(ctx, self.U0, SolverConfig(end_time=0.2, dt=0.01, snapshot_every=0.01))

    def test_stationary_run_has_no_residual(self):
        ctx, traj = self.zero_kernel_run()
        assert weak_residual(traj, ctx, make_test_bank(self.GRID, traj.times)) <= 1e-15

    def test_implicit_heat_residual_is_first_order_in_dt(self):
        ctx = build_context(self.GRID, regularize(make_fractional_heat(0.5), self.GRID.spacing), 1.0)
        residuals = []
        for dt in (0.004, 0.002, 0.001):
            traj = run(ctx, self.U0, SolverConfig(end_time=0.2, dt=dt, snapshot_every=dt))
            residuals.append(weak_residual(traj, ctx, make_test_bank(self.GRID, traj.times)))
        r1, r2, r3 = residuals
        assert 1.8 < r1 / r2 < 2.2
        assert 1.8 < r2 / r3 < 2.2

    def test_rejects_non_uniform_snapshots(self):
        ctx, traj = self.zero_kernel_run()
        traj.times[2] += 0.001
        with pytest.raises(ValueError, match="uniformly spaced"):
            weak_residual(traj, ctx, make_test_bank(self.GRID, traj.times))

    def test_needs_three_snapshots(self):
        ctx, _ = self.zero_kernel_run()
        with pytest.raises(ValueError, match="need at least three snapshots for centered differences"):
            weak_residual(hand_trajectory(self.GRID, [np.zeros(self.GRID.n_cells)] * 2), ctx, [])

    def test_rejects_a_bump_of_another_shape(self):
        ctx, traj = self.zero_kernel_run()
        with pytest.raises(ValueError, match="test bump shape does not match trajectory"):
            weak_residual(traj, ctx, [np.zeros((2, self.GRID.n_cells))])
