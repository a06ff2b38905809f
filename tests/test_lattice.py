import math

import numpy as np
import pytest

from jumpdiff import lattice
from jumpdiff.lattice import (
    Field,
    Profile,
    bv_norm,
    make_grid,
    norm_lp,
    sample_profile,
    shift_field,
    torus_distance,
    total_variation,
)


def brute_force_tv(field):
    """Independent oracle: direct summation of neighbor differences."""
    g = field.grid
    m = g.cells_per_axis
    v = field.values.reshape(g.shape)
    total = 0.0
    if g.dimension == 1:
        for i in range(m):
            total += abs(v[(i + 1) % m] - v[i])
    else:
        for i in range(m):
            for j in range(m):
                total += abs(v[(i + 1) % m, j] - v[i, j])
                total += abs(v[i, (j + 1) % m] - v[i, j])
    return total * g.spacing ** (g.dimension - 1)


class TestMakeGrid:
    def test_basic_1d(self):
        g = make_grid(1, 4, 4.0)
        assert (g.dimension, g.cells_per_axis, g.period, g.spacing) == (1, 4, 4.0, 1.0)

    def test_basic_2d(self):
        g = make_grid(2, 64, 1.0)
        assert g.spacing == 1.0 / 64
        assert g.n_cells == 64 * 64

    def test_spacing_times_cells_is_period(self):
        g = make_grid(1, 7, 3.5)
        assert g.spacing * g.cells_per_axis == g.period

    @pytest.mark.parametrize("args", [(3, 8, 1.0), (0, 8, 1.0), (1, 2, 1.0), (1, 8, 0.0), (1, 8, -2.0)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)


class TestTorusDistance:
    def test_wraps_minimal_image(self):
        g = make_grid(1, 4, 4.0)
        assert torus_distance(g, 0, 3) == 1.0
        assert torus_distance(g, 0, 2) == 2.0
        assert torus_distance(g, 1, 1) == 0.0

    def test_metric_properties_sampled(self):
        rng = np.random.default_rng(7)
        for g in (make_grid(1, 9, 2.0), make_grid(2, 6, 3.0)):
            idx = rng.integers(0, g.n_cells, size=(200, 3))
            for i, j, k in idx:
                dij = torus_distance(g, i, j)
                assert dij == pytest.approx(torus_distance(g, j, i), abs=0.0)
                assert (dij == 0.0) == (i == j)
                assert dij <= torus_distance(g, i, k) + torus_distance(g, k, j) + 1e-12


class TestNorms:
    def test_single_cell(self):
        g = make_grid(1, 4, 4.0)
        u = Field(g, [1.0, 0.0, 0.0, 0.0])
        assert norm_lp(u, 1) == 1.0
        assert norm_lp(u, math.inf) == 1.0

    def test_three_four_five(self):
        g = make_grid(1, 3, 3.0)  # h = 1
        u = Field(g, [3.0, 4.0, 0.0])
        assert norm_lp(u, 2) == pytest.approx(5.0, rel=1e-15)

    def test_rejects_p_below_one(self):
        g = make_grid(1, 4, 4.0)
        with pytest.raises(ValueError):
            norm_lp(Field(g, np.ones(4)), 0.5)

    @pytest.mark.parametrize("values, l1, l2, tv", [
        ([3e300, -4e300, 0.0], 7e300, 5e300, 14e300),              # |u|^2 beyond the float range
        ([1e308, -1e308, 0.0], math.inf, math.sqrt(2) * 1e308, math.inf),   # so are the sums
    ])
    def test_values_near_the_float_limit(self, values, l1, l2, tv):
        u = Field(make_grid(1, 3, 3.0), values)  # h = 1
        assert norm_lp(u, 1) == l1
        assert norm_lp(u, 2) == pytest.approx(l2, rel=1e-15)
        assert total_variation(u) == tv

    def test_homogeneity(self):
        g = make_grid(1, 16, 2.0)
        u = np.random.default_rng(0).normal(size=16)
        for p in (1.0, 2.0, 3.5, math.inf):
            n1 = norm_lp(Field(g, u), p)
            n2 = norm_lp(Field(g, 2 * u), p)
            assert abs(n2 - 2 * n1) <= 1e-13 * max(1.0, n2)


class TestTotalVariation:
    def test_constant_field_is_flat(self):
        g = make_grid(2, 5, 1.0)
        assert total_variation(Field(g, np.full(25, 3.7))) == 0.0

    def test_two_unit_jumps_including_wrap(self):
        g = make_grid(1, 4, 4.0)
        assert total_variation(Field(g, [1.0, 0.0, 0.0, 0.0])) == 2.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for g in (make_grid(1, 8, 2.0), make_grid(2, 5, 3.0)):
            u = Field(g, rng.normal(size=g.n_cells))
            assert total_variation(u) == pytest.approx(brute_force_tv(u), rel=1e-13)

    def test_invariant_under_constant_shift(self):
        g = make_grid(1, 12, 1.0)
        u = np.random.default_rng(5).normal(size=12)
        tv1 = total_variation(Field(g, u))
        tv2 = total_variation(Field(g, u + 17.3))
        assert abs(tv2 - tv1) <= 1e-13 * max(1.0, tv1)


class TestBvNorm:
    def test_zero_field(self):
        g = make_grid(1, 4, 4.0)
        assert bv_norm(Field(g, np.zeros(4))) == 0.0

    def test_composition(self):
        g = make_grid(1, 4, 4.0)
        assert bv_norm(Field(g, [1.0, 0.0, 0.0, 0.0])) == 4.0

    def test_dominates_twice_l1(self):
        g = make_grid(2, 6, 2.0)
        u = Field(g, np.random.default_rng(11).normal(size=36))
        assert bv_norm(u) >= 2 * norm_lp(u, 1)


class TestShiftField:
    def test_zero_and_full_period_are_identity(self):
        g = make_grid(1, 4, 4.0)
        u = Field(g, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(shift_field(u, (0,)).values, u.values)
        assert np.array_equal(shift_field(u, (4,)).values, u.values)

    def test_moves_in_positive_direction(self):
        g = make_grid(1, 4, 4.0)
        u = Field(g, [1.0, 2.0, 3.0, 4.0])
        assert shift_field(u, (1,)).values.tolist() == [4.0, 1.0, 2.0, 3.0]

    def test_norms_and_tv_preserved(self):
        rng = np.random.default_rng(2)
        for g in (make_grid(1, 16, 2.0), make_grid(2, 6, 1.0)):
            u = Field(g, rng.normal(size=g.n_cells))
            off = tuple(rng.integers(-5, 5, size=g.dimension))
            s = shift_field(u, off)
            for p in (1.0, 2.0, math.inf):
                assert abs(norm_lp(s, p) - norm_lp(u, p)) <= 1e-13 * max(1.0, norm_lp(u, p))
            assert abs(total_variation(s) - total_variation(u)) <= 1e-13 * max(1.0, total_variation(u))


class TestProfiles:
    def test_box_mass_quantization(self):
        g = make_grid(1, 8, 8.0)
        u = sample_profile(Profile(kind="box", center=(4.0,), width=2.0, height=1.0), g)
        assert set(np.unique(u.values)) <= {0.0, 1.0}
        assert abs(lattice.mass(u) - 2.0) <= g.spacing * 1.0 + 1e-12

    def test_two_level_takes_exactly_two_values(self):
        g = make_grid(2, 6, 1.0)
        u = sample_profile(Profile(kind="two_level", level_a=1.0, level_b=-1.0), g)
        assert set(np.unique(u.values)) == {-1.0, 1.0}

    def test_step_levels(self):
        g = make_grid(1, 8, 4.0)
        u = sample_profile(Profile(kind="step", level_a=2.0, level_b=0.5), g)
        assert set(np.unique(u.values)) == {0.5, 2.0}

    def test_random_bv_deterministic(self):
        g = make_grid(1, 32, 1.0)
        a = sample_profile(Profile(kind="random_bv", seed=42), g)
        b = sample_profile(Profile(kind="random_bv", seed=42), g)
        assert np.array_equal(a.values, b.values)
        c = sample_profile(Profile(kind="random_bv", seed=43), g)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_width_beyond_period(self):
        g = make_grid(1, 8, 2.0)
        with pytest.raises(ValueError):
            sample_profile(Profile(kind="box", center=(1.0,), width=3.0), g)

    def test_smooth_bump_bounded_with_finite_tv(self):
        g = make_grid(2, 12, 2.0)
        u = sample_profile(Profile(kind="smooth_bump", center=(1.0, 1.0), width=1.0, height=2.0), g)
        assert np.all(u.values >= 0.0) and np.max(u.values) <= 2.0
        assert math.isfinite(total_variation(u))

    @pytest.mark.parametrize("width", [1e-300, 5e-324])
    def test_smooth_bump_far_below_spacing_is_its_base(self, width):
        # Off-center cells only; RuntimeWarnings are errors under the test settings.
        g = make_grid(1, 8, 1.0)
        u = sample_profile(Profile(kind="smooth_bump", center=(0.0,), width=width, base=0.5), g)
        assert np.all(u.values == 0.5)


class TestFieldInvariants:
    def test_rejects_nonfinite(self):
        g = make_grid(1, 4, 1.0)
        with pytest.raises(ValueError):
            Field(g, [1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            Field(g, [1.0, np.inf, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        g = make_grid(1, 4, 1.0)
        with pytest.raises(ValueError):
            Field(g, [1.0, 2.0])

    def test_values_immutable(self):
        g = make_grid(1, 4, 1.0)
        u = Field(g, np.zeros(4))
        with pytest.raises(ValueError):
            u.values[0] = 1.0
