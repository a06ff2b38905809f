import functools
import math

import numpy as np
import pytest

from jumpdiff.axioms import VIOLATION_RTOL, AxiomSampling, check_axioms, check_regular
from jumpdiff.kernels import (
    JumpKernel,
    LevyDensity,
    QuadratureDivergenceError,
    ScalarFunction,
    compact_bump_density,
    cone_combine,
    levy_constant,
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
    smooth_ramp,
    table_function,
)
from jumpdiff.lattice import Field, Profile, make_grid, offset_distances, sample_profile
from jumpdiff.operator import build_context, max_row_sum

MU1 = compact_bump_density(1e9, dim=1)  # mu == 1 on every relevant distance


def sample_quadruples(rng, R, n):
    q = np.sort(rng.uniform(-R, R, size=(n, 4)), axis=1)[:, ::-1]
    return q[:, 0], q[:, 1], q[:, 2], q[:, 3]


class TestFractionalHeat:
    def test_power_values(self):
        k = make_fractional_heat(0.5, 1.0, dim=1)
        assert k.eval(3.0, -2.0, 1.0) == 1.0
        # r^(-N-alpha) at r = 4: 4^(-1.5) = 1/8
        assert k.eval(0.0, 0.0, 4.0) == pytest.approx(0.125, rel=1e-15)

    def test_independent_of_field_values(self):
        k = make_fractional_heat(0.7, 2.0, dim=2)
        vals = k.eval(np.array([-3.0, 0.0, 5.0]), np.array([1.0, 1.0, 1.0]), 2.0)
        assert np.all(vals == vals[0])

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (1.5, 1.0, 0.0, -0.3):
            with pytest.raises(ValueError):
                make_fractional_heat(alpha)


class TestPorousMedium:
    def test_difference_quotient_values(self):
        k = make_porous_medium(power_odd(2.0), MU1)
        assert k.eval(2.0, 1.0, 0.5) == pytest.approx(3.0, rel=1e-15)
        assert k.eval(2.0, 2.0, 0.5) == pytest.approx(4.0, rel=1e-15)  # f'(2) = 2|2|
        assert k.eval(2.0, -1.0, 0.5) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_diagonal_limit_no_cancellation(self):
        k = make_porous_medium(power_odd(3.0), MU1)
        a = 1.2345
        assert k.eval(a, a * (1 + 1e-13), 1.0) == pytest.approx(3 * a * a, rel=1e-10)

    def test_rejects_f_without_derivative(self):
        with pytest.raises(ValueError):
            make_porous_medium(ScalarFunction(kind="custom", func=lambda a: a), MU1)


class TestConvexDiffusion:
    def test_sum_form(self):
        k = make_convex_diffusion(power_abs(2.0), MU1)
        assert k.eval(2.0, 1.0, 1.0) == pytest.approx(5.0, rel=1e-15)
        assert k.eval(0.0, 0.0, 1.0) == 0.0

    def test_symmetric_by_construction(self):
        k = make_convex_diffusion(power_abs(3.0), MU1)
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-2, 2, size=(2, 500))
        assert np.array_equal(k.eval(a, b, 1.0), k.eval(b, a, 1.0))


class TestPLaplacian:
    def test_ratio_values(self):
        k = make_p_laplacian(phi_power(3.0), MU1)
        assert k.eval(3.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert k.eval(0.7, 0.7, 1.0) == 0.0  # limit for p > 2

    def test_p_two_reduces_to_linear(self):
        k = make_p_laplacian(phi_power(2.0), MU1)
        rng = np.random.default_rng(1)
        a, b = rng.uniform(-5, 5, size=(2, 200))
        assert np.allclose(k.eval(a, b, 1.0), 1.0, rtol=0, atol=0)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            phi_power(1.5)


class TestDoublyNonlinear:
    def test_reduces_to_p_laplacian_with_identity_f(self):
        rng = np.random.default_rng(2)
        dn = make_doubly_nonlinear(power_odd(1.0), phi_power(3.0), MU1)
        pl = make_p_laplacian(phi_power(3.0), MU1)
        a, b = rng.uniform(-2, 2, size=(2, 300))
        assert np.allclose(dn.eval(a, b, 1.0), pl.eval(a, b, 1.0), rtol=1e-14)

    def test_reduces_to_porous_medium_with_identity_phi(self):
        rng = np.random.default_rng(3)
        dn = make_doubly_nonlinear(power_odd(2.0), phi_power(2.0), MU1)
        pm = make_porous_medium(power_odd(2.0), MU1)
        a, b = rng.uniform(-2, 2, size=(2, 300))
        assert np.allclose(dn.eval(a, b, 1.0), pm.eval(a, b, 1.0), rtol=1e-14)

    def test_direct_evaluation_oracle(self):
        # phi(f(2) - f(1)) / (2 - 1) with f = a|a|, phi = z|z|: phi(3) = 9
        dn = make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), MU1)
        assert dn.eval(2.0, 1.0, 1.0) == pytest.approx(9.0, rel=1e-15)


class TestVariableOrder:
    @staticmethod
    def _kernel():
        psi1 = lambda s: 0.25 - 0.25 * np.exp(-np.asarray(s, dtype=float))
        psi2 = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        theta = lambda z: np.full_like(np.asarray(z, dtype=float), 0.25)
        return make_variable_order(psi1, psi2, theta, 0.25, 0.5, dim=1)

    def test_direct_power_oracle(self):
        k = self._kernel()
        # on the diagonal the order is theta = 1/4, so value = 0.5^(-1.25)
        assert k.eval(1.0, 1.0, 0.5) == pytest.approx(0.5 ** (-1.25), rel=1e-15)
        assert k.eval(1.0, 1.0, 0.5) == pytest.approx(2.3784, rel=1e-4)

    def test_unit_distance_is_one(self):
        k = self._kernel()
        for a, b in [(0.0, 0.0), (1.0, -1.0), (0.3, 0.9)]:
            assert k.eval(a, b, 1.0) == 1.0

    def test_majorant_log_factor(self):
        k = self._kernel()
        e = math.e
        assert k.majorant(1.0, e) == pytest.approx(e ** (-1.25) * 1.0, rel=1e-12)
        assert k.majorant(1.0, 0.5) == pytest.approx(0.5 ** (-1.5) * max(1.0, abs(math.log(0.5))), rel=1e-12)

    def test_rejects_bad_bounds(self):
        f = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        for a1, a2 in [(0.0, 0.5), (0.3, 1.0), (0.6, 0.4)]:
            with pytest.raises(ValueError):
                make_variable_order(f, f, f, a1, a2)


class TestConeCombine:
    def test_degenerate_coefficients(self):
        k1 = make_fractional_heat(0.5, 1.0)
        k2 = make_porous_medium(power_odd(2.0), power_law_density(0.3, 1))
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-1, 1, size=(2, 100))
        r = 10.0 ** rng.uniform(-2, 1, size=100)
        only_first = cone_combine(1.0, k1, 0.0, k2)
        assert np.allclose(only_first.eval(a, b, r), k1.eval(a, b, r), rtol=0, atol=0)
        nothing = cone_combine(0.0, k1, 0.0, k2)
        assert np.all(nothing.eval(a, b, r) == 0.0)

    def test_rejects_negative_coefficients(self):
        k = make_fractional_heat(0.5)
        with pytest.raises(ValueError):
            cone_combine(-1.0, k, 1.0, k)

    def test_monotonicity_preserved(self):
        k1 = make_porous_medium(power_odd(2.0), MU1)
        k2 = make_p_laplacian(phi_power(3.0), MU1)
        combo = cone_combine(0.7, k1, 1.3, k2)
        rng = np.random.default_rng(5)
        a, c, d, b = sample_quadruples(rng, 2.0, 2000)
        r = 10.0 ** rng.uniform(-1, 1, size=2000)
        outer = (a - b) * combo.eval(a, b, r)
        inner = (c - d) * combo.eval(c, d, r)
        scale = max(1.0, float(np.max(np.abs(outer))))
        assert np.all(inner <= outer + 1e-12 * scale)


class TestZeroKernel:
    def test_everything_vanishes(self):
        k = make_zero_kernel(1)
        assert np.all(k.eval(np.linspace(-1, 1, 7), 0.5, 2.0) == 0.0)
        assert levy_constant(k, 5.0) == 0.0

    def test_states_its_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension 3"):
            make_zero_kernel(3)
        with pytest.raises(ValueError, match="kernel dimension 1 does not match grid dimension 2"):
            build_context(make_grid(2, 8, 1.0), regularize(make_zero_kernel(1), 0.25), 1.0)


@pytest.mark.parametrize("construct", [
    lambda dim: power_law_density(0.5, dim),
    lambda dim: compact_bump_density(0.5, dim),
    lambda dim: make_variable_order(lambda s: 0.0 * s, lambda s: 0.0 * s, lambda r: 0.25 + 0.0 * r, 0.25, 0.5, dim),
    make_zero_kernel,
])
def test_densities_and_kernels_exist_in_dimensions_1_and_2_alone(construct):
    with pytest.raises(ValueError, match="unsupported dimension 3"):
        construct(3)


class TestLevyConstant:
    def test_fractional_heat_analytic_oracle(self):
        # 2 * (int_0^1 r^(-1/2) dr + int_1^inf r^(-3/2) dr) = 2 * (2 + 2) = 8
        k = make_fractional_heat(0.5, 1.0, dim=1)
        assert levy_constant(k, 1.0) == pytest.approx(8.0, rel=1e-3)

    def test_cone_additivity(self):
        k1 = make_fractional_heat(0.5, 1.0, dim=1)
        k2 = make_fractional_heat(0.8, 2.0, dim=1)
        combo = cone_combine(2.0, k1, 3.0, k2)
        v = levy_constant(combo, 1.0)
        v1 = levy_constant(k1, 1.0)
        v2 = levy_constant(k2, 1.0)
        assert v == pytest.approx(2 * v1 + 3 * v2, rel=1e-9)

    def test_2d_sphere_factor(self):
        # 2 pi * (int_0^1 r^(-0.5) r dr ... ) for alpha = 0.5, N = 2:
        # integrand (1^r) r^(-2.5) * 2 pi r: inner: 2pi int_0^1 r^(-0.5) = 4pi;
        # outer: 2pi int_1^inf r^(-1.5) = 4pi; total 8pi.
        k = make_fractional_heat(0.5, 1.0, dim=2)
        assert levy_constant(k, 1.0) == pytest.approx(8 * math.pi, rel=1e-3)


DECOUPLED_FAMILIES = {
    "fractional_heat": lambda mu: make_fractional_heat(mu.alpha, mu.amplitude, mu.dim),
    "porous_medium": lambda mu: make_porous_medium(power_odd(2.0), mu),
    "convex_diffusion": lambda mu: make_convex_diffusion(power_abs(2.0), mu),
    "p_laplacian": lambda mu: make_p_laplacian(phi_power(3.0), mu),
    "doubly_nonlinear": lambda mu: make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), mu),
}
DENSITIES = [("power_law", alpha) for alpha in (0.1, 0.5, 0.9, 0.99)] + [("compact_bump", r0) for r0 in (0.5, 3.0)]
CLOSED_FORM_CASES = [
    pytest.param(family, kind, param, dim, id=f"{family}-{kind}-{param}-{dim}d")
    for family in DECOUPLED_FAMILIES
    for kind, param in DENSITIES
    for dim in (1, 2)
    if not (family == "fractional_heat" and kind == "compact_bump")
]


def density(kind, param, dim):
    if kind == "power_law":
        return power_law_density(param, dim, amplitude=1.5)
    return compact_bump_density(param, dim, amplitude=0.7)


def quadrature_moment(k, R, lo, hi, power):
    """The reference for ``k.moment``: adaptive quadrature of the majorant up to its support radius.

    An ``IntegrationWarning`` is a ``UserWarning``, which the test configuration turns into an error.
    """
    from scipy import integrate

    if k.support_radius is not None:
        hi = min(hi, k.support_radius)
    if hi <= lo:
        return 0.0
    area = 2.0 if k.dim == 1 else 2.0 * math.pi   # |S^(N-1)|

    def integrand(r):
        return r ** power * float(k.majorant(R, r)) * area * r ** (k.dim - 1)

    return integrate.quad(integrand, lo, hi, limit=200)[0]


def first_moment(moment, R, lo, hi):
    """``int (1 ^ r) m_R(r) dy`` over the shell ``lo <= |y| <= hi``, as two radial moments split at r = 1."""
    return moment(R, lo, min(hi, 1.0), 1.0) + moment(R, max(lo, 1.0), hi, 0.0)


class TestClosedFormMoments:
    @pytest.mark.parametrize("family, kind, param, dim", CLOSED_FORM_CASES)
    def test_levy_constant_matches_quadrature(self, family, kind, param, dim):
        k = DECOUPLED_FAMILIES[family](density(kind, param, dim))
        quad = functools.partial(quadrature_moment, k)
        assert levy_constant(k, 1.5) == pytest.approx(first_moment(quad, 1.5, 0.0, math.inf), rel=1e-9)
        for r_max in (0.5, 100.0):
            for lo, hi in ((0.0, r_max), (r_max, math.inf)):
                assert first_moment(k.moment, 1.5, lo, hi) == pytest.approx(first_moment(quad, 1.5, lo, hi), rel=1e-9)

    @pytest.mark.parametrize("family, kind, param, dim", CLOSED_FORM_CASES)
    def test_tail_estimate_matches_quadrature(self, family, kind, param, dim):
        k = DECOUPLED_FAMILIES[family](density(kind, param, dim))
        for period in (1.0, 4.0):
            grid = make_grid(dim, 8, period)
            exact = build_context(grid, regularize(k, grid.spacing), 1.5).tail_estimate
            assert exact == pytest.approx(quadrature_moment(k, 1.5, period / 2.0, math.inf, 0.0), rel=1e-9)

    def test_exact_power_law_moments(self):
        mu = power_law_density(0.5, 2, amplitude=3.0)
        assert mu.radial_moment(4.0, math.inf, 0.0) == 3.0 * 2 * math.pi * 4.0 ** -0.5 / 0.5
        assert mu.radial_moment(2.0, 8.0, 0.5) == 3.0 * 2 * math.pi * math.log(4.0)
        assert mu.radial_moment(2.0, 1.0, 1.0) == 0.0

    def test_smuggled_order_diverges_and_fails_a5(self):
        k = make_porous_medium(power_odd(2.0), LevyDensity("power_law", 1, alpha=1.2))
        with pytest.raises(QuadratureDivergenceError):
            levy_constant(k, 1.0)
        reports = {r.axiom: r for r in check_axioms(k, R=1.0, epsilon=0.1, sampling=AxiomSampling(2000, 0))}
        assert reports["A5"].verdict == "fail"

    def test_order_zero_has_infinite_tail(self):
        k = make_porous_medium(power_odd(2.0), LevyDensity("power_law", 1, alpha=0.0))
        value = k.moment(1.0, 0.0, 1.0, 1.0) + k.moment(1.0, 1.0, 100.0, 0.0)
        # f' <= 2 on [-1, 1]; 2 * 2 * (int_0^1 dr + int_1^100 dr / r)
        assert value == pytest.approx(4.0 * (1.0 + math.log(100.0)), rel=1e-14)
        grid = make_grid(1, 8, 4.0)
        assert build_context(grid, regularize(k, grid.spacing), 1.0).tail_estimate == math.inf


VARIABLE_ORDER_CASES = [
    pytest.param(A1, A2, dim, id=f"A{A1}-{A2}-{dim}d") for A1, A2 in ((0.3, 0.7), (0.5, 0.5), (0.1, 0.9)) for dim in (1, 2)
]
# (lo, hi, power): K_R's two shells, the half-period tails of L = 1, 4, 10, and shells straddling 1/e and e
VARIABLE_ORDER_SHELLS = [(0.0, 1.0, 1.0), (1.0, math.inf, 0.0)] + [(period / 2.0, math.inf, 0.0) for period in (1.0, 4.0, 10.0)] \
    + [(0.2, 0.5, 1.0), (2.0, 5.0, 0.0), (0.1, 10.0, 0.5), (0.3, 3.0, 0.0), (0.0, 0.3, 1.0)]


def variable_order_reference(A1, A2, dim, lo, hi, power):
    """The variable-order majorant's radial moment, tight: exact power-law moments inside [1/e, e], and
    beyond them quadrature at ``epsrel = 1e-13`` of the log pieces in ``r = e^t``, ``int |t| e^(q t) dt``."""
    from scipy import integrate

    inv_e = math.exp(-1.0)
    total = (power_law_density(A2, dim).radial_moment(max(lo, inv_e), min(hi, 1.0), power)
             + power_law_density(A1, dim).radial_moment(max(lo, 1.0), min(hi, math.e), power))
    for a, b, A in ((lo, min(hi, inv_e), A2), (max(lo, math.e), hi, A1)):
        if a < b:
            q = power - A
            ta, tb = (-math.inf if a == 0.0 else math.log(a)), (math.inf if math.isinf(b) else math.log(b))
            value, _ = integrate.quad(lambda t: abs(t) * math.exp(q * t), ta, tb, epsabs=0.0, epsrel=1e-13)
            total += (2.0 if dim == 1 else 2.0 * math.pi) * value   # |S^(N-1)| * value
    return total


def constant_order(A1, A2, dim):
    return make_variable_order(lambda s: (A2 - A1) + 0 * s, lambda s: 0 * s, lambda r: A1 + 0 * r, A1, A2, dim)


class TestVariableOrderMoments:
    @pytest.mark.parametrize("A1, A2, dim", VARIABLE_ORDER_CASES)
    def test_matches_tight_reference_and_quadrature(self, A1, A2, dim):
        k = constant_order(A1, A2, dim)
        for lo, hi, power in VARIABLE_ORDER_SHELLS:
            exact = k.moment(1.0, lo, hi, power)
            assert exact == pytest.approx(variable_order_reference(A1, A2, dim, lo, hi, power), rel=1e-12)
            assert exact == pytest.approx(quadrature_moment(k, 1.0, lo, hi, power), rel=1e-7)

    @pytest.mark.parametrize("A1, A2, dim", VARIABLE_ORDER_CASES)
    def test_raises_at_a_divergent_end(self, A1, A2, dim):
        k = constant_order(A1, A2, dim)
        for lo, hi, power in ((0.0, 1.0, 0.0), (0.0, 0.1, A2), (1.0, math.inf, 1.0), (20.0, math.inf, A1)):
            with pytest.raises(QuadratureDivergenceError):
                k.moment(1.0, lo, hi, power)
        assert k.moment(1.0, 2.0, 1.0, 0.0) == 0.0

    def test_cone_of_stated_moments_is_their_combination(self):
        k1, k2 = constant_order(0.3, 0.7, 1), make_porous_medium(power_odd(2.0), power_law_density(0.5, 1))
        combo = cone_combine(0.4, k1, 1.5, k2)
        for lo, hi, power in ((0.0, 1.0, 1.0), (0.5, math.inf, 0.0)):
            parts = 0.4 * k1.moment(2.0, lo, hi, power) + 1.5 * k2.moment(2.0, lo, hi, power)
            assert combo.moment(2.0, lo, hi, power) == parts
            assert parts == pytest.approx(quadrature_moment(combo, 2.0, lo, hi, power), rel=1e-7)

    def test_every_built_in_kernel_states_a_moment(self):
        """Every built-in kernel and a cone combination of two has a finite float ``K_R``."""
        mu = power_law_density(0.5, 1)
        kernels = [make_zero_kernel(1), make_fractional_heat(0.5), constant_order(0.3, 0.7, 1),
                   cone_combine(1.0, make_zero_kernel(1), 2.0, make_fractional_heat(0.5))]
        kernels += [make(mu) for make in DECOUPLED_FAMILIES.values()]
        for k in kernels:
            value = levy_constant(k, 1.0)
            assert type(value) is float and math.isfinite(value), k.name
        assert levy_constant(make_zero_kernel(1), 1.0) == 0.0

    def test_a_scale_beyond_the_float_range_gives_float_moments(self):
        """``F(R)`` overflows to inf: a power-law shell has an infinite moment, a bump beyond ``r0`` a zero one."""
        for mu, expected in ((power_law_density(0.5, 1), math.inf), (compact_bump_density(0.5, 1), 0.0)):
            value = make_porous_medium(power_odd(3.5), mu).moment(1e200, 1.0, math.inf, 0.0)
            assert type(value) is float and value == expected

    def test_a_kernel_must_state_its_moment(self):
        k = make_fractional_heat(0.5)
        with pytest.raises(TypeError, match="moment"):
            JumpKernel(k.name, k.dim, k.eval_fn, k.majorant_fn)


class TestSmoothRamp:
    def test_knot_values(self):
        for eps in (1.0, 0.25, 0.01):
            assert smooth_ramp(eps, eps / 2) == 0.0
            assert smooth_ramp(eps, eps) == 1.0
            assert smooth_ramp(eps, 0.75 * eps) == pytest.approx(0.5, rel=1e-15)
            assert smooth_ramp(eps, 0.0) == 0.0
            assert smooth_ramp(eps, 10 * eps) == 1.0

    def test_monotone(self):
        xs = np.linspace(0, 1.2, 500)
        ys = smooth_ramp(1.0, xs)
        assert np.all(np.diff(ys) >= 0)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                smooth_ramp(eps, 0.5)

    def test_arrays_in_any_memory_order_match_the_scalar_ramp(self):
        x = np.random.default_rng(2).uniform(0.0, 1.2, size=(3, 4, 5))
        for view in (x, x.transpose(2, 0, 1), x[:, ::2, ::-1]):
            assert smooth_ramp(1.0, view).ravel().tolist() == [smooth_ramp(1.0, z) for z in view.ravel()]


def textbook_ramp(epsilon, x):
    """The ramp as its formula reads: subtract, divide, clip, then the quintic where ``0 < t < 1``."""
    half = epsilon / 2.0
    with np.errstate(over="ignore"):   # a value near the float range overflows the division, to t = inf
        t = np.clip((np.asarray(x, dtype=float) - half) / half, 0.0, 1.0)
    return np.where((t > 0.0) & (t < 1.0), t * t * t * (t * (6.0 * t - 15.0) + 10.0), t)


def ramp_probes(epsilon):
    """0, eps/2 and eps with their neighbouring floats, points of the band, subnormals, infinities and NaNs."""
    knots = np.array([0.0, epsilon / 2.0, epsilon])
    below, above = np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)
    band = epsilon * np.linspace(0.5, 1.0, 33)
    tiny = np.array([5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)])
    special = np.array([-0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1.0])
    return np.concatenate([knots, below, above, band, tiny, -tiny, special])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("epsilon", [1.0, 1 / 64, 1 / 256, 1 / 1024])
class TestRampOracle:
    """The ramp sorts each value by two comparisons; every bit must be the textbook ramp's."""

    def test_knots_neighbours_subnormals_infinities_and_nans(self, epsilon):
        x = ramp_probes(epsilon)
        assert same_bits(smooth_ramp(epsilon, x), textbook_ramp(epsilon, x))

    def test_zero_dimensional_arrays(self, epsilon):
        for z in ramp_probes(epsilon):
            assert same_bits(smooth_ramp(epsilon, np.array(z)), textbook_ramp(epsilon, z))

    def test_three_dimensional_arrays_and_views(self, epsilon):
        rng = np.random.default_rng(24)
        x = rng.permutation(np.resize(ramp_probes(epsilon), 6 * 8 * 10)).reshape(6, 8, 10)
        spread = rng.random(x.shape) < 0.5
        x[spread] = rng.uniform(0.0, 1.5 * epsilon, size=np.count_nonzero(spread))
        for view in (x, x.transpose(2, 0, 1), x[:, ::2, ::-1], x[1::2, :, 3], x.T[::3]):
            assert same_bits(smooth_ramp(epsilon, view), textbook_ramp(epsilon, view))


class TestPairFlux:
    def test_decoupled_families_declare_one_and_entangled_kernels_none(self):
        mu = power_law_density(0.5, 1)
        declared = [make_fractional_heat(0.5), make_porous_medium(power_odd(2.0), mu),
                    make_convex_diffusion(power_abs(2.0), mu), make_p_laplacian(phi_power(3.0), mu),
                    make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), mu)]
        assert all(k.flux is not None and k.flux.mu == mu for k in declared)
        entangled = [TestVariableOrder._kernel(), make_zero_kernel(1), cone_combine(1.0, declared[0], 1.0, declared[1])]
        assert all(k.flux is None for k in entangled)


class TestRegularize:
    def test_spatial_cutoff(self):
        reg = regularize(make_fractional_heat(0.5), 0.5)
        assert reg.eval(10.0, -10.0, 0.4) == 0.0
        assert reg.eval(10.0, -10.0, 0.5) > 0.0

    def test_dead_band_in_value_difference(self):
        reg = regularize(make_porous_medium(power_odd(2.0), MU1), 0.5)
        assert reg.eval(1.0, 1.2, 1.0) == 0.0  # |a-b| = 0.2 < eps/2
        base = make_porous_medium(power_odd(2.0), MU1)
        assert reg.eval(1.0, 2.0, 1.0) == base.eval(1.0, 2.0, 1.0)  # saturated ramp

    def test_never_exceeds_base_and_inherits_axioms(self):
        base = make_porous_medium(power_odd(2.0), MU1)
        reg = regularize(base, 0.3)
        rng = np.random.default_rng(6)
        a, b = rng.uniform(-2, 2, size=(2, 3000))
        r = 10.0 ** rng.uniform(-1, 1, size=3000)
        ev_reg = reg.eval(a, b, r)
        ev_base = base.eval(a, b, r)
        assert np.all(ev_reg >= 0.0)
        assert np.all(ev_reg <= ev_base + 1e-15)
        assert np.array_equal(ev_reg, reg.eval(b, a, r))
        aa, cc, dd, bb = sample_quadruples(rng, 2.0, 3000)
        rr = 10.0 ** rng.uniform(-1, 1, size=3000)
        outer = (aa - bb) * reg.eval(aa, bb, rr)
        inner = (cc - dd) * reg.eval(cc, dd, rr)
        scale = max(1.0, float(np.max(np.abs(outer))))
        assert np.all(inner <= outer + 1e-12 * scale)

    def test_rejects_epsilon_outside_unit_interval(self):
        with pytest.raises(ValueError):
            regularize(make_fractional_heat(0.5), 1.5)


class TestRegularBoundM:
    def test_zero_kernel(self):
        g = make_grid(1, 8, 8.0)
        assert regular_bound_M(regularize(make_zero_kernel(1), 1.0), 1.0, g) == 0.0

    def test_lattice_sum_oracle(self):
        # M = 8, L = 8, h = 1, eps = 1: minimal-image distances per offset are
        # {1,2,3,4,3,2,1}; the bound is the direct sum of r^(-1.5) over those.
        g = make_grid(1, 8, 8.0)
        reg = regularize(make_fractional_heat(0.5, 1.0, dim=1), 1.0)
        direct = sum(float(d) ** -1.5 for d in offset_distances(g)[1:]) * g.spacing
        assert regular_bound_M(reg, 1.0, g) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("dim, r0_cells", [(1, 1.0), (1, 1.3), (2, 1.0), (2, 1.5)])
    def test_bounds_every_row_where_the_integral_does_not(self, dim, r0_cells):
        # With f = id the kernel is the bump itself, and eps^-1 K_R undercuts its lattice
        # rows: in 1-d with r0 = h it is h = 0.0625, and a checkerboard's rows sum to 2h.
        g = make_grid(dim, 16, 1.0)
        h = g.spacing
        reg = regularize(make_porous_medium(power_odd(1.0), compact_bump_density(r0_cells * h, dim)), h)
        ctx = build_context(g, reg, 1.0)
        bound = regular_bound_M(reg, 1.0, g)
        assert max_row_sum(ctx, sample_profile(Profile("two_level"), g)) <= bound
        spike = -np.ones(g.n_cells)
        spike[0] = 1.0   # every pair of the spike's row lies on the ramp's plateau
        assert max_row_sum(ctx, Field(g, spike)) == pytest.approx(bound, rel=1e-12)
        b1 = check_regular(reg, g, 1.0)[0]
        assert (b1.axiom, b1.verdict) == ("B1", "pass")


class TestTableFunction:
    def test_interpolation_and_slopes(self):
        f = table_function([(-1.0, -1.0), (0.0, 0.0), (1.0, 2.0)])
        assert f(0.5) == pytest.approx(1.0)
        assert f.deriv(0.5) == pytest.approx(2.0)
        assert f.deriv(-0.5) == pytest.approx(1.0)

    def test_rejects_degenerate_tables(self):
        with pytest.raises(ValueError):
            table_function([(0.0, 1.0)])
        with pytest.raises(ValueError):
            table_function([(0.0, 1.0), (0.0, 2.0)])

    # Slope 100 on [1e-4, 2e-4], a segment narrower than the spacing of a
    # 4097-point grid on [-1, 1]; elsewhere the slopes are 1 and 8e-4.
    NARROW = table_function([(-1.0, -1.0), (1e-4, 1e-4), (2e-4, 0.0101), (1.0, 0.0109)])

    def test_narrow_segment_stays_under_the_majorant(self):
        k = make_porous_medium(self.NARROW, MU1)
        value = k.eval(1.5e-4, 1.2e-4, 1.0)
        assert value == pytest.approx(100.0, rel=1e-12)
        assert value - k.majorant(1.0, 1.0) <= VIOLATION_RTOL * value

    def test_narrow_segment_row_sums_within_certified_bound(self):
        g = make_grid(1, 256, 1.0)
        reg = regularize(make_porous_medium(self.NARROW, power_law_density(0.5, dim=1)), g.spacing)
        # Neighbours 1.1 h apart straddle the steep segment, and the ramp is 1 there.
        v = sample_profile(Profile("two_level", level_a=0.0, level_b=1.1 * g.spacing), g)
        assert max_row_sum(build_context(g, reg, 1.0), v) <= regular_bound_M(reg, 1.0, g)
