import math
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jumpdiff.kernels import (
    compact_bump_density,
    make_convex_diffusion,
    make_doubly_nonlinear,
    make_fractional_heat,
    make_p_laplacian,
    make_porous_medium,
    make_zero_kernel,
    phi_power,
    power_abs,
    power_law_density,
    power_odd,
    regularize,
    table_function,
)
from jumpdiff.lattice import Field, make_grid, norm_lp, offset_distances, shift_field, torus_distance
from jumpdiff.operator import (
    NonFiniteKernelError,
    _apply_raw,
    _eval_term,
    _flux_term,
    _kahan_sum,
    _scratch,
    _worker_pays,
    apply,
    bilinear_form,
    build_context,
    kato_functional,
    max_row_sum,
)

UNIT_KERNEL = make_p_laplacian(phi_power(2.0), compact_bump_density(1e9, dim=1))


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that an apply on a large enough grid runs its worker thread on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def brute_force_apply(ctx, v, u):
    """Independent oracle: plain double loop over cell pairs."""
    g = ctx.grid
    reg = ctx.regkernel
    hn = g.cell_volume
    out = np.zeros(g.n_cells)
    for i in range(g.n_cells):
        acc = 0.0
        for j in range(g.n_cells):
            if i == j:
                continue
            r = torus_distance(g, i, j)
            if r < reg.epsilon:
                continue
            acc += (u.values[i] - u.values[j]) * float(reg.eval(v.values[i], v.values[j], r))
        out[i] = acc * hn
    return out


class TestBuildContext:
    def test_neighbor_structure_on_small_torus(self):
        g = make_grid(1, 4, 4.0)
        ctx = build_context(g, regularize(UNIT_KERNEL, 1.0), R=1.0)
        # Offsets 1 and 3 form one pair at distance 1, met once; offset 2 is its
        # own negative, met from both ends, so it carries weight 1/2.
        pairs = []
        for b in ctx.batches:
            weights = np.ones(b.r.size) if b.weight is None else b.weight.ravel()
            pairs += zip(b.r.ravel().tolist(), weights.tolist())
        assert sorted(pairs) == [(1.0, 1.0), (2.0, 0.5)]

    def test_empty_neighborhood_rejected(self):
        g = make_grid(1, 4, 4.0)  # max torus distance is 2
        # epsilon must stay in (0, 1]; use a tighter torus so 1.0 exceeds it
        g_small = make_grid(1, 4, 1.0)  # max distance 0.5
        with pytest.raises(ValueError, match="empty neighborhood"):
            build_context(g_small, regularize(UNIT_KERNEL, 1.0), R=1.0)

    def test_warns_when_epsilon_below_spacing(self):
        g = make_grid(1, 8, 8.0)
        with pytest.warns(UserWarning, match="below the lattice spacing"):
            build_context(g, regularize(UNIT_KERNEL, 0.5), R=1.0)

    def test_tail_zero_for_compactly_supported_density(self):
        g = make_grid(1, 8, 8.0)
        k = make_p_laplacian(phi_power(2.0), compact_bump_density(3.0, dim=1))
        ctx = build_context(g, regularize(k, 1.0), R=1.0)
        assert ctx.tail_estimate == 0.0

    def test_tail_positive_for_power_law(self):
        g = make_grid(1, 8, 8.0)
        ctx = build_context(g, regularize(make_fractional_heat(0.5), 1.0), R=1.0)
        # 2 * int_4^inf r^-1.5 dr = 2
        assert ctx.tail_estimate == pytest.approx(2.0, rel=1e-6)


class TestApply:
    def test_constant_field_annihilated_exactly(self):
        g = make_grid(1, 8, 8.0)
        ctx = build_context(g, regularize(make_fractional_heat(0.5), 1.0), R=5.0)
        u = Field(g, np.full(8, 3.25))
        assert np.all(apply(ctx, u, u).values == 0.0)

    def test_unit_kernel_box_example(self):
        g = make_grid(1, 4, 4.0)
        ctx = build_context(g, regularize(UNIT_KERNEL, 1.0), R=1.0)
        u = Field(g, [1.0, 0.0, 0.0, 0.0])
        out = apply(ctx, u, u)
        assert out.values.tolist() == [3.0, -1.0, -1.0, -1.0]

    # Odd and even grids (even ones have self-negative offsets such as M/2),
    # and cutoffs of several cells, which drop the nearest offsets.
    @pytest.mark.parametrize("dim,m,eps_cells", [
        pytest.param(1, 16, 2.0, id="1-16"),
        pytest.param(2, 5, 2.0, id="2-5"),
        pytest.param(1, 15, 2.0, id="1-15"),
        pytest.param(2, 8, 2.0, id="2-8"),
        pytest.param(1, 32, 3.5, id="1-32-eps3.5h"),
        pytest.param(2, 12, 3.0, id="2-12-eps3h"),
    ])
    def test_matches_brute_force_oracle(self, dim, m, eps_cells):
        g = make_grid(dim, m, 4.0)
        mu = power_law_density(0.5, dim)
        ctx = build_context(g, regularize(make_porous_medium(power_odd(2.0), mu), min(1.0, eps_cells * g.spacing)),
                            R=1.0)
        rng = np.random.default_rng(8)
        v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
        u = Field(g, rng.uniform(-1, 1, size=g.n_cells))
        got = apply(ctx, v, u).values
        want = brute_force_apply(ctx, v, u)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_output_mass_vanishes(self):
        g = make_grid(1, 64, 8.0)
        ctx = build_context(g, regularize(make_fractional_heat(0.5), g.spacing), R=1.0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            u = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            out = apply(ctx, v, u)
            scale = math.fsum(np.abs(out.values)) * g.cell_volume
            assert abs(math.fsum(out.values) * g.cell_volume) <= 1e-13 * max(1.0, scale)

    def test_translation_equivariance_bitwise(self, two_cpus):
        cases = [(make_grid(1, 32, 4.0), ((1,), (7,), (-3,))),
                 (make_grid(2, 8, 4.0), ((1, 3), (5, -2), (0, 4))),
                 (make_grid(2, 40, 4.0), ((1, 3), (17, -2)))]   # its applies run the worker thread
        for g, shifts in cases:
            k = make_porous_medium(power_odd(2.0), power_law_density(0.5, g.dimension))
            ctx = build_context(g, regularize(k, g.spacing), R=1.0)
            assert _worker_pays(ctx) == (g.cells_per_axis == 40)
            rng = np.random.default_rng(10)
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            u = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            out = apply(ctx, v, u)
            for off in shifts:
                shifted = apply(ctx, shift_field(v, off), shift_field(u, off))
                assert np.array_equal(shifted.values, shift_field(out, off).values)
            # The self-apply L_u u sums the pair flux instead.
            out = apply(ctx, u, u)
            for off in shifts:
                moved = shift_field(u, off)
                assert np.array_equal(apply(ctx, moved, moved).values, shift_field(out, off).values)

    def test_zero_kernel_gives_zero_field(self):
        g = make_grid(1, 8, 4.0)
        ctx = build_context(g, regularize(make_zero_kernel(1), 0.5), R=1.0)
        rng = np.random.default_rng(11)
        u = Field(g, rng.normal(size=8))
        with pytest.warns(UserWarning, match="exceeds the bound"):   # the coefficient field exceeds R = 1
            assert np.all(apply(ctx, u, u).values == 0.0)

    def test_warns_when_field_exceeds_bound(self):
        g = make_grid(1, 8, 4.0)
        ctx = build_context(g, regularize(make_fractional_heat(0.5), 0.5), R=1.0)
        big = Field(g, np.full(8, 2.0))
        with pytest.warns(UserWarning, match="exceeds the bound"):
            apply(ctx, big, big)


def flux_kernels(dim):
    """The five decoupled families, each of which declares a pair flux."""
    mu = power_law_density(0.5, dim)
    return {
        "heat": make_fractional_heat(0.5, dim=dim),
        "porous-m1": make_porous_medium(power_odd(1.0), mu),
        "porous-m2": make_porous_medium(power_odd(2.0), mu),
        "porous-m3.5": make_porous_medium(power_odd(3.5), mu),
        "porous-table": make_porous_medium(table_function([(-1.0, -2.0), (0.0, 0.0), (0.3, 0.1), (1.0, 1.5)]), mu),
        "p-laplacian-p2": make_p_laplacian(phi_power(2.0), mu),
        "p-laplacian-p3": make_p_laplacian(phi_power(3.0), mu),
        "doubly-nonlinear": make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), mu),
        "convex-diffusion": make_convex_diffusion(power_abs(2.0), mu),
    }


class TestSelfApply:
    """``L_u u`` sums the pair flux; it must agree with the kernel evaluated pair by pair."""

    @pytest.mark.parametrize("name", sorted(flux_kernels(1)))
    @pytest.mark.parametrize("dim, m", [(1, 15), (1, 16), (2, 6)])
    def test_matches_brute_force_oracle(self, name, dim, m):
        g = make_grid(dim, m, 4.0)
        k = flux_kernels(dim)[name]
        assert k.flux is not None
        ctx = build_context(g, regularize(k, min(1.0, 2.0 * g.spacing)), R=1.0)
        u = Field(g, np.random.default_rng(m).uniform(-1, 1, size=g.n_cells))
        got = apply(ctx, u, u).values
        want = brute_force_apply(ctx, u, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))

    def test_replaced_eval_fn_is_what_a_self_apply_evaluates(self):
        g = make_grid(1, 16, 4.0)
        k = make_porous_medium(power_odd(2.0), power_law_density(0.5, 1))
        doubled = replace(k, eval_fn=lambda a, b, r: 2.0 * k.eval_fn(a, b, r))
        assert doubled.flux is None
        ctx = build_context(g, regularize(doubled, g.spacing), R=1.0)
        u = Field(g, np.random.default_rng(3).uniform(-1, 1, size=g.n_cells))
        got = apply(ctx, u, u).values
        want = brute_force_apply(ctx, u, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        once = apply(build_context(g, regularize(k, g.spacing), R=1.0), u, u).values
        np.testing.assert_allclose(got, 2.0 * once, rtol=1e-12, atol=1e-12)

    def test_overflowing_f_of_u_raises_as_the_eval_path_does(self):
        g = make_grid(1, 16, 4.0)
        ctx = build_context(g, regularize(make_porous_medium(power_odd(3.5), power_law_density(0.5, 1)), g.spacing),
                            R=1.0)
        u = np.linspace(-1.0, 1.0, g.n_cells)
        u[5] = 1e100   # f(u) = u^3.5 overflows there
        with pytest.raises(NonFiniteKernelError) as via_eval:
            _apply_raw(ctx, u, u.copy())
        with pytest.raises(NonFiniteKernelError) as via_flux:
            _apply_raw(ctx, u, u)
        assert str(via_flux.value) == str(via_eval.value)

    @pytest.mark.parametrize("dim, m", [pytest.param(1, 16, id="16"), pytest.param(1, 1024, id="1024"),
                                        pytest.param(2, 40, id="2d-40")])   # 2d-40: the applies run the worker
    def test_overflowing_flux_sum_returns_what_the_eval_path_does(self, two_cpus, dim, m):
        # f(u) and the kernel values are finite; (u_i - u_j) m overflows on every pair of unlike signs.
        g = make_grid(dim, m, 4.0)
        k = make_porous_medium(power_odd(2.0), power_law_density(0.5, dim, amplitude=1e110))
        ctx = build_context(g, regularize(k, g.spacing), R=1.0)
        assert _worker_pays(ctx) == (dim == 2)
        u = np.where(np.arange(g.n_cells) % 3 == 0, 1e100, -1e100)
        results = []
        for v in (u.copy(), u):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append((_apply_raw(ctx, v, u), [str(w.message) for w in caught]))
        (via_eval, eval_warnings), (via_flux, flux_warnings) = results
        assert not np.isfinite(via_eval).all() and eval_warnings
        assert np.array_equal(via_flux, via_eval, equal_nan=True)
        # The flux sum warns of nothing, from either thread; the threads' warnings interleave.
        assert sorted(flux_warnings) == sorted(eval_warnings)

    def test_infinite_cell_value_returns_what_the_eval_path_does(self):
        # A table f clamps u_i = inf to a finite F(u_i): the pair flux stays finite, the eval path gives nan.
        g = make_grid(1, 16, 4.0)
        k = make_porous_medium(table_function([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)]), power_law_density(0.5, 1))
        ctx = build_context(g, regularize(k, g.spacing), R=1.0)
        u = np.linspace(0.0, 1.0, g.n_cells)
        u[3] = math.inf
        with np.errstate(all="ignore"):
            via_eval, via_flux = _apply_raw(ctx, u.copy(), u), _apply_raw(ctx, u, u)
        assert not np.isfinite(via_eval).all()
        assert np.array_equal(via_flux, via_eval, equal_nan=True)


def threaded_context(dim, m, kernel):
    g = make_grid(dim, m, 4.0)
    ctx = build_context(g, regularize(kernel, g.spacing), R=1.0)
    assert _worker_pays(ctx)
    return ctx


def one_thread_sum(ctx, term, up):
    """The per-batch terms of ``term`` Kahan-summed in batch order on the calling thread."""
    block = _scratch(ctx, 1)
    return _kahan_sum((term(b, block) for b in ctx.batches), up.shape).ravel()


# Grids whose applies run the worker thread: 21 batches of 61 K pairs.
THREADED = [
    pytest.param(2, 40, make_porous_medium(power_odd(2.0), power_law_density(0.5, 2)), id="2d-40-porous-medium"),
    pytest.param(2, 40, make_fractional_heat(0.5, dim=2), id="2d-40-fractional-heat"),
]


def unseen_distance(batches, k):
    """A torus distance of batch ``k`` that no earlier batch holds."""
    seen = {float(r) for b in batches[:k] for r in b.r.ravel()}
    return next(float(r) for r in batches[k].r.ravel() if float(r) not in seen)


class TestWorkerThread:
    """A worker thread evaluates the odd-numbered batches; the result must not change by a bit."""

    @pytest.mark.parametrize("dim, m, kernel", THREADED)
    def test_is_bitwise_the_one_thread_sum(self, two_cpus, dim, m, kernel):
        ctx = threaded_context(dim, m, kernel)
        rng = np.random.default_rng(m)
        u, v = rng.uniform(-1, 1, size=(2, ctx.grid.n_cells))
        up = u.reshape(-1, m)
        flux = kernel.flux
        fp = up if flux.cell is None else flux.cell(u).reshape(up.shape)
        threads = threading.active_count()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            via_flux = one_thread_sum(ctx, _flux_term(ctx, flux.numerator, up, fp), up)
        assert np.array_equal(_apply_raw(ctx, u, u), via_flux)
        assert np.array_equal(_apply_raw(ctx, v, u), one_thread_sum(ctx, _eval_term(ctx, v, up), up))
        assert threading.active_count() == threads

    # Odd batches are the worker's, even ones the caller's; one thread meets the first bad batch first.
    @pytest.mark.parametrize("first, later", [(3, 6), (2, 5)])
    def test_a_non_finite_pair_raises_as_one_thread_does(self, two_cpus, first, later):
        k = make_porous_medium(power_odd(2.0), power_law_density(0.5, 2))
        batches = threaded_context(2, 40, k).batches   # one batch per offset row
        bad = np.array([unseen_distance(batches, first), unseen_distance(batches, later)])
        poisoned = replace(k, eval_fn=lambda a, b, r: np.where(np.isin(r, bad), np.inf, k.eval_fn(a, b, r)))
        ctx = threaded_context(2, 40, poisoned)
        u = np.random.default_rng(4).uniform(-1, 1, size=ctx.grid.n_cells)
        with pytest.raises(NonFiniteKernelError) as one_thread:
            one_thread_sum(ctx, _eval_term(ctx, u, u.reshape(40, 40)), u.reshape(40, 40))
        assert f"r={float(bad[0])!r})" in str(one_thread.value)
        threads = threading.active_count()
        with pytest.raises(NonFiniteKernelError) as threaded:
            _apply_raw(ctx, u, u)
        assert str(threaded.value) == str(one_thread.value)
        assert threading.active_count() == threads


def row_oracle_apply(ctx, u):
    """``L_u u`` row by row: every pair of a cell evaluated by the regularized kernel at once, summed exactly."""
    g, reg = ctx.grid, ctx.regkernel
    dist = offset_distances(g).reshape(g.shape)
    out = np.empty(g.n_cells)
    for i, index in enumerate(np.ndindex(g.shape)):
        r = np.roll(dist, index, axis=tuple(range(g.dimension))).ravel()   # r[j] = |x_j - x_i| on the torus
        keep = r >= reg.epsilon
        out[i] = math.fsum((u[i] - u[keep]) * reg.eval(u[i], u[keep], r[keep])) * g.cell_volume
    return out


@pytest.fixture(params=[1, 2], ids=["one-thread", "worker"])
def cpus(request, monkeypatch):
    """One usable CPU, or two, so that an apply on a large enough grid runs its worker thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    return request.param


class TestFluxBand:
    """Batches whose pairs all skip the ramp's band, and batches whose differing pairs all lie in it."""

    @pytest.mark.parametrize("jump", [1.0, 0.7], ids=["no-pair-in-band", "every-pair-in-band"])
    @pytest.mark.parametrize("dim, m, kernel", THREADED)
    def test_box_matches_the_oracle_and_the_one_thread_sum(self, cpus, jump, dim, m, kernel):
        g = make_grid(dim, m, 4.0)
        ctx = build_context(g, regularize(kernel, g.spacing), R=1.0)
        eps = ctx.regkernel.epsilon
        # A box of height jump (1.0 >= eps) or jump * eps (in (eps/2, eps)); pairs across its edge differ by it.
        height = jump if jump >= 1.0 else jump * eps
        centers = (np.arange(m) + 0.5) / m
        inside = np.abs(centers - np.round(centers)) < 0.2   # across the wrap, on every axis
        box = inside if dim == 1 else inside[:, None] & inside[None, :]
        u = np.where(box, height, 0.0).ravel()
        in_band = eps / 2 < height < eps   # height is the only non-zero |u_i - u_j|
        assert in_band == (jump < 1.0) and (in_band or height >= eps)
        flux = kernel.flux
        up = u.reshape(-1, m)
        fp = up if flux.cell is None else flux.cell(u).reshape(up.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            one_thread = one_thread_sum(ctx, _flux_term(ctx, flux.numerator, up, fp), up)
        got = _apply_raw(ctx, u, u)
        assert _worker_pays(ctx) == (cpus == 2)
        assert np.array_equal(got, one_thread)
        want = row_oracle_apply(ctx, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestBilinearForm:
    @staticmethod
    def _ctx(m=16):
        g = make_grid(1, m, 4.0)
        k = make_porous_medium(power_odd(2.0), power_law_density(0.5, 1))
        return g, build_context(g, regularize(k, g.spacing), R=1.0)

    def test_positive_semidefinite(self):
        g, ctx = self._ctx()
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            phi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            assert bilinear_form(ctx, v, phi, phi) >= 0.0

    def test_constant_test_function_vanishes(self):
        g, ctx = self._ctx()
        rng = np.random.default_rng(13)
        v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
        phi = Field(g, np.full(g.n_cells, 2.0))
        psi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
        assert bilinear_form(ctx, v, phi, psi) == 0.0

    def test_equals_operator_inner_product(self):
        g, ctx = self._ctx()
        hn = g.cell_volume
        rng = np.random.default_rng(14)
        for _ in range(10):
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            phi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            psi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            form = bilinear_form(ctx, v, phi, psi)
            inner = math.fsum(apply(ctx, v, phi).values * psi.values) * hn
            scale = max(1.0, abs(form))
            assert abs(form - inner) <= 1e-12 * scale

    def test_discrete_l2_symmetry(self):
        g, ctx = self._ctx()
        hn = g.cell_volume
        rng = np.random.default_rng(15)
        for _ in range(10):
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            phi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            psi = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            a = math.fsum(apply(ctx, v, phi).values * psi.values) * hn
            b = math.fsum(apply(ctx, v, psi).values * phi.values) * hn
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class TestKatoFunctional:
    def test_identical_arguments_vanish(self):
        g = make_grid(1, 16, 4.0)
        ctx = build_context(g, regularize(make_porous_medium(power_odd(2.0), power_law_density(0.5, 1)), g.spacing), R=1.0)
        u = Field(g, np.random.default_rng(16).uniform(-1, 1, size=16))
        assert kato_functional(ctx, u, u) == 0.0

    def test_constant_offset_sums_to_zero(self):
        g = make_grid(1, 16, 4.0)
        ctx = build_context(g, regularize(make_porous_medium(power_odd(2.0), power_law_density(0.5, 1)), g.spacing), R=2.0)
        v = Field(g, np.random.default_rng(17).uniform(-1, 1, size=16))
        u = Field(g, v.values + 0.5)
        val = kato_functional(ctx, u, v)
        assert abs(val) <= 1e-13

    def test_nonnegative_for_random_pairs(self):
        g = make_grid(1, 32, 4.0)
        mu = power_law_density(0.5, 1)
        kernels = [
            make_fractional_heat(0.5, 1.0, 1),
            make_porous_medium(power_odd(2.0), mu),
            make_p_laplacian(phi_power(3.0), mu),
        ]
        rng = np.random.default_rng(18)
        for k in kernels:
            ctx = build_context(g, regularize(k, g.spacing), R=1.0)
            for _ in range(50):
                u = Field(g, rng.uniform(-1, 1, size=g.n_cells))
                v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
                val = kato_functional(ctx, u, v)
                lu = apply(ctx, u, u)
                lv = apply(ctx, v, v)
                scale = norm_lp(lu, 1) + norm_lp(lv, 1)
                assert val >= -1e-10 * max(1.0, scale)


class TestMaxRowSum:
    def test_bounded_by_certificate(self):
        from jumpdiff.kernels import regular_bound_M

        g = make_grid(1, 32, 4.0)
        reg = regularize(make_porous_medium(power_odd(2.0), power_law_density(0.5, 1)), g.spacing)
        ctx = build_context(g, reg, R=1.0)
        bound = regular_bound_M(reg, 1.0, g)
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = Field(g, rng.uniform(-1, 1, size=g.n_cells))
            assert max_row_sum(ctx, v) <= bound * (1 + 1e-12)
