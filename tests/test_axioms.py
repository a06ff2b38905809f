from dataclasses import replace

import numpy as np
import pytest

from jumpdiff.axioms import AxiomReport, AxiomSampling, check_axioms, check_regular, replay_violation
from jumpdiff.kernels import (
    QuadratureDivergenceError,
    ScalarFunction,
    compact_bump_density,
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
    regularize,
)
from jumpdiff.lattice import make_grid


SAMPLING = AxiomSampling(budget=2000, seed=0)


def zoo_kernels(dim=1, alpha=0.5):
    mu = power_law_density(alpha, dim)
    psi1 = lambda s: 0.25 - 0.25 * np.exp(-np.asarray(s, dtype=float))
    psi2 = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    theta = lambda z: np.full_like(np.asarray(z, dtype=float), 0.25)
    return [
        make_fractional_heat(alpha, 1.0, dim),
        make_porous_medium(power_odd(2.0), mu),
        make_convex_diffusion(power_abs(2.0), mu),
        make_p_laplacian(phi_power(3.0), mu),
        make_doubly_nonlinear(power_odd(2.0), phi_power(3.0), mu),
        make_variable_order(psi1, psi2, theta, 0.25, 0.5, dim),
    ]


def non_monotone_violator():
    """f(a) = -a smuggled past the monotonicity requirement."""
    f = ScalarFunction(kind="custom", func=lambda a: -np.asarray(a, dtype=float),
                       deriv=lambda a: -np.ones_like(np.asarray(a, dtype=float)))
    return make_porous_medium(f, compact_bump_density(1e9, dim=1))


def subquadratic_phi_violator():
    """phi(z) = z |z|^(-1/2) (p = 1.5): the ratio phi(z)/z blows up at 0."""
    p = 1.5
    phi = ScalarFunction(
        kind="custom",
        func=lambda z: np.asarray(z, dtype=float) * np.abs(z) ** (p - 2.0),
        ratio_limit0=0.0,
    )
    return make_p_laplacian(phi, compact_bump_density(1e9, dim=1))


def asymmetric_violator():
    """The fractional-heat kernel halved below the diagonal a = b: breaks symmetry A2."""
    heat = make_fractional_heat(0.5, 1.0, dim=1)
    return replace(heat, eval_fn=lambda a, b, r: np.where(a > b, 1.0, 0.5) * heat.eval_fn(a, b, r))


def non_monotone_phi_violator():
    """phi(z) = z exp(-100 z^2) falls beyond |z| = 0.07: breaks monotonicity A3."""
    phi = ScalarFunction(kind="custom", func=lambda z: z * np.exp(-100.0 * z * z), ratio_limit0=1.0)
    return make_p_laplacian(phi, compact_bump_density(1e9, dim=1))


def majorant_violator():
    """Twice the fractional-heat kernel under its majorant: breaks domination A5."""
    heat = make_fractional_heat(0.5, 1.0, dim=1)
    return replace(heat, eval_fn=lambda a, b, r: 2.0 * heat.eval_fn(a, b, r))


def by_axiom(reports):
    return {r.axiom: r for r in reports}


class TestZooPasses:
    @pytest.mark.parametrize("idx", range(6))
    def test_zoo_kernel_passes_all_axioms(self, idx):
        k = zoo_kernels()[idx]
        reports = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))
        failed = [a for a, r in reports.items() if r.verdict != "pass"]
        assert not failed, f"{k.name}: unexpected verdicts {failed}"


class TestPlantedViolators:
    def test_non_monotone_f_fails_a1_with_witness(self):
        k = non_monotone_violator()
        reports = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))
        r = reports["A1"]
        assert r.verdict == "fail"
        assert replay_violation(k, r) > r.tolerance

    def test_subquadratic_phi_fails_a6_with_witness(self):
        k = subquadratic_phi_violator()
        reports = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))
        r = reports["A6"]
        assert r.verdict == "fail"
        assert replay_violation(k, r) > 1.0  # ratio far above any bounded constant

    @pytest.mark.parametrize("make, axiom", [
        (asymmetric_violator, "A2"),
        (non_monotone_phi_violator, "A3"),
        (majorant_violator, "A5"),
    ])
    def test_planted_violation_replays_above_tolerance(self, make, axiom):
        k = make()
        r = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))[axiom]
        assert r.verdict == "fail"
        assert replay_violation(k, r) > r.tolerance


def divergent_moment_violator():
    """The fractional-heat kernel with a majorant whose Levy integral diverges: fails A5 without a sample."""
    def moment(R, lo, hi, power):
        raise QuadratureDivergenceError("radial moment diverges")

    return replace(make_fractional_heat(0.5, 1.0, dim=1), moment=moment)


class TestReplayWithoutASample:
    def test_a_report_without_a_witness_replays_to_zero(self):
        assert replay_violation(make_zero_kernel(1), AxiomReport("A1", "pass", 0.0, 0.0)) == 0.0

    def test_a_divergent_levy_integral_replays_to_inf(self):
        k = divergent_moment_violator()
        r = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))["A5"]
        assert (r.verdict, r.worst_violation, r.witness) == ("fail", np.inf, {"reason": "divergent Levy integral"})
        assert replay_violation(k, r) == np.inf


PLANTED_VIOLATORS = (non_monotone_violator, subquadratic_phi_violator, asymmetric_violator,
                     non_monotone_phi_violator, majorant_violator)


@pytest.mark.parametrize("seed", [0, 5])
def test_failures_replay_to_their_worst_violation(seed):
    """Replay evaluates the very measure the check took the worst of, at the witness."""
    failed = set()
    for make in PLANTED_VIOLATORS:
        k = make()
        for r in check_axioms(k, R=1.0, epsilon=0.1, sampling=AxiomSampling(2000, seed)):
            if r.verdict == "fail" and r.axiom in ("A1", "A2", "A3", "A5"):
                failed.add(r.axiom)
                assert replay_violation(k, r) == pytest.approx(r.worst_violation, rel=1e-12), (k.name, r.axiom)
    assert failed == {"A1", "A2", "A3", "A5"}
    k = make_fractional_heat(0.5, 1.0, dim=1)
    r = by_axiom(check_regular(k, make_grid(1, 16, 4.0), R=1.0, seed=seed))["B1"]
    assert r.verdict == "fail"
    assert replay_violation(k, r) == pytest.approx(r.worst_violation, rel=1e-12)


class TestDeterminismAndNesting:
    def test_same_seed_same_reports(self):
        k = zoo_kernels()[1]
        r1 = check_axioms(k, R=1.0, epsilon=0.1, sampling=AxiomSampling(1500, 9))
        r2 = check_axioms(k, R=1.0, epsilon=0.1, sampling=AxiomSampling(1500, 9))
        assert r1 == r2

    def test_worst_violation_monotone_in_budget(self):
        k = non_monotone_violator()
        worsts = []
        for budget in (1000, 2000, 4000):
            reports = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=AxiomSampling(budget, 3)))
            worsts.append(reports["A1"].worst_violation)
        assert worsts[0] <= worsts[1] <= worsts[2]


class TestCheckRegular:
    def test_zero_kernel_bound_zero_pass(self):
        g = make_grid(1, 16, 4.0)
        reports = by_axiom(check_regular(regularize(make_zero_kernel(1), 0.25), g, R=1.0, seed=0))
        assert reports["B1"].verdict == "pass"
        assert reports["B1"].estimate == 0.0
        assert reports["B2"].verdict == "pass"

    def test_fractional_heat_rows_below_certified_bound(self):
        g = make_grid(1, 32, 4.0)
        eps = g.spacing
        reg = regularize(make_fractional_heat(0.5, 1.0, dim=1), eps)
        reports = by_axiom(check_regular(reg, g, R=1.0, seed=1))
        assert reports["B1"].verdict == "pass"
        assert reports["B2"].verdict == "pass"
        assert np.isfinite(reports["B2"].estimate)

    def test_regularized_b1_failure_replays_its_worst_violation(self):
        g = make_grid(1, 32, 1.0)
        reg = regularize(majorant_violator(), 2 * g.spacing)
        r = by_axiom(check_regular(reg, g, R=1.0, seed=0))["B1"]
        assert r.verdict == "fail" and r.worst_violation > 1e6 * r.tolerance
        assert replay_violation(reg, r) == pytest.approx(r.worst_violation, rel=1e-12)

    def test_bare_singular_kernel_fails_b1_under_refinement(self):
        g = make_grid(1, 16, 4.0)
        k = make_fractional_heat(0.5, 1.0, dim=1)
        reports = by_axiom(check_regular(k, g, R=1.0, seed=2))
        r = reports["B1"]
        assert r.verdict == "fail"
        assert replay_violation(k, r) >= r.tolerance

    def test_bare_integrable_kernel_passes_b1(self):
        g = make_grid(1, 16, 4.0)
        k = make_p_laplacian(phi_power(2.0), compact_bump_density(1.0, dim=1))
        reports = by_axiom(check_regular(k, g, R=1.0, seed=2))
        assert reports["B1"].verdict == "pass"


def nan_above_half():
    """The fractional-heat kernel, NaN wherever a value exceeds 1/2."""
    heat = make_fractional_heat(0.5, 1.0, dim=1)
    return replace(heat, eval_fn=lambda a, b, r: np.where(np.maximum(a, b) > 0.5, np.nan, heat.eval_fn(a, b, r)))


class TestNonFiniteKernel:
    def test_sampled_axioms_are_inconclusive_at_a_nan_sample(self):
        reports = by_axiom(check_axioms(nan_above_half(), R=1.0, epsilon=0.1, sampling=SAMPLING))
        for axiom in ("A1", "A2", "A5"):
            r = reports[axiom]
            assert (r.verdict, r.worst_violation, r.tolerance, r.detail) == ("inconclusive", np.inf, 0.0,
                                                                             "non-finite value")
            assert max(r.witness["a"], r.witness["b"]) > 0.5   # the witness is a NaN sample
        assert not any(r.passed for r in reports.values() if r.axiom != "A4")

    def test_a6_is_inconclusive_at_a_non_finite_probe_value(self):
        """NaN below half the A6 margin: the sampled ratios, all at |a - b| >= 0.1, stay finite; the probe's do not."""
        heat = make_fractional_heat(0.5, 1.0, dim=1)
        k = replace(heat, eval_fn=lambda a, b, r: np.where(np.abs(a - b) < 0.05, np.nan, heat.eval_fn(a, b, r)))
        a6 = by_axiom(check_axioms(k, R=1.0, epsilon=0.1, sampling=SAMPLING))["A6"]
        assert (a6.verdict, a6.worst_violation, a6.witness, a6.detail) == (
            "inconclusive", np.inf, None, "non-finite probe value")

    def test_b2_is_inconclusive_on_a_non_finite_difference(self):
        b2 = by_axiom(check_regular(nan_above_half(), make_grid(1, 16, 1.0), R=1.0, seed=0))["B2"]
        assert (b2.verdict, b2.worst_violation, b2.witness, b2.detail) == (
            "inconclusive", np.inf, None, "non-finite kernel difference")
