"""Nonlinear nonlocal diffusion with solution-dependent jump kernels.

The initial value problem

    du/dt + L_u u = 0,      (L_v u)(x) = int [u(x) - u(y)] m(v(x), v(y); |x-y|) dy

is discretized on a periodic lattice and integrated in time.  The package
provides the admissible kernel families (fractional heat, porous medium,
convex diffusion, fractional p-laplacian, doubly nonlinear, variable
order), their epsilon-regularization, a sampling-based validator for the
admissibility conditions, and diagnostics that turn the structural
properties of the flow (mass conservation, L^p and BV decay, L^1
contraction, comparison, positivity) into testable invariants.
"""

from .axioms import AxiomReport, check_axioms, check_regular, replay_violation
from .diagnostics import (
    CheckResult,
    DiagnosticsRecord,
    check_comparison,
    check_contraction,
    check_monotone_series,
    record,
)
from .evolve import (
    SolverConfig,
    Trajectory,
    cfl_dt,
    continuation_in_epsilon,
    mollify_initial,
    run,
    step_backward_picard,
    step_explicit,
)
from .kernels import (
    JumpKernel,
    LevyDensity,
    RegularizedKernel,
    ScalarFunction,
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
    compact_bump_density,
    regular_bound_M,
    regularize,
    smooth_ramp,
    table_function,
)
from .lattice import (
    Field,
    GridSpec,
    Profile,
    bv_norm,
    make_grid,
    mass,
    norm_lp,
    sample_profile,
    shift_field,
    torus_distance,
    total_variation,
)
from .operator import (
    OperatorContext,
    apply,
    bilinear_form,
    build_context,
    kato_functional,
    max_row_sum,
)

__version__ = "0.1.0"
