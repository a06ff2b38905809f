from hypothesis import given
from hypothesis import strategies as st

from jumpdiff.config import (
    DiagSection,
    KernelConfig,
    ProfileConfig,
    RunConfig,
    SolverSection,
    ValidateSection,
    parse_config,
    serialize_config,
)
from jumpdiff.lattice import Profile, make_grid

numbers = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)
unit = st.floats(1e-3, 0.999)
names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


def maybe(strategy):
    return st.none() | strategy


grids = st.builds(make_grid, st.sampled_from([1, 2]), st.integers(3, 512), positive)
# The default order is left out of the text form and must come back as itself.
alphas = unit | st.just(KernelConfig().alpha)
kernels = st.one_of(
    st.builds(KernelConfig, family=st.just("fractional_heat"), alpha=alphas, amplitude=positive),
    st.builds(KernelConfig, family=st.just("porous_medium"), alpha=alphas,
              f=maybe(st.just("power_odd")), m=maybe(st.floats(1.0, 5.0))),
    st.builds(KernelConfig, family=st.just("p_laplacian"), mu=st.just("compact_bump"), alpha=alphas,
              r0=positive, p=maybe(st.floats(2.0, 6.0))),
    st.just(KernelConfig(family="zero")),
)
profiles = st.builds(
    ProfileConfig, kind=st.sampled_from(Profile._KINDS), center=maybe(numbers),
    center_y=maybe(numbers), width=maybe(positive), height=numbers, base=numbers, a=numbers,
    b=numbers, low=numbers, high=numbers, seed=st.integers(-10**6, 10**6), mollify=maybe(positive),
)
solvers = st.builds(
    SolverSection, integrator=st.sampled_from(["explicit_euler", "backward_euler_picard"]),
    t=positive, epsilon=maybe(unit), dt=maybe(positive), cfl_theta=unit, cfl_override=st.booleans(),
    picard_tol=positive, picard_max_iters=st.integers(1, 1000), snapshot_every=maybe(positive),
    eps_list=maybe(st.just("4h, 2h, h")), r=maybe(positive),
)
diags = st.builds(DiagSection, slack_norms=positive, slack_tv=positive,
                  slack_contraction=maybe(positive), slack_comparison=maybe(positive))
validates = st.builds(ValidateSection, r=positive, epsilon=unit, budget=st.integers(1000, 10**6))
configs = st.builds(
    RunConfig, grid=grids, kernel=kernels, profile=profiles,
    profile_b=st.none() | st.just(ProfileConfig()) | profiles, solver=solvers, diag=diags,
    validate=validates, output_dir=names, seed=st.integers(-10**6, 10**6), threads=st.integers(1, 64),
)


@given(configs)
def test_serialize_parse_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_all_default_profile_b_survives_round_trip():
    cfg = RunConfig(grid=make_grid(1, 16, 1.0), profile_b=ProfileConfig())
    assert parse_config(serialize_config(cfg)).profile_b == ProfileConfig()
