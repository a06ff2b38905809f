"""Flat ``key = value`` run configuration: parsing, validation, round trip.

The format is line-oriented UTF-8 text.  Blank lines and ``#`` comments are
ignored; every other line must read ``section.key = value`` with dotted
section prefixes (``grid.*``, ``kernel.*``, ``profile.*``, ``solver.*``,
``diag.*``, ``validate.*``, ``output.*``, ``run.*``; ``profile_b.*`` names
the second initial condition of a comparison run).  Values are integers,
finite floats, ``true``/``false``, or strings (quoted or bare identifiers).
The keys of a section are the fields of its dataclass.

A configuration is validated by building it: the grid, the solver config,
the continuation radii, the kernel regularized at each configured radius,
each sampled profile and the axiom-check settings are made by the code a
command later runs, so each range rule is stated once, by its constructor.
Parsing collects every unknown key, type mismatch and duplicate key (with
both line numbers), plus the first constructor problem of each section, and
reports them together in a single :class:`ConfigError` (a constructor
problem is prefixed with its section, as in ``kernel: amplitude must be
positive``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .axioms import check_axiom_settings
from .evolve import SolverConfig, check_eps_list
from .kernels import (
    JumpKernel,
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
    table_function,
)
from .lattice import GridSpec, Profile, make_grid, sample_profile

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "build_kernel",
    "build_profile",
    "solver_config",
    "resolve_eps_list",
]


class ConfigError(ValueError):
    """All problems found in one parse, each tagged with a line number, in a one-line message."""

    def __init__(self, problems):
        self.problems = list(problems)
        listed = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.problems)
        super().__init__(f"invalid configuration ({len(self.problems)} problem(s)): {listed}")


@dataclass(frozen=True)
class KernelConfig:
    family: str = "fractional_heat"
    alpha: float = 0.5
    amplitude: float = 1.0
    f: str | None = None            # power_odd | power_abs | table
    m: float | None = None
    f_table: str | None = None      # "x:y, x:y, ..."
    p: float | None = None
    mu: str = "power_law"           # power_law | compact_bump
    r0: float | None = None
    a1: float | None = None         # variable-order bounds
    a2: float | None = None


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "box"
    center: float | None = None
    center_y: float | None = None
    width: float | None = None
    height: float = 1.0
    base: float = 0.0
    a: float = 1.0
    b: float = -1.0
    low: float = 0.0
    high: float = 1.0
    seed: int = 0
    mollify: float | None = None


@dataclass(frozen=True)
class SolverSection:
    integrator: str = "backward_euler_picard"
    t: float = 1.0
    epsilon: float | None = None
    dt: float | None = None
    cfl_theta: float = 0.5
    cfl_override: bool = False
    picard_tol: float = 1e-12
    picard_max_iters: int = 60
    snapshot_every: float | None = None
    eps_list: str | None = None
    r: float | None = None          # sup-norm bound; default from the profile


@dataclass(frozen=True)
class DiagSection:
    slack_norms: float = 1e-10
    slack_tv: float = 1e-9
    slack_contraction: float | None = None   # None: 2 * picard_tol * steps
    slack_comparison: float | None = None


@dataclass(frozen=True)
class ValidateSection:
    r: float = 1.0
    epsilon: float = 0.1
    budget: int = 10_000


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    kernel: KernelConfig = KernelConfig()
    profile: ProfileConfig = ProfileConfig()
    profile_b: ProfileConfig | None = None
    solver: SolverSection = SolverSection()
    diag: DiagSection = DiagSection()
    validate: ValidateSection = ValidateSection()
    output_dir: str = "out"
    seed: int = 0


_SECTIONS = (("kernel", KernelConfig), ("profile", ProfileConfig), ("profile_b", ProfileConfig),
             ("solver", SolverSection), ("diag", DiagSection), ("validate", ValidateSection))

# key -> (target section, attribute, type tag).  A section's keys are its
# dataclass fields, tagged with the first type of the annotation
# (``float | None`` -> ``float``).
_SCHEMA: dict[str, tuple[str, str, str]] = {
    "grid.n": ("grid", "dimension", "int"),
    "grid.m": ("grid", "cells_per_axis", "int"),
    "grid.l": ("grid", "period", "float"),
    "output.dir": ("top", "output_dir", "str"),
    "run.seed": ("top", "seed", "int"),
    **{f"{sec}.{f.name}": (sec, f.name, f.type.split(" |")[0]) for sec, cls in _SECTIONS for f in fields(cls)},
}

_INT_RE = re.compile(r"^[+-]?\d+$")
_BOOL = {"true": True, "false": False}


def _parse_value(raw: str, type_tag: str):
    raw = raw.strip()
    if type_tag == "str":
        quoted = len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\""
        return raw[1:-1] if quoted else raw
    if type_tag == "bool" and raw.lower() in _BOOL:
        return _BOOL[raw.lower()]
    if type_tag == "int" and _INT_RE.match(raw):
        return int(raw)
    if type_tag == "float":
        try:
            value = float(raw)   # a huge integer becomes inf, which is rejected below
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
    expected = {"bool": "true/false", "int": "an integer", "float": "a finite number"}[type_tag]
    raise ValueError(f"expected {expected}, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises :class:`ConfigError` listing every problem."""
    problems: list[tuple[int | None, str]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}

    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append((ln, f"expected 'key = value', got {line!r}"))
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            problems.append((ln, f"duplicate key {key!r} (first set on line {seen[key]})"))
            continue
        seen[key] = ln
        if key not in _SCHEMA:
            problems.append((ln, f"unknown key {key!r}"))
            continue
        _, _, type_tag = _SCHEMA[key]
        try:
            values[key] = _parse_value(raw, type_tag)
        except ValueError as exc:
            problems.append((ln, f"{key}: {exc}"))

    sections: dict[str, dict] = {"grid": {}, "top": {}, **{sec: {} for sec, _ in _SECTIONS}}
    for key, value in values.items():
        section, attr, _ = _SCHEMA[key]
        sections[section][attr] = value

    def fail(key: str, msg: str):
        problems.append((seen.get(key), msg))

    def built(section: str, build):
        """``build()``, or None after recording its ``ValueError`` as a problem of ``section``."""
        try:
            return build()
        except ValueError as exc:
            problems.append((None, f"{section}: {exc}"))
            return None

    grid = None
    g = sections["grid"]
    missing = [k for k in ("grid.n", "grid.m", "grid.l") if _SCHEMA[k][1] not in g]
    if missing:
        problems.append((None, "missing required grid keys: " + ", ".join(missing)))
    else:
        grid = built("grid", lambda: make_grid(**g))

    cfg = RunConfig(
        grid=grid,
        profile_b=ProfileConfig(**sections["profile_b"]) if sections["profile_b"] else None,
        **{sec: cls(**sections[sec]) for sec, cls in _SECTIONS if sec != "profile_b"},
        **sections["top"],
    )

    if grid is not None:
        sc = built("solver", lambda: solver_config(cfg))
        radii = [] if sc is None else [sc.epsilon]
        if cfg.solver.eps_list is not None:
            radii += built("solver", lambda: resolve_eps_list(cfg)) or []
        kernel = built("kernel", lambda: build_kernel(cfg))
        if kernel is not None:
            # Cutoff radii of a run and of a continuation, through the regularization owning their rule.
            built("kernel", lambda: [regularize(kernel, eps) for eps in radii])
        for label, pc in (("profile", cfg.profile), ("profile_b", cfg.profile_b)):
            if pc is None:
                continue
            built(label, lambda: sample_profile(build_profile(pc, grid), grid))
            if pc.mollify is not None and pc.mollify < grid.spacing:
                fail(f"{label}.mollify", f"{label}.mollify = {pc.mollify:g} is below the lattice spacing "
                                         f"grid.l / grid.m = {grid.spacing:g}")

    if cfg.solver.r is not None and cfg.solver.r <= 0:
        fail("solver.r", f"solver.r must be positive, got {cfg.solver.r}")
    built("validate", lambda: check_axiom_settings(cfg.validate.r, cfg.validate.epsilon, cfg.validate.budget,
                                                   cfg.seed))

    if problems:
        raise ConfigError(problems)
    return cfg


# The f kinds a family admits (its default first), and why.
_F_KINDS = {
    "porous_medium": (("power_odd", "table"), "a differentiable non-decreasing f"),
    "doubly_nonlinear": (("power_odd", "table"), "a differentiable non-decreasing f"),
    "convex_diffusion": (("power_abs", "table"), "a convex non-negative f"),
}


def _build_f(kc: KernelConfig):
    kinds, why = _F_KINDS[kc.family]
    fkind = kc.f or kinds[0]
    if fkind not in kinds:
        raise ValueError(f"family {kc.family!r} needs {why} (kernel.f = {' or '.join(kinds)}); got {fkind!r}")
    if fkind == "table":
        if not kc.f_table:
            raise ValueError("table nonlinearity needs kernel.f_table breakpoints")
        points = [item.split(":") for item in kc.f_table.split(",")]
        if any(len(point) != 2 for point in points):
            raise ValueError(f"f_table must read 'x:y, x:y, ...', got {kc.f_table!r}")
        return table_function([(float(x), float(y)) for x, y in points])
    m = kc.m if kc.m is not None else 2.0
    return power_odd(m) if fkind == "power_odd" else power_abs(m)


def build_kernel(cfg: RunConfig) -> JumpKernel:
    """Construct the configured kernel for the configured grid dimension.

    Raises ``ValueError`` for an unknown family or density, and for a
    setting the family's constructors do not admit.
    """
    kc = cfg.kernel
    dim = cfg.grid.dimension
    if kc.mu not in ("power_law", "compact_bump"):
        raise ValueError(f"unknown Levy density kind {kc.mu!r}")
    if kc.family == "zero":
        return make_zero_kernel(dim)
    if kc.family == "fractional_heat":
        return make_fractional_heat(kc.alpha, kc.amplitude, dim)
    if kc.family == "variable_order":
        a1 = kc.a1 if kc.a1 is not None else 0.25
        a2 = kc.a2 if kc.a2 is not None else 0.5

        def psi1(s):
            return (a2 - a1) * (1.0 - np.exp(-np.asarray(s, dtype=float)))

        def psi2(s):
            return (a2 - a1) * np.exp(-np.asarray(s, dtype=float))

        def theta(z):
            return np.full_like(np.asarray(z, dtype=float), a1)

        return make_variable_order(psi1, psi2, theta, a1, a2, dim)
    if kc.family != "p_laplacian" and kc.family not in _F_KINDS:
        raise ValueError(f"unknown kernel family {kc.family!r}")

    if kc.mu == "power_law":
        mu = power_law_density(kc.alpha, dim, kc.amplitude)
    elif kc.r0 is None:
        raise ValueError("compact_bump density needs kernel.r0")
    else:
        mu = compact_bump_density(kc.r0, dim, kc.amplitude)

    if kc.family == "porous_medium":
        return make_porous_medium(_build_f(kc), mu)
    if kc.family == "convex_diffusion":
        return make_convex_diffusion(_build_f(kc), mu)
    phi = phi_power(kc.p if kc.p is not None else 2.0)
    if kc.family == "p_laplacian":
        return make_p_laplacian(phi, mu)
    return make_doubly_nonlinear(_build_f(kc), phi, mu)


def build_profile(pc: ProfileConfig, grid: GridSpec) -> Profile:
    center = None
    if pc.center is not None:
        center = (pc.center,) if grid.dimension == 1 else (pc.center, pc.center_y if pc.center_y is not None else pc.center)
    return Profile(
        kind=pc.kind,
        center=center,
        width=pc.width,
        height=pc.height,
        base=pc.base,
        level_a=pc.a,
        level_b=pc.b,
        low=pc.low,
        high=pc.high,
        seed=pc.seed,
    )


def solver_config(cfg: RunConfig) -> SolverConfig:
    s = cfg.solver
    eps = s.epsilon if s.epsilon is not None else cfg.grid.spacing
    return SolverConfig(
        integrator=s.integrator,
        end_time=s.t,
        epsilon=eps,
        dt=s.dt,
        cfl_theta=s.cfl_theta,
        cfl_override=s.cfl_override,
        picard_tol=s.picard_tol,
        picard_max_iters=s.picard_max_iters,
        snapshot_every=s.snapshot_every,
    )


def resolve_eps_list(cfg: RunConfig) -> list[float]:
    """Continuation radii; entries like ``4h`` are multiples of the spacing."""
    h = cfg.grid.spacing
    raw = cfg.solver.eps_list
    if raw is None:
        return [4 * h, 2 * h, h]
    items = [item.strip() for item in raw.split(",")]
    return check_eps_list([float(e[:-1] or 1) * h if e.endswith("h") else float(e) for e in items], h)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(c)) == c``."""
    lines = [
        f"grid.n = {cfg.grid.dimension}",
        f"grid.m = {cfg.grid.cells_per_axis}",
        f"grid.l = {_format_value(cfg.grid.period)}",
    ]

    def emit(section: str, obj, defaults) -> None:
        for f in fields(obj):
            v = getattr(obj, f.name)
            if v is not None and v != getattr(defaults, f.name):
                lines.append(f"{section}.{f.name} = {_format_value(v)}")

    emit("kernel", cfg.kernel, KernelConfig())
    emit("profile", cfg.profile, ProfileConfig())
    if cfg.profile_b is not None:
        before = len(lines)
        emit("profile_b", cfg.profile_b, ProfileConfig())
        if len(lines) == before:
            # An all-default profile_b still has to appear to exist.
            lines.append(f"profile_b.kind = {_format_value(cfg.profile_b.kind)}")
    emit("solver", cfg.solver, SolverSection())
    emit("diag", cfg.diag, DiagSection())
    emit("validate", cfg.validate, ValidateSection())
    if cfg.output_dir != "out":
        lines.append(f'output.dir = "{cfg.output_dir}"')
    if cfg.seed != 0:
        lines.append(f"run.seed = {cfg.seed}")
    return "\n".join(lines) + "\n"
