"""Flat ``key = value`` run configuration: parsing, validation, round trip.

The format is line-oriented UTF-8 text.  Blank lines and ``#`` comments are
ignored; every other line must read ``section.key = value`` with dotted
section prefixes (``grid.*``, ``kernel.*``, ``profile.*``, ``solver.*``,
``diag.*``, ``validate.*``, ``output.*``, ``run.*``; ``profile_b.*`` names
the second initial condition of a comparison run).  Values are integers,
floats, ``true``/``false``, or strings (quoted or bare identifiers).

Parsing collects *all* problems -- unknown keys, type mismatches, duplicate
keys (with both line numbers), constraint violations -- and reports them
together in a single :class:`ConfigError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .evolve import SolverConfig
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
    table_function,
)
from .lattice import GridSpec, Profile, make_grid

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

KERNEL_FAMILIES = (
    "fractional_heat",
    "porous_medium",
    "convex_diffusion",
    "p_laplacian",
    "doubly_nonlinear",
    "variable_order",
    "zero",
)


class ConfigError(ValueError):
    """All problems found in one parse, each tagged with a line number."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  line {ln}: {msg}" if ln else f"  {msg}" for ln, msg in self.problems)
        super().__init__(f"invalid configuration ({len(self.problems)} problem(s)):\n{lines}")


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
    threads: int = 1


# key -> (target section, attribute, type tag)
_SCHEMA: dict[str, tuple[str, str, str]] = {
    "grid.n": ("grid", "dimension", "int"),
    "grid.m": ("grid", "cells_per_axis", "int"),
    "grid.l": ("grid", "period", "float"),
    "kernel.family": ("kernel", "family", "str"),
    "kernel.alpha": ("kernel", "alpha", "float"),
    "kernel.amplitude": ("kernel", "amplitude", "float"),
    "kernel.f": ("kernel", "f", "str"),
    "kernel.m": ("kernel", "m", "float"),
    "kernel.f_table": ("kernel", "f_table", "str"),
    "kernel.p": ("kernel", "p", "float"),
    "kernel.mu": ("kernel", "mu", "str"),
    "kernel.r0": ("kernel", "r0", "float"),
    "kernel.a1": ("kernel", "a1", "float"),
    "kernel.a2": ("kernel", "a2", "float"),
    "solver.integrator": ("solver", "integrator", "str"),
    "solver.t": ("solver", "t", "float"),
    "solver.epsilon": ("solver", "epsilon", "float"),
    "solver.dt": ("solver", "dt", "float"),
    "solver.cfl_theta": ("solver", "cfl_theta", "float"),
    "solver.cfl_override": ("solver", "cfl_override", "bool"),
    "solver.picard_tol": ("solver", "picard_tol", "float"),
    "solver.picard_max_iters": ("solver", "picard_max_iters", "int"),
    "solver.snapshot_every": ("solver", "snapshot_every", "float"),
    "solver.eps_list": ("solver", "eps_list", "str"),
    "solver.r": ("solver", "r", "float"),
    "diag.slack_norms": ("diag", "slack_norms", "float"),
    "diag.slack_tv": ("diag", "slack_tv", "float"),
    "diag.slack_contraction": ("diag", "slack_contraction", "float"),
    "diag.slack_comparison": ("diag", "slack_comparison", "float"),
    "validate.r": ("validate", "r", "float"),
    "validate.epsilon": ("validate", "epsilon", "float"),
    "validate.budget": ("validate", "budget", "int"),
    "output.dir": ("top", "output_dir", "str"),
    "run.seed": ("top", "seed", "int"),
    "run.threads": ("top", "threads", "int"),
}
for _pkey, _attr in (
    ("kind", "kind"), ("center", "center"), ("center_y", "center_y"), ("width", "width"),
    ("height", "height"), ("base", "base"), ("a", "a"), ("b", "b"),
    ("low", "low"), ("high", "high"), ("seed", "seed"), ("mollify", "mollify"),
):
    _type = "str" if _pkey == "kind" else ("int" if _pkey == "seed" else "float")
    _SCHEMA[f"profile.{_pkey}"] = ("profile", _attr, _type)
    _SCHEMA[f"profile_b.{_pkey}"] = ("profile_b", _attr, _type)

_INT_RE = re.compile(r"^[+-]?\d+$")
_BOOL = {"true": True, "false": False}


def _parse_value(raw: str, type_tag: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        value: object = raw[1:-1]
    elif raw.lower() in _BOOL:
        value = _BOOL[raw.lower()]
    elif _INT_RE.match(raw):
        value = int(raw)
    else:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    if type_tag == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {raw!r}")
        return value
    if type_tag == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {raw!r}")
        return float(value)
    if type_tag == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"expected true/false, got {raw!r}")
        return value
    if not isinstance(value, str):
        value = raw
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises :class:`ConfigError` listing every problem."""
    problems: list[tuple[int | None, str]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    key_line: dict[str, int] = {}

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
            key_line[key] = ln
        except ValueError as exc:
            problems.append((ln, f"{key}: {exc}"))

    sections: dict[str, dict] = {"grid": {}, "kernel": {}, "profile": {}, "profile_b": {},
                                 "solver": {}, "diag": {}, "validate": {}, "top": {}}
    for key, value in values.items():
        section, attr, _ = _SCHEMA[key]
        sections[section][attr] = value

    def fail(key: str, msg: str):
        problems.append((key_line.get(key), msg))

    # grid is mandatory and validated by its own constructor
    grid = None
    g = sections["grid"]
    missing = [k for k in ("dimension", "cells_per_axis", "period") if k not in g]
    if missing:
        problems.append((None, "missing required grid keys: "
                         + ", ".join({"dimension": "grid.n", "cells_per_axis": "grid.m", "period": "grid.l"}[k] for k in missing)))
    else:
        try:
            grid = make_grid(g["dimension"], g["cells_per_axis"], g["period"])
        except ValueError as exc:
            fail("grid.n", f"grid: {exc}")

    try:
        kernel = KernelConfig(**sections["kernel"])
    except TypeError as exc:  # pragma: no cover - schema prevents this
        problems.append((None, str(exc)))
        kernel = KernelConfig()
    _validate_kernel(kernel, fail)

    profile = ProfileConfig(**sections["profile"])
    profile_b = ProfileConfig(**sections["profile_b"]) if sections["profile_b"] else None
    for label, pc in (("profile", profile), ("profile_b", profile_b)):
        if pc is not None and pc.kind not in Profile._KINDS:
            fail(f"{label}.kind", f"{label}.kind: unknown profile kind {pc.kind!r}")

    solver = SolverSection(**sections["solver"])
    if solver.integrator not in ("explicit_euler", "backward_euler_picard"):
        fail("solver.integrator", f"unknown integrator {solver.integrator!r}")
    if solver.t <= 0:
        fail("solver.t", f"solver.t must be positive, got {solver.t}")
    if solver.epsilon is not None and not (0.0 < solver.epsilon <= 1.0):
        fail("solver.epsilon", f"solver.epsilon must lie in (0, 1], got {solver.epsilon}")
    if solver.dt is not None and solver.dt <= 0:
        fail("solver.dt", f"solver.dt must be positive, got {solver.dt}")
    if not (0.0 < solver.cfl_theta <= 1.0):
        fail("solver.cfl_theta", f"solver.cfl_theta must lie in (0, 1], got {solver.cfl_theta}")
    if solver.picard_tol <= 0:
        fail("solver.picard_tol", "solver.picard_tol must be positive")

    diag = DiagSection(**sections["diag"])
    validate = ValidateSection(**sections["validate"])
    if validate.budget < 1000:
        fail("validate.budget", "validate.budget must be at least 1000")

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        grid=grid,
        kernel=kernel,
        profile=profile,
        profile_b=profile_b,
        solver=solver,
        diag=diag,
        validate=validate,
        output_dir=sections["top"].get("output_dir", "out"),
        seed=sections["top"].get("seed", 0),
        threads=sections["top"].get("threads", 1),
    )


def _validate_kernel(kc: KernelConfig, fail) -> None:
    if kc.family not in KERNEL_FAMILIES:
        fail("kernel.family", f"unknown kernel family {kc.family!r}")
        return
    needs_alpha = kc.family == "fractional_heat" or (
        kc.family in ("porous_medium", "convex_diffusion", "p_laplacian", "doubly_nonlinear")
        and kc.mu == "power_law"
    )
    if needs_alpha and not (0.0 < kc.alpha < 1.0):
        fail("kernel.alpha", f"kernel.alpha = {kc.alpha} violates the integrability "
             "constraint (A5): power-law order must lie in (0, 1)")
    if kc.mu not in ("power_law", "compact_bump"):
        fail("kernel.mu", f"unknown Levy density kind {kc.mu!r}")
    if kc.mu == "compact_bump" and kc.family != "fractional_heat" and kc.family != "zero" and kc.r0 is None:
        fail("kernel.r0", "compact_bump density needs kernel.r0")
    if kc.family in ("porous_medium", "doubly_nonlinear"):
        fkind = kc.f or "power_odd"
        if fkind == "power_odd" and kc.m is not None and kc.m < 1:
            fail("kernel.m", f"kernel.m = {kc.m} must be >= 1")
        if fkind == "table" and not kc.f_table:
            fail("kernel.f_table", "table nonlinearity needs kernel.f_table breakpoints")
        if fkind not in ("power_odd", "table"):
            fail("kernel.f", f"family {kc.family!r} needs a differentiable non-decreasing f; got {fkind!r}")
    if kc.family == "convex_diffusion":
        fkind = kc.f or "power_abs"
        if fkind not in ("power_abs", "table"):
            fail("kernel.f", f"convex diffusion needs a convex non-negative f; got {fkind!r}")
        if fkind == "power_abs" and kc.m is not None and kc.m < 1:
            fail("kernel.m", f"kernel.m = {kc.m} must be >= 1")
    if kc.family in ("p_laplacian", "doubly_nonlinear"):
        if kc.p is not None and kc.p < 2:
            fail("kernel.p", f"kernel.p = {kc.p} must be >= 2 (phi(z)/z unbounded at 0 otherwise)")
    if kc.family == "variable_order":
        a1 = kc.a1 if kc.a1 is not None else 0.25
        a2 = kc.a2 if kc.a2 is not None else 0.5
        if not (0.0 < a1 <= a2 < 1.0):
            fail("kernel.a1", f"variable-order bounds need 0 < a1 <= a2 < 1, got a1={a1}, a2={a2}")


def _parse_table(spec: str):
    pairs = []
    for item in spec.split(","):
        x, _, y = item.partition(":")
        pairs.append((float(x), float(y)))
    return pairs


def build_kernel(cfg: RunConfig) -> JumpKernel:
    """Construct the configured kernel for the configured grid dimension."""
    kc = cfg.kernel
    dim = cfg.grid.dimension
    if kc.family == "zero":
        return make_zero_kernel(dim)
    if kc.family == "fractional_heat":
        return make_fractional_heat(kc.alpha, kc.amplitude, dim)
    if kc.family == "variable_order":
        a1 = kc.a1 if kc.a1 is not None else 0.25
        a2 = kc.a2 if kc.a2 is not None else 0.5
        import numpy as np

        def psi1(s):
            return (a2 - a1) * (1.0 - np.exp(-np.asarray(s, dtype=float)))

        def psi2(s):
            return (a2 - a1) * np.exp(-np.asarray(s, dtype=float))

        def theta(z):
            return np.full_like(np.asarray(z, dtype=float), a1)

        return make_variable_order(psi1, psi2, theta, a1, a2, dim)

    if kc.mu == "power_law":
        mu = power_law_density(kc.alpha, dim, kc.amplitude)
    else:
        mu = compact_bump_density(kc.r0, dim, kc.amplitude)

    def make_f(default_kind: str):
        fkind = kc.f or default_kind
        if fkind == "power_odd":
            return power_odd(kc.m if kc.m is not None else 2.0)
        if fkind == "power_abs":
            return power_abs(kc.m if kc.m is not None else 2.0)
        return table_function(_parse_table(kc.f_table))

    if kc.family == "porous_medium":
        return make_porous_medium(make_f("power_odd"), mu)
    if kc.family == "convex_diffusion":
        return make_convex_diffusion(make_f("power_abs"), mu)
    if kc.family == "p_laplacian":
        return make_p_laplacian(phi_power(kc.p if kc.p is not None else 2.0), mu)
    # doubly_nonlinear
    return make_doubly_nonlinear(make_f("power_odd"), phi_power(kc.p if kc.p is not None else 2.0), mu)


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
    out = []
    for item in raw.split(","):
        item = item.strip()
        if item.endswith("h"):
            factor = item[:-1].strip()
            out.append((float(factor) if factor else 1.0) * h)
        else:
            out.append(float(item))
    return out


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

    def emit(section_name: str, obj, defaults) -> None:
        for f in fields(obj):
            v = getattr(obj, f.name)
            if v is None or v == getattr(defaults, f.name):
                continue
            key = next(k for k, (sec, attr, _) in _SCHEMA.items()
                       if sec == section_name and attr == f.name)
            lines.append(f"{key} = {_format_value(v)}")

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
    if cfg.threads != 1:
        lines.append(f"run.threads = {cfg.threads}")
    return "\n".join(lines) + "\n"
