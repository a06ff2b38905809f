"""Flat ``key = value`` run configuration: parsing, validation, round trip.

The format is line-oriented UTF-8 text.  Blank lines and ``#`` comments are
ignored; every other line must read ``section.key = value`` with dotted
section prefixes (``grid.*``, ``kernel.*``, ``profile.*``, ``solver.*``,
``diag.*``, ``validate.*``, ``output.*``; ``profile_b.*`` names the second
initial condition of a comparison run).  Values are integers, finite
floats, ``true``/``false``, or strings (quoted or bare identifiers).
The keys of a section are the fields of its dataclass (``solver.t`` is
``end_time``).  ``solver.*`` is :class:`evolve.SolverConfig` plus the keys
that set up the operator contexts: ``epsilon``, ``eps_list`` and ``r``.
``validate.seed`` seeds the axiom sampling of ``jumpdiff validate``.

A configuration is validated by building it: the grid, the sections, the
continuation radii, the kernel regularized at each configured radius and
each sampled profile are made by the code a command later runs, so each
range rule is stated once, by its constructor.  Parsing collects every
unknown key, type mismatch and duplicate key (with both line numbers), plus
the first constructor problem of each section, and reports them together in
a single :class:`ConfigError` (a constructor problem is prefixed with its
section, as in ``kernel: amplitude must be positive``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .axioms import check_axiom_settings
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
class SolverSection(SolverConfig):
    """The solver's settings and the keys that set up its operator contexts."""

    epsilon: float | None = None    # cutoff radius; None: the lattice spacing
    eps_list: str | None = None     # continuation radii of ``converge``
    r: float | None = None          # sup-norm bound; default from the profile


@dataclass(frozen=True)
class DiagSection:
    slack_norms: float = 1e-10
    slack_tv: float = 1e-9
    slack_contraction: float | None = None   # None: 2 * picard_tol * steps
    slack_comparison: float | None = None

    def __post_init__(self):
        for f in fields(self):
            slack = getattr(self, f.name)
            if slack is not None and slack < 0:
                raise ValueError(f"{f.name} must be non-negative, got {slack}")


@dataclass(frozen=True)
class ValidateSection:
    r: float = 1.0
    epsilon: float = 0.1
    budget: int = 10_000
    seed: int = 0                   # of the axiom sampling; ``validate --seed`` overrides it

    def __post_init__(self):
        check_axiom_settings(self.r, self.epsilon, self.budget, self.seed)


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


_SECTIONS = (("kernel", KernelConfig), ("profile", ProfileConfig), ("profile_b", ProfileConfig),
             ("solver", SolverSection), ("diag", DiagSection), ("validate", ValidateSection))
# The solver keys that set up a run's contexts; SolverConfig's constructor checks the others.
_SET_UP_KEYS = {f.name for f in fields(SolverSection)} - {f.name for f in fields(SolverConfig)}

# key -> (target section, attribute, type tag).  A section's keys are its
# dataclass fields, tagged with the first type of the annotation
# (``float | None`` -> ``float``) and named after it, except that the
# solver's ``end_time`` is ``solver.t``.
_RENAMED = {"end_time": "t"}
_SCHEMA: dict[str, tuple[str, str, str]] = {
    "grid.n": ("grid", "dimension", "int"),
    "grid.m": ("grid", "cells_per_axis", "int"),
    "grid.l": ("grid", "period", "float"),
    "output.dir": ("top", "output_dir", "str"),
    **{f"{sec}.{_RENAMED.get(f.name, f.name)}": (sec, f.name, f.type.split(" |")[0])
       for sec, cls in _SECTIONS for f in fields(cls)},
}
# (section, attribute) -> key, for serialize_config.
_KEYS = {(sec, attr): key for key, (sec, attr, _) in _SCHEMA.items()}

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
        kernel=KernelConfig(**sections["kernel"]),
        profile=ProfileConfig(**sections["profile"]),
        profile_b=ProfileConfig(**sections["profile_b"]) if sections["profile_b"] else None,
        # The set-up keys alone until the section's constructor, after the grid, checks the rest.
        solver=SolverSection(**{k: v for k, v in sections["solver"].items() if k in _SET_UP_KEYS}),
        **sections["top"],
    )

    if grid is not None:
        solver = built("solver", lambda: SolverSection(**sections["solver"]))
        cfg = replace(cfg, solver=solver or cfg.solver)
        radii = [] if solver is None else [solver_config(cfg).epsilon]
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
    diag = built("diag", lambda: DiagSection(**sections["diag"]))
    validate = built("validate", lambda: ValidateSection(**sections["validate"]))

    if problems:
        raise ConfigError(problems)
    return replace(cfg, diag=diag, validate=validate)


# The f kinds a family admits (its default first), and why.
_F_KINDS = {
    "porous_medium": (("power_odd", "table"), "a differentiable non-decreasing f"),
    "doubly_nonlinear": (("power_odd", "table"), "a differentiable non-decreasing f"),
    "convex_diffusion": (("power_abs", "table"), "a convex non-negative f"),
}
_FAMILIES = ("zero", "fractional_heat", "variable_order", "p_laplacian", *_F_KINDS)

# The optional kernel keys and the families that read them.
_KEY_READERS = {
    "f": tuple(_F_KINDS),
    "m": tuple(_F_KINDS),
    "f_table": tuple(_F_KINDS),
    "p": ("p_laplacian", "doubly_nonlinear"),
    "a1": ("variable_order",),
    "a2": ("variable_order",),
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

    Raises ``ValueError`` for an unknown family or density, for a kernel
    key the kernel would ignore (set at all, or for ``alpha`` and
    ``amplitude`` set away from their defaults), and for a setting the
    family's constructors do not admit.
    """
    kc = cfg.kernel
    dim = cfg.grid.dimension
    if kc.mu not in ("power_law", "compact_bump"):
        raise ValueError(f"unknown Levy density kind {kc.mu!r}")
    if kc.family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {kc.family!r}")
    if kc.mu != "power_law" and kc.family in ("zero", "fractional_heat", "variable_order"):
        raise ValueError(f"family {kc.family!r} does not use kernel.mu (got {kc.mu!r})")
    if kc.r0 is not None and kc.mu != "compact_bump":
        raise ValueError("kernel.r0 is the support radius of kernel.mu = compact_bump, which is not set")
    unused = [key for key, readers in _KEY_READERS.items()
              if getattr(kc, key) is not None and kc.family not in readers]
    if kc.family in ("zero", "variable_order"):
        unused += [key for key in ("alpha", "amplitude") if getattr(kc, key) != getattr(KernelConfig, key)]
    if unused:
        raise ValueError(f"family {kc.family!r} does not use " + ", ".join(f"kernel.{key}" for key in unused))
    if kc.mu == "compact_bump" and kc.alpha != KernelConfig.alpha:
        raise ValueError(f"kernel.mu = compact_bump does not use kernel.alpha (got {kc.alpha!r})")
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


def solver_config(cfg: RunConfig) -> SolverSection:
    """The solver section with its cutoff radius resolved: ``solver.epsilon``, else the lattice spacing."""
    eps = cfg.solver.epsilon
    return replace(cfg.solver, epsilon=eps if eps is not None else cfg.grid.spacing)


def resolve_eps_list(cfg: RunConfig) -> list[float]:
    """Continuation radii: two or more, strictly decreasing and at least the spacing; ``4h`` is a multiple of it."""
    h = cfg.grid.spacing
    raw = cfg.solver.eps_list
    if raw is None:
        return [4 * h, 2 * h, h]
    items = [item.strip() for item in raw.split(",")]
    eps_list = [float(e[:-1] or 1) * h if e.endswith("h") else float(e) for e in items]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(e < h * (1.0 - 1e-12) for e in eps_list):
        raise ValueError("all continuation radii must be at least the lattice spacing")
    if len(eps_list) < 2:
        raise ValueError(f"eps_list needs at least two radii, got {raw!r}")
    return eps_list


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
                lines.append(f"{_KEYS[section, f.name]} = {_format_value(v)}")

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
    return "\n".join(lines) + "\n"
