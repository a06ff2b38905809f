"""Flat ``key = value`` run configuration: parsing, validation, round trip.

The format is line-oriented UTF-8 text.  Blank lines and ``#`` comments are
ignored; every other line must read ``section.key = value`` with dotted
section prefixes (``grid.*``, ``kernel.*``, ``profile.*``, ``solver.*``,
``validate.*``, ``output.*``; ``profile_b.*`` names the second initial
condition of a comparison run).  Values are integers, finite
floats, ``true``/``false``, or strings (quoted or bare identifiers).
The keys of a section are the fields of its dataclass (``solver.t`` is
``end_time``, ``profile.a`` and ``profile.b`` are ``level_a`` and
``level_b``).  ``kernel.*`` is :class:`KernelConfig`.  ``profile.*`` and
``profile_b.*`` are :class:`lattice.Profile` plus ``mollify``.
``solver.*`` is :class:`evolve.SolverConfig` plus the keys that set up the
operator contexts: ``epsilon``, ``eps_list`` and ``r``.  ``validate.*`` is
:class:`axioms.AxiomSampling`, the sampling budget and seed of
``jumpdiff validate``; the range and cutoff radius it checks are the
run's, and the slacks of the structural checks follow from the run too, so
no key states them.

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

from .axioms import AxiomSampling
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
class ProfileSection(Profile):
    """An initial condition and the width of the mollifier applied to it."""

    mollify: float | None = None    # None: the sampled profile as it is


@dataclass(frozen=True)
class SolverSection(SolverConfig):
    """The solver's settings and the keys that set up its operator contexts."""

    epsilon: float | None = None    # cutoff radius; None: the lattice spacing
    eps_list: str | None = None     # continuation radii of ``converge``
    r: float | None = None          # sup-norm bound; default from the profile


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    kernel: KernelConfig = KernelConfig()
    profile: ProfileSection = ProfileSection()
    profile_b: ProfileSection | None = None
    solver: SolverSection = SolverSection()
    validate: AxiomSampling = AxiomSampling()
    output_dir: str = "out"


_SECTIONS = (("kernel", KernelConfig), ("profile", ProfileSection), ("profile_b", ProfileSection),
             ("solver", SolverSection), ("validate", AxiomSampling))
# The solver keys that set up a run's contexts; SolverConfig's constructor checks the others.
_SET_UP_KEYS = {f.name for f in fields(SolverSection)} - {f.name for f in fields(SolverConfig)}

# key -> (target section, attribute, type tag).  A section's keys are its
# dataclass fields, tagged with the first type of the annotation
# (``float | None`` -> ``float``) and named after it, except that the
# solver's ``end_time`` is ``solver.t`` and a profile's ``level_a``/``level_b`` are its ``a``/``b``.
_RENAMED = {"end_time": "t", "level_a": "a", "level_b": "b"}
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

    solver = built("solver", lambda: SolverSection(**sections["solver"]))
    # The keys of each configured profile section; it is built below, with the grid it samples on.
    profiles = {label: sections[label] for label in ("profile", "profile_b") if label == "profile" or sections[label]}
    cfg = RunConfig(
        grid=grid,
        kernel=KernelConfig(**sections["kernel"]),
        # Where the section's constructor failed, its set-up keys still set up the radii checked below.
        solver=solver or SolverSection(**{k: v for k, v in sections["solver"].items() if k in _SET_UP_KEYS}),
        **sections["top"],
    )

    if grid is not None:
        radii = [solver_config(cfg).epsilon]
        if cfg.solver.eps_list is not None:
            radii += built("solver", lambda: resolve_eps_list(cfg)) or []
        kernel = built("kernel", lambda: build_kernel(cfg))
        if kernel is not None:
            # Cutoff radii of a run and of a continuation, through the regularization owning their rule.
            built("kernel", lambda: [regularize(kernel, eps) for eps in radii])
        for label, values in profiles.items():
            built(label, lambda: sample_profile(build_profile(ProfileSection(**values), grid, label), grid))
            mollify = values.get("mollify")
            if mollify is not None and mollify < grid.spacing:
                fail(f"{label}.mollify", f"{label}.mollify = {mollify:g} is below the lattice spacing "
                                         f"grid.l / grid.m = {grid.spacing:g}")

    if cfg.solver.r is not None and cfg.solver.r <= 0:
        fail("solver.r", f"solver.r must be positive, got {cfg.solver.r}")
    validate = built("validate", lambda: AxiomSampling(**sections["validate"]))

    if problems:
        raise ConfigError(problems)
    return replace(cfg, **{label: ProfileSection(**values) for label, values in profiles.items()}, validate=validate)


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

# The profile keys that some kinds ignore, and the kinds that read them; every kind reads ``mollify``.
_PROFILE_KEY_READERS = {
    **dict.fromkeys(("center", "center_y", "width", "height", "base"), ("box", "smooth_bump")),
    **dict.fromkeys(("level_a", "level_b"), ("step", "two_level")),
    **dict.fromkeys(("low", "high", "seed"), ("random_bv",)),
}


def _build_f(kc: KernelConfig):
    """The configured nonlinearity; a table reads ``kernel.f_table`` alone, a power ``kernel.m`` alone."""
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
        f = table_function([(float(x), float(y)) for x, y in points])
    else:
        f = (power_odd if fkind == "power_odd" else power_abs)(kc.m if kc.m is not None else 2.0)
    unused = "m" if fkind == "table" else "f_table"
    if getattr(kc, unused) is not None:
        raise ValueError(f"kernel.f = {fkind} does not use kernel.{unused}")
    return f


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


def build_profile(pc: ProfileSection, grid: GridSpec, label: str = "profile") -> ProfileSection:
    """``pc`` once it sets no key that ``grid`` or its kind does not read.

    ``center_y`` is refused on a 1-d grid, and so is a key that the profile
    kind does not read (:data:`_PROFILE_KEY_READERS`), counted as set when it
    differs from its default.  ``label``, ``profile`` or ``profile_b``, names
    the section in the message.
    """
    if pc.center_y is not None and grid.dimension == 1:
        raise ValueError("center_y is the y coordinate of a 2-d centre; grid.n = 1")
    unused = [_KEYS[label, key] for key, readers in _PROFILE_KEY_READERS.items()
              if pc.kind not in readers and getattr(pc, key) != getattr(Profile, key)]
    if unused:
        raise ValueError(f"kind {pc.kind!r} does not use " + ", ".join(unused))
    return pc


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
    emit("profile", cfg.profile, ProfileSection())
    if cfg.profile_b is not None:
        before = len(lines)
        emit("profile_b", cfg.profile_b, ProfileSection())
        if len(lines) == before:
            # An all-default profile_b still has to appear to exist.
            lines.append(f"profile_b.kind = {_format_value(cfg.profile_b.kind)}")
    emit("solver", cfg.solver, SolverSection())
    emit("validate", cfg.validate, AxiomSampling())
    if cfg.output_dir != "out":
        lines.append(f'output.dir = "{cfg.output_dir}"')
    return "\n".join(lines) + "\n"
