"""Jump kernels: the admissible nonlinearity class and its regularization.

A jump kernel is a symmetric, non-negative weight ``m(a, b; r)`` giving the
intensity of exchange between two locations at distance ``r`` whose current
solution values are ``a`` and ``b``.  The admissible class is pinned down by
six conditions (named A1-A6 throughout the validator and reports):

A1  non-negativity,
A2  symmetry ``m(a, b; r) = m(b, a; r)``,
A3  monotonicity ``(a-b) m(a,b;r) >= (c-d) m(c,d;r)`` for ``a>=c>=d>=b``,
A4  spatial dependence through ``r = |x - y|`` only (structural here),
A5  a radial majorant ``m_R(r)`` with finite first-moment integral
    ``K_R = int (1 ^ |y|) m_R(|y|) dy``,
A6  continuity in ``(a, b)`` and local Lipschitz continuity away from the
    diagonal ``a = b``.

Concrete families are built from a scalar nonlinearity and a radial Levy
density (decoupled form ``F(a, b) * mu(r)``), plus the variable-order family
``r^(-N - Psi(|a-b|; r))`` which cannot be decoupled.  Non-negative linear
combinations stay inside the class (it is a convex cone).  The porous-medium
and p-Laplacian kernels are the identity cases (``phi = id``, ``f = id``) of
the doubly-nonlinear quotient ``[phi(f(a)-f(b))/(a-b)] mu(r)``; one evaluator
builds all three.

Every built-in kernel states the radial moments of its majorant (``K_R``
and the mass beyond the half period) in closed form: ``F(R)`` times the
density's moment for a decoupled kernel, elementary antiderivatives of
``r^q`` and ``r^q log r`` for variable order, the combined moments for a
cone combination and 0 for the zero kernel.  A :class:`JumpKernel`
cannot be built without them, so no majorant is ever integrated
numerically.

Every decoupled family also declares its pair flux (:class:`PairFlux`):
``(a - b) m(a, b; r) = N(F(a), F(b), a - b) mu(r)`` with a numerator that
needs no division, ``a - b`` (heat), ``f(a) - f(b)`` (porous medium),
``phi(a - b)`` (p-Laplacian), ``phi(f(a) - f(b))`` (doubly nonlinear) and
``(f(a) + f(b)) (a - b)`` (convex diffusion).  The flux belongs to the
kernel's ``eval_fn``: a kernel whose ``eval_fn`` is replaced (say by
``dataclasses.replace``) declares none.  The operator sums the flux when the
coefficient field is the field itself; everything else evaluates ``m``.

Regularization composes a kernel with a ramp in ``|a - b|`` and a spatial
cutoff at radius ``epsilon``.  The result has bounded rows (condition B1),
certified on the lattice by the majorant's lattice sum
(:func:`regular_bound_M`), not by ``epsilon^-1 K_R``, which a midpoint row
can exceed; and it is Lipschitz in the field arguments (B2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import GridSpec, cutoff_mask, offset_distances

__all__ = [
    "ScalarFunction",
    "LevyDensity",
    "JumpKernel",
    "RegularizedKernel",
    "QuadratureDivergenceError",
    "power_odd",
    "power_abs",
    "phi_power",
    "table_function",
    "power_law_density",
    "compact_bump_density",
    "make_fractional_heat",
    "make_porous_medium",
    "make_convex_diffusion",
    "make_p_laplacian",
    "make_doubly_nonlinear",
    "make_variable_order",
    "make_zero_kernel",
    "cone_combine",
    "smooth_ramp",
    "regularize",
    "levy_constant",
    "lattice_majorant",
    "regular_bound_M",
]

# Relative half-width of the band around a = b where decoupled difference
# quotients switch to their analytic limit (avoids catastrophic cancellation).
DIAGONAL_REL_TOL = 1e-8


# Area of the unit sphere S^(N-1): the radial reduction ``dy = |S| r^(N-1) dr``.
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi}


def _check_dimension(dim) -> None:
    """Densities and kernels exist in the dimensions of :data:`_SPHERE_AREA` alone, 1 and 2."""
    if dim not in _SPHERE_AREA:
        raise ValueError(f"unsupported dimension {dim}")


class QuadratureDivergenceError(ValueError):
    """Raised when a radial integral of a majorant diverges."""


# ---------------------------------------------------------------------------
# scalar nonlinearities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """A 1-d nonlinearity with optional derivative and ratio-limit data.

    ``deriv`` is needed when the function is used as the ``f`` of a
    difference-quotient kernel (diagonal value ``f'(a)``);
    ``ratio_limit0 = lim_{z->0} phi(z)/z`` is needed when it is used as the
    odd nonlinearity ``phi`` acting on differences.

    A custom nonlinearity is this class built directly, say
    ``ScalarFunction(kind="custom", func=..., deriv=...)``; nothing about it
    is checked.  A kernel's majorant scale is exact for a ``power_odd`` or
    ``table`` f, a ``phi_power`` phi and the convex f of convex diffusion.
    For any other f or phi, ``sup f'`` and ``sup |phi(z)/z|`` are estimates
    on a 4,097-point grid, and so are the majorant, :func:`regular_bound_M`
    and :func:`evolve.cfl_dt`; ``jumpdiff validate``'s A5 checks them.
    """

    kind: str
    param: float | None = None
    func: Callable | None = field(default=None, repr=False)
    deriv: Callable | None = field(default=None, repr=False)
    ratio_limit0: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __call__(self, z):
        return self.func(np.asarray(z, dtype=float))


def power_odd(m: float) -> ScalarFunction:
    """``a -> a |a|^(m-1)``: odd, non-decreasing, C^1 for m >= 1."""
    if m < 1:
        raise ValueError(f"power_odd requires m >= 1, got {m}")
    m = float(m)
    return ScalarFunction(
        kind="power_odd",
        param=m,
        func=lambda a: a * np.abs(a) ** (m - 1.0),
        deriv=lambda a: m * np.abs(a) ** (m - 1.0),
        ratio_limit0=1.0 if m == 1.0 else 0.0,
    )


def power_abs(m: float) -> ScalarFunction:
    """``a -> |a|^m``: convex and non-negative for m >= 1."""
    if m < 1:
        raise ValueError(f"power_abs requires m >= 1, got {m}")
    m = float(m)
    return ScalarFunction(
        kind="power_abs",
        param=m,
        func=lambda a: np.abs(a) ** m,
        deriv=lambda a: m * np.sign(a) * np.abs(a) ** (m - 1.0),
    )


def phi_power(p: float) -> ScalarFunction:
    """``z -> z |z|^(p-2)``: the odd power nonlinearity, admissible for p >= 2.

    For p < 2 the ratio ``phi(z)/z = |z|^(p-2)`` blows up at 0 and the
    resulting kernel violates the continuity part of A6; the constructor
    rejects it.
    """
    if p < 2:
        raise ValueError(f"phi_power requires p >= 2, got {p} (ratio phi(z)/z unbounded at 0)")
    p = float(p)
    return ScalarFunction(
        kind="phi_power",
        param=p,
        func=lambda z: z * np.abs(z) ** (p - 2.0),
        deriv=lambda z: (p - 1.0) * np.abs(z) ** (p - 2.0),
        ratio_limit0=1.0 if p == 2.0 else 0.0,
    )


def table_function(points) -> ScalarFunction:
    """Piecewise-linear interpolant through ``(x, y)`` breakpoints.

    The derivative is the slope of the containing segment (right-continuous
    at the nodes, clamped constant outside the table range).  No shape
    constraints are imposed; feeding a non-monotone table to a monotone
    kernel family is the standard way to exercise the validator.
    """
    pts = tuple(sorted((float(x), float(y)) for x, y in points))
    if len(pts) < 2:
        raise ValueError("table needs at least two breakpoints")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table breakpoints must have distinct x values")
    slopes = np.diff(ys) / np.diff(xs)

    def f(z):
        return np.interp(np.asarray(z, dtype=float), xs, ys)

    def df(z):
        z = np.asarray(z, dtype=float)
        idx = np.clip(np.searchsorted(xs, z, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        return np.where((z < xs[0]) | (z > xs[-1]), 0.0, out)

    return ScalarFunction(kind="table", func=f, deriv=df, table=pts)


# ---------------------------------------------------------------------------
# radial Levy densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyDensity:
    """Radial density ``mu(r)`` with a finite first moment near 0."""

    kind: str
    dim: int
    amplitude: float = 1.0
    alpha: float | None = None
    r0: float | None = None

    def __post_init__(self):
        _check_dimension(self.dim)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power_law":
            return self.amplitude * r ** (-(self.dim + self.alpha))
        # compact_bump
        return self.amplitude * (r <= self.r0).astype(float)

    @property
    def support_radius(self) -> float | None:
        return self.r0 if self.kind == "compact_bump" else None

    def radial_moment(self, lo: float, hi: float, power: float) -> float:
        """``int_lo^hi r^power mu(r) |S^(N-1)| r^(N-1) dr``, exactly.

        A power law gives ``A |S| (hi^q - lo^q) / q`` with ``q = power - alpha``
        (``log(hi / lo)`` when ``q = 0``); a compact bump clips ``hi`` at
        ``r0`` and gives a polynomial moment.  An integral that diverges at
        ``lo = 0`` or ``hi = inf`` raises :class:`QuadratureDivergenceError`.
        """
        if self.kind == "power_law":
            q = power - self.alpha
        else:
            q = power + self.dim
            hi = min(hi, self.r0)
        if hi <= lo:
            return 0.0
        if (lo == 0.0 and q <= 0.0) or (math.isinf(hi) and q >= 0.0):
            raise QuadratureDivergenceError(
                f"radial moment on [{lo}, {hi}] diverges: the {self.kind} integrand behaves like r^{q - 1:g}"
            )
        scale = self.amplitude * _SPHERE_AREA[self.dim]
        if q == 0.0:
            return scale * math.log(hi / lo)
        return scale * (hi ** q - lo ** q) / q


def power_law_density(alpha: float, dim: int, amplitude: float = 1.0) -> LevyDensity:
    """``mu(r) = C r^(-dim-alpha)``; requires ``alpha`` strictly inside (0, 1).

    ``alpha >= 1`` makes the first-moment integral near 0 divergent, so the
    constructor rejects rather than warns.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"power-law order alpha must lie in (0, 1), got {alpha}")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    return LevyDensity(kind="power_law", dim=dim, amplitude=float(amplitude), alpha=float(alpha))


def compact_bump_density(r0: float, dim: int, amplitude: float = 1.0) -> LevyDensity:
    """``mu(r) = C`` for ``r <= r0``, zero beyond; trivially integrable."""
    if r0 <= 0:
        raise ValueError("support radius r0 must be positive")
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    return LevyDensity(kind="compact_bump", dim=dim, amplitude=float(amplitude), r0=float(r0))


# ---------------------------------------------------------------------------
# jump kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairFlux:
    """A decoupled kernel as a pair flux: ``(a - b) m(a, b; r) = N(F(a), F(b), a - b) mu(r)``.

    ``cell`` is ``F``, applied once per cell (None: the identity);
    ``numerator(fa, fb, d, out)`` returns ``N`` for ``fa = F(a)``,
    ``fb = F(b)`` and ``d = a - b``, written into ``out`` unless it is ``d``
    itself (``fb`` may be ``out``, elementwise); ``mu`` is the radial density.
    """

    cell: Callable | None = field(repr=False)
    numerator: Callable = field(repr=False)
    mu: LevyDensity


@dataclass(frozen=True)
class _FluxEval:
    """An ``eval_fn`` that declares its pair flux, so that replacing the one drops the other."""

    fn: Callable
    flux: PairFlux

    def __call__(self, a, b, r):
        return self.fn(a, b, r)


@dataclass(frozen=True)
class JumpKernel:
    """Evaluator ``m(a, b; r)`` together with its radial majorant.

    ``eval`` and ``majorant`` are pure, reentrant and fully vectorized over
    broadcastable array arguments; the operator module calls them from hot
    loops.  ``dim`` is the spatial dimension baked into the radial part.
    ``moment(R, lo, hi, power)`` is the exact radial moment
    ``int_lo^hi r^power m_R(r) |S^(N-1)| r^(N-1) dr`` of the majorant as a
    Python float; it is required, and a divergent integral raises
    :class:`QuadratureDivergenceError`.
    """

    name: str
    dim: int
    eval_fn: Callable = field(repr=False)
    majorant_fn: Callable = field(repr=False)
    moment: Callable = field(repr=False)
    support_radius: float | None = None

    def __post_init__(self):
        _check_dimension(self.dim)

    def eval(self, a, b, r):
        return self.eval_fn(np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(r, dtype=float))

    def majorant(self, R: float, r):
        return self.majorant_fn(float(R), np.asarray(r, dtype=float))

    @property
    def flux(self) -> PairFlux | None:
        """The pair flux that ``eval_fn`` declares; None for entangled kernels and replaced evaluators."""
        return self.eval_fn.flux if isinstance(self.eval_fn, _FluxEval) else None


def _scaled(scale: float, values):
    """``scale * values`` with ``inf * 0 = 0``: an unbounded majorant still vanishes where its density does."""
    return scale * values if math.isfinite(scale) else np.where(np.asarray(values) == 0.0, 0.0, math.inf)


def _decoupled(name: str, eval_fn, scale, mu: LevyDensity, cell, numerator) -> JumpKernel:
    """A kernel ``F(a, b) mu(r)`` whose majorant is ``scale(R) * mu(r)``.

    ``cell`` and ``numerator`` declare its pair flux (:class:`PairFlux`).
    A scale beyond the float range is ``inf``.
    """
    def bounded_scale(R):
        with np.errstate(over="ignore"):
            try:
                return float(scale(R))
            except OverflowError:
                return math.inf

    return JumpKernel(
        name=name,
        dim=mu.dim,
        eval_fn=_FluxEval(eval_fn, PairFlux(cell, numerator, mu)),
        majorant_fn=lambda R, r: _scaled(bounded_scale(R), mu(r)),
        support_radius=mu.support_radius,
        moment=lambda R, lo, hi, power: float(_scaled(bounded_scale(R), mu.radial_moment(lo, hi, power))),
    )


def make_fractional_heat(alpha: float, amplitude: float = 1.0, dim: int = 1) -> JumpKernel:
    """Constant-in-(a, b) power-law kernel ``C r^(-dim-alpha)``.

    This is the linear model case; the induced evolution is the linear
    fractional heat flow, which makes it the reference kernel for oracle
    comparisons.
    """
    mu = power_law_density(alpha, dim, amplitude)

    def ev(a, b, r):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(r))
        return np.broadcast_to(mu(r), shape) if shape else mu(r)

    return _decoupled("fractional_heat", ev, lambda R: 1.0, mu, None, lambda fa, fb, d, out: d)


def _f_sup_deriv(f: ScalarFunction | None, R: float) -> float:
    """``sup_{|a|,|b|<=R} (f(a)-f(b))/(a-b)``: exact for power_odd and table, else a grid estimate; 1 for None."""
    if f is None:
        return 1.0
    if f.kind == "power_odd":
        return f.param * R ** (f.param - 1.0)
    if f.kind == "table":
        # Exact: f' is constant between breakpoints and right-continuous at them.
        xs = np.array([x for x, _ in f.table])
        return float(np.max(f.deriv(np.append(-R, xs[(xs >= -R) & (xs < R)]))))
    grid = np.linspace(-R, R, 4097)
    return float(np.max(f.deriv(grid)))


def _ratio_sup(phi: ScalarFunction | None, zmax: float) -> float:
    """``sup_{|z|<=zmax} |phi(z)/z|``: exact for phi_power, else a grid estimate; 1 for the identity (None)."""
    if phi is None:
        return 1.0
    lim0 = float(phi.ratio_limit0)
    if phi.kind == "phi_power":
        return max(zmax ** (phi.param - 2.0), lim0)
    zs = np.linspace(-zmax, zmax, 4097)
    zs = zs[np.abs(zs) > 1e-12]
    return max(float(np.max(np.abs(phi(zs) / zs))), lim0) if zs.size else lim0


def _quotient_kernel(name: str, f: ScalarFunction | None, phi: ScalarFunction | None, mu: LevyDensity) -> JumpKernel:
    """``[phi(f(a)-f(b))/(a-b)] mu(r)``, an ``f`` or ``phi`` of None being the identity.

    Near the diagonal the quotient is its chain limit ``ratio_limit0(phi) * f'(a)``.
    """
    label = name.replace("_", "-")
    if f is not None and f.deriv is None:
        raise ValueError(f"{label} kernel needs f with a derivative rule; {f.kind!r} has none")
    if phi is not None and phi.ratio_limit0 is None:
        raise ValueError(f"{label} kernel needs the limit of phi(z)/z at 0 (ratio_limit0)")
    lim0 = 1.0 if phi is None else float(phi.ratio_limit0)

    def numerator(fa, fb, d, out):
        """``phi(f(a) - f(b))``; an identity ``f`` or ``phi`` is skipped, not applied."""
        diff = d if f is None else np.subtract(fa, fb, out=out)
        if phi is None:
            return diff
        out[...] = phi(diff)
        return out

    def quotient(a, b):
        d = a - b
        small = np.abs(d) < DIAGONAL_REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        num = numerator(a if f is None else f(a), b if f is None else f(b), d, np.empty(np.shape(d)))
        diag = lim0 if f is None else f.deriv(a) if phi is None else lim0 * f.deriv(a)
        return np.where(small, diag, num / np.where(small, 1.0, d))

    def scale(R):
        fmax = R if f is None else float(np.max(np.abs(f(np.array([-R, 0.0, R])))))
        return _ratio_sup(phi, 2.0 * fmax) * _f_sup_deriv(f, R)

    return _decoupled(name, lambda a, b, r: quotient(a, b) * mu(r), scale, mu, f, numerator)


def make_porous_medium(f: ScalarFunction, mu: LevyDensity) -> JumpKernel:
    """Difference-quotient kernel ``[(f(a)-f(b))/(a-b)] mu(r)``.

    ``f`` must be non-decreasing and differentiable; the diagonal value is
    the analytic limit ``f'(a)``.  With ``f(a) = a|a|^(m-1)`` and a power-law
    density this is the fractional porous-medium nonlinearity.
    """
    return _quotient_kernel("porous_medium", f, None, mu)


def make_convex_diffusion(f: ScalarFunction, mu: LevyDensity) -> JumpKernel:
    """Sum-form kernel ``[f(a) + f(b)] mu(r)`` for convex non-negative ``f``."""
    if f.kind == "power_odd":
        raise ValueError("convex-diffusion kernel needs a convex non-negative f; odd powers are signed")

    def ev(a, b, r):
        return (f(a) + f(b)) * mu(r)

    def numerator(fa, fb, d, out):
        """``(f(a) + f(b)) (a - b)``."""
        np.add(fa, fb, out=out)
        return np.multiply(out, d, out=out)

    def scale(R):
        return 2.0 * float(max(f(np.asarray(R)), f(np.asarray(-R))))

    return _decoupled("convex_diffusion", ev, scale, mu, f, numerator)


def make_p_laplacian(phi: ScalarFunction, mu: LevyDensity) -> JumpKernel:
    """Kernel ``[phi(a-b)/(a-b)] mu(r)`` for odd non-decreasing ``phi``.

    Requires a finite limit of ``phi(z)/z`` at 0 (for the built-in power
    ``phi`` this means p >= 2; p = 2 reduces to the linear kernel).
    """
    return _quotient_kernel("p_laplacian", None, phi, mu)


def make_doubly_nonlinear(f: ScalarFunction, phi: ScalarFunction, mu: LevyDensity) -> JumpKernel:
    """Composed kernel ``[phi(f(a)-f(b))/(a-b)] mu(r)``.

    Reduces to the porous-medium form for ``phi = identity`` and to the
    p-laplacian form for ``f = identity``, and is built by the same evaluator
    as both.  Diagonal value is the chain limit ``ratio_limit0(phi) * f'(a)``.
    """
    return _quotient_kernel("doubly_nonlinear", f, phi, mu)


def make_variable_order(psi1, psi2, theta, A1: float, A2: float, dim: int = 1) -> JumpKernel:
    """Entangled kernel ``r^(-dim - Psi(|a-b|; r))`` with variable order.

    ``Psi(s; r) = psi1(s)`` for ``r < 1``, ``psi2(s)`` for ``r >= 1``, plus
    ``theta(r)``; ``psi1`` non-decreasing, ``psi2`` non-increasing, and the
    total order must stay inside ``[A1, A2]`` with ``0 < A1 <= A2 < 1``.
    The majorant carries a logarithmic correction:
    ``(r^(-dim-A2) 1_{r<1} + r^(-dim-A1) 1_{r>=1}) * max(1, |log r|)``.
    Its radial moments are elementary on the pieces split at ``1/e``, 1
    and ``e`` (:func:`_variable_order_moment`).
    """
    if not (0.0 < A1 <= A2 < 1.0):
        raise ValueError(f"order bounds must satisfy 0 < A1 <= A2 < 1, got A1={A1}, A2={A2}")

    def ev(a, b, r):
        s = np.abs(a - b)
        r = np.asarray(r, dtype=float)
        order = np.where(r < 1.0, psi1(s), psi2(s)) + theta(r)
        return r ** (-(dim + order))

    def maj(R, r):
        r = np.asarray(r, dtype=float)
        core = np.where(r < 1.0, r ** (-(dim + A2)), r ** (-(dim + A1)))
        with np.errstate(divide="ignore"):
            logr = np.abs(np.log(r))
        return core * np.maximum(1.0, logr)

    return JumpKernel(name="variable_order", dim=dim, eval_fn=ev, majorant_fn=maj,
                      moment=lambda R, lo, hi, power: _variable_order_moment(A1, A2, dim, lo, hi, power))


def _variable_order_moment(A1: float, A2: float, dim: int, lo: float, hi: float, power: float) -> float:
    """``int_lo^hi r^power m_R(r) |S^(N-1)| r^(N-1) dr`` for the variable-order majorant, exactly.

    The integrand is ``r^(q-1) max(1, |log r|)`` with ``q = power - A2``
    below r = 1 and ``q = power - A1`` above; on each of the pieces split
    at ``1/e``, 1 and ``e`` it is ``r^(q-1)`` or ``r^(q-1) |log r|``.  An
    integral that diverges at ``lo = 0`` (``q <= 0`` there) or
    ``hi = inf`` (``q >= 0`` there) raises :class:`QuadratureDivergenceError`.
    """
    q_in, q_out = power - A2, power - A1
    if hi <= lo:
        return 0.0
    if (lo == 0.0 and q_in <= 0.0) or (math.isinf(hi) and q_out >= 0.0):
        raise QuadratureDivergenceError(
            f"radial moment on [{lo}, {hi}] diverges: the variable-order integrand behaves like "
            f"r^{(q_in if lo == 0.0 else q_out) - 1:g} times |log r|"
        )

    def antiderivative(r, q, logged):
        """Of ``r^(q-1) log r`` (``logged``) or ``r^(q-1)``: ``r^q (log r / q - 1/q^2)`` or ``r^q / q``,
        ``(log r)^2 / 2`` or ``log r`` at q = 0; 0 at r = 0 and inf, its limit where the integral converges."""
        if r == 0.0 or math.isinf(r):
            return 0.0
        t = math.log(r)
        if q == 0.0:
            return t * t / 2.0 if logged else t
        return math.exp(q * t) * (t / q - 1.0 / (q * q) if logged else 1.0 / q)

    pieces = (   # (a, b, q, sign of log r, logged)
        (0.0, math.exp(-1.0), q_in, -1.0, True),
        (math.exp(-1.0), 1.0, q_in, 1.0, False),
        (1.0, math.e, q_out, 1.0, False),
        (math.e, math.inf, q_out, 1.0, True),
    )
    total = math.fsum(sign * (antiderivative(min(hi, b), q, logged) - antiderivative(max(lo, a), q, logged))
                      for a, b, q, sign, logged in pieces if max(lo, a) < min(hi, b))
    return _SPHERE_AREA[dim] * total


def make_zero_kernel(dim: int) -> JumpKernel:
    """The trivial kernel ``m = 0`` in dimension ``dim``; the induced flow is ``u(t) = u0``."""

    def ev(a, b, r):
        return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(r)))

    def maj(R, r):
        return np.zeros(np.shape(r))

    return JumpKernel(name="zero", dim=dim, eval_fn=ev, majorant_fn=maj, support_radius=0.0,
                      moment=lambda R, lo, hi, power: 0.0)


def cone_combine(alpha: float, k1: JumpKernel, beta: float, k2: JumpKernel) -> JumpKernel:
    """Non-negative combination ``alpha*k1 + beta*k2`` (the class is a cone)."""
    if alpha < 0 or beta < 0:
        raise ValueError("cone coefficients must be non-negative")
    if k1.dim != k2.dim:
        raise ValueError(f"cannot combine kernels of dimensions {k1.dim} and {k2.dim}")
    if k1.support_radius is None or k2.support_radius is None:
        support = None
    else:
        support = max(k1.support_radius, k2.support_radius)

    def ev(a, b, r):
        return alpha * k1.eval_fn(a, b, r) + beta * k2.eval_fn(a, b, r)

    def maj(R, r):
        return alpha * k1.majorant_fn(R, r) + beta * k2.majorant_fn(R, r)

    def moment(R, lo, hi, power):
        return alpha * k1.moment(R, lo, hi, power) + beta * k2.moment(R, lo, hi, power)

    return JumpKernel(
        name=f"cone({alpha}*{k1.name}+{beta}*{k2.name})",
        dim=k1.dim,
        eval_fn=ev,
        majorant_fn=maj,
        support_radius=support,
        moment=moment,
    )


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------


def _ramp_in_place(epsilon: float, x: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``x`` with ``smooth_ramp(epsilon, x)``.

    ``x`` must be contiguous in memory, in any axis order (as every fresh
    array is).  Two comparisons sort the values: ``x <= eps/2`` gives 0 and
    ``x >= eps`` gives 1.  Only the band left by both, ``eps/2 < x < eps``
    and NaN, takes ``t = clip((x - eps/2) / (eps/2), 0, 1)`` and the quintic,
    by index.  The result is bitwise that of the textbook ramp on every
    value: with gradual underflow ``t > 0`` exactly when ``x > eps/2``, the
    quintic is exactly 0 and 1 at ``t = 0`` and ``t = 1``, and NaN stays NaN.
    """
    half = epsilon / 2.0
    t = x.ravel(order="K")
    hi = np.greater_equal(t, epsilon)
    band = np.flatnonzero(np.equal(np.less_equal(t, half), hi))   # neither comparison holds
    tb = t[band]
    np.copyto(t, hi)
    if tb.size:
        tb -= half
        tb /= half
        np.clip(tb, 0.0, 1.0, out=tb)
        t[band] = tb * tb * tb * (tb * (6.0 * tb - 15.0) + 10.0)
    return x


def smooth_ramp(epsilon: float, x):
    """Quintic smoothstep ramp: 0 for ``x <= eps/2``, 1 for ``x >= eps``.

    C^2 at the knots, monotone in between, with value 1/2 at ``3 eps / 4``.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    out = _ramp_in_place(epsilon, np.array(x, dtype=float))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RegularizedKernel:
    """Base kernel times ``ramp(|a-b|)`` and the spatial cutoff ``r >= eps``.

    The modified kernel vanishes for ``r < eps`` or ``|a-b| <= eps/2``,
    agrees with the base kernel for ``r >= eps`` and ``|a-b| >= eps``, and
    never exceeds it.  Symmetry and monotonicity are inherited because the
    ramp is a non-decreasing function of ``|a-b|``.
    """

    base: JumpKernel
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")

    @property
    def dim(self) -> int:
        return self.base.dim

    def eval(self, a, b, r):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        r = np.asarray(r, dtype=float)
        ramp = smooth_ramp(self.epsilon, np.abs(a - b))
        active = (ramp > 0.0) & (r >= self.epsilon)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = self.base.eval_fn(a, b, r)
        # Zeroed before the product: a non-finite base value at an inactive
        # pair (say r = 0) must not become NaN; at an active one it is kept.
        out = np.where(active, raw, 0.0) * ramp
        return out if out.ndim else float(out)


def regularize(kernel: JumpKernel, epsilon: float) -> RegularizedKernel:
    """Compose a kernel with the ramp/cutoff pair at scale ``epsilon``."""
    return RegularizedKernel(base=kernel, epsilon=float(epsilon))


# ---------------------------------------------------------------------------
# Levy constant and row-sum bounds
# ---------------------------------------------------------------------------


def levy_constant(kernel, R: float) -> float:
    """First-moment integral ``K_R = int (1 ^ |y|) m_R(|y|) dy`` of the majorant over the whole space.

    The sum of two exact radial moments (``kernel.moment``), split at
    r = 1 for the weight ``1 ^ r``.  A divergent integral (e.g. a
    power-law order smuggled past the constructors) raises
    :class:`QuadratureDivergenceError`.
    """
    R = float(R)
    return kernel.moment(R, 0.0, 1.0, 1.0) + kernel.moment(R, 1.0, math.inf, 0.0)


def lattice_majorant(regkernel: RegularizedKernel, R: float, grid: GridSpec) -> np.ndarray:
    """The majorant ``m_R(r_o)`` at each flat offset ``o`` of ``lattice.cutoff_mask``'s pair set, 0 elsewhere.

    These per-offset weights are what :func:`regular_bound_M` sums and what
    the implicit solve's preconditioner takes the lattice Laplacian of.  A
    weight beyond the float range is ``inf``.
    """
    keep = cutoff_mask(grid, regkernel.epsilon)
    weights = np.zeros(grid.n_cells)
    with np.errstate(over="ignore"):
        weights[keep] = regkernel.base.majorant(R, offset_distances(grid)[keep])
    return weights


def regular_bound_M(regkernel: RegularizedKernel, R: float, grid: GridSpec) -> float:
    """Certified bound ``M_R`` on the row sums of the assembled kernel on ``grid``.

    The lattice majorant sum ``sum_o m_R(r_o) h^N`` over
    ``lattice.cutoff_mask``'s pair set (:func:`lattice_majorant`).  With
    field values in ``[-R, R]`` each kernel value is at most the majorant
    (A5) and the ramp at most 1, so this sum dominates every row.  The
    integral ``eps^-1 K_R`` of condition B1 is no such bound: a midpoint
    sum can exceed its integral.  A sum beyond the float range is ``inf``.
    Certified for every kernel that :mod:`jumpdiff.config` builds, only
    estimated for a custom f or phi (:class:`ScalarFunction`).
    """
    try:   # a term beyond the float range is inf, and so is the sum
        return float(math.fsum(lattice_majorant(regkernel, R, grid)) * grid.cell_volume)
    except OverflowError:   # finite terms whose exact sum overflows
        return math.inf
