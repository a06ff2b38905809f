"""Discrete nonlocal operator, bilinear form, and the Kato functional.

The operator acting on a field ``u`` with coefficient field ``v`` is the
pair sum

    (L_v u)_i = sum_{j != i} [u_i - u_j] * m_eps(v_i, v_j; r_ij) * h^N,

a midpoint quadrature of the continuum integral with cell centers as
nodes and minimal-image distances on the torus.  Because ``r_ij`` depends
only on the lattice offset ``i - j`` (mod M), the pair geometry is stored
once per offset; evaluation loops over offsets in chunks and is fully
vectorized over cells within a chunk.  Per-cell accumulation order is
fixed, so results are deterministic and commute bitwise with lattice
shifts.

The midpoint rule keeps every unordered pair's two contributions exact
negations of each other, which is what makes mass cancellation, the
discrete symmetrization identity and the Kato inequality hold at the
floating-point level rather than merely up to quadrature error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import QuadratureDivergenceError, RegularizedKernel, _checked_quad, _sphere_factor, levy_constant
from .lattice import Field, GridSpec, bv_norm, norm_lp, offset_distances

__all__ = [
    "OperatorContext",
    "NonFiniteKernelError",
    "EmptyNeighborhoodError",
    "build_context",
    "apply",
    "bilinear_form",
    "kato_functional",
    "l1_operator_bound_check",
    "max_row_sum",
]

# Offsets are processed in chunks of at most this many pair-rows to bound
# temporary memory at roughly chunk * n_cells floats per array.
_CHUNK_TARGET = 1_500_000
# Precomputed gather indices are cached on the context up to this budget.
_INDEX_CACHE_BYTES = 48_000_000


class NonFiniteKernelError(RuntimeError):
    """Kernel evaluation produced a non-finite value for an active pair."""


class EmptyNeighborhoodError(ValueError):
    """The cutoff radius ``epsilon`` leaves no lattice offset to sum over."""


@dataclass(frozen=True)
class OperatorContext:
    """Precomputed pair geometry for one grid/kernel/bound combination."""

    grid: GridSpec
    regkernel: RegularizedKernel
    bound_R: float
    offsets: np.ndarray = field(repr=False)      # flat lattice offsets with r >= eps
    distances: np.ndarray = field(repr=False)    # minimal-image distance per offset
    tail_estimate: float = 0.0
    _index_chunks: list | None = field(default=None, repr=False, compare=False)
    _chunk_slices: list | None = field(default=None, repr=False, compare=False)

    @property
    def epsilon(self) -> float:
        return self.regkernel.epsilon

    def iter_chunks(self):
        """Yield ``(gather_index, distances_column)`` per offset chunk."""
        if self._index_chunks is not None:
            for idx, dcol in zip(self._index_chunks, self._chunk_slices):
                yield idx, dcol
            return
        for lo in range(0, len(self.offsets), self._chunk_rows()):
            sl = slice(lo, min(lo + self._chunk_rows(), len(self.offsets)))
            yield _gather_indices(self.grid, self.offsets[sl]), self.distances[sl][:, None]

    def _chunk_rows(self) -> int:
        return max(1, _CHUNK_TARGET // self.grid.n_cells)


def _gather_indices(grid: GridSpec, offsets: np.ndarray) -> np.ndarray:
    """(n_off, n_cells) int32 map: row k, column i -> flat index of i - offset_k."""
    m = grid.cells_per_axis
    cells = np.arange(grid.n_cells, dtype=np.int64)
    if grid.dimension == 1:
        idx = (cells[None, :] - offsets[:, None]) % m
    else:
        i1, i2 = np.divmod(cells, m)
        o1, o2 = np.divmod(offsets.astype(np.int64), m)
        idx = ((i1[None, :] - o1[:, None]) % m) * m + (i2[None, :] - o2[:, None]) % m
    return idx.astype(np.int32)


def _tail_estimate(regkernel: RegularizedKernel, R: float, grid: GridSpec) -> float:
    """Majorant mass dropped beyond the half-period (minimal-image truncation)."""
    dim = grid.dimension
    surf = _sphere_factor(dim)
    half = grid.period / 2.0

    def integrand(r):
        return float(regkernel.base.majorant(R, r)) * surf(r)

    support = regkernel.base.support_radius
    upper = math.inf if support is None else support
    if upper <= half:
        return 0.0
    try:
        return _checked_quad(integrand, half, upper, "truncation tail")
    except QuadratureDivergenceError:
        return math.inf


def build_context(grid: GridSpec, regkernel: RegularizedKernel, R: float) -> OperatorContext:
    """Precompute the neighbor geometry for ``apply`` and the functionals.

    ``R`` is the sup-norm bound the kernel majorant and time-step bounds
    are certified for; callers get a warning if they later apply the
    operator to larger fields.  Offsets closer than ``epsilon`` are
    excluded (with ``epsilon < h`` the cutoff has no lattice effect, which
    is allowed but worth a warning).
    """
    if regkernel.dim is not None and regkernel.dim != grid.dimension:
        raise ValueError(f"kernel dimension {regkernel.dim} does not match grid dimension {grid.dimension}")
    if R <= 0:
        raise ValueError("bound R must be positive")
    eps = regkernel.epsilon
    h = grid.spacing
    if eps < h:
        warnings.warn(
            f"epsilon = {eps:g} is below the lattice spacing h = {h:g}; "
            "the spatial cutoff removes no pairs",
            stacklevel=2,
        )
    dists = offset_distances(grid)
    keep = dists >= eps
    keep[0] = False
    offsets = np.nonzero(keep)[0].astype(np.int64)
    if offsets.size == 0:
        raise EmptyNeighborhoodError(
            f"empty neighborhood: epsilon = {eps:g} exceeds the largest torus distance "
            f"{dists.max():g}"
        )
    distances = dists[offsets]

    ctx = OperatorContext(
        grid=grid,
        regkernel=regkernel,
        bound_R=float(R),
        offsets=offsets,
        distances=distances,
        tail_estimate=_tail_estimate(regkernel, R, grid),
    )
    # Cache gather indices when they fit the memory budget.
    if offsets.size * grid.n_cells * 4 <= _INDEX_CACHE_BYTES:
        chunks, dcols = [], []
        rows = ctx._chunk_rows()
        for lo in range(0, offsets.size, rows):
            sl = slice(lo, min(lo + rows, offsets.size))
            chunks.append(_gather_indices(grid, offsets[sl]))
            dcols.append(distances[sl][:, None])
        object.__setattr__(ctx, "_index_chunks", chunks)
        object.__setattr__(ctx, "_chunk_slices", dcols)
    return ctx


def _pair_weights(ctx: OperatorContext, v: np.ndarray, idx: np.ndarray, dcol: np.ndarray) -> np.ndarray:
    """Regularized kernel values for all pairs (rows: offsets, cols: cells)."""
    reg = ctx.regkernel
    vj = v[idx]
    ramp = np.clip((np.abs(v[None, :] - vj) - reg.epsilon / 2.0) / (reg.epsilon / 2.0), 0.0, 1.0)
    ramp = ramp * ramp * ramp * (ramp * (6.0 * ramp - 15.0) + 10.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = reg.base.eval_fn(v[None, :], vj, dcol)
    active = ramp > 0.0
    bad = active & ~np.isfinite(raw)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise NonFiniteKernelError(
            f"kernel value is not finite for pair (v_i={v[i]!r}, v_j={vj[k, i]!r}, r={float(dcol[k, 0])!r})"
        )
    return np.where(active, raw * ramp, 0.0)


def _apply_raw(ctx: OperatorContext, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Core pair sum; Kahan-compensated across chunks."""
    hn = ctx.grid.cell_volume
    acc = np.zeros(ctx.grid.n_cells)
    comp = np.zeros(ctx.grid.n_cells)
    for idx, dcol in ctx.iter_chunks():
        k = _pair_weights(ctx, v, idx, dcol)
        term = ((u[None, :] - u[idx]) * k).sum(axis=0) * hn
        # Kahan step: acc + term with carried compensation.
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


def _check_fields(ctx: OperatorContext, *fields: Field) -> None:
    for f in fields:
        if f.grid != ctx.grid:
            raise ValueError("field grid does not match operator context")
    vmax = max(float(np.max(np.abs(f.values))) for f in fields)
    if vmax > ctx.bound_R * (1.0 + 1e-12):
        warnings.warn(
            f"field sup-norm {vmax:g} exceeds the bound R = {ctx.bound_R:g} used to build "
            "the context; rebuild with a larger R for certified bounds",
            stacklevel=3,
        )


def apply(ctx: OperatorContext, v: Field, u: Field) -> Field:
    """Evaluate ``L_v u`` on the lattice.

    Constants are annihilated exactly, the total mass of the output
    vanishes up to roundoff (antisymmetric pairing), and the evaluation
    commutes bitwise with simultaneous shifts of ``v`` and ``u``.
    """
    _check_fields(ctx, v, u)
    return Field(ctx.grid, _apply_raw(ctx, v.values, u.values))


def bilinear_form(ctx: OperatorContext, v: Field, phi: Field, psi: Field) -> float:
    """Symmetrized Dirichlet form ``1/2 sum [phi_i-phi_j][psi_i-psi_j] m h^{2N}``.

    Discretely equal to ``<L_v phi, psi>`` and symmetric in ``(phi, psi)``;
    with ``phi = psi`` every term is non-negative, so the value is a sum of
    non-negative floats.
    """
    _check_fields(ctx, v, phi, psi)
    hn = ctx.grid.cell_volume
    pv, fv, sv = v.values, phi.values, psi.values
    partials = []
    for idx, dcol in ctx.iter_chunks():
        k = _pair_weights(ctx, pv, idx, dcol)
        contrib = (fv[None, :] - fv[idx]) * (sv[None, :] - sv[idx]) * k
        partials.append(math.fsum(contrib.sum(axis=0)))
    return 0.5 * math.fsum(partials) * hn * hn


def kato_functional(ctx: OperatorContext, u: Field, v: Field) -> float:
    """``sum_i [(L_u u)_i - (L_v v)_i] sgn(u_i - v_i) h^N`` with sgn(0) = 0.

    Non-negative (up to roundoff) for any kernel satisfying symmetry and
    monotonicity; this is the discrete Kato inequality that drives the
    L^1 contraction and comparison properties of the implicit scheme.
    """
    _check_fields(ctx, u, v)
    lu = _apply_raw(ctx, u.values, u.values)
    lv = _apply_raw(ctx, v.values, v.values)
    sgn = np.sign(u.values - v.values)
    return math.fsum((lu - lv) * sgn) * ctx.grid.cell_volume


def l1_operator_bound_check(ctx: OperatorContext, v: Field, u: Field) -> tuple[float, float]:
    """Return ``(||L_v u||_1, K_R * ||u||_BV)`` for the context's bound R.

    The first is never more than about 10% above the second (quadrature
    slack); equality of scales is the discrete form of the L^1 operator
    bound.
    """
    _check_fields(ctx, v, u)
    lhs = norm_lp(apply(ctx, v, u), 1)
    k_r, _ = levy_constant(ctx.regkernel.base, ctx.bound_R)
    return lhs, k_r * bv_norm(u)


def max_row_sum(ctx: OperatorContext, v: Field) -> float:
    """Largest assembled row sum ``max_i sum_j m_eps(v_i, v_j; r_ij) h^N``."""
    _check_fields(ctx, v)
    hn = ctx.grid.cell_volume
    rows = np.zeros(ctx.grid.n_cells)
    for idx, dcol in ctx.iter_chunks():
        rows += _pair_weights(ctx, v.values, idx, dcol).sum(axis=0)
    return float(rows.max()) * hn
