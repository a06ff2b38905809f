"""Discrete nonlocal operator, bilinear form, and the Kato functional.

The operator acting on a field ``u`` with coefficient field ``v`` is the
pair sum

    (L_v u)_i = sum_{j != i} [u_i - u_j] * m_eps(v_i, v_j; r_ij) * h^N,

a midpoint quadrature of the continuum integral with cell centers as
nodes and minimal-image distances on the torus.  Because ``r_ij`` depends
only on the lattice offset ``i - j`` (mod M), the pair geometry is stored
once per offset.

Each unordered pair is evaluated once: for one offset ``o`` of every pair
``o, -o`` the value ``f_i = (u_i - u_{i+o}) m_eps(v_i, v_{i+o}; r_o)`` is
added at ``i`` and subtracted at ``i + o`` (an offset that is its own
negative meets its pairs from both ends and gets weight 1/2).  Neighbors
and the subtraction are strided views (``lattice.neighbor_windows``), so
no index array is built.  Batches of offsets are vectorized over cells and
Kahan-summed in a fixed order, so results are deterministic and commute
bitwise with lattice shifts.  Both contributions of a pair come from one
evaluation and are exact negations of each other by construction, which
is what makes mass cancellation, the discrete symmetrization identity and
the Kato inequality hold at the floating-point level rather than merely
up to quadrature error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import QuadratureDivergenceError, RegularizedKernel, levy_constant, majorant_moment
from .lattice import Field, GridSpec, bv_norm, neighbor_windows, norm_lp, offset_distances

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

# Offset batches hold at most this many pairs.  At 2^16 pairs a batch's
# temporaries stay within a core's L2 cache; 1.5 M-pair batches made a
# 1-d M=1024 porous-medium apply about 2x slower.
_CHUNK_TARGET = 65_536


class NonFiniteKernelError(RuntimeError):
    """Kernel evaluation produced a non-finite value for an active pair."""


class EmptyNeighborhoodError(ValueError):
    """The cutoff radius ``epsilon`` leaves no lattice offset to sum over."""


class _Batch(NamedTuple):
    """Consecutive lattice offsets ``(row, c)``, ``c`` in ``cols``, of the offset plane."""

    row: int
    cols: slice
    r: np.ndarray               # (n, 1, 1) torus distance per offset
    weight: np.ndarray | None   # (n, 1, 1) pair weight, 1/2 on self-negative offsets; None if all 1


@dataclass(frozen=True)
class OperatorContext:
    """Precomputed pair geometry for one grid/kernel/bound combination."""

    grid: GridSpec
    regkernel: RegularizedKernel
    bound_R: float
    offsets: np.ndarray = field(repr=False)      # flat lattice offsets with r >= eps
    distances: np.ndarray = field(repr=False)    # minimal-image distance per offset
    batches: tuple = field(repr=False, compare=False)    # _Batch tuple: one of each offset pair +-o
    tail_estimate: float = 0.0

    @property
    def epsilon(self) -> float:
        return self.regkernel.epsilon


def _plane(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Flat cell (or offset) values as a 2-d array: ``(1, M)`` in 1-d, ``(m, m)`` in 2-d."""
    return x.reshape(-1, grid.cells_per_axis)


def _offset_batches(grid: GridSpec, keep: np.ndarray, half: bool) -> tuple:
    """Batches of the flat offsets where ``keep`` holds, row by row of the offset plane.

    With ``half`` only one offset of each pair ``o, -o`` is kept: rows up to
    the middle one, and in the first and middle rows columns up to the
    middle one.  Offsets that are their own negative get pair weight 1/2.
    """
    m = grid.cells_per_axis
    keep = _plane(grid, keep)
    dists = _plane(grid, offset_distances(grid))
    rows = keep.shape[0]
    per_batch = max(1, _CHUNK_TARGET // grid.n_cells)
    batches = []
    for row in range(rows // 2 + 1 if half else rows):
        mirrored = half and 2 * row % rows == 0
        cols = np.nonzero(keep[row, :m // 2 + 1 if mirrored else m])[0]
        for run in np.split(cols, np.nonzero(np.diff(cols) != 1)[0] + 1):
            for lo in range(0, run.size, per_batch):
                c = run[lo:lo + per_batch]
                self_negative = mirrored & (2 * c % m == 0)
                weight = np.where(self_negative, 0.5, 1.0)[:, None, None] if self_negative.any() else None
                batches.append(_Batch(row, slice(int(c[0]), int(c[-1]) + 1), dists[row, c][:, None, None], weight))
    return tuple(batches)


def _tail_estimate(regkernel: RegularizedKernel, R: float, grid: GridSpec) -> float:
    """Majorant mass dropped beyond the half-period (minimal-image truncation)."""
    try:
        return majorant_moment(regkernel.base, R, grid.period / 2.0, math.inf, 0.0)
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

    return OperatorContext(
        grid=grid,
        regkernel=regkernel,
        bound_R=float(R),
        offsets=offsets,
        distances=distances,
        batches=_offset_batches(grid, keep, half=True),
        tail_estimate=_tail_estimate(regkernel, R, grid),
    )


def _pair_weights(ctx: OperatorContext, v: np.ndarray):
    """Yield ``(batch, w)``, ``w[k, i] = m_eps(v_i, v_{i+o_k}; r_k)`` over the plane of cells."""
    vp = _plane(ctx.grid, v)
    v_nb = neighbor_windows(vp)
    for b in ctx.batches:
        vj = v_nb[b.row, b.cols]
        w = ctx.regkernel.eval(vp, vj, b.r)
        bad = ~np.isfinite(w)
        if bad.any():
            k, i1, i2 = np.argwhere(bad)[0]
            raise NonFiniteKernelError(
                f"kernel value is not finite for pair (v_i={vp[i1, i2]!r}, v_j={vj[k, i1, i2]!r}, "
                f"r={float(b.r[k, 0, 0])!r})"
            )
        if b.weight is not None:
            w *= b.weight
        yield b, w


def _scatter(f: np.ndarray, b: _Batch) -> np.ndarray:
    """``sum_k f[k, j - o_k]``: the pair values of a batch moved to the far cell of each pair."""
    lo, n = b.cols.start, f.shape[0]
    # windows[k, i, c] is f[k, i] displaced by c along the last axis; offset lo + k needs
    # c = m - lo - k, a diagonal once c is reversed.  The row part is a roll of the sum.
    windows = neighbor_windows(f, lattice_axes=1)[:, :, ::-1][:, :, lo:lo + n]
    return np.roll(np.diagonal(windows, axis1=0, axis2=2).sum(axis=-1), b.row, axis=0)


def _apply_raw(ctx: OperatorContext, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Core pair sum; Kahan-compensated across batches."""
    hn = ctx.grid.cell_volume
    up = _plane(ctx.grid, u)
    u_nb = neighbor_windows(up)
    acc = np.zeros(up.shape)
    comp = np.zeros(up.shape)
    for b, w in _pair_weights(ctx, v):
        f = (up - u_nb[b.row, b.cols]) * w
        term = (f.sum(axis=0) - _scatter(f, b)) * hn
        # Kahan step: acc + term with carried compensation.
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc.ravel()


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
    fp, sp = _plane(ctx.grid, phi.values), _plane(ctx.grid, psi.values)
    f_nb, s_nb = neighbor_windows(fp), neighbor_windows(sp)
    partials = []
    for b, w in _pair_weights(ctx, v.values):
        contrib = (fp - f_nb[b.row, b.cols]) * (sp - s_nb[b.row, b.cols]) * w
        partials.append(math.fsum(contrib.sum(axis=0).ravel()))
    return math.fsum(partials) * hn * hn


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
    rows = sum(w.sum(axis=0) + _scatter(w, b) for b, w in _pair_weights(ctx, v.values))
    return float(rows.max()) * hn
