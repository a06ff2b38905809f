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
are strided views (``lattice.neighbor_windows``), so no index array is
built; the subtraction reads each batch from a buffer that holds every
plane twice, and meets the row part of the offsets in two slices rather
than a rolled copy.  Batches of offsets are vectorized over cells and
Kahan-summed in a fixed order, so results are deterministic and commute
bitwise with lattice shifts.  Both contributions of a pair come from one
evaluation and are exact negations of each other by construction, which
is what makes mass cancellation, the discrete symmetrization identity and
the Kato inequality hold at the floating-point level rather than merely
up to quadrature error.

When the coefficient field is the field itself (``L_u u``: every time step
and the Kato functional) and the kernel declares a pair flux
(:class:`kernels.PairFlux`, the five decoupled families), the pair value is
the flux ``f_i = N(F(u_i), F(u_{i+o}), u_i - u_{i+o}) ramp(|u_i - u_{i+o}|) w_o``:
``F(u)`` is computed once per cell, ``w_o = mu(r_o)`` (halved on
self-negative offsets) once per batch by :func:`build_context`, and no
difference quotient is formed.  Two comparisons give the ramp of most
pairs, 0 or 1; only the pairs in its band ``eps/2 < |d| < eps`` take the
quintic (:func:`kernels._ramp_in_place`).  The neighbors' ``u`` and
``F(u)`` are copied out of their windows before they are subtracted.
Every other call evaluates the kernel ``m_eps`` pair by pair (the eval
path): ``L_v u`` with ``v`` not ``u``, :func:`bilinear_form`,
:func:`max_row_sum`, the entangled kernels and any kernel whose
``eval_fn`` was replaced.  A flux apply whose ``F(u)`` or
result is not finite is redone on the eval path, which names the offending
pair or returns the value it always gave.

An apply on a large enough 2-d grid (:func:`_worker_pays`: two batches,
``2 * _CHUNK_TARGET`` pairs, three quarters of a chunk per batch on
average, and two usable CPUs) runs on two threads: a worker thread
evaluates the odd-numbered batches and the calling thread the even ones.
The caller adds every batch's term to the Kahan sum in batch order, so the
summation order and every bit of the result are those of one thread.  The
worker runs in a copy of the caller's context and so under its
``np.errstate``.  An exception the worker raises (a
:class:`NonFiniteKernelError`, say) is handed back in its batch's slot and
raised by the caller when the sum reaches that batch, so it names the same
first pair.  The worker is joined before the apply returns or raises.
:func:`bilinear_form` and :func:`max_row_sum` stay on one thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import QuadratureDivergenceError, RegularizedKernel, _ramp_in_place
from .lattice import Field, GridSpec, cutoff_mask, neighbor_windows, offset_distances

__all__ = [
    "OperatorContext",
    "NonFiniteKernelError",
    "EmptyNeighborhoodError",
    "build_context",
    "apply",
    "bilinear_form",
    "kato_functional",
    "max_row_sum",
]

# Offset batches hold at most this many pairs.  At 2^16 pairs a batch's
# temporaries stay within a core's L2 cache; 1.5 M-pair batches made a
# 1-d M=1024 porous-medium apply about 2x slower, and 2x or 1.5x batches
# saved 2-d time only for 6-11 % more peak memory.  Each thread of an apply
# owns one scratch block of ``3 n cells + n + m`` floats (``n`` offsets of
# the largest batch, ``m`` cells per axis), laid out ``[f | d | num | n + m
# spare]``; ``_scatter``'s doubled buffer reuses all but ``f`` once the
# differences and the flux numerator are spent, so two threads hold 6
# planes per offset where one thread with separate buffers held 5.  Beyond
# the block a flux batch allocates the ramp's two masks, one byte a pair,
# and arrays the length of its band.
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
    flux_weight: np.ndarray | None = None   # (n, 1, 1) mu(r) * weight for a kernel with a pair flux


@dataclass(frozen=True)
class OperatorContext:
    """Precomputed pair geometry for one grid/kernel/bound combination."""

    grid: GridSpec
    regkernel: RegularizedKernel
    bound_R: float
    batches: tuple = field(repr=False, compare=False)    # _Batch tuple: one of each offset pair +-o
    tail_estimate: float = 0.0


def _plane(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Flat cell (or offset) values as a 2-d array: ``(1, M)`` in 1-d, ``(m, m)`` in 2-d."""
    return x.reshape(-1, grid.cells_per_axis)


def _offset_batches(grid: GridSpec, keep: np.ndarray) -> tuple:
    """Batches of one offset of each pair ``o, -o`` where ``keep`` holds, row by row of the offset plane.

    The kept offsets are rows up to the middle one, and in the first and
    middle rows columns up to the middle one.  Offsets that are their own
    negative get pair weight 1/2.
    """
    m = grid.cells_per_axis
    keep = _plane(grid, keep)
    dists = _plane(grid, offset_distances(grid))
    rows = keep.shape[0]
    per_batch = max(1, _CHUNK_TARGET // grid.n_cells)
    batches = []
    for row in range(rows // 2 + 1):
        mirrored = 2 * row % rows == 0
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
        return regkernel.base.moment(float(R), grid.period / 2.0, math.inf, 0.0)
    except QuadratureDivergenceError:
        return math.inf


def build_context(grid: GridSpec, regkernel: RegularizedKernel, R: float) -> OperatorContext:
    """Precompute the neighbor geometry for ``apply`` and the functionals.

    ``R`` is the sup-norm bound the kernel majorant and time-step bounds
    are certified for; callers get a warning if they later apply the
    operator to larger fields.  Offsets closer than ``epsilon`` are
    excluded (with ``epsilon < h`` the cutoff has no lattice effect, which
    is allowed but worth a warning); raises :class:`EmptyNeighborhoodError`
    when that leaves none.
    """
    if regkernel.dim != grid.dimension:
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
    keep = cutoff_mask(grid, eps)
    if not keep.any():
        raise EmptyNeighborhoodError(
            f"empty neighborhood: epsilon = {eps:g} exceeds the largest torus distance "
            f"{offset_distances(grid).max():g}"
        )
    batches = _offset_batches(grid, keep)
    flux = regkernel.base.flux
    if flux is not None:
        with np.errstate(over="ignore"):   # an infinite weight makes its applies take the eval path
            batches = tuple(b._replace(flux_weight=flux.mu(b.r) * (1.0 if b.weight is None else b.weight))
                            for b in batches)
    return OperatorContext(
        grid=grid,
        regkernel=regkernel,
        bound_R=float(R),
        batches=batches,
        tail_estimate=_tail_estimate(regkernel, R, grid),
    )


def _pair_weight(ctx: OperatorContext, vp: np.ndarray, v_nb: np.ndarray, b: _Batch) -> np.ndarray:
    """``w[k, i] = m_eps(v_i, v_{i+o_k}; r_k)`` over the plane ``vp`` of cells, for the offsets of ``b``."""
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
    return w


def _pair_weights(ctx: OperatorContext, v: np.ndarray):
    """Yield ``(batch, w)`` for every batch, ``w`` as :func:`_pair_weight` gives it."""
    vp = _plane(ctx.grid, v)
    v_nb = neighbor_windows(vp)
    for b in ctx.batches:
        yield b, _pair_weight(ctx, vp, v_nb, b)


def _scratch(ctx: OperatorContext, planes: int) -> np.ndarray:
    """Flat scratch: ``planes`` planes per offset of the largest batch, then :func:`_scatter`'s buffer.

    The buffer holds two more planes and one spare value per offset, and
    ``m`` more values.
    """
    n = _largest_batch(ctx)
    return np.empty(n * ((planes + 2) * ctx.grid.n_cells + 1) + ctx.grid.cells_per_axis)


def _largest_batch(ctx: OperatorContext) -> int:
    return max(b.r.shape[0] for b in ctx.batches)


def _scatter(f: np.ndarray, b: _Batch, buf: np.ndarray, combine) -> np.ndarray:
    """``combine(sum_k f[k, j], sum_k f[k, j - o_k])``: a batch's pair values at the near and the far cell.

    Each plane ``f[k]`` is written twice, side by side along its last axis,
    into ``buf`` (the tail of :func:`_scratch`), in rows of ``2 rows m + 1``
    values.  Read back from column ``m - lo`` in rows one value shorter, each
    offset starts one column further left than the one before, so
    ``f[k, r, j - lo - k]`` comes out at ``(k, r, j)``.  The row part of the
    offset is a roll of that sum, which ``combine`` (``np.add`` or
    ``np.subtract``) meets in two slices instead of a rolled copy.
    """
    n, rows, m = f.shape
    lo, width = b.cols.start, 2 * rows * m
    total = f.sum(axis=0)
    buf[:n * (width + 1)].reshape(n, width + 1)[:, :width].reshape(n, rows, 2, m)[...] = f[:, :, None, :]
    moved = buf[m - lo:m - lo + n * width].reshape(n, rows, 2 * m)[:, :, :m].sum(axis=0)
    r = b.row
    combine(total[r:], moved[:rows - r], out=total[r:])
    if r:
        combine(total[:r], moved[rows - r:], out=total[:r])
    return total


def _kahan_sum(terms, shape: tuple) -> np.ndarray:
    """Compensated sum of the arrays ``terms``, in order."""
    acc = np.zeros(shape)
    comp = np.zeros(shape)
    for term in terms:
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


def _eval_term(ctx: OperatorContext, v: np.ndarray, up: np.ndarray):
    """``term(b, block)``: ``sum_o f_i - f_{i-o}`` over the offsets of ``b``, ``f_i = (u_i - u_{i+o}) m_eps(v_i, v_{i+o}; r_o) h^N``.

    ``block`` is a thread's :func:`_scratch` with one leading plane per offset, ``f``.
    """
    hn = ctx.grid.cell_volume
    vp = _plane(ctx.grid, v)
    v_nb, u_nb = neighbor_windows(vp), neighbor_windows(up)
    size = _largest_batch(ctx) * up.size

    def term(b: _Batch, block: np.ndarray) -> np.ndarray:
        w = _pair_weight(ctx, vp, v_nb, b)
        shape = (b.r.shape[0],) + up.shape
        f = np.subtract(up, u_nb[b.row, b.cols], out=block[:math.prod(shape)].reshape(shape))
        f *= w
        net = _scatter(f, b, block[size:], np.subtract)
        net *= hn
        return net

    return term


def _flux_term(ctx: OperatorContext, numerator, up: np.ndarray, fp: np.ndarray):
    """:func:`_eval_term` for ``v = u`` from the pair flux ``numerator``, with ``fp = F(u)`` over the plane of cells.

    The differences ``d`` and the numerator fill the head of the block's
    :func:`_scatter` buffer, and are spent before it is written.  Each
    neighbor window is copied into ``d`` (and its ``F(u)`` into ``num``)
    before the subtraction: a copy reads the strided window faster than a
    subtraction does.
    """
    hn = ctx.grid.cell_volume
    eps = ctx.regkernel.epsilon
    u_nb = neighbor_windows(up)
    f_nb = None if fp is up else neighbor_windows(fp)
    size = _largest_batch(ctx) * up.size

    def term(b: _Batch, block: np.ndarray) -> np.ndarray:
        shape = (b.r.shape[0],) + up.shape
        f, d, num = (block[k * size:k * size + math.prod(shape)].reshape(shape) for k in range(3))
        np.copyto(d, u_nb[b.row, b.cols])
        np.subtract(up, d, out=d)
        _ramp_in_place(eps, np.abs(d, out=f))
        f *= b.flux_weight
        if f_nb is None:
            f *= numerator(fp, u_nb[b.row, b.cols], d, num)
        else:
            np.copyto(num, f_nb[b.row, b.cols])
            f *= numerator(fp, num, d, num)
        net = _scatter(f, b, block[size:], np.subtract)
        net *= hn
        return net

    return term


def _worker_pays(ctx: OperatorContext) -> bool:
    """Whether a worker thread takes the odd-numbered batches: a fixed rule on the geometry and the usable CPUs.

    A 1-d apply stays on one thread.  In whole 1-d porous-medium runs on a
    2-vCPU VM, with no snapshot writer process on the second CPU, the run
    without the worker was faster in 20 and 18 of 20 alternated pairs at
    M = 1024 (106 against 124 ms, 124 against 136 ms), 20 of 20 at 2048,
    and 18 and 19 of 20 at 4096.

    Starting the thread costs ~145 us, so an apply needs two batches and
    ``2 * _CHUNK_TARGET`` pairs.  Every numpy call hands the interpreter
    lock from one thread to the other, so a batch must also average three
    quarters of a chunk.  On a 2-vCPU VM a 2-d heat flux apply with the
    worker took ~35 % longer at 31 K pairs a batch (32x32), ~12 % longer at
    44 K (36x36) and ~20 % longer at 43 K (44x44), and ~15 % less time at
    55 K (48x48) and 61 K (40x40).
    """
    if ctx.grid.dimension == 1:
        return False
    batches = ctx.batches
    pairs = sum(b.r.shape[0] for b in batches) * ctx.grid.n_cells
    if len(batches) < 2 or pairs < 2 * _CHUNK_TARGET or 4 * pairs < 3 * len(batches) * _CHUNK_TARGET:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


def _sum_batches(ctx: OperatorContext, term, shape: tuple) -> np.ndarray:
    """Kahan sum of ``term(b, block)`` over ``ctx.batches`` in their order, ``block`` the thread's :func:`_scratch`.

    When :func:`_worker_pays`, the worker thread hands each odd-numbered
    batch's term, or the exception it raised, back through a queue of two.
    """
    batches = ctx.batches
    block = _scratch(ctx, 1)
    if not _worker_pays(ctx):
        return _kahan_sum((term(b, block) for b in batches), shape)
    handoff = queue.Queue(maxsize=2)
    stop = threading.Event()

    def work():
        own = _scratch(ctx, 1)
        for b in batches[1::2]:
            if stop.is_set():
                return
            try:
                handoff.put(term(b, own))
            except BaseException as exc:   # raised by the caller at this batch's slot
                handoff.put(exc)
                return

    def in_order():
        for k, b in enumerate(batches):
            item = term(b, block) if k % 2 == 0 else handoff.get()
            if isinstance(item, BaseException):
                raise item
            yield item

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
    worker.start()
    try:
        return _kahan_sum(in_order(), shape)
    finally:
        stop.set()   # the worker puts at most one more term, which the drained queue has room for
        while not handoff.empty():
            handoff.get_nowait()
        worker.join()


def _apply_raw(ctx: OperatorContext, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Core pair sum; Kahan-compensated across batches.

    Sums the pair flux when ``v is u``, the kernel declares one and ``u`` is
    finite, the kernel values otherwise or when the flux sum is not finite
    (as after a non-finite ``F(u)``; an infinite ``u_i`` can leave it
    finite, for a table ``f`` clamps ``F``).
    """
    up = _plane(ctx.grid, u)
    flux = ctx.regkernel.base.flux
    if v is u and flux is not None and np.isfinite(u).all():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fp = up if flux.cell is None else _plane(ctx.grid, flux.cell(u))
            acc = _sum_batches(ctx, _flux_term(ctx, flux.numerator, up, fp), up.shape)
        if np.isfinite(acc).all():
            return acc.ravel()
    return _sum_batches(ctx, _eval_term(ctx, v, up), up.shape).ravel()


def _check_fields(ctx: OperatorContext, coefficients: tuple, *others: Field) -> None:
    """Every field must live on the context's grid; the kernel's arguments ``coefficients`` should stay within R."""
    for f in coefficients + others:
        if f.grid != ctx.grid:
            raise ValueError("field grid does not match operator context")
    vmax = max(float(np.max(np.abs(f.values))) for f in coefficients)
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
    _check_fields(ctx, (v,), u)
    return Field(ctx.grid, _apply_raw(ctx, v.values, u.values))


def bilinear_form(ctx: OperatorContext, v: Field, phi: Field, psi: Field) -> float:
    """Symmetrized Dirichlet form ``1/2 sum [phi_i-phi_j][psi_i-psi_j] m h^{2N}``.

    Discretely equal to ``<L_v phi, psi>`` and symmetric in ``(phi, psi)``;
    with ``phi = psi`` every term is non-negative, so the value is a sum of
    non-negative floats.
    """
    _check_fields(ctx, (v,), phi, psi)
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
    _check_fields(ctx, (u, v))
    lu = _apply_raw(ctx, u.values, u.values)
    lv = _apply_raw(ctx, v.values, v.values)
    sgn = np.sign(u.values - v.values)
    return math.fsum((lu - lv) * sgn) * ctx.grid.cell_volume


def max_row_sum(ctx: OperatorContext, v: Field) -> float:
    """Largest assembled row sum ``max_i sum_j m_eps(v_i, v_j; r_ij) h^N``."""
    _check_fields(ctx, (v,))
    buf = _scratch(ctx, 0)
    rows = sum(_scatter(w, b, buf, np.add) for b, w in _pair_weights(ctx, v.values))
    return float(rows.max()) * ctx.grid.cell_volume
