"""Periodic lattice geometry, scalar fields, and discrete norms.

The spatial domain is a flat torus ``[0, L)^N`` with ``N`` in {1, 2},
sampled at the centers of ``M`` uniform cells per axis (spacing
``h = L / M``).  Fields are flat, row-major arrays of cell values and are
immutable once constructed.  Distances between cells are minimal-image
Euclidean distances, so every lattice operation commutes exactly with
periodic shifts.

Discrete norms follow the usual midpoint conventions:

* ``norm_lp(u, p) = (sum |u_i|^p h^N)^(1/p)``, with ``p = inf`` the max;
* ``total_variation(u) = sum_axes sum_i |u_{i+e} - u_i| h^(N-1)``
  (forward differences with periodic wrap);
* ``bv_norm(u) = 2 * norm_lp(u, 1) + total_variation(u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "Profile",
    "make_grid",
    "torus_distance",
    "offset_distances",
    "cutoff_mask",
    "neighbor_windows",
    "bump",
    "norm_lp",
    "total_variation",
    "bv_norm",
    "mass",
    "shift_field",
    "sample_profile",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the torus ``[0, period)^dimension``."""

    dimension: int
    cells_per_axis: int
    period: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"unsupported dimension {self.dimension}; expected 1 or 2")
        if self.cells_per_axis < 3:
            raise ValueError(f"cells_per_axis must be >= 3, got {self.cells_per_axis}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        """Cell width ``h = period / cells_per_axis`` (always derived)."""
        return self.period / self.cells_per_axis

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis_coordinates(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing
        return (np.arange(self.cells_per_axis) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """(n_cells, dimension) array of cell-center coordinates, row-major."""
        x = self.axis_coordinates()
        if self.dimension == 1:
            return x[:, None]
        g0, g1 = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])


def make_grid(dimension: int, cells_per_axis: int, period: float) -> GridSpec:
    """Build a :class:`GridSpec`, validating all arguments."""
    return GridSpec(dimension=int(dimension), cells_per_axis=int(cells_per_axis), period=float(period))


def _axis_min_image(grid: GridSpec, k: np.ndarray) -> np.ndarray:
    """Minimal-image displacement (in cells) for per-axis offsets ``k``."""
    m = grid.cells_per_axis
    k = np.mod(k, m)
    return np.minimum(k, m - k)


def torus_distance(grid: GridSpec, i: int, j: int) -> float:
    """Minimal-image Euclidean distance between cell centers ``i`` and ``j``."""
    m = grid.cells_per_axis
    h = grid.spacing
    if grid.dimension == 1:
        d = _axis_min_image(grid, np.asarray(i - j))
        return float(d) * h
    i1, i2 = divmod(int(i), m)
    j1, j2 = divmod(int(j), m)
    d1 = float(_axis_min_image(grid, np.asarray(i1 - j1))) * h
    d2 = float(_axis_min_image(grid, np.asarray(i2 - j2))) * h
    return math.hypot(d1, d2)


def offset_distances(grid: GridSpec) -> np.ndarray:
    """Distance from any cell to the cell displaced by each flat offset.

    Returns an array of length ``n_cells`` where entry ``o`` is the
    minimal-image distance corresponding to the row-major lattice offset
    ``o``; entry 0 is 0.  Because the grid is translation invariant this
    single table describes the whole pair geometry.
    """
    m = grid.cells_per_axis
    h = grid.spacing
    d1 = _axis_min_image(grid, np.arange(m)) * h
    if grid.dimension == 1:
        return d1.astype(float)
    return np.hypot(d1[:, None], d1[None, :]).ravel()


def cutoff_mask(grid: GridSpec, epsilon: float) -> np.ndarray:
    """The flat offsets at torus distance ``>= epsilon``, never offset 0: the one pair set
    that the operator, the certified row-sum bound and the regularity checks sum over."""
    keep = offset_distances(grid) >= epsilon
    keep[0] = False
    return keep


def neighbor_windows(values: np.ndarray) -> np.ndarray:
    """Read-only view of every periodic displacement of ``values``.

    ``values`` is a periodic lattice of shape ``L``, and
    ``neighbor_windows(x)[o][i] == x[(i + o) mod L]`` for offsets
    ``0 <= o <= L`` (``o`` and ``i`` multi-indices): a strided view of a copy
    doubled along every axis, so a slice of offsets gives the neighbors of all
    cells without an index array.
    """
    doubled = values
    for axis in range(values.ndim):
        doubled = np.concatenate((doubled, doubled), axis=axis)
    shape = values.shape
    windows = np.ndarray(tuple(s + 1 for s in shape) + shape, doubled.dtype, doubled, 0, doubled.strides * 2)
    windows.flags.writeable = False
    return windows


@dataclass(frozen=True)
class Field:
    """Immutable cell values on a grid (the discrete ``u``)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field length {v.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def norm_lp(u: Field, p: float) -> float:
    """Discrete L^p norm; ``p`` in [1, inf]."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.abs(u.values)
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    hn = u.grid.cell_volume
    if p == 1:
        return float(_fsum(a) * hn)
    with np.errstate(over="ignore"):
        total = _fsum(a**p)
    if math.isinf(total):   # p-th powers or their sum beyond the float range: scale by the largest value
        top = float(a.max())
        return top * (math.fsum((a / top) ** p) * hn) ** (1.0 / p)
    return float((total * hn) ** (1.0 / p))


def total_variation(u: Field) -> float:
    """Periodic forward-difference total variation, scaled by ``h^(N-1)``."""
    g = u.grid
    v = u.reshaped()
    scale = g.spacing ** (g.dimension - 1)
    total = 0.0
    for axis in range(g.dimension):
        with np.errstate(over="ignore"):   # a jump beyond the float range is inf
            diff = np.abs(np.roll(v, -1, axis=axis) - v)
        total += _fsum(diff.ravel())
    return total * scale


def bv_norm(u: Field) -> float:
    """``2 * ||u||_1 + TV(u)``; the factor 2 keeps L^1 below half the norm."""
    return 2.0 * norm_lp(u, 1) + total_variation(u)


def mass(u: Field) -> float:
    """Compensated sum of cell values times cell volume."""
    return _fsum(u.values) * u.grid.cell_volume


def _fsum(values: np.ndarray) -> float:
    """``math.fsum``; past an intermediate overflow, the fsum of the values scaled exactly by 2^-64, scaled back."""
    try:
        return math.fsum(values.tolist())   # Python floats: about twice as fast as iterating the array
    except OverflowError:
        return math.fsum(values * 2.0**-64) * 2.0**64


def shift_field(u: Field, lattice_offset) -> Field:
    """Periodic translation by an integer lattice vector.

    Convention: ``shift_field(u, xi).values[i] == u.values[(i - xi) % M]``,
    so the field content moves in the +xi direction.  Norms and total
    variation are preserved exactly (the values are permuted).
    """
    g = u.grid
    off = np.atleast_1d(np.asarray(lattice_offset, dtype=int))
    if off.shape != (g.dimension,):
        raise ValueError(f"offset must have {g.dimension} components, got {off.shape}")
    shifted = np.roll(u.reshaped(), shift=tuple(off), axis=tuple(range(g.dimension)))
    return Field(g, shifted.ravel())


@dataclass(frozen=True)
class Profile:
    """Recipe for an initial condition; realized by :func:`sample_profile`.

    Kinds
    -----
    box
        ``height`` inside a centered box of the given width(s), ``base``
        outside.
    smooth_bump
        compactly supported mollifier bump of the given height.
    step
        ``level_a`` on the first half of axis 0, ``level_b`` on the second
        (two jumps, consistent with the wrap).
    two_level
        checkerboard alternating ``level_a`` / ``level_b`` by index parity.
    random_bv
        seeded i.i.d. uniform values in ``[low, high]``: ``low <= high``
        with a finite ``high - low``, and a non-negative ``seed``.

    The centre of a box or bump is ``(center, center_y)`` on a 2-d grid;
    a 1-d grid reads ``center`` alone.  An unset coordinate is the middle of
    the period, except that ``center`` alone sets both coordinates of a 2-d
    centre.
    """

    kind: str = "box"
    center: float | None = None
    center_y: float | None = None
    width: float | None = None
    height: float = 1.0
    base: float = 0.0
    level_a: float = 1.0
    level_b: float = -1.0
    low: float = 0.0
    high: float = 1.0
    seed: int = 0

    _KINDS = ("box", "smooth_bump", "step", "two_level", "random_bv")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "random_bv":
            if self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")
            if not self.low <= self.high:
                raise ValueError(f"low must not exceed high, got low = {self.low:g}, high = {self.high:g}")
            if math.isinf(self.high - self.low):
                raise ValueError(f"high - low must be finite, got low = {self.low:g}, high = {self.high:g}")


def bump(s2) -> np.ndarray:
    """The smooth compact bump ``exp(1 - 1/(1 - s2))`` of a squared radius ``s2``; 0 where ``s2 >= 1``."""
    s2 = np.asarray(s2, dtype=float)
    out = np.zeros(s2.shape)
    core = s2 < 1.0
    out[core] = np.exp(1.0 - 1.0 / (1.0 - s2[core]))
    return out


def _centered_offsets(grid: GridSpec, center: tuple[float, ...]) -> np.ndarray:
    """(n_cells, dim) minimal-image displacement of each center from ``center``."""
    pts = grid.cell_centers()
    L = grid.period
    d = pts - np.asarray(center)[None, :]
    return d - L * np.round(d / L)


def sample_profile(profile: Profile, grid: GridSpec) -> Field:
    """Realize a profile on a grid; deterministic given the profile seed."""
    L = grid.period
    if profile.kind in ("box", "smooth_bump"):
        width = profile.width if profile.width is not None else L / 4
        if width <= 0 or width > L:
            raise ValueError(f"profile width {width} must lie in (0, period]")
        x = profile.center if profile.center is not None else L / 2
        center = (x, profile.center_y if profile.center_y is not None else x)[:grid.dimension]
        d = _centered_offsets(grid, center)
        if profile.kind == "box":
            inside = np.all(np.abs(d) <= width / 2, axis=1)
            values = np.where(inside, profile.height, profile.base)
        else:
            # A width far below the spacing overflows s2 (or divides by an
            # underflowed width / 2); those cells fall outside the core anyway.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                s2 = np.sum((d / (width / 2)) ** 2, axis=1)
            values = profile.height * bump(s2) + profile.base
        return Field(grid, values)

    if profile.kind == "step":
        x = grid.cell_centers()[:, 0]
        values = np.where(x < L / 2, profile.level_a, profile.level_b)
        return Field(grid, values)

    if profile.kind == "two_level":
        idx = np.indices(grid.shape).sum(axis=0).ravel()
        values = np.where(idx % 2 == 0, profile.level_a, profile.level_b)
        return Field(grid, values)

    # random_bv
    rng = np.random.default_rng(profile.seed)
    values = rng.uniform(profile.low, profile.high, size=grid.n_cells)
    return Field(grid, values)

