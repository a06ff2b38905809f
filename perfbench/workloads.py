"""Benchmark workloads: generated ``jumpdiff run`` configs and their inputs.

Each workload is one config for the public ``run`` command.  The seed given
to the benchmark picks the input and nothing else:

* box workloads move the box by a whole number of cells (``seed`` mod M per
  axis).  The box edges and centres are exact binary fractions, so the
  sampled profile is exactly the reference profile rolled by that shift, and
  so is the final field (the operator commutes with lattice shifts);
* the random workload draws its ``random_bv`` profile from ``seed`` mod
  ``variants``; one reference final field is stored per variant.

``tiny`` sizes exist for the benchmark's own tests; measurements use ``full``.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    cells: dict            # size -> cells per axis
    end_time: dict         # size -> solver.t
    integrator: str
    body: tuple            # kernel/profile/solver lines common to every seed
    variants: int = 1      # > 1: random_bv profile seeded by seed % variants

    @property
    def implicit(self) -> bool:
        return self.integrator == "backward_euler_picard"

    @property
    def step_hook(self) -> str:
        return "step_backward_picard" if self.implicit else "step_explicit"

    def variant(self, seed: int) -> int:
        return seed % self.variants

    def shift(self, size: str, seed: int) -> tuple[int, ...]:
        """Lattice shift of the input (and of the reference final field)."""
        if self.variants > 1:
            return (0,) * self.dimension
        m = self.cells[size]
        return (seed % m,) if self.dimension == 1 else (seed % m, (seed // m) % m)

    def config_text(self, size: str, seed: int) -> str:
        m = self.cells[size]
        lines = [
            f"grid.n = {self.dimension}",
            f"grid.m = {m}",
            "grid.l = 1.0",
            f"solver.integrator = {self.integrator}",
            f"solver.t = {self.end_time[size]!r}",
        ]
        if self.variants > 1:
            lines.append(f"profile.seed = {self.variant(seed)}")
        else:
            # Box centred on a cell centre, (c + 1/2) h, moved by the shift.
            centre = [((m // 2 + s) % m + 0.5) / m for s in self.shift(size, seed)]
            lines.append(f"profile.center = {centre[0]!r}")
            if self.dimension == 2:
                lines.append(f"profile.center_y = {centre[1]!r}")
        return "\n".join(lines + list(self.body)) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pm1d_implicit",
            dimension=1,
            cells={"full": 1024, "tiny": 64},
            end_time={"full": 0.00225, "tiny": 0.02},
            integrator="backward_euler_picard",
            body=(
                "kernel.family = porous_medium",
                "kernel.m = 2.0",
                "kernel.alpha = 0.5",
                "profile.kind = box",
                "profile.width = 0.3",
            ),
        ),
        Workload(
            name="heat2d_explicit",
            dimension=2,
            cells={"full": 64, "tiny": 16},
            end_time={"full": 0.006, "tiny": 0.02},
            integrator="explicit_euler",
            body=(
                "kernel.family = fractional_heat",
                "kernel.alpha = 0.5",
                "profile.kind = box",
                "profile.width = 0.4",
            ),
        ),
        Workload(
            name="heat1d_snapshots",
            dimension=1,
            cells={"full": 256, "tiny": 32},
            end_time={"full": 2.0, "tiny": 0.5},
            integrator="explicit_euler",
            body=(
                "kernel.family = fractional_heat",
                "kernel.alpha = 0.5",
                "profile.kind = random_bv",
                "solver.snapshot_every = 0.001",
            ),
            variants=32,
        ),
    )
}
