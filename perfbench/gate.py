"""Correctness gate for one ``jumpdiff run`` and its stored references.

A run passes when all of these hold:

* the CLI returned exit code 0;
* every row of ``checks.csv`` reads ``pass``;
* the mass in ``diagnostics.csv`` drifts by no more than the roundoff bound;
* the final snapshot is within ``final_tolerance`` of the reference final
  field, generated at a known-good commit by ``make_reference.py`` and
  rolled by the workload's lattice shift.

Tolerances are fixed from the problem, not fitted to observed errors.
``roundoff`` bounds worst-case summation error: each apply sums ``n_off``
pair terms of size at most ``R`` times ``dt * 2 M_R <= 1``, so one step may
be off by ``n_off * u * R`` per cell (u = 2^-53), four times over for the
products, the difference and the compensation, and steps add up because an
explicit step under the CFL rule and an implicit step are both L^1
contractions.  This accepts any summation order.  An implicit step stopped
at Picard residual ``tol`` (contraction factor at most ``dt * 2 M_R = 1/2``)
is within ``tol`` of its fixed point, so two solvers that both converge to
``tol`` differ by at most ``2 tol`` per step; ``4 tol`` per step leaves a
factor of two.  A wrong operator (say, kernel amplitude off by 1e-6) moves
the final field by orders of magnitude more, which the benchmark's own
tests check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Reference:
    final: np.ndarray      # (variants, n_cells) final fields at shift 0
    steps: int             # time steps taken (implicit solves or explicit updates)
    n_off: int             # pair offsets per cell in one apply
    bound_R: float         # sup-norm bound of the run
    volume: float          # L^N, the torus volume
    picard_tol: float      # 0 for explicit runs

    def roundoff(self) -> float:
        return 4.0 * self.steps * self.n_off * UNIT_ROUNDOFF * self.bound_R * self.volume

    def final_tolerance(self) -> float:
        """Allowed L^1 distance (cell-volume weighted) from the reference final field."""
        return 4.0 * self.picard_tol * self.steps + self.roundoff()


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.npz"


def load_reference(workload: str, size: str) -> Reference:
    with np.load(reference_path(workload, size)) as data:
        return Reference(final=data["final"], steps=int(data["steps"]), n_off=int(data["n_off"]),
                         bound_R=float(data["bound_R"]), volume=float(data["volume"]),
                         picard_tol=float(data["picard_tol"]))


def save_reference(workload: str, size: str, ref: Reference) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(reference_path(workload, size), final=ref.final, steps=ref.steps,
                        n_off=ref.n_off, bound_R=ref.bound_R, volume=ref.volume,
                        picard_tol=ref.picard_tol)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def final_snapshot(outdir: Path) -> np.ndarray:
    """Values ``u`` of the last ``snapshot_*.csv`` the run wrote."""
    last = max(Path(outdir).glob("snapshot_*.csv"))
    return np.array([float(row["u"]) for row in _rows(last)])


def expected_final(ref: Reference, variant: int, shift: tuple[int, ...]) -> np.ndarray:
    field = ref.final[variant]
    if len(shift) == 1:
        return np.roll(field, shift[0])
    m = math.isqrt(field.size)
    return np.roll(field.reshape(m, m), shift, axis=(0, 1)).ravel()


def check_run(outdir, exit_code: int, ref: Reference, variant: int, shift: tuple[int, ...]) -> list[str]:
    """Reasons the run fails the gate; empty when it passes."""
    outdir = Path(outdir)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        checks = _rows(outdir / "checks.csv")
        masses = [float(row["mass"]) for row in _rows(outdir / "diagnostics.csv")]
        final = final_snapshot(outdir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    failed = [row["check"] for row in checks if row["verdict"] != "pass"]
    if not checks or failed:
        problems.append(f"checks failed: {failed or 'none written'}")
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    allowed = ref.roundoff() / abs(masses[0])
    if not drift <= allowed:
        problems.append(f"relative mass drift {drift:.3e} above roundoff {allowed:.3e}")
    want = expected_final(ref, variant, shift)
    if final.shape != want.shape:
        problems.append(f"final snapshot has {final.size} cells, reference {want.size}")
    else:
        dist = float(np.abs(final - want).sum()) * ref.volume / final.size
        if not dist <= ref.final_tolerance():
            problems.append(f"final field L1 distance {dist:.3e} from reference above {ref.final_tolerance():.3e}")
    return problems
