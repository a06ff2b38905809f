"""The snapshot files of one ``jumpdiff run``, written from a stream of field records.

    python -I -S _snapshot_writer.py OUTDIR DIMENSION CELLS PERIOD

``jumpdiff.cli`` starts this file as a process of its own while the solver
steps, for a long snapshot stream.  Standard input carries the snapshots
in order, each as ``CELLS ** DIMENSION`` native float64 values and nothing
else; snapshot ``k`` (from 0) becomes ``OUTDIR/snapshot_<k>.csv`` with
``i,x[,y],u`` rows.  The exit status is all the process reports: 0 once
standard input ends with every snapshot written, 1 at the first file that
cannot be written, after which it writes no further file.  It prints nothing.
``cli`` calls :func:`write` in its own process for a trajectory that no
process wrote, a short stream's among them.

The module imports the standard library alone, so the process starts
without numpy or ``jumpdiff``.  The ``u`` cells are ``%.17g`` and the
coordinates ``format(x, '.17g')``; for a Python float both give the same
digits, so a file is what ``csv.writer`` writes for those rows, byte for
byte (``\\r\\n`` line endings), and every value round-trips exactly.
"""

from __future__ import annotations

import os
import sys
from array import array


def template(dimension: int, cells: int, period: float) -> str:
    """A whole snapshot file of the grid with each ``u`` cell left as ``%.17g``.

    The cell centres are those of ``lattice.GridSpec.cell_centers``:
    ``(k + 0.5) * (period / cells)`` along each axis, row-major.
    """
    h = period / cells
    axis = [format((k + 0.5) * h, ".17g") for k in range(cells)]
    if dimension == 1:
        header, centers = "i,x,u", axis
    else:
        header, centers = "i,x,y,u", [f"{x},{y}" for x in axis for y in axis]
    rows = [f"{i},{xs},%.17g" for i, xs in enumerate(centers)]
    return "\r\n".join([header, *rows, ""])


def write(outdir: str, dimension: int, cells: int, period: float, records) -> tuple[str, str] | None:
    """Write each ``(index, values)`` of ``records``, one float per cell, as snapshot ``index``.

    Stops at the first file that cannot be written and returns its
    ``(path, reason)``; None once every record is written.
    """
    text = template(dimension, cells, period)
    for index, values in records:
        path = os.path.join(outdir, f"snapshot_{index:06d}.csv")
        try:
            with open(path, "wb") as fh:
                fh.write((text % tuple(values)).encode("ascii"))
        except OSError as exc:
            return path, exc.strerror or str(exc)
    return None


def _records(source, count: int):
    """The ``(index, values)`` records of the binary stream ``source``, ``count`` floats each, up to its end."""
    for index, data in enumerate(iter(lambda: source.read(8 * count), b"")):
        yield index, array("d", data)


def main(argv) -> int:
    outdir, dimension, cells, period = argv[1:]
    records = _records(sys.stdin.buffer, int(cells) ** int(dimension))
    return 0 if write(outdir, int(dimension), int(cells), float(period), records) is None else 1


if __name__ == "__main__":
    # Every file is closed and nothing is printed, so nothing is left to flush: skipping the
    # interpreter's finalization ends the process, which the run waits for, ~4 ms sooner.
    os._exit(main(sys.argv))
