"""The snapshot files of one ``jumpdiff run``, written from a stream of field records.

    python -I -S _snapshot_writer.py OUTDIR DIMENSION CELLS PERIOD

``jumpdiff.cli`` starts this file as a process of its own while the solver
steps.  Each record on standard input is a ``RECORD`` header, the snapshot
index and the number of cells, followed by that many native float64
values; each becomes ``OUTDIR/snapshot_<index>.csv`` with ``i,x[,y],u``
rows.  At the first file that cannot be written the process reports
``path NUL reason`` on standard output, writes no further file and exits.
Where no process can be started, ``cli`` writes through
:class:`SnapshotWriter` in its own process instead.

The module imports the standard library alone, so the process starts
without numpy or ``jumpdiff``.  The ``u`` cells are ``%.17g`` and the
coordinates ``format(x, '.17g')``; for a Python float both give the same
digits, so a file is what ``csv.writer`` writes for those rows, byte for
byte (``\\r\\n`` line endings), and every value round-trips exactly.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array

RECORD = struct.Struct("=qq")   # snapshot index, number of cells


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


class SnapshotWriter:
    """Writes snapshot files into ``outdir`` until the first one that cannot be written.

    ``failure`` is then ``(path, reason)`` and every later :meth:`write` does nothing.
    """

    def __init__(self, outdir: str, dimension: int, cells: int, period: float):
        self.outdir = outdir
        self.template = template(dimension, cells, period)
        self.failure: tuple[str, str] | None = None

    def write(self, index: int, values) -> None:
        """Write ``values``, one float per cell, as snapshot ``index``."""
        if self.failure is not None:
            return
        path = os.path.join(self.outdir, f"snapshot_{index:06d}.csv")
        try:
            with open(path, "wb") as fh:
                fh.write((self.template % tuple(values)).encode("ascii"))
        except OSError as exc:
            self.failure = (path, exc.strerror or str(exc))


def main(argv) -> int:
    outdir, dimension, cells, period = argv[1:]
    writer = SnapshotWriter(outdir, int(dimension), int(cells), float(period))
    source = sys.stdin.buffer
    while writer.failure is None:
        header = source.read(RECORD.size)
        if len(header) < RECORD.size:
            return 0
        index, count = RECORD.unpack(header)
        values = array("d")
        values.frombytes(source.read(8 * count))
        writer.write(index, values)
    path, reason = writer.failure
    os.write(1, os.fsencode(path) + b"\0" + os.fsencode(reason))
    return 0


if __name__ == "__main__":
    # Every file is closed and the report is unbuffered, so nothing is left to flush: skipping
    # the interpreter's finalization ends the process, which the run waits for, ~4 ms sooner.
    os._exit(main(sys.argv))
