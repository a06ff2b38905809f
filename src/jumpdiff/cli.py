"""Command-line driver: validate | run | compare | converge.

Exit codes form a small contract for CI use:

* 0 -- everything requested passed;
* 1 -- the command line or the configuration could not be parsed or
  validated, including a ``--config`` that cannot be read as UTF-8 text,
  an output directory that cannot be created, an output file that cannot
  be written (a snapshot among them, also when the solver aborted), a
  ``compare`` config without ``profile_b.*``, a cutoff radius
  ``solver.epsilon`` that leaves no lattice neighbour, a ``solver.r``
  below ``sup|u0|``, a ``profile.*`` or ``profile_b.*`` key that the
  profile kind does not read and a ``validate.budget`` outside 1000 to
  10^7 samples;
* 2 -- an axiom check failed (``validate``);
* 3 -- the solver aborted (an explicit ``solver.dt`` above the CFL limit,
  a certified row-sum bound that leaves no positive dt, a dt or a
  ``solver.snapshot_every`` that needs more steps or snapshot intervals
  than the step budget ``evolve.MAX_STEPS`` = 10^7, an implicit step that
  still diverged after 10 dt halvings, a non-finite kernel value or update
  in an explicit step, a broken sup-norm guard) or a run's structural
  check failed.

Each failure prints a one-line message on stderr, never a traceback.  The
commands raise; ``main`` maps a :class:`config.ConfigError` or an empty
neighbourhood to exit 1 and a :class:`evolve.SolverAbortError` to exit 3.
A library warning prints as one ``warning: <message>`` line on stderr and
leaves the exit code as it is.

Every command sets up through :func:`_prepare_run`, ``validate`` too: it
samples the admissibility conditions of the configured kernel on the range
``[-R, R]`` that ``run`` certifies (``solver.r``, which may not be below
``sup|u0|``, else ``max(1, sup|u0|)``; over every configured profile) and
at ``run``'s cutoff radius (``solver.epsilon``, else the lattice spacing).
The structural checks take their slacks from the run: ``compare`` allows
``2 * solver.picard_tol`` per step, and each monotone check of ``run`` a
fixed roundoff slack times ``max(1, the series' first value)``.

All outputs are CSV files under ``--out`` (or ``output.dir``): field
snapshots (``i,x[,y],u``), a diagnostics stream with one row per snapshot,
one summary row per enabled check, axiom reports, comparison and Cauchy
tables.  Floats are written with 17 significant digits so files round-trip
exactly; identical configs produce byte-identical outputs.  ``--seed``
(overriding ``validate.seed``) is ``validate``'s alone: only axiom sampling reads it.
``run`` plans its snapshot stream before the first step.  A stream of more
than 131,072 rows (files times cells) goes to a writer process
(``_snapshot_writer``) while the solver steps, and ``run`` waits for it to
exit.  ``run`` writes every snapshot in its own process once the solver
stops when the stream is shorter, when no process starts, or when one does
not exit 0.  ``diagnostics.csv`` and ``checks.csv`` follow.
Snapshots are written in order up to the first one that cannot be written,
and then neither later snapshots nor those two files are written.  A row
template built once per grid gives each file in one string operation; the
bytes are those ``csv.writer`` gives for the same rows (``\\r\\n`` line
endings).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .axioms import check_axioms
from .config import (
    ConfigError,
    ProfileSection,
    RunConfig,
    build_kernel,
    build_profile,
    parse_config,
    resolve_eps_list,
    solver_config,
)
from .diagnostics import OrderingError, check_comparison, check_contraction, check_monotone_series
from .evolve import (
    MAX_STEPS,
    SolverAbortError,
    SolverConfig,
    Trajectory,
    _step_policy,
    continuation_in_epsilon,
    mollify_initial,
    run as run_solver,
)
from .kernels import regularize
from .lattice import Field, GridSpec, sample_profile
from .operator import EmptyNeighborhoodError, OperatorContext, build_context

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AXIOM = 2
EXIT_SOLVER = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_error(path, reason: str) -> ConfigError:
    return ConfigError([(None, f"cannot write output file {path}: {reason}")])


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``; an ``OSError`` on the way becomes a :class:`ConfigError`."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise _write_error(path, exc.strerror or str(exc)) from exc


class _SnapshotStream:
    """The snapshot files of one ``run``, written by a writer process while the solver steps if that pays.

    A process starts only for a planned stream (:meth:`planned_files`) of
    more than ``MAX_ROWS`` = 131,072 rows, files times cells (:meth:`pays`).
    Every shorter stream is written in this process once the solver stops.
    The process costs an interpreter start and a pipe copy of each field,
    and pays only where the solver leaves it the time to overlap the
    writing.  Alternated pairs of whole ``jumpdiff run`` processes on a
    2-vCPU VM, 10 pairs a stream:

    * 1-d: in-process was faster with 21 to 625 snapshots of 256 cells,
      200 of 32, 257 of 512, 33 to 101 of 1,024 and 65 of 2,048 cells, in 9
      or 10 pairs (7 at 513 of 256 cells).
    * 2-d: the writer was faster with 33 and 129 snapshots of 32x32 cells
      and 257 and 513 of 16x16 cells, in 8 to 10 pairs.  At 64x64, where
      the operator's worker thread takes the second CPU, neither was faster
      in 8 pairs or more.

    Where the writer pays is not settled.  For 625 snapshots of 256 cells
    (the benchmark's ``heat1d_snapshots``) the benchmark's own alternated
    runs favour the writer, in 9 pairs of 10 (0.44 against 0.57 s), while
    the pairs above favour in-process.  So only the longest streams keep
    it: more than 512 snapshots of 256 cells, or as many rows.

    The process runs ``_snapshot_writer.py`` under ``-I -S``, started by
    ``os.posix_spawn``, and :meth:`send`, the solver's ``on_snapshot``, hands
    it each field over a pipe.  Its exit status is all it reports: 0 once it
    has written every field it was sent, 1 at the first file it cannot write.
    :meth:`finish` writes the trajectory in this process whenever no process
    exited 0, and so every snapshot of a stream that started none.
    :meth:`close` ends the process; a caller closes the stream on every
    path, so that no process outlives it.
    """

    MAX_ROWS = 131_072

    def __init__(self, outdir: Path, ctx: OperatorContext, config: SolverConfig):
        from . import _snapshot_writer

        grid = ctx.grid
        self.module = _snapshot_writer
        self.args = (str(outdir), grid.dimension, grid.cells_per_axis, grid.period)
        self.pid = self.fd = self.exit_status = None
        if self.pays(self.planned_files(ctx, config), grid.n_cells):
            # No os.posix_spawn, no sys.executable or no process: finish writes every snapshot.
            with contextlib.suppress(AttributeError, OSError, TypeError):
                self._spawn()

    @classmethod
    def pays(cls, files: int, cells: int) -> bool:
        """Whether a stream of ``files`` snapshots of ``cells`` cells starts a writer process."""
        return files * cells > cls.MAX_ROWS

    @staticmethod
    def planned_files(ctx: OperatorContext, config: SolverConfig) -> int:
        """The snapshot files a run plans, ``1 + min(ceil(T / snapshot_every), ceil(T / dt))``.

        A run records ``u0`` and at most one snapshot per step and per
        interval, with dt and the interval of :func:`evolve._step_policy`.
        A run of more than ``evolve.MAX_STEPS`` steps or intervals aborts
        before its first snapshot, so the count stops there.
        """
        dt, snapshot_every = _step_policy(ctx, config)
        T = config.end_time
        return 1 + math.ceil(min(T / snapshot_every, T / dt, MAX_STEPS))

    def _spawn(self) -> None:
        data_r, data_w = os.pipe()
        try:
            self.pid = os.posix_spawn(
                sys.executable, [sys.executable, "-I", "-S", self.module.__file__, *map(str, self.args)],
                os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, data_r, 0),
                                          (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        except BaseException:
            os.close(data_w)
            raise
        finally:
            os.close(data_r)
        self.fd = data_w

    def send(self, k: int, field: Field) -> None:
        """Hand snapshot ``k`` to the process; :meth:`finish` writes it if the process does not."""
        if self.fd is not None:
            data = memoryview(self.module.RECORD.pack(k, field.values.size) + field.values.tobytes())
            try:
                while data:
                    data = data[os.write(self.fd, data):]
            except BrokenPipeError:   # the process stopped at a file it could not write
                self.close()

    def close(self) -> None:
        """End the stream and wait for the process to write what it was sent and exit."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            self.exit_status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None

    def finish(self, traj: Trajectory) -> None:
        """Close the stream; raise the :class:`ConfigError` of the first snapshot of ``traj`` not written.

        Unless a process ran and exited 0, every snapshot of ``traj`` is
        written here, in this process.  A file the process could not write
        then fails again, and its reason is raised.
        """
        self.close()
        if self.exit_status != 0:
            failure = self.module.write(*self.args, enumerate(field.values.tolist() for field in traj.fields))
            if failure is not None:
                raise _write_error(*failure)


def _write_diagnostics(outdir: Path, traj: Trajectory) -> None:
    _write_csv(
        outdir / "diagnostics.csv",
        diagnostics.DiagnosticsRecord.COLUMNS,
        (rec.as_row() for rec in traj.records),
    )


def _write_checks(outdir: Path, tag: str, results) -> None:
    _write_csv(
        outdir / f"{tag}checks.csv",
        ("check", "verdict", "worst_margin", "first_violation", "detail"),
        ((r.name, "pass" if r.passed else "fail", r.worst_margin,
          "" if r.first_violation is None else r.first_violation, r.detail) for r in results),
    )


def _load_config(args) -> tuple[RunConfig, Path]:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(None, f"cannot read config {args.config}: {getattr(exc, 'strerror', None) or exc}")]) from exc
    cfg = parse_config(text)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.seed is not None:
        try:
            cfg = replace(cfg, validate=replace(cfg.validate, seed=args.seed))
        except ValueError as exc:
            raise ConfigError([(None, f"--seed: {exc}")]) from exc
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([(None, f"cannot create output directory {outdir}: {exc.strerror or exc}")]) from exc
    return cfg, outdir


def _witness_str(witness) -> str:
    if not witness:
        return ""
    return ";".join(f"{k}={_fmt(float(v)) if isinstance(v, (int, float)) else v}" for k, v in witness.items())


def cmd_validate(args) -> int:
    cfg, outdir = _load_config(args)
    profiles = [cfg.profile] if cfg.profile_b is None else [cfg.profile, cfg.profile_b]
    (ctx,), _, _ = _prepare_run(cfg, *profiles)
    reports = check_axioms(ctx.regkernel.base, R=ctx.bound_R, epsilon=ctx.regkernel.epsilon, sampling=cfg.validate)
    _write_csv(
        outdir / "axioms.csv",
        ("axiom", "verdict", "worst_violation", "tolerance", "samples_used", "estimate", "witness"),
        ((r.axiom, r.verdict, r.worst_violation, r.tolerance, r.samples_used,
          "" if r.estimate is None else r.estimate, _witness_str(r.witness)) for r in reports),
    )
    for r in reports:
        print(f"{r.axiom}: {r.verdict} (worst {r.worst_violation:.3e}, tol {r.tolerance:.3e}, "
              f"samples {r.samples_used})")
    return EXIT_OK if all(r.verdict == "pass" for r in reports) else EXIT_AXIOM


def _initial_field(pc: ProfileSection, grid: GridSpec) -> Field:
    u0 = sample_profile(build_profile(pc, grid), grid)
    if pc.mollify is not None:
        u0 = mollify_initial(u0, grid, pc.mollify)
    return u0


def _prepare_run(cfg: RunConfig, *profiles: ProfileSection, radii: list[float] | None = None):
    """Operator contexts, initial fields and solver config for ``profiles``.

    One context per cutoff radius of ``radii``, in its order; by default
    the solver's ``epsilon`` alone.  The cutoff level ``R`` is
    ``solver.r``, else ``max(1, sup|u0|)`` over the initial fields; a
    ``solver.r`` below that sup norm is a :class:`ConfigError`, because the
    solutions never leave ``[-sup|u0|, sup|u0|]`` and every bound built on
    ``R`` assumes ``|u| <= R``.
    """
    kernel = build_kernel(cfg)
    sc = solver_config(cfg)
    fields = [_initial_field(pc, cfg.grid) for pc in profiles]
    sup = max(float(np.max(np.abs(f.values))) for f in fields)
    R = cfg.solver.r
    if R is None:
        R = max(1.0, sup)
    elif R < sup:
        raise ConfigError([(None, f"solver.r = {R:g} is below the initial sup norm {sup:g}; "
                                  "the certified bounds assume |u| <= solver.r")])
    contexts = [build_context(cfg.grid, regularize(kernel, eps), R) for eps in radii or [sc.epsilon]]
    return contexts, fields, sc


# The slack of each monotone check for a series that starts at most at 1; above 1 it scales with
# the series' first value, so that roundoff in large data is not a rise.  bv = 2 l1 + tv.
_MONOTONE_SLACKS = {"l1": 1e-10, "l2": 1e-10, "linf": 1e-10, "tv": 1e-9, "bv": 1e-9 + 2e-10}


def _monotone_checks(traj: Trajectory):
    return [check_monotone_series(traj, quantity, slack * max(1.0, traj.series(quantity)[0]))
            for quantity, slack in _MONOTONE_SLACKS.items()]


def _report_checks(results) -> int:
    """Print one line per check, name the failed ones on stderr, and return the exit code."""
    for r in results:
        print(f"{r.name}: {'pass' if r.passed else 'fail'} (worst margin {r.worst_margin:.3e})")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"structural check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, outdir = _load_config(args)
    (ctx,), (u0,), sc = _prepare_run(cfg, cfg.profile)
    with contextlib.closing(_SnapshotStream(outdir, ctx, sc)) as snapshots:
        try:
            traj = run_solver(ctx, u0, sc, on_snapshot=snapshots.send)
        except SolverAbortError as exc:
            if exc.trajectory is not None:
                snapshots.finish(exc.trajectory)
                _write_diagnostics(outdir, exc.trajectory)
            raise
        snapshots.finish(traj)
    _write_diagnostics(outdir, traj)
    results = _monotone_checks(traj)
    _write_checks(outdir, "", results)
    return _report_checks(results)


def cmd_compare(args) -> int:
    cfg, outdir = _load_config(args)
    if cfg.profile_b is None:
        raise ConfigError([(None, "compare needs a profile_b.* section")])
    (ctx,), (u0, v0), sc = _prepare_run(cfg, cfg.profile, cfg.profile_b)
    traj_u = run_solver(ctx, u0, sc)
    traj_v = run_solver(ctx, v0, sc)

    slack = 2.0 * sc.picard_tol * max(traj_u.steps, 1)   # one Picard tolerance per step and run
    results = [check_contraction(traj_u, traj_v, slack)]
    lo, hi = (traj_v, traj_u) if np.all(v0.values <= u0.values) else (traj_u, traj_v)
    try:
        results.append(check_comparison(lo, hi, slack))
    except OrderingError:
        print("initial profiles are not ordered; comparison skipped, contraction still checked")

    _write_csv(
        outdir / "compare.csv",
        ("t", "l1_distance", "min_gap"),
        zip(traj_u.times, diagnostics.l1_distances(traj_u, traj_v), diagnostics.min_gaps(lo, hi)),
    )
    _write_checks(outdir, "compare_", results)
    return _report_checks(results)


def cmd_converge(args) -> int:
    cfg, outdir = _load_config(args)
    try:
        contexts, (u0,), sc = _prepare_run(cfg, cfg.profile, radii=resolve_eps_list(cfg))
    except ValueError as exc:
        if cfg.solver.eps_list is not None:   # parse_config built the configured radii, not the default 4h, 2h, h
            raise
        raise ConfigError([(None, f"solver.eps_list: default radii 4h, 2h, h: {exc}; set solver.eps_list")]) from exc
    _, table = continuation_in_epsilon(contexts, u0, sc)
    _write_csv(outdir / "cauchy.csv", ("eps_coarse", "eps_fine", "l1_distance"), table)
    for row in table:
        print(f"d(eps={row[0]:g} -> {row[1]:g}) = {row[2]:.6e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit on a usage error with code 1 and a one-line message."""
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays below 32 MB in the heap instead of returning them to the kernel.

    An operator apply reallocates ~512 KB batch temporaries; with glibc's default thresholds one 2-d
    64x64 run took 24,000-100,000 minor faults to map them back in.  A kernel's ``eval_fn`` allocates
    its own temporaries too, so a scratch workspace per operator context would not make this redundant.
    The operator's worker thread allocates from a glibc arena of its own, which the next apply's worker
    takes over; the same thresholds keep its freed arrays.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt(-3, 1 << 25)   # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 28)   # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _Parser(
        prog="jumpdiff",
        description="Nonlocal diffusion with solution-dependent jump kernels on a periodic lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, descr in (
        ("validate", cmd_validate, "check the configured kernel against the admissibility conditions"),
        ("run", cmd_run, "integrate the configured problem and write snapshots/diagnostics"),
        ("compare", cmd_compare, "run two initial conditions; check contraction and comparison"),
        ("converge", cmd_converge, "run a decreasing sequence of regularization radii"),
    ):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="path to the key=value configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if fn is cmd_validate:   # the seed of the axiom sampling; no other command reads one
            p.add_argument("--seed", type=int, help="seed of the axiom sampling (overrides validate.seed)")
        p.set_defaults(fn=fn, seed=None)
    args = parser.parse_args(argv)
    with warnings.catch_warnings():   # the filters stay; a shown warning prints without its source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_CONFIG
        except EmptyNeighborhoodError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverAbortError as exc:
            print(f"solver aborted: {exc}", file=sys.stderr)
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
