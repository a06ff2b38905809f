"""Command-line driver: validate | run | compare | converge.

Exit codes form a small contract for CI use:

* 0 -- everything requested passed;
* 1 -- the command line or the configuration could not be parsed or
  validated, including a ``--config`` that cannot be read as UTF-8 text,
  an output directory that cannot be created, an output file that cannot
  be written, a ``compare`` config without ``profile_b.*`` and a cutoff
  radius ``solver.epsilon`` that leaves no lattice neighbour;
* 2 -- an axiom check failed (``validate``);
* 3 -- the solver aborted (an explicit ``solver.dt`` above the CFL limit,
  a certified row-sum bound that leaves no positive dt, a dt that needs
  more steps than the step budget ``evolve.MAX_STEPS`` = 10^7, an implicit
  step that still diverged after 10 dt halvings, a non-finite kernel value
  or update in an explicit step, a broken sup-norm guard) or a run's
  structural check failed.

Each failure prints a one-line message on stderr, never a traceback.  The
commands raise; ``main`` maps a :class:`config.ConfigError` or an empty
neighbourhood to exit 1 and a solver failure to exit 3.

All outputs are CSV files under ``--out`` (or ``output.dir``): field
snapshots (``i,x[,y],u``), a diagnostics stream with one row per snapshot,
one summary row per enabled check, axiom reports, comparison and Cauchy
tables.  Floats are written with 17 significant digits so files round-trip
exactly; identical configs produce byte-identical outputs.  ``--seed``
(overriding ``validate.seed``) is ``validate``'s alone: only axiom sampling reads it.
Snapshots are filled into a row template built once per grid, one string
operation per file; the bytes are those ``csv.writer`` gives for the same
rows (``\\r\\n`` line endings).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .axioms import check_axioms
from .config import (
    ConfigError,
    ProfileConfig,
    RunConfig,
    build_kernel,
    build_profile,
    parse_config,
    resolve_eps_list,
    solver_config,
)
from .diagnostics import OrderingError, check_comparison, check_contraction, check_monotone_series
from .evolve import (
    CflViolationError,
    SolverAbortError,
    Trajectory,
    continuation_in_epsilon,
    mollify_initial,
    run as run_solver,
)
from .kernels import regularize
from .lattice import Field, GridSpec, sample_profile
from .operator import EmptyNeighborhoodError, build_context

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AXIOM = 2
EXIT_SOLVER = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@contextlib.contextmanager
def _output_file(path: Path):
    """``path`` opened for writing; an ``OSError`` in opening or writing it becomes a :class:`ConfigError`."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError([(None, f"cannot write output file {path}: {exc.strerror or exc}")]) from exc


def _write_csv(path: Path, header, rows) -> None:
    with _output_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _snapshot_template(grid: GridSpec) -> str:
    """A whole snapshot file of ``grid`` with each ``u`` cell left as ``%.17g``.

    The ``i,x[,y]`` cells are formatted here once per grid, with the same
    ``_fmt`` and the same ``\\r\\n`` line ending as ``_write_csv``; for a
    Python float ``'%.17g' % u`` is ``format(u, '.17g')``, so a filled
    template is the file ``csv.writer`` writes, byte for byte.
    """
    header = "i,x,u" if grid.dimension == 1 else "i,x,y,u"
    centers = grid.cell_centers().tolist()
    rows = [",".join([str(i), *map(_fmt, xs), "%.17g"]) for i, xs in enumerate(centers)]
    return "\r\n".join([header, *rows, ""])


def _write_snapshot(path: Path, field: Field, template: str) -> None:
    """Write ``field`` as ``i,x[,y],u`` rows; ``template`` is ``_snapshot_template(field.grid)``."""
    with _output_file(path) as fh:
        fh.write(template % tuple(field.values.tolist()))


def _write_trajectory(outdir: Path, tag: str, traj: Trajectory) -> None:
    template = _snapshot_template(traj.grid)
    for k, field in enumerate(traj.fields):
        _write_snapshot(outdir / f"{tag}snapshot_{k:06d}.csv", field, template)
    _write_csv(
        outdir / f"{tag}diagnostics.csv",
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
    kernel = build_kernel(cfg)
    reports = check_axioms(kernel, R=cfg.validate.r, epsilon=cfg.validate.epsilon,
                           sample_budget=cfg.validate.budget, seed=cfg.validate.seed)
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


def _initial_field(pc: ProfileConfig, grid: GridSpec) -> Field:
    u0 = sample_profile(build_profile(pc, grid), grid)
    if pc.mollify is not None:
        u0 = mollify_initial(u0, grid, pc.mollify)
    return u0


def _prepare_run(cfg: RunConfig, *profiles: ProfileConfig, radii: list[float] | None = None):
    """Operator contexts, initial fields and solver config for ``profiles``.

    One context per cutoff radius of ``radii``, in its order; by default
    the solver's ``epsilon`` alone.  Without ``solver.r`` the cutoff level
    ``R`` covers every initial field.
    """
    kernel = build_kernel(cfg)
    sc = solver_config(cfg)
    fields = [_initial_field(pc, cfg.grid) for pc in profiles]
    R = cfg.solver.r
    if R is None:
        R = max([1.0] + [float(np.max(np.abs(f.values))) for f in fields])
    contexts = [build_context(cfg.grid, regularize(kernel, eps), R) for eps in radii or [sc.epsilon]]
    return contexts, fields, sc


def _monotone_checks(cfg: RunConfig, traj: Trajectory):
    s = cfg.diag
    return [
        check_monotone_series(traj, "l1", s.slack_norms),
        check_monotone_series(traj, "l2", s.slack_norms),
        check_monotone_series(traj, "linf", s.slack_norms),
        check_monotone_series(traj, "tv", s.slack_tv),
        check_monotone_series(traj, "bv", s.slack_tv + 2 * s.slack_norms),
    ]


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
    try:
        traj = run_solver(ctx, u0, sc)
    except SolverAbortError as exc:
        if exc.trajectory is not None:
            _write_trajectory(outdir, "", exc.trajectory)
        raise
    _write_trajectory(outdir, "", traj)
    results = _monotone_checks(cfg, traj)
    _write_checks(outdir, "", results)
    return _report_checks(results)


def _contraction_slack(cfg: RunConfig, traj: Trajectory) -> float:
    if cfg.diag.slack_contraction is not None:
        return cfg.diag.slack_contraction
    return 2.0 * cfg.solver.picard_tol * max(traj.steps, 1)


def cmd_compare(args) -> int:
    cfg, outdir = _load_config(args)
    if cfg.profile_b is None:
        raise ConfigError([(None, "compare needs a profile_b.* section")])
    (ctx,), (u0, v0), sc = _prepare_run(cfg, cfg.profile, cfg.profile_b)
    traj_u = run_solver(ctx, u0, sc)
    traj_v = run_solver(ctx, v0, sc)

    slack = _contraction_slack(cfg, traj_u)
    results = [check_contraction(traj_u, traj_v, slack)]
    lo, hi = (traj_v, traj_u) if np.all(v0.values <= u0.values) else (traj_u, traj_v)
    comp_slack = cfg.diag.slack_comparison if cfg.diag.slack_comparison is not None else slack
    try:
        results.append(check_comparison(lo, hi, comp_slack))
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
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except EmptyNeighborhoodError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CflViolationError, SolverAbortError) as exc:
        print(f"solver aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
