"""Command-line front end: scenario files in, CSV tables out.

Subcommands: check, evolve, measure, sweep.  Exit codes are uniform across
subcommands: 0 success / conditions hold, 1 computed negative result or
runtime failure, 2 input error.  A bad value or scenario file prints one
``error:`` line to stderr (an unknown option gets argparse's usage message);
no input ends in a traceback.  The measure command and the sweep both
run scenarios.run_measurements.  All output files are UTF-8 with LF line
endings; floats use the dot decimal separator at full precision, so repeated
runs with identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .model import check_conditions, prepare_initial
from .dynamics import IntegrationError, evolve_stepped, exact_trajectory
from .measurement import ImpossibleOutcomeError
from .scenarios import (
    DEFAULT_ETA_GRID,
    Schedule,
    interpolation_sweep,
    run_measurements,
    write_sweep_csv,
)
from .scenario_io import ScenarioFormatError, load_scenario_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def _load(path, args):
    try:
        return load_scenario_file(path)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_check(args) -> int:
    s = _load(args.scenario, args)
    if s is None:
        return EXIT_INPUT
    report = check_conditions(s.model)
    _say(args, f"eq4_defect = {_fmt(report.eq4_defect)}  holds = {report.eq4_holds}")
    _say(args, f"eq5_defect = {_fmt(report.eq5_defect)}  holds = {report.eq5_holds}")
    return EXIT_OK if report.both_hold else EXIT_NEGATIVE


def _write_trajectory(path, traj) -> None:
    d = traj.states.shape[1]
    cols = [f"{p}_{r}_{c}" for r in range(d) for c in range(d) for p in ("re", "im")]
    # "%.17g" prints what _fmt does; the float view interleaves re and im.
    row = ",".join(["%.17g"] * (1 + len(cols))) + "\n"
    cells = traj.states.view(float).reshape(len(traj.times), -1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["time"] + cols) + "\n")
        for t, w in zip(traj.times.tolist(), cells):
            fh.write(row % (t, *w.tolist()))


def cmd_evolve(args) -> int:
    s = _load(args.scenario, args)
    if s is None:
        return EXIT_INPUT
    if not (0 <= args.t_end < math.inf and 0 < args.dt < math.inf
            and args.t_end / args.dt < math.inf):
        print("error: need finite t-end >= 0, dt > 0 and t-end / dt", file=sys.stderr)
        return EXIT_INPUT
    n = int(round(args.t_end / args.dt))
    if args.t_end > 0 and n < 1:
        print("error: t-end must span at least one step of dt", file=sys.stderr)
        return EXIT_INPUT
    w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
    try:
        if args.stepped and n > 0:
            traj = evolve_stepped(s.model, w0, args.t_end, args.dt)
        else:
            traj = exact_trajectory(s.model, w0, np.arange(n + 1) * args.t_end / max(n, 1))
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except MemoryError:
        print(f"error: a trajectory of {n + 1} states does not fit in memory", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        _write_trajectory(args.out, traj)
    final = traj.states[-1]
    trace_dev = abs(float(np.trace(final).real) - 1.0)
    purity0 = float(np.trace(w0.matrix @ w0.matrix).real)
    purity1 = float(np.trace(final @ final).real)
    _say(args, f"terminal trace deviation = {_fmt(trace_dev)}")
    _say(args, f"purity drift = {_fmt(abs(purity1 - purity0))}")
    return EXIT_OK


def cmd_measure(args) -> int:
    s = _load(args.scenario, args)
    if s is None:
        return EXIT_INPUT
    seed = s.seed if args.seed is None else args.seed
    sched = s.schedule
    try:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        sched = replace(
            sched,
            n_repeats=sched.n_repeats if args.repeats is None else args.repeats,
            n_trials=sched.n_trials if args.trials is None else args.trials,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    s = replace(s, schedule=sched, seed=seed)
    try:
        run = run_measurements(s)
    except ImpossibleOutcomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            run.trials.write_csv(fh)
    if args.repeat_out:
        with open(args.repeat_out, "w", encoding="utf-8", newline="\n") as fh:
            run.repeats.write_csv(fh)
    _say(args, f"sigma_analytic = {_fmt(run.sigma_analytic)}")
    _say(args, f"sigma_empirical = {_fmt(run.sigma_empirical)}")
    degenerate = " (degenerate: single trial)" if sched.n_trials < 2 else ""
    _say(args, f"reading_variance = {_fmt(run.reading_variance)}{degenerate}")
    _say(args, f"repeat_changes = {run.repeats.outcome_changes()}")
    return EXIT_OK


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":")
            out.extend(range(int(lo), int(hi)))
        else:
            out.append(int(part))
    return out


def cmd_sweep(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
        eta_grid = _parse_float_list(args.eta_grid)
        seeds = _parse_int_list(args.seeds)
        if len(dims) != 2:
            raise ValueError("dims must be dS,dM")
        if min(dims) < 2:
            raise ValueError("dims must be at least 2 on each side")
        if not seeds:
            raise ValueError("seed list is empty")
        if min(seeds) < 0:
            raise ValueError("seeds must be non-negative")
        if not eta_grid:
            raise ValueError("eta grid is empty")
        if any(not 0.0 <= e <= 1.0 for e in eta_grid):
            raise ValueError("eta values must lie in [0, 1]")
        schedule = Schedule(
            tau=args.tau,
            delta_tau=args.delta_tau,
            n_repeats=args.repeats,
            n_trials=args.trials,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rows = interpolation_sweep(dims, eta_grid, seeds, schedule)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_sweep_csv(rows, fh)
    else:
        write_sweep_csv(rows, sys.stdout)
    _say(args, f"swept {len(rows)} (eta, seed) points")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Bipartite system-apparatus measurement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options are matched in full, so "--seed" cannot stand for sweep's "--seeds".

    def common(p):
        p.add_argument("--quiet", action="store_true", help="suppress stdout summary")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")

    p_check = sub.add_parser(
        "check", help="evaluate the commutation conditions", allow_abbrev=False
    )
    p_check.add_argument("scenario", type=Path)
    p_check.add_argument("--quiet", action="store_true", help="suppress stdout summary")

    p_evolve = sub.add_parser(
        "evolve", help="propagate the joint state", allow_abbrev=False
    )
    p_evolve.add_argument("scenario", type=Path)
    p_evolve.add_argument("--t-end", type=float, default=1.0)
    p_evolve.add_argument("--dt", type=float, default=1e-3)
    mode = p_evolve.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="stepped", action="store_false")
    mode.add_argument("--stepped", dest="stepped", action="store_true")
    p_evolve.set_defaults(stepped=False)
    common(p_evolve)

    p_measure = sub.add_parser(
        "measure", help="run measurement protocols", allow_abbrev=False
    )
    p_measure.add_argument("scenario", type=Path)
    p_measure.add_argument("--repeats", type=int, default=None)
    p_measure.add_argument("--trials", type=int, default=None)
    p_measure.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_measure.add_argument(
        "--repeat-out", type=Path, default=None,
        help="CSV path for the repeated-measurement sequence",
    )
    common(p_measure)

    p_sweep = sub.add_parser(
        "sweep", help="interpolation sweep over (eta, seed)", allow_abbrev=False
    )
    p_sweep.add_argument("--dims", default="2,2", help="dS,dM")
    p_sweep.add_argument(
        "--eta-grid", default=",".join(str(e) for e in DEFAULT_ETA_GRID)
    )
    p_sweep.add_argument("--seeds", default="0:20", help="comma list or lo:hi range")
    p_sweep.add_argument("--tau", type=float, default=1.0)
    p_sweep.add_argument("--delta-tau", type=float, default=0.5)
    p_sweep.add_argument("--repeats", type=int, default=5)
    p_sweep.add_argument("--trials", type=int, default=50)
    common(p_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Built per call: no parser or namespace outlives main holding a command.
    commands = {"check": cmd_check, "evolve": cmd_evolve,
                "measure": cmd_measure, "sweep": cmd_sweep}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
