"""Command-line front end: scenario files in, CSV tables out.

Subcommands: check, evolve, measure, sweep.  Exit codes are uniform across
subcommands: 0 success / conditions hold, 1 computed negative result or
runtime failure, 2 input error.  Commands raise; main alone maps a failure
to its exit code and prints it as one ``error:`` line to stderr (an unknown
option, or a typed option's bad value quoted cut short, gets argparse's usage
message), so no input ends in a traceback.  A scenario file loads as a
one-point Scenario: both evolve paths run its prepared ensemble of kets
(Scenario.ensemble) on one time_grid, and measure runs measure_batch on it and
alone makes records of its outcomes.
All output is UTF-8 with LF endings and full-precision dot-decimal floats,
so repeated runs with identical inputs produce identical bytes.
csvtext writes the trajectory and record files, scenarios the sweep table.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .csvtext import write_trajectory
from .linalg import InvariantViolationError
from .measurement import MeasurementRecord
from .model import check_conditions, shown
from .dynamics import evolve_stepped, exact_trajectory, time_grid
from .scenarios import (
    DEFAULT_ETA_GRID,
    MAX_DIM,
    Schedule,
    interpolation_sweep,
    measure_batch,
    write_sweep_csv,
)
from .scenario_io import load_scenario_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def cmd_check(args) -> int:
    s = load_scenario_file(args.scenario)
    report = check_conditions(s.model)
    _say(args, f"eq4_defect = {report.eq4_defect:.17g}  holds = {report.eq4_holds}")
    _say(args, f"eq5_defect = {report.eq5_defect:.17g}  holds = {report.eq5_holds}")
    return EXIT_OK if report.both_hold else EXIT_NEGATIVE


def cmd_evolve(args) -> int:
    s = load_scenario_file(args.scenario)
    times = time_grid(args.t_end, args.dt)
    states = (evolve_stepped if args.stepped else exact_trajectory)(s.model, *s.ensemble, times)
    if args.out:
        write_trajectory(args.out, times, states)
    initial, final = states[0], states[-1]
    trace_dev = abs(float(np.trace(final).real) - 1.0)
    purity0 = float(np.trace(initial @ initial).real)
    purity1 = float(np.trace(final @ final).real)
    _say(args, f"terminal trace deviation = {trace_dev:.17g}")
    _say(args, f"purity drift = {abs(purity1 - purity0):.17g}")
    return EXIT_OK


def cmd_measure(args) -> int:
    s = load_scenario_file(args.scenario)
    seed = s.seeds[0] if args.seed is None else args.seed
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sched = replace(
        s.schedule,
        n_repeats=s.schedule.n_repeats if args.repeats is None else args.repeats,
        n_trials=s.schedule.n_trials if args.trials is None else args.trials,
    )
    run = measure_batch(replace(s, schedule=sched, seeds=(seed,)))
    i = s.preparation.system_index
    for path, trial, time, lam in [
        (args.out, np.arange(sched.n_trials), sched.tau, run.trial_lams),
        (args.repeat_out, 0, run.repeat_times, run.repeat_lams),
    ]:
        if path:  # the only records the pipeline's outcomes become
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                MeasurementRecord(i, trial, time, lam, s.readings).write_csv(fh)
    _say(args, f"sigma_analytic = {run.sigma_analytic:.17g}")
    _say(args, f"sigma_empirical = {run.sigma_empirical:.17g}")
    degenerate = " (degenerate: single trial)" if sched.n_trials < 2 else ""
    _say(args, f"reading_variance = {run.reading_variance:.17g}{degenerate}")
    _say(args, f"repeat_changes = {run.repeat_changes}")
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    out = []
    for part in filter(str.strip, text.split(",")):
        bounds = [int(b) for b in part.split(":")]
        if len(bounds) > 2:
            raise ValueError("more than lo:hi")  # _option words the message
        out.extend(range(*bounds) if len(bounds) == 2 else bounds)
    return out


def _option(name: str, parse, text: str, expected: str):
    """parse(text); a ValueError it raises names the option, what it expects and
    the text, as shown (int()'s or float()'s own message would echo up to all of it)."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name}: expected {expected}, got {shown(text)}") from None
    except (OverflowError, MemoryError):  # a lo:hi range no list can hold
        raise ValueError(f"{name}: range too large to list, got {shown(text)}") from None


def cmd_sweep(args) -> int:
    dims = _option("--dims", lambda t: tuple(int(x) for x in t.split(",")), args.dims, "dS,dM")
    eta_grid = _option("--eta-grid", lambda t: [float(x) for x in t.split(",") if x.strip()],
                       args.eta_grid, "numbers")
    seeds = _option("--seeds", _parse_int_list, args.seeds, "integers or lo:hi ranges")
    if len(dims) != 2:
        raise ValueError("dims must be dS,dM")
    if min(dims) < 2:
        raise ValueError("dims must be at least 2 on each side")
    if math.prod(dims) > MAX_DIM:
        raise ValueError(f"dims must have dS*dM <= {MAX_DIM}")
    if not seeds:
        raise ValueError("seed list is empty")
    if min(seeds) < 0:
        raise ValueError("seeds must be non-negative")
    if not eta_grid:
        raise ValueError("eta grid is empty")
    if any(not 0.0 <= e <= 1.0 for e in eta_grid):
        raise ValueError("eta values must lie in [0, 1]")
    schedule = Schedule(tau=args.tau, delta_tau=args.delta_tau, n_repeats=args.repeats,
                        n_trials=args.trials)
    rows = interpolation_sweep(dims, eta_grid, seeds, schedule)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_sweep_csv(rows, fh)
        _say(args, f"swept {len(rows)} (eta, seed) points")
    else:  # stdout carries the table alone
        write_sweep_csv(rows, sys.stdout)
    return EXIT_OK


def _typed(convert):
    """An argparse type: convert(text), quoting a value it refuses cut short
    (argparse's own message quotes the whole value)."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            message = f"invalid {convert.__name__} value: {shown(text)}"
            raise argparse.ArgumentTypeError(message) from None
    return parse


_int, _float = _typed(int), _typed(float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  It holds only
    options and plain-value defaults, and each parse_args returns a fresh
    Namespace, so no call's options reach the next."""
    parser = argparse.ArgumentParser(
        prog="qndsim", description="Bipartite system-apparatus measurement simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    # Options are matched in full, so "--seed" cannot stand for sweep's "--seeds".

    def common(p):
        p.add_argument("--quiet", action="store_true", help="suppress stdout summary")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")

    p_check = sub.add_parser("check", help="evaluate the commutation conditions",
                             allow_abbrev=False)
    p_check.add_argument("scenario", type=Path)
    p_check.add_argument("--quiet", action="store_true", help="suppress stdout summary")

    p_evolve = sub.add_parser("evolve", help="propagate the joint state", allow_abbrev=False)
    p_evolve.add_argument("scenario", type=Path)
    p_evolve.add_argument("--t-end", type=_float, default=1.0)
    p_evolve.add_argument("--dt", type=_float, default=1e-3)
    p_evolve.add_argument("--stepped", action="store_true",
                          help="RK4 steps instead of the exact propagator")
    common(p_evolve)

    p_measure = sub.add_parser("measure", help="run measurement protocols", allow_abbrev=False)
    p_measure.add_argument("scenario", type=Path)
    p_measure.add_argument("--repeats", type=_int, default=None)
    p_measure.add_argument("--trials", type=_int, default=None)
    p_measure.add_argument("--seed", type=_int, default=None, help="override scenario seed")
    p_measure.add_argument("--repeat-out", type=Path, default=None,
                           help="CSV path for the repeated-measurement sequence")
    common(p_measure)

    p_sweep = sub.add_parser("sweep", help="interpolation sweep over (eta, seed)",
                             allow_abbrev=False)
    p_sweep.add_argument("--dims", default="2,2", help="dS,dM")
    p_sweep.add_argument("--eta-grid", default=",".join(str(e) for e in DEFAULT_ETA_GRID))
    p_sweep.add_argument("--seeds", default="0:20", help="comma list or lo:hi range")
    p_sweep.add_argument("--tau", type=_float, default=1.0)
    p_sweep.add_argument("--delta-tau", type=_float, default=0.5)
    p_sweep.add_argument("--repeats", type=_int, default=5)
    p_sweep.add_argument("--trials", type=_int, default=50)
    common(p_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Built per call, unlike the parser: no object that outlives main holds a command.
    commands = {"check": cmd_check, "evolve": cmd_evolve,
                "measure": cmd_measure, "sweep": cmd_sweep}
    try:
        return commands[args.command](args)
    except (RuntimeError, InvariantViolationError) as exc:
        # a computed failure: a state that left the state space (an E t that
        # overflows included), an impossible outcome, a failing sweep point
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:  # a bad value, scenario file or output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # an input too large to allocate
        print("error: out of memory:", str(exc) or "input too large to allocate", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
