"""Command-line front end: scenario files in, CSV tables out.

Subcommands: check, evolve, measure, sweep.  Exit codes are uniform across
subcommands: 0 success / conditions hold, 1 computed negative result or
runtime failure, 2 input error.  Commands raise; main alone maps a failure
to its exit code and prints it as one ``error:`` line to stderr (an unknown
option gets argparse's usage message), so no input ends in a traceback.
The measure command and the sweep both run scenarios.measure_batch, on one
scenario or on batches of sweep points.  All output files are UTF-8 with LF
line endings; floats use the dot decimal separator at full precision, so
repeated runs with identical inputs produce identical bytes.  A trajectory
is formatted a block of rows per numpy call (_format_rows), in the bytes of
one "%.17g" per cell; a cell that call cannot certify goes through "%".  Its
lookup tables, measurement.DIGIT_GROUPS among them, are read-only.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .linalg import InvariantViolationError, read_only
from .measurement import DIGIT_GROUPS
from .model import check_conditions, prepare_initial
from .dynamics import evolve_stepped, exact_trajectory
from .scenarios import (
    DEFAULT_ETA_GRID,
    MAX_DIM,
    Schedule,
    interpolation_sweep,
    run_measurements,
    write_sweep_csv,
)
from .scenario_io import load_scenario_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def cmd_check(args) -> int:
    s = load_scenario_file(args.scenario)
    report = check_conditions(s.model)
    _say(args, f"eq4_defect = {_fmt(report.eq4_defect)}  holds = {report.eq4_holds}")
    _say(args, f"eq5_defect = {_fmt(report.eq5_defect)}  holds = {report.eq5_holds}")
    return EXIT_OK if report.both_hold else EXIT_NEGATIVE


# decimal exponents of 1e-270 <= |x| < 1e270, log10's last bit either way;
# their double-double products neither overflow nor leave the normal range
_K_MIN, _K_MAX = -271, 271
_TIE_EPS = 2.0**-30  # far above the ~1e-14 error of a formed fraction
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_BLOCK_CELLS = 8192  # cells per _format_rows call, ~160 B of temporaries each


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _pow10():
    """10**q for q = 16 - k, k from _K_MAX down to _K_MIN, as the nearest
    double hi and the nearest double lo to the rest."""
    hi, lo = [], []
    for q in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = num / den  # int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    return read_only(hi, float), read_only(lo, float)


def _pack(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)


_P10_HI, _P10_LO = _pow10()
_P10_HH, _P10_HL = (read_only(a, float) for a in _split(_P10_HI))
# index ((negative * 5 + m) * 10 + first digit) * 2 + dot: a sign, "0." and
# m - 1 zeros for -4 <= k <= -1 (m = -k), the first digit (byte 6), a dot
_HEADS = _pack(s + p.ljust(5, "\0") + d + dot for s in ("\0", "-")
               for p in ("", "0.", "0.0", "0.00", "0.000")
               for d in "0123456789" for dot in ("\0", "."))
# index k - _K_MIN: %g's exponent form for k < -4 or k >= 17, "," last
_TAILS = _pack(("e%+03d" % k if not -4 <= k < 17 else "").ljust(7, "\0") + ","
               for k in range(_K_MIN, _K_MAX + 1))


def _format_rows(rows: np.ndarray) -> bytes:
    """The CSV lines of a C-contiguous block: each cell as "%.17g" % x writes
    it, "," between cells and "\\n" after each row.

    A finite x with 1e-270 <= |x| < 1e270 and k = floor(log10|x|) prints the
    17 digits of D = round(|x| * 10**(16 - k)).  The product is a
    double-double (Dekker's two-product against 10**q as hi + lo), within
    ~1e-14 of exact, so D is certain when 10**16 < D < 10**17 (k was right
    and rounding did not carry) and its fraction is more than _TIE_EPS from
    1/2.  Zeros are laid out here too; any other cell, and any cell with
    10 <= |x| < 1e17 (no state entry, only a time of 10 or more), goes
    through "%".
    A cell fills a 32-byte slot: sign, "0.000" prefix, first digit and dot,
    four 4-digit groups, exponent and separator; the pad bytes, 0, are
    dropped at the end.
    """
    x = rows.ravel()
    a = np.abs(x)
    ok = (a >= 1e-270) & (a < 1e270)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    i = _K_MAX - k
    a_hi, a_lo = _split(a)
    hh, hl = _P10_HH.take(i), _P10_HL.take(i)
    s = a * _P10_HI.take(i)  # s + t = |x| * 10**(16 - k); s >= 2**53, an integer
    t = ((a_hi * hh - s) + a_hi * hl + a_lo * hh) + a_lo * hl
    t += a * _P10_LO.take(i)
    del a, a_hi, a_lo, hh, hl, i
    r = np.rint(t)
    d = s.astype(np.int64) + r.astype(np.int64)
    t -= r  # the fraction of D, in [-1/2, 1/2]
    ok &= (np.abs(t) < 0.5 - _TIE_EPS) & (d > 10**16) & (d < 10**17)
    ok &= (k <= 0) | (k >= 17)  # 10 <= |x| < 1e17 puts the dot inside the digits
    del s, t, r
    d[~ok] = 0
    k[~ok] = 0

    grid = np.empty((x.size, 32), np.uint8)
    lanes = grid.view(np.uint32)
    top = d // 10**8
    low = (d - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    first = top // np.uint32(10**8)
    top -= first * np.uint32(10**8)
    # from the last group: a group prints stripped while all after it are 0
    ten4 = np.uint32(10000)
    zero = np.ones(x.size, bool)
    low_hi, top_hi = low // ten4, top // ten4
    for lane, g in ((5, low - low_hi * ten4), (4, low_hi), (3, top - top_hi * ten4), (2, top_hi)):
        lanes[:, lane] = DIGIT_GROUPS.take(g + zero.astype(np.uint32) * ten4)
        zero &= g == 0
    m = np.where((k < 0) & (k >= -4), -k, 0)
    dot = ~zero & (m == 0)
    head = (np.signbit(x).astype(np.int64) * 5 + m) * 10 + first
    grid.view(np.uint64)[:, 0] = _HEADS[head * 2 + dot]
    grid.view(np.uint64)[:, 3] = _TAILS[k - _K_MIN]
    grid.reshape(*rows.shape, 32)[:, -1, 31] = ord("\n")

    for j in np.flatnonzero(~ok & (x != 0)):
        grid[j, :31] = np.frombuffer((b"%.17g" % x[j]).ljust(31, b"\0"), np.uint8)
    return grid.tobytes().translate(None, b"\0")


def _write_rows(fh, times, cells) -> None:
    """Row k is times[k] and then cells[k], as _format_rows writes them, a
    block of rows per call."""
    step = max(1, _BLOCK_CELLS // (1 + cells.shape[1]))
    block = np.empty((min(step, len(cells)), 1 + cells.shape[1]))
    for start in range(0, len(cells), step):
        rows = block[: len(cells[start:start + step])]
        rows[:, 0] = times[start:start + step]
        rows[:, 1:] = cells[start:start + step]
        fh.write(_format_rows(rows))


def _write_trajectory(path, traj) -> None:
    d = traj.states.shape[1]
    cols = [f"{p}_{r}_{c}" for r in range(d) for c in range(d) for p in ("re", "im")]
    with open(path, "wb") as fh:
        fh.write((",".join(["time"] + cols) + "\n").encode())
        # the float view interleaves re and im
        _write_rows(fh, traj.times, traj.states.view(float).reshape(len(traj.times), -1))


def cmd_evolve(args) -> int:
    s = load_scenario_file(args.scenario)
    if not (0 <= args.t_end < math.inf and 0 < args.dt < math.inf
            and args.t_end / args.dt < math.inf):
        raise ValueError("need finite t-end >= 0, dt > 0 and t-end / dt")
    n = int(round(args.t_end / args.dt))
    if args.t_end > 0 and n < 1:
        raise ValueError("t-end must span at least one step of dt")
    if n * args.t_end == math.inf:  # the grid's times are k * t-end / n
        raise ValueError("t-end times its step count overflows")
    w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
    if args.stepped and n > 0:
        traj = evolve_stepped(s.model, w0, args.t_end, args.dt)
    else:
        traj = exact_trajectory(s.model, w0, np.arange(n + 1) * args.t_end / max(n, 1))
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
    s = load_scenario_file(args.scenario)
    seed = s.seed if args.seed is None else args.seed
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sched = replace(
        s.schedule,
        n_repeats=s.schedule.n_repeats if args.repeats is None else args.repeats,
        n_trials=s.schedule.n_trials if args.trials is None else args.trials,
    )
    run = run_measurements(replace(s, schedule=sched, seed=seed))
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
        bounds = [int(b) for b in part.split(":")]
        if len(bounds) > 2:
            raise ValueError(f"expected an integer or lo:hi, got {part!r}")
        out.extend(range(*bounds) if len(bounds) == 2 else bounds)
    return out


def _option(name: str, parse, text: str):
    """parse(text), a ValueError it raises naming the option."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def cmd_sweep(args) -> int:
    dims = _option("--dims", lambda t: tuple(int(x) for x in t.split(",")), args.dims)
    eta_grid = _option("--eta-grid", _parse_float_list, args.eta_grid)
    seeds = _option("--seeds", _parse_int_list, args.seeds)
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
    schedule = Schedule(
        tau=args.tau,
        delta_tau=args.delta_tau,
        n_repeats=args.repeats,
        n_trials=args.trials,
    )
    rows = interpolation_sweep(dims, eta_grid, seeds, schedule)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_sweep_csv(rows, fh)
        _say(args, f"swept {len(rows)} (eta, seed) points")
    else:  # stdout carries the table alone
        write_sweep_csv(rows, sys.stdout)
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
    p_evolve.add_argument(
        "--stepped", action="store_true", help="RK4 steps instead of the exact propagator"
    )
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
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
