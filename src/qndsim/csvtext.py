"""CSV text: trajectory and measurement-record rows in the bytes of "%.17g"
and "%d", a block of rows per pass of numpy calls.  Cells are laid into one
byte grid with pad bytes 0, their digits taken from DIGIT_GROUPS by _groups,
and the pads dropped once per block.  A record row's text after its trial
is formatted by "%", once per pointer group when the record has one time and
once per row when it has a time per row.  Every module-level table is
read-only.
"""

from __future__ import annotations

import numpy as np

from .linalg import read_only


def _digit_groups() -> np.ndarray:
    """4 bytes per 4-digit group g, pad bytes 0: its digits (index g), with
    trailing zeros as pads (10000 + g: a fraction's last group), with leading
    zeros as pads but the last digit kept (20000 + g: a number's last group
    when all before it are 0), and with every leading zero as a pad (30000 +
    g: an earlier group when all before it are 0, blank for 0)."""
    digits = (np.indices((10,) * 4).reshape(4, -1).T + ord("0")).astype(np.uint8, order="C")
    zeros = digits == ord("0")
    trailing = np.logical_and.accumulate(zeros[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zeros, axis=1)
    kept = leading.copy()
    kept[:, -1] = False
    table = np.concatenate([digits, digits * ~trailing, digits * ~kept, digits * ~leading])
    return read_only(table.view(np.uint32).ravel(), np.uint32)


DIGIT_GROUPS = _digit_groups()
_TRAILING, _LAST_LEADING, _LEADING = 10000, 20000, 30000
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
_RECORD_BLOCK = 4096  # rows per write_record block, ~100 B of temporaries each

# decimal exponents of 1e-270 <= |x| < 1e270, log10's last bit either way;
# their double-double products neither overflow nor leave the normal range
_K_MIN, _K_MAX = -271, 271
_TIE_EPS = 2.0**-30  # far above the ~1e-14 error of a formed fraction
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_BLOCK_CELLS = 8192  # cells per _format_rows call, ~160 B of temporaries each


def _groups(n: np.ndarray, count: int) -> list:
    """count 4-digit groups of the integers n, the last first, and then the
    rest of n, each as intp."""
    out, ten4 = [], n.dtype.type(10000)
    for _ in range(count):
        high = n // ten4  # a scalar divisor is a multiply and shift, not np.divmod's divide
        out.append((n - high * ten4).astype(np.intp, copy=False))
        n = high
    return out + [n.astype(np.intp, copy=False)]


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
    *groups, first = _groups(d, 4)
    # from the last group: a group prints stripped while all after it are 0
    zero = np.ones(x.size, bool)
    for lane, g in zip((5, 4, 3, 2), groups):
        lanes[:, lane] = DIGIT_GROUPS.take(g + zero * _TRAILING)
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


def write_trajectory(path, times, states) -> None:
    """States (T, d, d) at times (T,), one row per time, re and im per entry."""
    d = states.shape[1]
    cols = [f"{p}_{r}_{c}" for r in range(d) for c in range(d) for p in ("re", "im")]
    with open(path, "wb") as fh:
        fh.write((",".join(["time"] + cols) + "\n").encode())
        # the float view interleaves re and im
        _write_rows(fh, times, states.view(float).reshape(len(times), -1))


def write_record(fh, system_index, trial, time, lam, readings) -> None:
    """A measurement record's columns (measurement.MeasurementRecord) to the
    text file fh.  A row is its trial number and its tail
    ",time,i,lambda,reading\n", its reading readings[lambda].  With one time,
    as in a trial record, each pointer group's tail is formatted once per
    record; with one time per row, as in a repeat record, each row of a block
    gets its own.  _block_text lays the trials and tails into one byte grid."""
    fh.write("trial,time,i,lambda,reading\n")
    if not len(lam):
        return
    # "%.17g" prints what f"{x:.17g}" does.
    tail = ",%.17g," + ("" if system_index is None else "%d" % system_index) + ",%d,%.17g\n"
    trial = np.broadcast_to(trial, lam.shape)
    if not time.ndim:
        groups = np.arange(len(readings))
        slots, longest = _tail_slots(tail, np.broadcast_to(time, groups.shape), groups, readings)
    for lo in range(0, len(lam), _RECORD_BLOCK):
        rows = slice(lo, lo + _RECORD_BLOCK)
        if time.ndim:
            slots, longest = _tail_slots(tail, time[rows], lam[rows], readings.take(lam[rows]))
        text = _block_text(trial[rows], slots if time.ndim else slots.take(lam[rows]), longest)
        fh.write(text.translate(None, b"\0").decode())


def _tail_slots(tail: str, *columns) -> tuple[np.ndarray, int]:
    """The tail formatted at each row of columns, each padded with 0 bytes to
    one power-of-two width, and the longest one's length."""
    tails = [(tail % row).encode() for row in zip(*(c.tolist() for c in columns))]
    longest = max(map(len, tails))
    # a power-of-two slot: numpy's take copies those by fixed-size moves
    width = 1 << (longest - 1).bit_length()
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tails), "V%d" % width), longest


def _block_text(trial: np.ndarray, slots: np.ndarray, longest: int) -> bytearray:
    """Row k, trial[k] as "%d" prints it and then slots[k], with pad bytes 0.

    A row is a sign lane, only when a trial is negative, ceil(digits / 4)
    4-byte lanes for the digits of the largest uint64 magnitude, then the
    slot, whose first longest bytes hold the tail.  Slots are laid first, so
    a slot's pads past the row's end run on into the next row's lanes, which
    are laid after it."""
    sign = int(trial.min() < 0)
    magnitude = trial.view(np.uint64)  # two's complement: -t is 2**64 - t
    if sign:
        negative = trial < 0
        magnitude = np.where(negative, -magnitude, magnitude)
    lanes = -(-len(str(magnitude.max())) // 4)
    head = 4 * (sign + lanes)
    step = -(-max(head + longest, slots.itemsize) // 4) * 4  # bytes per row, lanes aligned
    text = bytearray(len(trial) * step + slots.itemsize)
    np.ndarray(len(trial), slots.dtype, buffer=text, offset=head, strides=(step,))[...] = slots
    words = np.ndarray((len(trial), sign + lanes), np.uint32, buffer=text, strides=(step, 4))
    if sign:
        words[:, 0] = np.where(negative, _MINUS, 0)
    # lane j's group leads, its leading zeros pads, when magnitude < 10**(4 * (lanes - j))
    for j, g in enumerate(_groups(magnitude, lanes - 1)[::-1]):
        pads = _LEADING if j < lanes - 1 else _LAST_LEADING
        lead = (magnitude < np.uint64(10 ** (4 * (lanes - j)))) * pads if j else pads
        words[:, sign + j] = DIGIT_GROUPS.take(g + lead)
    return text
