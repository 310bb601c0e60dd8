"""Runs one workload in a fresh interpreter and writes its timings as JSON.

Started by run.py with the checkout as working directory and the
checkout's ``src`` on PYTHONPATH.  Untraced (``--trace 0``), it repeats the
workload's ``qndsim.cli.main(argv)`` invocation for ``--seconds``, starting
no invocation that would likely end after them.  Traced (``--trace 1``), it alternates untraced and traced
invocations for the same time, then runs one audit invocation under
``sys.setprofile`` that counts calls of every wrapped function's original
code, so a call path the wrappers miss shows as a count mismatch.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import qndsim.cli

from tracer import Tracer
from workloads import WORKLOADS

MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2


def _invoke(argv, outputs):
    """One timed CLI invocation; returns (seconds, exit code, output sha256s)."""
    for p in outputs:
        p.unlink(missing_ok=True)
    gc.collect()
    t0 = perf_counter()
    try:
        rc = qndsim.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    dt = perf_counter() - t0
    hashes = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
              for p in outputs]
    return dt, rc, hashes


def _rounds(seconds: float, minimum: int):
    """Yield while another round, as long as the mean round so far, ends within seconds.

    Each round is pinned to the next CPU in turn.  On a shared machine each
    CPU's speed changes for seconds at a time, independently of the others,
    so a run that stayed on one CPU would measure that CPU's luck.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    n = 0
    try:
        while True:
            elapsed = perf_counter() - start
            if n >= minimum and elapsed * (n + 1) / n > seconds:
                return
            os.sched_setaffinity(0, {cpus[n % len(cpus)]})
            yield n
            n += 1
    finally:
        os.sched_setaffinity(0, cpus)


def _audit(tracer, argv, outputs):
    """Compare wrapper counts with profiler counts of the original functions."""
    codes = {fn.__code__: 0 for fn in tracer.originals.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            codes[frame.f_code] += 1

    tracer.reset()
    sys.setprofile(profile)
    try:
        _, rc, _ = _invoke(argv, outputs)
    finally:
        sys.setprofile(None)
    mismatches = []
    for key, fn in tracer.originals.items():
        if codes[fn.__code__] != tracer.calls[key]:
            mismatches.append(f"{key}: wrappers saw {tracer.calls[key]} calls, "
                              f"profiler saw {codes[fn.__code__]}")
    return rc, mismatches


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    argv = wl.argv(args.work, args.seed)
    outputs = wl.outputs(args.work)
    result = {"invocations": []}
    if args.trace == 0:
        for _ in _rounds(args.seconds, MIN_INVOCATIONS):
            dt, rc, hashes = _invoke(argv, outputs)
            result["invocations"].append({"seconds": dt, "rc": rc, "hashes": hashes})
    else:
        tracer = Tracer()
        result["traced"] = []
        for _ in _rounds(args.seconds, MIN_TRACED_PAIRS):
            dt, rc, hashes = _invoke(argv, outputs)
            result["invocations"].append({"seconds": dt, "rc": rc, "hashes": hashes})
            tracer.install()
            tracer.reset()
            try:
                dt, rc, hashes = _invoke(argv, outputs)
            finally:
                tracer.uninstall()
            result["traced"].append({
                "seconds": dt, "rc": rc, "hashes": hashes,
                "calls": tracer.calls, "self_s": tracer.self_s,
                "top_s": tracer.top_s,
                "spectral_distinct": len(tracer.spectral_inputs),
                "point_s": tracer.point_s,
            })
        tracer.install()
        try:
            result["unpatched"] = tracer.unpatched()
            rc, result["audit_mismatches"] = _audit(tracer, argv, outputs)
        finally:
            tracer.uninstall()
        result["audit_rc"] = rc
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
