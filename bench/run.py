"""qndsim benchmark: runs one workload (or all), checks it, prints the metrics.

Run from the root of a qndsim checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in a
fresh worker interpreter (worker.py) that repeats one CLI invocation for
``--seconds``; this process writes the inputs, times set-up in fresh
interpreters (setup_probe.py), checks the outputs, and prints the metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (tracer.py).
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: qndsim's matrices are
# at most 16x16, where extra threads add scheduling noise and no speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_SPAWNS = 10
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
# Median of the probe on a 2-core x86-64 VM (OpenBLAS 0.3.31, one thread);
# a probe this many times slower marks the machine as slow.  Never a scale.
PROBE_REFERENCE_MS = 40.0
SLOW_FACTOR = 1.5

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def probe_ms() -> float:
    """Median time of a fixed pure-numpy job: 40 eigh + matmul of a 64x64 matrix."""
    rng = np.random.default_rng(12345)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    a = (g + g.conj().T) / 2
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(40):
            _, v = np.linalg.eigh(a)
            v @ a
        samples.append((perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    probe = probe_ms()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "probe_ms": probe,
        "slow_machine": probe > SLOW_FACTOR * PROBE_REFERENCE_MS,
    }


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(argv, spawns: int) -> list[float]:
    """Set-up seconds of fresh interpreters started one after another."""
    out = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), *argv],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_worker(name, seed, seconds, trace, work) -> dict:
    result = work / "worker.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--work", str(work), "--result", str(result)],
        cwd=ROOT, env=_child_env(), timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(result.read_text(encoding="utf-8"))


def _quantile(values, q: float) -> float:
    """q-quantile by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _timing_summary(seconds: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(seconds)
    parts = [f"n={n}", f"p50={statistics.median(seconds):.4f}s"]
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            parts.append(f"p{pct}={_quantile(seconds, pct / 100):.4f}s")
            break
    return " ".join(parts)


def _layer_metrics(res: dict, problems: list[str]) -> dict:
    from tracer import PER_POINT, SPECTRAL, TARGETS

    traced = res["traced"]
    calls = traced[0]["calls"]
    if any(t["calls"] != calls for t in traced):
        problems.append("per-layer call counts differ between traced invocations")
    if res["unpatched"]:
        problems.append(f"functions reachable without a wrapper: {res['unpatched']}")
    problems += [f"undercount: {m}" for m in res["audit_mismatches"]]
    metrics = {}
    for key, _, _ in TARGETS:
        metrics[f"{key}.calls"] = calls[key]
        metrics[f"{key}.self_s"] = statistics.median(t["self_s"][key] for t in traced)
    metrics[f"{SPECTRAL}.distinct_frac"] = (
        traced[0]["spectral_distinct"] / calls[SPECTRAL] if calls[SPECTRAL] else 0.0)
    points = [s * 1e3 for t in traced for s in t["point_s"]]
    metrics[f"{PER_POINT}.p50_ms"] = _quantile(points, 0.5)
    metrics[f"{PER_POINT}.p90_ms"] = _quantile(points, 0.9)
    metrics["untraced_s"] = statistics.median(t["seconds"] - t["top_s"] for t in traced)
    metrics["trace_overhead"] = (statistics.median(t["seconds"] for t in traced)
                                 / statistics.median(i["seconds"] for i in res["invocations"]))
    return metrics


def _check_invocations(res: dict, trace: int):
    """Exit codes and output bytes of every invocation; returns (attempted, failed, problems, sha256s)."""
    invocations = res["invocations"] + res.get("traced", [])
    attempted = len(invocations) + trace  # a traced run adds its audit invocation
    hashes = collections.Counter(tuple(i["hashes"]) for i in invocations)
    ref, _ = hashes.most_common(1)[0]
    failed = sum(1 for i in invocations if i["rc"] != 0 or tuple(i["hashes"]) != ref)
    problems = []
    if len(hashes) > 1:
        problems.append(f"output bytes differ between invocations: {len(hashes)} variants")
    if any(i["rc"] != 0 for i in invocations):
        problems.append(f"exit codes {sorted({str(i['rc']) for i in invocations})}")
    if trace and res["audit_rc"] != 0:
        failed += 1
        problems.append(f"audit invocation exited {res['audit_rc']}")
    return attempted, failed, problems, ref


def _check_outputs(wl, work: Path, seed: int):
    from checks import check

    missing = [p.name for p in wl.outputs(work) if not p.is_file()]
    if missing:
        return 0, [f"no output written: {missing}"]
    try:
        return check(wl.name, work, wl.outputs(work), seed)
    except (ValueError, IndexError) as exc:
        return 0, [f"malformed output: {exc!r}"]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns its result and prints its report lines."""
    from workloads import WORKLOADS, write_inputs

    wl = WORKLOADS[name]
    work = ROOT / ".bench_build" / "qndsim" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_inputs(work, seed)
        argv = wl.argv(work, seed)
        print(json.dumps({"workload": name, "seed": seed, "argv": argv, "env": environment()}))
        # Half the set-up samples before the workload and half after, so the
        # median spans the run's changes in machine speed.
        setup = measure_setup(argv, SETUP_SPAWNS // 2) if trace == 0 else []
        res = run_worker(name, seed, seconds, trace, work)
        if trace == 0:
            setup += measure_setup(argv, SETUP_SPAWNS - len(setup))
        attempted, failed, problems, sha256s = _check_invocations(res, trace)
        items, output_problems = _check_outputs(wl, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if output_problems:
        failed = attempted
        problems += output_problems
    seconds_each = [i["seconds"] for i in res["invocations"]]
    print(json.dumps({"workload": name,
                      "outputs_sha256": dict(zip((p.name for p in wl.outputs(work)), sha256s)),
                      "invocation_s": seconds_each}))
    print(f"{name}: {items} {wl.item} per invocation, {_timing_summary(seconds_each)}")
    if trace == 0:
        metrics = {
            "items_per_s": items * len(seconds_each) / sum(seconds_each),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": res["maxrss_kib"] / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        from tracer import metrics as layer_units

        units = layer_units()
        values = _layer_metrics(res, problems)
        metrics = {m: values[m] for m in units}
        if problems:
            failed = max(failed, 1)
    for p in problems:
        print(f"{name}: FAILED CHECK: {p}", file=sys.stderr)
    for m, v in metrics.items():
        print(f"  {name} {m} = {v:.6g} {units[m]}")
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qndsim" / "cli.py").is_file():
        print(f"error: {SRC / 'qndsim'} not found; run from the root of a qndsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qndsim

    if Path(qndsim.__file__).resolve().parent != (SRC / "qndsim").resolve():
        print(f"error: imported qndsim from {qndsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
