"""Benchmark for heckebn: three workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload modcert --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Workloads (see ``workloads.py``): ``modcert`` (prime-field
certificates), ``rational`` (exact class polynomials and pairings) and
``grid`` (cold and warm verdict grid over one store).

Every pass runs in a fresh interpreter against an empty store in a new
directory under ``.perfbench-work/``, with BLAS thread pools pinned to one
thread.  Passes repeat, in the order the seed fixes, until the next round
would end after ``--seconds``; at least one round always runs.  A round runs
one pass per CPU (at most two) side by side.  Sums use each operation's
median time over the run's passes; percentiles are taken over all of them.  ``setup_s`` is the median
over separate probe processes and every pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of the traced
ones, plus ``trace_overhead_ratio`` (traced over untraced ``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
interpreter, numpy and CPU count.  The exit code is 1 when any operation
raised or produced an output other than the one in ``expected.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("modcert", "rational", "grid")
SETUP_PROBES = 5
MAX_PARALLEL = 2
# every run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 150.0
PASS_TIMEOUT_S = 120.0

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class PassFailed(RuntimeError):
    pass


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["HECKE_CACHE_DIR"] = str(work / "default-cache")
    env["TMPDIR"] = str(work)
    return env


def run_workers(jobs: list[list[str]], work: Path, env: dict, timeout: float,
                cpus: list[int] | None = None) -> list[dict]:
    """Run one worker per job side by side, each in a fresh interpreter.

    With `cpus`, worker i is pinned to cpus[i].  Returns their JSON results.
    """
    stores = [tempfile.mkdtemp(dir=work) for _ in jobs]
    procs: list[subprocess.Popen] = []
    try:
        for i, (args, store) in enumerate(zip(jobs, stores)):
            pin = None if cpus is None else functools.partial(os.sched_setaffinity, 0, {cpus[i]})
            t0 = time.perf_counter()
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "--store", store, *args, "--t0", repr(t0)],
                stdout=subprocess.PIPE, env=env, cwd=work, preexec_fn=pin,
            ))
        end = time.perf_counter() + max(timeout, 1.0)
        results = []
        for proc, args in zip(procs, jobs):
            try:
                out, _ = proc.communicate(timeout=max(end - time.perf_counter(), 0.1))
            except subprocess.TimeoutExpired:
                raise PassFailed(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
            if proc.returncode != 0:
                raise PassFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
            results.append(json.loads(out.decode().strip().splitlines()[-1]))
        return results
    finally:
        # also reached on timeout, SIGTERM or interrupt: stop what still runs
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated; the only sample when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end figures of a run's passes.

    Every pass of a run does the same operations in the same order, so an
    operation's times in different passes measure the same work: sums use
    each operation's median time.  The percentiles are taken over every
    timed operation of every pass.
    """
    median = statistics.median
    cold = {key: median(p["cold"][key] for p in passes) for key in passes[0]["cold"]}
    warm = {
        key: median(times[key] for p in passes for times in p["warm"])
        for key in passes[0]["cold"]
    }
    warm_samples = [t for p in passes for times in p["warm"] for t in times.values()]
    return {
        "wall_s": sum(cold.values()) + sum(warm.values()),
        "op_p50_ms": median(t for p in passes for t in p["cold"].values()) * 1e3,
        "op_top_s": sum(cold[key] for key in passes[0]["top_keys"]),
        "cold_s": sum(cold.values()),
        "warm_s": sum(warm.values()),
        "warm_op_p99_ms": quantile(warm_samples, 99) * 1e3,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "pass_ratio": 1 - sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
        "decided_ratio": min(p["decided"] for p in passes),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_top_s": "s",
    "cold_s": "s", "warm_s": "s", "warm_op_p99_ms": "ms", "peak_rss_mb": "MB",
    "pass_ratio": "ratio", "decided_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    if name == "store.bytes":
        return "bytes"
    return "count"


def median_dict(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller inputs and another expected-outputs file, for the smoke tests
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heckebn" / "__init__.py").is_file():
        print(f"no heckebn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    # on SIGTERM, unwind so the worker is stopped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        return measure(args, work, start)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, start: float) -> int:
    env = child_env(work)
    deadline = start + args.seconds
    hard = start + HARD_LIMIT_S

    def remaining() -> float:
        return min(PASS_TIMEOUT_S, hard - time.perf_counter())

    # untimed warm-up: byte-compiles the sources on a fresh checkout
    numpy_version = run_workers([["--probe"]], work, env, remaining())[0]["numpy"]
    setups = [
        run_workers([["--probe"]], work, env, remaining())[0]["setup_s"]
        for _ in range(SETUP_PROBES)
    ]

    # Passes run in rounds, one pass per CPU side by side.  The CPU speed of a
    # shared machine changes by up to 1.8x in spells of seconds to minutes,
    # on each CPU on its own; two passes at a time double the samples of
    # every operation at no cost in run time.
    cpus = sorted(os.sched_getaffinity(0))[:MAX_PARALLEL]
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
            "--expected", args.expected]
    passes: list[tuple[bool, dict]] = []  # (traced, result)
    rounds: list[float] = []
    while True:
        # traced and untraced passes swap CPUs from one round to the next
        traced = [bool(args.trace) and (len(rounds) + i) % 2 == 0 for i in range(len(cpus))]
        t = time.perf_counter()
        results = run_workers(
            [[*base, "--trace", str(int(tr))] for tr in traced], work, env, remaining(), cpus
        )
        rounds.append(time.perf_counter() - t)
        passes.extend(zip(traced, results))
        setups.extend(r["setup_s"] for r in results)
        # a traced run needs one traced and one untraced pass
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() + statistics.median(rounds) > min(deadline, hard):
            break

    attempted = sum(r["attempted"] for _, r in passes)
    failed = sum(r["failed"] for _, r in passes)
    plain = [r for tr, r in passes if not tr]
    if args.trace:
        traced = [r for tr, r in passes if tr]
        metrics = median_dict([r["layers"] for r in traced])
        metrics["store.records"] = traced[0]["store_records"]
        metrics["store.bytes"] = traced[0]["store_bytes"]
        metrics["trace_overhead_ratio"] = (
            end_to_end(traced)["wall_s"] / end_to_end(plain)["wall_s"]
        )
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setups), **end_to_end(plain)}
        units = UNITS
    env_info = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "setup_samples": len(setups),
    }
    print(json.dumps({"env": env_info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
