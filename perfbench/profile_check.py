"""Compare the time shares the span trace gives with a cProfile of the same work.

    python3 perfbench/profile_check.py --workload modcert

Runs one pass twice, each in a fresh interpreter: once under cProfile and
once under the span trace.  For every traced function it prints the share of
the measured phase spent inside it (cumulative time) by each instrument.
For ``grid`` the measured phase is the warm phase only; for the other
workloads it is the whole pass.  Uses the smaller inputs with ``--size smoke``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNTRACED_ROWS = 5


def measure(workload: str, size: str, mode: str) -> dict[str, float]:
    """Shares of the measured phase per traced function, in this process."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import spans
    import workloads
    from heckebn.store import Store

    tracer = spans.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    profiler = cProfile.Profile()
    phase = workloads._phase
    phases = 0
    seconds = 0.0
    traced = {name: 0.0 for name, _, _ in spans.TARGETS}

    def measured_phase(keys, rng, do):
        nonlocal phases, seconds
        phases += 1
        if workload == "grid" and phases == 1:
            return phase(keys, rng, do)
        base = dict(tracer.total) if tracer is not None else {}
        start = time.perf_counter()
        if tracer is None:
            profiler.enable()
        try:
            return phase(keys, rng, do)
        finally:
            if tracer is None:
                profiler.disable()
            seconds += time.perf_counter() - start
            for name in base:
                traced[name] += tracer.total[name] - base[name]

    workloads._phase = measured_phase
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    work = HERE.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=work)
    try:
        workloads.run_pass(workload, size, 0, Store(root), expected)
    finally:
        shutil.rmtree(root)
    if tracer is not None:
        return {name: t / seconds for name, t in traced.items()}
    stats = pstats.Stats(profiler).stats
    out = {}
    for name, modname, attr in spans.TARGETS:
        filename = modname.replace(".", "/") + ".py"
        func = attr.split(".")[-1]
        cum = sum(
            ct for (path, _, fn), (_, _, _, ct, _) in stats.items()
            if fn == func and path.endswith(filename)
        )
        out[name] = cum / seconds
    # the library's untraced functions with the largest cumulative shares
    untraced = sorted(
        ((ct, f"{Path(path).stem}.{fn}") for (path, _, fn), (_, _, _, ct, _) in stats.items()
         if "/heckebn/" in path and fn not in {attr.split(".")[-1] for _, _, attr in spans.TARGETS}),
        reverse=True,
    )
    for ct, name in untraced[:UNTRACED_ROWS]:
        out[f"({name})"] = ct / seconds
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("modcert", "rational", "grid"))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--mode", choices=("cprofile", "trace"))
    args = ap.parse_args(argv)
    if args.mode:
        print(json.dumps(measure(args.workload, args.size, args.mode)))
        return 0
    shares = {}
    for mode in ("cprofile", "trace"):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--size", args.size,
             "--mode", mode],
            capture_output=True, text=True, check=True,
        )
        shares[mode] = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{'function (untraced in parentheses)':40s} {'cProfile':>9s} {'trace':>9s}")
    for name, c in shares["cprofile"].items():
        t = shares["trace"].get(name)
        if c or t:
            shown = "-" if t is None else f"{100 * t:8.1f}%"
            print(f"{name:40s} {100 * c:8.1f}% {shown:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
