"""One pass of one benchmark workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py --workload grid --seed 7 --store DIR --t0 T

`--t0` is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers the
interpreter start, importing every ``heckebn`` module and opening an empty
store.  With ``--probe`` the worker stops there.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

MODULES = [
    "heckebn", "heckebn.errors", "heckebn.numbers", "heckebn.poly",
    "heckebn.chern", "heckebn.certificates", "heckebn.giambelli",
    "heckebn.hecke", "heckebn.modular", "heckebn.store", "heckebn.verdict",
    "heckebn.suites", "heckebn.cli",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--store", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    for name in MODULES:
        importlib.import_module(name)
    from heckebn.store import Store

    store = Store(args.store)
    setup_s = time.perf_counter() - args.t0
    if args.probe:
        import numpy

        print(json.dumps({"setup_s": setup_s, "numpy": numpy.__version__}))
        return 0

    from spans import Tracer
    from workloads import run_pass

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    res = run_pass(args.workload, args.size, args.seed, store, expected)
    out = {
        "setup_s": setup_s,
        "cold": {str(key): t for key, t in res.cold.items()},
        "warm": [{str(key): t for key, t in times.items()} for times in res.warm],
        "top_keys": [str(key) for key in res.top_keys],
        "attempted": res.attempted,
        "failed": res.failed,
        "decided": res.decided,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs_sha256": hashlib.sha256(
            json.dumps({str(k): v for k, v in res.outputs.items()}, sort_keys=True).encode()
        ).hexdigest(),
    }
    # the warm phase only reads, so this is the store the cold phase left
    files = [p for p in Path(args.store).iterdir() if p.is_file()]
    out["store_records"] = sum(p.name != "index.json" for p in files)
    out["store_bytes"] = sum(p.stat().st_size for p in files)
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
