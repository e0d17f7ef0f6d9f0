"""The three benchmark workloads: what each pass runs and how it is checked.

A pass has a cold phase, run once in a fresh interpreter with empty module
memos and an empty store, and a warm phase that repeats the same operations
in the same interpreter and store.  The seed fixes the order of the
operations in every phase (but grid's cold phase), so passes with one seed
do the same work.  Every
operation is timed on its own; its output is described and compared with the
expected value outside the timed region.

* ``modcert``: ``certify_mod(k)`` at the default prime plus ``verify()``,
  k = 10..24, the range of the paper's Theorem 6.1 table.  Prime-field
  determinants; no store, no rational work, no grid.
* ``rational``: ``pk_beta``, ``multiplicity_profile`` and ``degree_check``
  for k = 2..14, and five ``rational_certificate`` searches.  The rational
  stack, no prime-field kernel, no store.
* ``grid``: ``decide(g, k)`` for a general curve over g = 2..400, k = 1..8
  against one store.  The cold phase writes certificates, in table order;
  the warm phase only reads them, and must reproduce the cold rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field

SIZES = {
    "full": {
        # k = 25 and 26 would make a pass twice as long, which leaves too few
        # passes in a run for steady figures
        "modcert_ks": range(10, 25),
        "rational_ks": range(2, 15),
        "pairings": [(5, 2), (8, 3), (12, 4), (16, 5), (22, 6)],
        "grid_g": range(2, 401),
        "grid_k": range(1, 9),
    },
    # small sizes for the benchmark's own smoke tests
    "smoke": {
        "modcert_ks": range(10, 13),
        "rational_ks": range(2, 7),
        "pairings": [(5, 2), (8, 3)],
        "grid_g": range(2, 41),
        "grid_k": range(1, 5),
    },
}

# Warm repeats per pass.  A warm modcert pass recomputes everything (there
# is no certificate memo), so one repeat costs as much as the cold phase;
# the grid warm phase is short and noisy, so it is repeated.
WARM_REPEATS = {"modcert": 1, "rational": 3, "grid": 3}

# op_top_s sums the cold times of the operations on this many largest k; one
# operation alone is too short to time steadily on a shared machine.  In
# `grid` it is the column of the largest k.
TOP_INPUTS = 3

_RAISED = object()


@dataclass
class PassResult:
    """Per-operation times and correctness of one pass."""

    cold: dict = field(default_factory=dict)  # op key -> seconds
    warm: list = field(default_factory=list)  # one {op key: seconds} per repeat
    top_keys: list = field(default_factory=list)  # ops on the largest inputs
    attempted: int = 0
    failed: int = 0
    decided: float = 0.0
    outputs: dict = field(default_factory=dict)  # op key -> cold output


def _phase(keys, rng: random.Random | None, do) -> tuple[dict, dict]:
    """Run `do` on every key, in an order shuffled by `rng` unless it is None."""
    order = list(keys)
    if rng is not None:
        rng.shuffle(order)
    times, raw = {}, {}
    clock = time.perf_counter
    for key in order:
        start = clock()
        try:
            res = do(key)
        except Exception:  # a raising operation is counted as failed
            traceback.print_exc()
            res = _RAISED
        times[key] = clock() - start
        raw[key] = res
    return times, raw


def _run(workload, keys, rng, do, describe, cold_ok, shuffle_cold=True) -> PassResult:
    """Cold phase, then the warm repeats.

    `cold_ok(outputs)` maps each key to whether its cold output is correct.
    A warm operation is correct when it reproduces a correct cold output.
    """
    res = PassResult()
    res.cold, raw = _phase(keys, rng if shuffle_cold else None, do)
    res.outputs = {
        key: None if raw[key] is _RAISED else describe(key, raw[key]) for key in keys
    }
    ok = cold_ok(res.outputs)
    res.attempted += len(keys)
    res.failed += sum(not ok[key] for key in keys)
    for _ in range(WARM_REPEATS[workload]):
        times, raw = _phase(keys, rng, do)
        res.warm.append(times)
        for key in keys:
            out = None if raw[key] is _RAISED else describe(key, raw[key])
            res.attempted += 1
            res.failed += not ok[key] or out != res.outputs[key]
    return res


def _matches(expect):
    """cold_ok for workloads whose every output is listed in the expected file."""
    return lambda outputs: {
        key: out is not None and out == expect(key) for key, out in outputs.items()
    }


def digest(values) -> str:
    """sha256 of a sequence of exact values, one canonical string each."""
    from heckebn.numbers import format_rational

    text = ",".join(format_rational(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


# -- modcert ------------------------------------------------------------------


def modcert_output(cert, verified: bool):
    """What a modular certificate must reproduce; None if absent or invalid."""
    if cert is None or not verified:
        return None
    return {"g0": cert.g0, "criterion": cert.criterion, "ell": cert.ell, "hash": cert.hash()}


def modcert(sz, rng, store, expected, size_name) -> PassResult:
    from heckebn.modular import certify_mod

    def do(key):
        cert = certify_mod(int(key))
        return cert, cert is not None and cert.verify()

    keys = [str(k) for k in sz["modcert_ks"]]
    res = _run(
        "modcert",
        keys,
        rng,
        do,
        lambda key, r: modcert_output(*r),
        _matches(lambda key: expected["modcert"].get(key)),
    )
    res.top_keys = keys[-TOP_INPUTS:]
    res.decided = sum(out is not None for out in res.outputs.values()) / len(keys)
    return res


# -- rational -----------------------------------------------------------------


def pk_output(poly, profile, degree) -> dict:
    """What P_k(1, beta, 0), its multiplicity profile and degree must reproduce."""
    return {
        "coeffs_sha256": digest(poly.coeffs_in("beta")),
        "profile": [list(p) for p in profile],
        "degree": degree,
    }


def pairing_output(witness, verified: bool):
    """What a pairing certificate must reproduce; None if absent or invalid."""
    if witness is None or not verified:
        return None
    return {"hash": witness.certificate.hash()}


def rational(sz, rng, store, expected, size_name) -> PassResult:
    from heckebn.giambelli import degree_check, multiplicity_profile, pk_beta
    from heckebn.hecke import rational_certificate

    def do(key):
        kind, arg = key.split(":")
        if kind == "pk":
            k = int(arg)
            poly = pk_beta(k).polynomial
            return poly, multiplicity_profile(k), degree_check(k).degree
        g, k = map(int, arg.split(","))
        witness = rational_certificate(g, k)
        return witness, witness is not None and witness.certificate.verify()

    def describe(key, r):
        if key.startswith("pk:"):
            return pk_output(*r)
        return pairing_output(*r)

    def expect(key):
        kind, arg = key.split(":")
        return expected["rational"][kind].get(arg)

    pk_keys = [f"pk:{k}" for k in sz["rational_ks"]]
    pair_keys = [f"pair:{g},{k}" for g, k in sz["pairings"]]
    res = _run("rational", pk_keys + pair_keys, rng, do, describe, _matches(expect))
    res.top_keys = pk_keys[-TOP_INPUTS:]
    res.decided = sum(res.outputs[key] is not None for key in pair_keys) / len(pair_keys)
    return res


# -- grid ---------------------------------------------------------------------


def grid_row(v) -> list[str]:
    """One verdict as the CSV fields `hecke verdict --format csv` prints."""
    return [
        str(v.g), str(v.k), str(v.beta), v.class_status, v.locus_status,
        v.assumption, v.witness_rule, v.certificate_ref,
    ]


def grid_csv(rows: dict) -> str:
    """The verdict table over the cells in `rows`, ordered by (k, g)."""
    from heckebn.verdict import CSV_HEADER

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for cell in sorted(rows, key=lambda c: (c[1], c[0])):
        writer.writerow(rows[cell])
    return buf.getvalue()


def grid(sz, rng, store, expected, size_name) -> PassResult:
    from heckebn.verdict import GENERAL, decide

    want = expected["grid"][size_name]["csv_sha256"]

    def cold_ok(outputs):
        # The cold rows are checked together, through the digest of their CSV.
        ok = None not in outputs.values() and (
            hashlib.sha256(grid_csv(outputs).encode()).hexdigest() == want
        )
        return dict.fromkeys(outputs, ok)

    keys = [(g, k) for k in sz["grid_k"] for g in sz["grid_g"]]
    res = _run(
        "grid",
        keys,
        rng,
        lambda cell: decide(cell[0], cell[1], GENERAL, store),
        lambda cell, v: grid_row(v),
        cold_ok,
        # The cold phase keeps the table's (k, g) order, as `hecke verdict`
        # does: its cost depends on the order, because every store lookup
        # parses an index that the writes before it have grown.
        shuffle_cold=False,
    )
    top_k = max(sz["grid_k"])
    res.top_keys = [cell for cell in keys if cell[1] == top_k]
    res.decided = sum(
        row is not None and (row[3] != "UNKNOWN" or row[4] != "UNKNOWN")
        for row in res.outputs.values()
    ) / len(keys)
    return res


WORKLOADS = {"modcert": modcert, "rational": rational, "grid": grid}


def run_pass(workload: str, size: str, seed: int, store, expected) -> PassResult:
    """One pass; `seed` fixes the order of the operations in every phase."""
    rng = random.Random(seed)
    return WORKLOADS[workload](SIZES[size], rng, store, expected, size)
