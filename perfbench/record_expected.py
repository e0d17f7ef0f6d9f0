"""Record the benchmark's expected outputs, cross-checked once against oracles.

    python3 perfbench/record_expected.py          # writes perfbench/expected.json

Each recorded value is checked against a source outside the code path it
comes from:

* modcert: ``verify(deep=True)`` for every certificate, and the paper's
  Theorem 6.1 table for k = 10..24 (criterion e6.1 everywhere except e6.2
  with l = 1 at k = 17);
* rational: ``closed_form_14(k)`` against the computed P_k(1, beta, 0) at
  beta = 4, the degree against floor(k^2/4), each multiplicity against
  derivatives of the coefficient list, and ``verify(deep=True)`` for every
  pairing certificate;
* grid: the CSV of a store-backed pass in shuffled order against
  ``emit_table`` over the same grid without a store.

Stops with an error, writing nothing, if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from heckebn.giambelli import closed_form_14, degree_check, multiplicity_profile, pk_beta  # noqa: E402
from heckebn.hecke import rational_certificate  # noqa: E402
from heckebn.modular import certify_mod  # noqa: E402
from heckebn.store import Store  # noqa: E402
from heckebn.verdict import emit_table  # noqa: E402

import workloads  # noqa: E402

THM61_RANGE = range(10, 25)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"oracle mismatch: {what}")


def _derivative_at(coeffs: list[Fraction], order: int, x: Fraction) -> Fraction:
    total = Fraction(0)
    for n, c in enumerate(coeffs):
        if n >= order:
            falling = 1
            for t in range(order):
                falling *= n - t
            total += c * falling * x ** (n - order)
    return total


def record_modcert(ks) -> dict:
    out = {}
    for k in ks:
        cert = certify_mod(k)
        check(cert is not None, f"no certificate at k={k}")
        check(cert.verify(deep=True), f"deep verify failed at k={k}")
        if k in THM61_RANGE:
            want = ("e6.2", 1) if k == 17 else ("e6.1", 0)
            check((cert.criterion, cert.ell) == want, f"Theorem 6.1 table at k={k}")
        out[str(k)] = workloads.modcert_output(cert, True)
    return out


def record_rational(ks, pairings) -> dict:
    pk = {}
    for k in ks:
        poly = pk_beta(k).polynomial
        coeffs = [Fraction(c) for c in poly.coeffs_in("beta")]
        at4 = sum(c * 4**n for n, c in enumerate(coeffs))
        check(at4 == closed_form_14(k), f"closed form at beta=4, k={k}")
        degree = degree_check(k).degree
        check(degree == len(coeffs) - 1 == k * k // 4, f"degree floor(k^2/4) at k={k}")
        profile = multiplicity_profile(k)
        for i, m in profile:
            root = Fraction(1, i * i)
            check(
                all(_derivative_at(coeffs, j, root) == 0 for j in range(m))
                and _derivative_at(coeffs, m, root) != 0,
                f"multiplicity {m} of 1/{i}^2 at k={k}",
            )
        pk[str(k)] = workloads.pk_output(poly, profile, degree)
    pair = {}
    for g, k in pairings:
        witness = rational_certificate(g, k)
        check(witness is not None, f"no pairing certificate at (g, k) = ({g}, {k})")
        check(witness.certificate.verify(deep=True), f"deep verify failed at ({g}, {k})")
        pair[f"{g},{k}"] = workloads.pairing_output(witness, True)
    return {"pk": pk, "pair": pair}


def record_grid(sz, work: Path) -> dict:
    from heckebn.verdict import GENERAL, decide

    store = Store(tempfile.mkdtemp(dir=work))
    cells = [(g, k) for k in sz["grid_k"] for g in sz["grid_g"]]
    random.Random(0).shuffle(cells)
    rows = {cell: workloads.grid_row(decide(*cell, GENERAL, store)) for cell in cells}
    text = workloads.grid_csv(rows)
    g_range, k_range = sz["grid_g"], sz["grid_k"]
    check(text == emit_table(g_range, k_range, GENERAL), "grid CSV against emit_table")
    return {"csv_sha256": hashlib.sha256(text.encode()).hexdigest(), "cells": len(cells)}


def main() -> int:
    full, smoke = workloads.SIZES["full"], workloads.SIZES["smoke"]
    work = HERE.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work))
    try:
        expected = {
            "modcert": record_modcert(full["modcert_ks"]),
            "rational": record_rational(full["rational_ks"], full["pairings"]),
            "grid": {
                "full": record_grid(full, work),
                "smoke": record_grid(smoke, work),
            },
        }
    finally:
        shutil.rmtree(work)
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
