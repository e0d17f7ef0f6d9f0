"""Acceptance gate: the ten headline checks, one reported line per criterion.

Each test prints exactly one "[criterion NN] PASS/FAIL" line and then
asserts, so a plain pytest -v run yields both the per-criterion verdicts
and the usual test outcomes.  All comparisons are exact; there are no
tolerances anywhere in this file.
"""

import pytest

from heckebn.chern import chern_full, chern_tilde
from heckebn.errors import InapplicablePrimeError, NegativeExpectedDimensionError
from heckebn.giambelli import (
    closed_form_14,
    conjecture_bound,
    degree_check,
    lemma37_bound,
    multiplicity_profile,
    pk_beta,
    pk_eval,
)
from heckebn.hecke import lemma41_scan, rational_certificate, thaddeus_number
from heckebn.modular import certify_mod, find_gpk, mj_mod
from heckebn.poly import GradedPoly
from heckebn.store import Store
from heckebn.verdict import decide, emit_table
from oracles import beta4_closed_form, chern_oracle, substitute, valid_primes_above


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {label}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_closed_form_at_beta_four():
    bad = []
    for k in range(1, 15):
        got = pk_eval(k, 1, 4, 0)
        want = closed_form_14(k)
        if got != want:
            bad.append((k, got, want))
    _report(1, "P_k(1,4,0) = (-1)^delta(k) 2^{-k(k-1)/2} for k <= 14",
            not bad, str(bad))


def test_criterion_02_certificates_at_default_primes():
    bad = []
    for k, want in {11: 23, 15: 41, 16: 47, 20: 71, 24: 101}.items():
        if find_gpk(k) != want:
            bad.append(("gpk", k, find_gpk(k), want))
    for k in range(10, 25):
        cert = certify_mod(k)
        want = ("e6.2", 1) if k == 17 else ("e6.1", 0)
        if cert is None or (cert.criterion, cert.ell) != want \
                or cert.g0 != find_gpk(k) or not cert.verify():
            bad.append((k, cert))
    if not bad:
        c17 = certify_mod(17)
        if c17.g0 != 53:
            bad.append((17, c17.g0))
    _report(2, "certify_mod succeeds at the default prime for k = 10..24; "
            "e6.1 except k=17 (e6.2, l=1 at 53)", not bad, str(bad))


def test_criterion_03_small_default_primes_rejected():
    ok = True
    detail = ""
    for k, default in ((8, 13), (9, 17)):
        if find_gpk(k) != default:
            ok, detail = False, f"default prime for k={k} is {find_gpk(k)}"
            break
        try:
            certify_mod(k)
            ok, detail = False, f"k={k} unexpectedly produced a certificate"
            break
        except InapplicablePrimeError as exc:
            if exc.g != default:
                ok, detail = False, f"k={k} rejected at g={exc.g}"
                break
    _report(3, "certify_mod(8) and certify_mod(9) report inapplicable "
            "default primes (13, 17)", ok, detail)


def test_criterion_04_multiplicities_and_degree():
    bad = []
    pk_beta(20)  # one kernel run for every k of the walk
    for k in range(2, 21):
        profile = dict(multiplicity_profile(k))
        for i, mult in profile.items():
            if mult < lemma37_bound(k, i) or mult < conjecture_bound(k, i):
                bad.append((k, i, mult))
        if not degree_check(k).equality:
            bad.append((k, "degree", degree_check(k).degree))
    _report(4, "beta-multiplicity bounds and degree floor(k^2/4) "
            "for k <= 20", not bad, str(bad))


def test_criterion_05_congruence_scan():
    bad = []
    if thaddeus_number(3, 6, 0, 0) != 224:
        bad.append(("spot", thaddeus_number(3, 6, 0, 0)))
    for g in (3, 5, 7, 11, 13):
        report = lemma41_scan(g)
        if not report.ok:
            bad.append((g, report.mismatches[:3]))
    _report(5, "mod-g congruence pattern of all intersection numbers "
            "for g in {3,5,7,11,13}", not bad, str(bad))


def test_criterion_06_chern_cross_oracle():
    bad = []
    for n in range(49):
        if chern_full(n) != chern_oracle(n):
            bad.append(("full", n))
        if chern_tilde(n) != substitute(chern_full(n), h=1, gamma=0):
            bad.append(("tilde", n))
    for n in range(51):
        if substitute(chern_tilde(n), beta=4) != \
                GradedPoly.constant(beta4_closed_form(n)):
            bad.append(("beta4", n))
    _report(6, "Chern recurrence matches the exponential oracle (n <= 48) "
            "and the beta=4 closed form (n <= 50)", not bad, str(bad))


def test_criterion_07_dual_path_modular_oracle():
    bad = []
    for k in range(1, 13):
        coeffs = pk_beta(k).polynomial.coeffs_in("beta")
        for g in valid_primes_above(k, 2):
            uk = pow(g - 1, k, g)  # u = (g-1)! 2^(g-1) = -1 mod g
            expected = [
                c.numerator * uk * pow(c.denominator % g, g - 2, g) % g
                for c in coeffs
            ]
            while len(expected) > 1 and expected[-1] == 0:
                expected.pop()
            if list(mj_mod(k, g)) != expected:
                bad.append((k, g))
    _report(7, "native prime-field M_j equals scaled rational reduction "
            "for k <= 12, two primes each", not bad, str(bad))


def test_criterion_08_rational_pairings():
    bad = []
    for g, k in ((5, 2), (8, 3), (12, 4)):
        if g < k * (k + 1) // 2 + 2:
            bad.append((g, k, "outside regime"))
            continue
        witness = rational_certificate(g, k)
        if witness is None or witness.value == 0 \
                or not witness.certificate.verify(deep=True):
            bad.append((g, k, witness))
    try:
        rational_certificate(3, 4)
        bad.append((3, 4, "accepted"))
    except NegativeExpectedDimensionError:
        pass
    _report(8, "nonzero exact pairings at (5,2), (8,3), (12,4); "
            "(3,4) rejected for negative expected dimension", not bad, str(bad))


def test_criterion_09_verdict_spot_checks(tmp_path):
    bad = []
    spots = {
        (13, 8): ("UNKNOWN", "UNKNOWN", None),
        (16, 8): (None, "NONEMPTY", "general"),
        (17, 8): (None, "NONEMPTY", "petri"),
        (2, 2): ("NONZERO", "EMPTY", None),
        (4, 4): ("NONZERO", "EMPTY", None),
        (3, 4): ("ZERO", "EMPTY", None),
    }
    for (g, k), (cstat, lstat, level) in spots.items():
        v = decide(g, k)
        if cstat is not None and v.class_status != cstat:
            bad.append((g, k, "class", v.class_status))
        if lstat is not None and v.locus_status != lstat:
            bad.append((g, k, "locus", v.locus_status))
        if level is not None and v.assumption != level:
            bad.append((g, k, "assumption", v.assumption))
    v17 = decide(17, 8)
    if v17.certificate is None or v17.certificate.g0 != 17 \
            or v17.certificate.kind != "modular":
        bad.append((17, 8, "certificate", v17.certificate))
    first = emit_table("2..18", "1..8", store=Store(tmp_path / "one"))
    second = emit_table("2..18", "1..8", store=Store(tmp_path / "two"))
    if first.encode() != second.encode():
        bad.append(("table", "cold runs differ"))
    _report(9, "verdict spot checks and byte-identical tables across "
            "cold caches", not bad, str(bad))


def test_criterion_10_intersection_integrality():
    bad = []
    if thaddeus_number(2, 3, 0, 0) != 4:
        bad.append(("alpha^3@g=2", thaddeus_number(2, 3, 0, 0)))
    for g in range(2, 9):
        top = 3 * g - 3
        for p in range(top // 3 + 1):
            for n in range((top - 3 * p) // 2 + 1):
                m = top - 3 * p - 2 * n
                value = thaddeus_number(g, m, n, p)
                if value.denominator != 1:
                    bad.append((g, m, n, p, value))
    _report(10, "intersection numbers are integers for g <= 8; "
            "(alpha^3) at g=2 equals 4", not bad, str(bad))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
