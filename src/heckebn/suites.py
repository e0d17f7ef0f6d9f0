"""Named verification suites binding the headline checks to one command.

Each suite re-runs a family of identities end to end and reports per-case
results; a failing case carries enough detail to reproduce it.  Suites never
silence a mismatch: anything unexpected shows up as a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NegativeExpectedDimensionError
from .giambelli import (
    closed_form_14,
    conjecture_bound,
    degree_check,
    lemma37_bound,
    multiplicity_profile,
    pk_beta,
    pk_eval,
)
from .hecke import lemma41_scan, rational_certificate, thaddeus_number
from .modular import certify_mod, find_gpk

__all__ = ["SuiteCheck", "SuiteReport", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class SuiteCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[SuiteCheck]:
        return [c for c in self.checks if not c.ok]

    def to_json_obj(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "total": len(self.checks),
            "failed": len(self.failures()),
            "counterexamples": [
                {"label": c.label, "detail": c.detail} for c in self.failures()
            ],
        }


def _check(label: str, ok: bool, detail: str = "") -> SuiteCheck:
    return SuiteCheck(label, bool(ok), detail if not ok else "")


def _suite_rem46() -> list[SuiteCheck]:
    """pk_eval at (1,4,0) equals the signed power of two, k <= 14."""
    out = []
    for k in range(1, 15):
        got = pk_eval(k, 1, 4, 0)
        want = closed_form_14(k)
        out.append(_check(f"k={k}", got == want, f"got {got}, want {want}"))
    return out


def _suite_thm61() -> list[SuiteCheck]:
    """Certificates at the default primes for 10 <= k <= 24."""
    out = []
    for k, g in {11: 23, 15: 41, 16: 47, 20: 71, 24: 101}.items():
        out.append(_check(
            f"gpk(k={k})", find_gpk(k) == g, f"got {find_gpk(k)}, want {g}"
        ))
    for k in range(10, 25):
        cert = certify_mod(k)
        if cert is None:
            out.append(_check(f"k={k}", False, "inconclusive at default prime"))
            continue
        want = ("e6.2", 1) if k == 17 else ("e6.1", 0)
        got = (cert.criterion, cert.ell)
        out.append(_check(
            f"k={k}", got == want and cert.verify(),
            f"got criterion {got} at g0={cert.g0}, want {want}",
        ))
    return out


def _suite_lemma37() -> list[SuiteCheck]:
    """Proven multiplicity bounds at beta = 1/i^2 and the degree bound."""
    out = []
    pk_beta(20)  # one kernel run for every k of the walk
    for k in range(2, 21):
        profile = dict(multiplicity_profile(k))
        for i, mult in profile.items():
            want = lemma37_bound(k, i)
            if want > 0:
                out.append(_check(
                    f"k={k},i={i}", mult >= want,
                    f"multiplicity {mult} below proven bound {want}",
                ))
        report = degree_check(k)
        out.append(_check(
            f"k={k},degree", report.within_bound,
            f"degree {report.degree} exceeds bound {report.bound}",
        ))
    return out


def _suite_conjecture() -> list[SuiteCheck]:
    """Conjectured multiplicities and exact degree equality, k <= 20."""
    out = []
    pk_beta(20)  # one kernel run for every k of the walk
    for k in range(2, 21):
        profile = dict(multiplicity_profile(k))
        for i, mult in profile.items():
            want = conjecture_bound(k, i)
            out.append(_check(
                f"k={k},i={i}", mult >= want,
                f"multiplicity {mult} below conjectured bound {want}",
            ))
        report = degree_check(k)
        out.append(_check(
            f"k={k},degree", report.equality,
            f"degree {report.degree}, expected exactly {report.bound}",
        ))
    return out


def _suite_lemma41() -> list[SuiteCheck]:
    """Mod-g congruence pattern of all intersection numbers, small primes."""
    out = []
    spot = thaddeus_number(3, 6, 0, 0)
    out.append(_check("spot(6,0,0)@g=3", spot == 224, f"got {spot}"))
    for g in (3, 5, 7, 11, 13):
        report = lemma41_scan(g)
        out.append(_check(
            f"g={g}", report.ok,
            f"{len(report.mismatches)} of {report.total} triples break "
            f"the pattern; first: {report.mismatches[:3]}",
        ))
    return out


def _suite_prop22() -> list[SuiteCheck]:
    """Exact pairings exist in the large-genus regime; (3,4) is rejected."""
    out = []
    for g, k in ((5, 2), (8, 3), (12, 4)):
        witness = rational_certificate(g, k)
        ok = witness is not None and witness.value != 0
        out.append(_check(
            f"(g={g},k={k})", ok,
            "no nonzero pairing found within budget",
        ))
        if witness is not None:
            out.append(_check(
                f"(g={g},k={k}) verify", witness.certificate.verify(),
                "emitted certificate failed self-check",
            ))
    try:
        rational_certificate(3, 4)
        out.append(_check("(g=3,k=4) rejected", False, "no error raised"))
    except NegativeExpectedDimensionError:
        out.append(_check("(g=3,k=4) rejected", True))
    return out


SUITE_NAMES = {
    "rem46": _suite_rem46,
    "thm61": _suite_thm61,
    "lemma37": _suite_lemma37,
    "conjecture": _suite_conjecture,
    "lemma41": _suite_lemma41,
    "prop22": _suite_prop22,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}"
        )
    return SuiteReport(name=name, checks=tuple(SUITE_NAMES[name]()))
