"""Decision engine: combine certificates, trusted gates, and exception rows.

Assumption levels order the curve hypotheses: any_curve < petri < general.
A fact proved at some level applies whenever the requested level is at least
as strong, so a verdict requested for a general curve may use any_curve,
petri, and general facts.  Each verdict reports the weakest level that
justifies everything it claims; rows where nothing applies stay UNKNOWN and
carry the requested level.

Class facts (b_H(k) zero or nonzero) live in the curve-independent
cohomology ring of the Hecke correspondence, so they always hold at
any_curve.  Locus facts inherit the hypothesis of the rule that produced
them.  EMPTY is only ever emitted from the exception rows or from the
negative-expected-dimension rule for general curves; the engine never
extrapolates vanishing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .certificates import Certificate, admissible_prime, expected_dimension
from .certificates import first_admissible_prime
from .giambelli import PK_FULL_DEFAULT_LIMIT
from .hecke import rational_certificate
from .modular import certify_mod, find_gk, theorem43_gate

__all__ = [
    "ANY_CURVE",
    "PETRI",
    "GENERAL",
    "LEVELS",
    "beta_rank2",
    "Verdict",
    "decide",
    "twisted_bounds",
    "emit_table",
    "CSV_HEADER",
]

ANY_CURVE = "any_curve"
PETRI = "petri"
GENERAL = "general"
LEVELS = {ANY_CURVE: 0, PETRI: 1, GENERAL: 2}

CSV_HEADER = [
    "g", "k", "beta", "class_status", "locus_status",
    "assumption", "witness_rule", "certificate_ref",
]
_JSON_FIELDS = (*CSV_HEADER, "twisted_lower", "twisted_upper")
_LEVEL_NAMES = tuple(LEVELS)


def beta_rank2(g: int, k: int) -> int:
    """Expected dimension of B(2,K,k): 3g - 3 - k(k+1)/2."""
    if g < 2 or k < 1:
        raise ValueError("need g >= 2 and k >= 1")
    return expected_dimension(g, k)


# (g, k) -> (class_status, locus_status, locus_level); class facts hold on
# any curve.  g = 2 is outside every theorem gate; (3,4) and (4,4) are the
# documented failures of the general transfer rule.
_EXCEPTIONS = {
    (2, 1): ("NONZERO", "NONEMPTY", ANY_CURVE),
    (2, 2): ("NONZERO", "EMPTY", ANY_CURVE),
    (3, 4): ("ZERO", "EMPTY", GENERAL),
    (4, 4): ("NONZERO", "EMPTY", PETRI),
}


def _exception_row(g: int, k: int):
    if g == 2 and k >= 3:
        return ("ZERO", "EMPTY", ANY_CURVE)
    return _EXCEPTIONS.get((g, k))


@dataclass(frozen=True)
class Verdict:
    """One decided (g, k) cell with its audit trail."""

    g: int
    k: int
    beta: int
    class_status: str
    locus_status: str
    assumption: str
    witness_rule: str
    certificate: Certificate | None = field(default=None, compare=False)
    twisted_lower: int | None = None
    twisted_upper: int | None = None

    @property
    def certificate_ref(self) -> str:
        return self.certificate.hash() if self.certificate is not None else ""

    def to_json_obj(self) -> dict:
        return {name: getattr(self, name) for name in _JSON_FIELDS}


def _certificate_witness(cert: Certificate, g: int) -> str:
    label = cert.criterion  # "e6.1", "e6.2" or, for a rational one, "pairing"
    if cert.criterion == "e6.2":
        label += f"(l={cert.ell})"
    tail = "+monotone" if cert.g0 < g else ""
    return f"certificate:{label}@{cert.g0}{tail}"


def _certificate_at(k: int, p: int, store) -> Certificate | None:
    cert = store.get_certificate("modular", k, p) if store is not None else None
    if cert is None:
        cert = certify_mod(k, p)
        if cert is not None and store is not None:
            store.put_certificate(cert)
    return cert


def _class_certificate(g: int, k: int, store) -> Certificate | None:
    """Modular certificate at g itself, else at the smallest admissible prime.

    A certificate at prime g0 <= g proves the class nonzero at g0; the
    relation ideal only grows as the genus drops, so non-vanishing persists
    for every g >= g0 and the witness records the monotone step.  No other
    prime is tried: when both are inconclusive the theorem gates decide.
    """
    p0 = first_admissible_prime(k)
    if p0 > g:
        return None
    cert = _certificate_at(k, g, store) if p0 != g and admissible_prime(k, g) else None
    return cert if cert is not None else _certificate_at(k, p0, store)


def _class_gate(g: int, k: int) -> str | None:
    """Trusted theorem gates for b_H(k) != 0, all curve-independent."""
    if g >= k * (k + 1) // 2 + 2:
        return "expected-dim-gate"
    if theorem43_gate(g, k):
        return "prime-gate"
    if k >= 8 and g >= find_gk(k):
        return "gk-gate"
    return None


def decide(
    g: int,
    k: int,
    assumption: str = GENERAL,
    store=None,
    rational_budget: int = 0,
) -> Verdict:
    """Deterministic verdict for one (g, k) at the requested curve level.

    Precedence: the exception rows; else the class from a certificate, then
    a theorem gate, then the exact pairing, and the first locus rule whose
    condition holds, kept only where the requested level is at least the
    rule's.  rational_budget enables the exact-pairing fallback for the class
    when no modular certificate or gate applies (off by default: it
    recomputes P_k over the rationals, which is far slower than one
    prime-field determinant).  Above PK_FULL_DEFAULT_LIMIT the fallback is
    skipped and the class stays UNKNOWN.
    """
    if assumption not in LEVELS:
        raise ValueError(f"unknown assumption level: {assumption!r}")
    req = LEVELS[assumption]
    beta = beta_rank2(g, k)

    cert: Certificate | None = None
    row = _exception_row(g, k)
    if row is not None:
        class_status, locus_status, locus_level = row
        class_rule = locus_rule = "exception"
    else:
        cert = _class_certificate(g, k, store)
        gate = _class_gate(g, k) if cert is None else None
        if (cert is None and gate is None and rational_budget > 0 and beta >= 0
                and k <= PK_FULL_DEFAULT_LIMIT):
            witness = rational_certificate(g, k, budget=rational_budget, store=store)
            if witness is not None:
                cert = witness.certificate
                if store is not None:
                    store.put_certificate(cert)
        if cert is not None:
            class_status, class_rule = "NONZERO", _certificate_witness(cert, g)
        elif gate is not None:
            class_status, class_rule = "NONZERO", gate
        else:
            class_status, class_rule = "UNKNOWN", "none"

        if beta < 0:
            locus_status, locus_rule, locus_level = "EMPTY", "negative-expected-dim", GENERAL
        elif g >= k * (k + 1) // 2 + 2:
            locus_status, locus_rule, locus_level = "NONEMPTY", "expected-dim-gate", ANY_CURVE
        elif class_status == "NONZERO":
            locus_status, locus_rule, locus_level = "NONEMPTY", "petri-transfer", PETRI
        elif k <= 7:
            locus_status, locus_rule, locus_level = "NONEMPTY", "small-k-gate", GENERAL
        elif 4 * g >= k * k:
            locus_status, locus_rule, locus_level = "NONEMPTY", "teixidor-bound", GENERAL
        else:
            locus_status, locus_rule, locus_level = "UNKNOWN", "none", None

    # the weakest level that justifies every fact kept: class facts hold on
    # any curve, a locus rule only at its own level or above
    level = -1 if class_status == "UNKNOWN" else LEVELS[ANY_CURVE]
    if locus_level is not None:
        if LEVELS[locus_level] <= req:
            level = max(level, LEVELS[locus_level])
        else:
            locus_status, locus_rule = "UNKNOWN", "none"

    lower, upper = twisted_bounds(
        g, k, class_nonzero=class_status == "NONZERO", level=assumption
    )
    return Verdict(
        g=g,
        k=k,
        beta=beta,
        class_status=class_status,
        locus_status=locus_status,
        assumption=_LEVEL_NAMES[level] if level >= 0 else assumption,
        witness_rule=f"class={class_rule};locus={locus_rule}",
        certificate=cert,
        twisted_lower=lower,
        twisted_upper=upper,
    )


def twisted_bounds(
    g: int, k: int, class_nonzero: bool, level: str = GENERAL
) -> tuple[int | None, int | None]:
    """Dimension bounds for the twisted locus B(2,K(p),k).

    Lower bound beta+1 needs the class nonzero (any curve, g >= 2); upper
    bound beta+k needs a general curve with g >= 3 and k >= 2.  Inapplicable
    sides are None.
    """
    beta = beta_rank2(g, k)
    lower = beta + 1 if class_nonzero else None
    upper = (
        beta + k
        if g >= 3 and k >= 2 and LEVELS[level] >= LEVELS[GENERAL]
        else None
    )
    return lower, upper


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def emit_table(
    g_range,
    k_range,
    assumption: str = GENERAL,
    fmt: str = "csv",
    store=None,
    rational_budget: int = 0,
) -> str:
    """Verdict table over a (g, k) grid, ordered by (k, g)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format: {fmt!r}")
    if isinstance(g_range, str):
        g_range = _parse_range(g_range)
    if isinstance(k_range, str):
        k_range = _parse_range(k_range)
    rows = [
        decide(g, k, assumption, store, rational_budget)
        for k in k_range
        for g in g_range
    ]
    if fmt == "json":
        return json.dumps([r.to_json_obj() for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([getattr(r, name) for name in CSV_HEADER] for r in rows)
    return buf.getvalue()
