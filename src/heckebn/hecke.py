"""Pairings over the Hecke correspondence H and Thaddeus' intersection numbers.

The cohomology of H is a free rank-2 module over the base ring in alpha,
beta, gamma with basis {1, h} and the single relation
h^2 = alpha h - (alpha^2 - beta)/4.  Integration over H reads off the
h-coefficient (the fibers of the second projection are lines, normalized so
the fiber degree of h is 1).  By the binomial closed form the h-coefficient
of h^R is

  2^{1-R} sum_{i odd <= R} C(R, i) alpha^{R-i} beta^{(i-1)/2},

so pairing P_k with alpha^a beta^b gamma^c h^d is one linear functional of
the terms of P_k: each term h^r alpha^m beta^n gamma^p, with R = r + d,
spreads over the monomials alpha^{m+a+R-i} beta^{n+b+(i-1)/2} gamma^{p+c},
and these are evaluated against the closed-form intersection numbers

  (alpha^m beta^n gamma^p)
      = (-1)^{g-p} (g! m!)/((g-p)! q!) 2^{2g-2-p} (2^q - 2) B_q,

valid when m + 2n + 3p = 3g - 3, with q = m + p + 1 - g and B_q = 0 for
q < 0.  No class object in the basis {1, h} is built.  The parity of the
degree condition forces q even, so the odd-index Bernoulli convention is
never consulted; an assertion guards this.

A rational certificate pairs the class polynomial P_k against monomials of
complementary degree and records the first nonzero value in a fixed order:
non-vanishing of any pairing proves the class itself is nonzero at that
genus.  A fruitless search proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .certificates import Certificate, expected_dimension
from .errors import NegativeExpectedDimensionError
from .giambelli import pk_full
from .numbers import bernoulli, binomial, is_prime
from .poly import GradedPoly

__all__ = [
    "thaddeus_number",
    "candidate_monomials",
    "RationalWitness",
    "rational_certificate",
    "pair_with_monomial",
    "Lemma41Report",
    "lemma41_scan",
]


def thaddeus_number(g: int, m: int, n: int, p: int) -> Fraction:
    """Exact intersection number (alpha^m beta^n gamma^p) at genus g."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    if min(m, n, p) < 0:
        raise ValueError("exponents must be nonnegative")
    if m + 2 * n + 3 * p != 3 * g - 3:
        raise ValueError(
            f"degree condition violated: {m} + 2*{n} + 3*{p} != {3 * g - 3}"
        )
    q = m + p + 1 - g
    if q < 0:
        return Fraction(0)
    assert q % 2 == 0, "odd q is unreachable under the degree condition"
    b = bernoulli(q)
    if b == 0:
        return Fraction(0)
    lead = Fraction(
        math.factorial(g) * math.factorial(m),
        math.factorial(g - p) * math.factorial(q),
    )
    value = lead * 2 ** (2 * g - 2 - p) * (2**q - 2) * b
    return -value if (g - p) % 2 else value


def candidate_monomials(e: int) -> Iterator[tuple[int, int, int, int]]:
    """Complementary monomials alpha^a beta^b gamma^c h^d, a+2b+3c+d = e+1.

    Deterministic order: first the alpha beta^l h^{e-2l} family for
    l = 0..floor(e/2), then all remaining tuples lexicographically in
    (a, b, c, d).  Certificates are reproducible because this order is fixed.
    """
    seen = set()
    for ell in range(e // 2 + 1):
        t = (1, ell, 0, e - 2 * ell)
        seen.add(t)
        yield t
    for a in range(e + 2):
        for b in range((e + 1 - a) // 2 + 1):
            for c in range((e + 1 - a - 2 * b) // 3 + 1):
                d = e + 1 - a - 2 * b - 3 * c
                t = (a, b, c, d)
                if t not in seen:
                    yield t


def pair_with_monomial(
    pk: GradedPoly, monomial: tuple[int, int, int, int], g: int
) -> Fraction:
    """Integrate P_k times alpha^a beta^b gamma^c h^d over H.

    Every term of the product must have half-degree 3g - 2.  Only the
    h-coefficient of each h^R contributes; terms free of h pair to zero.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    a, b, c, d = monomial
    if min(a, b, c, d) < 0:
        raise ValueError(f"monomial exponents must be nonnegative, got {tuple(monomial)}")
    top = 3 * g - 2
    f: dict[tuple[int, int, int], Fraction] = {}
    for (r, m, n, p), coeff in pk.items():
        big_r = r + d
        weight = big_r + m + a + 2 * (n + b) + 3 * (p + c)
        if weight != top:
            raise ValueError(
                f"the product must be homogeneous of half-degree {top}, a term has {weight}"
            )
        scale = 2 * coeff / 2**big_r
        for i in range(1, big_r + 1, 2):
            key = (m + a + big_r - i, n + b + (i - 1) // 2, p + c)
            f[key] = f.get(key, 0) + scale * binomial(big_r, i)
    return sum(
        (v * thaddeus_number(g, *key) for key, v in f.items() if v), Fraction(0)
    )


@dataclass(frozen=True)
class RationalWitness:
    monomial: tuple[int, int, int, int]
    value: Fraction
    certificate: Certificate


def rational_certificate(
    g: int, k: int, budget: int = 512, store=None
) -> RationalWitness | None:
    """Search for a nonzero exact pairing certifying the class at genus g.

    Returns the first nonzero pairing in the fixed monomial order, or None
    if `budget` candidates all pair to zero (budget = 0 tries none; a
    negative budget raises ValueError).  None is not evidence of vanishing.
    """
    if g < 2 or k < 1:
        raise ValueError("need g >= 2 and k >= 1")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    e = expected_dimension(g, k)
    if e < 0:
        raise NegativeExpectedDimensionError(g, k, e)
    pk = pk_full(k, store).polynomial
    for idx, mono in enumerate(candidate_monomials(e)):
        if idx >= budget:
            break
        value = pair_with_monomial(pk, mono, g)
        if value != 0:
            cert = Certificate(
                kind="rational",
                k=k,
                g0=g,
                criterion="pairing",
                monomial=mono,
                witness_value=value,
            )
            return RationalWitness(mono, value, cert)
    return None


@dataclass(frozen=True)
class Lemma41Report:
    """Mod-g pattern of all intersection numbers at an odd prime genus."""

    g: int
    total: int
    mismatches: tuple[tuple[int, int, int, int, int], ...]  # (m, n, p, got, want)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def lemma41_scan(g: int) -> Lemma41Report:
    """Check (alpha^m beta^n gamma^p) mod g == -1 exactly when p = 0 and
    m in {g-1, 2g-2, 3g-3}, and 0 otherwise."""
    if not is_prime(g) or g == 2:
        raise ValueError(f"g={g} is not an odd prime")
    top = 3 * g - 3
    total = 0
    bad = []
    for p in range(top // 3 + 1):
        for n in range((top - 3 * p) // 2 + 1):
            m = top - 3 * p - 2 * n
            total += 1
            value = thaddeus_number(g, m, n, p)
            if value.denominator != 1:
                bad.append((m, n, p, -1, -1))
                continue
            got = value.numerator % g
            want = (g - 1) if (p == 0 and m in (g - 1, 2 * g - 2, 3 * g - 3)) else 0
            if got != want:
                bad.append((m, n, p, got, want))
    return Lemma41Report(g, total, tuple(bad))
