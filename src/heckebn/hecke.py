"""Cohomology of the Hecke correspondence: basis expansion and pairings.

The cohomology of H is a free rank-2 module over the base ring in alpha,
beta, gamma with basis {1, h} and the single relation
h^2 = alpha h - (alpha^2 - beta)/4.  Every class is written f h + f', and
integration over H reads off f (the fibers of the second projection are
lines, normalized so the fiber degree of h is 1) and evaluates it against
the closed-form intersection numbers

  (alpha^m beta^n gamma^p)
      = (-1)^{g-p} (g! m!)/((g-p)! q!) 2^{2g-2-p} (2^q - 2) B_q,

valid when m + 2n + 3p = 3g - 3, with q = m + p + 1 - g and B_q = 0 for
q < 0.  The parity of the degree condition forces q even, so the odd-index
Bernoulli convention is never consulted; an assertion guards this.

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

from .certificates import Certificate
from .errors import NegativeExpectedDimensionError
from .giambelli import pk_full
from .numbers import bernoulli, binomial, is_prime
from .poly import ALPHA, GradedPoly

__all__ = [
    "HeckeClass",
    "h_power",
    "to_basis",
    "IntersectionQuery",
    "thaddeus_number",
    "integrate_over_H",
    "candidate_monomials",
    "RationalWitness",
    "rational_certificate",
    "pair_with_monomial",
    "Lemma41Report",
    "lemma41_scan",
]


@dataclass(frozen=True)
class HeckeClass:
    """A class f h + f' with f, f' polynomials in alpha, beta, gamma only."""

    f: GradedPoly
    fprime: GradedPoly

    def __post_init__(self):
        for part, label in ((self.f, "f"), (self.fprime, "f'")):
            if part.degree_in("h") > 0:
                raise ValueError(f"component {label} must not contain h")

    def __add__(self, other: HeckeClass) -> HeckeClass:
        return HeckeClass(self.f + other.f, self.fprime + other.fprime)

    def scale(self, q: GradedPoly) -> HeckeClass:
        """Multiply by an h-free polynomial (module structure over the base)."""
        return HeckeClass(self.f * q, self.fprime * q)

    def is_homogeneous(self, d: int) -> bool:
        return self.f.is_homogeneous(d - 1) and self.fprime.is_homogeneous(d)


_H_POWERS: dict[int, HeckeClass] = {}


def h_power(r: int) -> HeckeClass:
    """h^r in the basis {1, h}, by the binomial closed form.

    f  = 2^{1-r} sum_{i odd <= r} C(r,i) alpha^{r-i} beta^{(i-1)/2}
    f' = 2^{-r} (sum_{i even <= r} C(r,i) alpha^{r-i} beta^{i/2} - alpha f 2^{r-1})
    """
    if r < 1:
        raise ValueError("h_power needs r >= 1")
    got = _H_POWERS.get(r)
    if got is not None:
        return got
    odd_sum = GradedPoly.zero()
    even_sum = GradedPoly.zero()
    for i in range(r + 1):
        term = GradedPoly.monomial(
            (0, r - i, (i - 1) // 2 if i % 2 else i // 2, 0), binomial(r, i)
        )
        if i % 2:
            odd_sum = odd_sum + term
        else:
            even_sum = even_sum + term
    f = odd_sum * Fraction(1, 2 ** (r - 1))
    fprime = (even_sum - ALPHA * odd_sum) * Fraction(1, 2**r)
    out = HeckeClass(f, fprime)
    _H_POWERS[r] = out
    return out


def to_basis(q: GradedPoly) -> HeckeClass:
    """Rewrite an arbitrary polynomial in h, alpha, beta, gamma as f h + f'."""
    f = GradedPoly.zero()
    fprime = GradedPoly.zero()
    for mono, c in q.items():
        r = mono[0]
        rest = GradedPoly.monomial((0, mono[1], mono[2], mono[3]), c)
        if r == 0:
            fprime = fprime + rest
        else:
            hp = h_power(r)
            f = f + rest * hp.f
            fprime = fprime + rest * hp.fprime
    return HeckeClass(f, fprime)


@dataclass(frozen=True)
class IntersectionQuery:
    """Monomial degrees (m, n, p) paired at genus g; m + 2n + 3p = 3g - 3."""

    g: int
    m: int
    n: int
    p: int

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("genus must be >= 2")
        if min(self.m, self.n, self.p) < 0:
            raise ValueError("exponents must be nonnegative")
        if self.m + 2 * self.n + 3 * self.p != 3 * self.g - 3:
            raise ValueError(
                f"degree condition violated: {self.m} + 2*{self.n} + 3*{self.p}"
                f" != {3 * self.g - 3}"
            )


def thaddeus_number(g: int, m: int | None = None, n: int | None = None, p: int | None = None) -> Fraction:
    """Exact intersection number (alpha^m beta^n gamma^p) at genus g."""
    if isinstance(g, IntersectionQuery):
        q_ = g
    else:
        q_ = IntersectionQuery(g, m, n, p)
    q = q_.m + q_.p + 1 - q_.g
    if q < 0:
        return Fraction(0)
    assert q % 2 == 0, "odd q is unreachable under the degree condition"
    b = bernoulli(q)
    if b == 0:
        return Fraction(0)
    lead = Fraction(
        math.factorial(q_.g) * math.factorial(q_.m),
        math.factorial(q_.g - q_.p) * math.factorial(q),
    )
    value = lead * 2 ** (2 * q_.g - 2 - q_.p) * (2**q - 2) * b
    return -value if (q_.g - q_.p) % 2 else value


def integrate_over_H(c: HeckeClass, g: int) -> Fraction:
    """Pair a class of half-degree 3g - 2 with the fundamental class of H.

    Only the h-component f contributes; it must be homogeneous of
    half-degree 3g - 3.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    if not c.f.is_homogeneous(3 * g - 3):
        raise ValueError(
            f"f must be homogeneous of half-degree {3 * g - 3}, got weights {sorted(c.f.weights())}"
        )
    total = Fraction(0)
    for mono, coeff in c.f.items():
        total += coeff * thaddeus_number(g, mono[1], mono[2], mono[3])
    return total


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
    """Integrate P_k times alpha^a beta^b gamma^c h^d over H."""
    a, b, c, d = monomial
    prod = pk * GradedPoly.monomial((d, a, b, c))
    return integrate_over_H(to_basis(prod), g)


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
    if `budget` candidates all pair to zero.  None is not evidence of
    vanishing.
    """
    if g < 2 or k < 1:
        raise ValueError("need g >= 2 and k >= 1")
    e = 3 * g - 3 - k * (k + 1) // 2
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
