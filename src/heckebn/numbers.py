"""Exact scalar arithmetic: rationals, primes, Bernoulli numbers, n! mod p.

All arithmetic in the package is exact.  Rationals are stdlib
fractions.Fraction; this module fixes their canonical string form and
memoizes the Bernoulli numbers feeding the intersection-number formula.
Prime-field residues are plain ints reduced by their callers.

Bernoulli convention: B_1 = -1/2 (the x/(e^x - 1) expansion).  Callers of the
intersection-number formula never reach an odd index > 0; the lone odd value
B_1 is kept for completeness.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "format_rational",
    "parse_rational",
    "parse_canonical_rational",
    "binomial",
    "is_prime",
    "next_prime",
    "bernoulli",
    "factorial_mod",
]


# ---------------------------------------------------------------------------
# rational formatting


def format_rational(q: Fraction | int) -> str:
    """Canonical string "num/den" in lowest terms, "/den" omitted when den == 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Any string Fraction parses, surrounding whitespace ignored: the
    command line's reader.  Stored records use parse_canonical_rational.

    Anything but a str raises TypeError.
    """
    if not isinstance(s, str):
        raise TypeError(f"rational must be a string, not {type(s).__name__}")
    return Fraction(s.strip())


def parse_canonical_rational(s: str) -> Fraction:
    """Inverse of format_rational on its image only, for stored records.

    "3392.0", "6784/2", " 3392" and "3.392e3" all parse as 3392, but only
    "3392" is what format_rational writes: any other form raises ValueError,
    anything but a str TypeError.
    """
    q = parse_rational(s)
    if format_rational(q) != s:
        raise ValueError(f"not a rational as format_rational writes it: {s!r}")
    return q


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division, then Miller-Rabin)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    # Miller-Rabin with the fixed witness set is exact for n < 3.3e24,
    # far beyond any modulus this package touches.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = max(n + 1, 2)
    while not is_prime(m):
        m += 1
    return m


# ---------------------------------------------------------------------------
# Bernoulli numbers


_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(q: int) -> Fraction:
    """Bernoulli number B_q, with B_1 = -1/2 and B_q = 0 for q < 0.

    Memoized via sum(C(q+1, j) * B_j, j=0..q) == 0; the memo grows under a
    lock, so shared use from several threads stays consistent.
    """
    if q < 0 or (q >= 3 and q % 2 == 1):
        return Fraction(0)
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= q:
            m = len(_BERNOULLI)
            acc = Fraction(0)
            for j in range(m):
                acc += binomial(m + 1, j) * _BERNOULLI[j]
            _BERNOULLI.append(-acc / (m + 1))
        return _BERNOULLI[q]


# ---------------------------------------------------------------------------
# prime fields


def factorial_mod(n: int, p: int) -> int:
    """n! mod the prime p (0 when n >= p)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if n >= p:
        return 0
    acc = 1
    for i in range(2, n + 1):
        acc = acc * i % p
    return acc
