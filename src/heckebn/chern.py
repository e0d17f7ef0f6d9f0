"""Chern class sequence of the tautological quotient on the Hecke fibration.

One recurrence produces every realization of the sequence.  With c_0 = 1 and
c_{<0} = 0, the four-term recurrence

  (n+4)c_{n+4} = h c_{n+3} + (beta/2)(n+2)c_{n+2}
                 - (beta h/4 + gamma/2) c_{n+1} - (beta/4)^2 n c_n

holds for every n >= -3, so it also yields c_1 .. c_4.  `_chern_sequence`
runs it over any coefficient ring: GradedPoly in beta at h = 1 and a fixed
gamma for giambelli's slices of P_k (chern_tilde memoizes gamma = 0),
Fraction at a rational point for pk_eval, and GradedPoly in h, beta, gamma
for chern_full, the tests' trivariate reference.  The Giambelli convention
c_0 = 2 is applied on output.

tilde_mod_coeffs(n, g) reduces chern_tilde mod an odd prime g > n: every
denominator divides a product of integers <= n and a power of 2, so it is a
unit mod g.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .numbers import is_prime
from .poly import BETA, GAMMA, H, GradedPoly

__all__ = [
    "chern_full",
    "chern_tilde",
    "tilde_mod_coeffs",
]

_lock = threading.Lock()

_QUARTER = Fraction(1, 4)


def _chern_sequence(c: list, n: int, h, beta, gamma) -> list:
    """Extend c = [1, c_1, ...] in place to c_0..c_n over the ring of h, beta, gamma."""
    a2 = beta * Fraction(1, 2)
    a3 = beta * h * _QUARTER + gamma * Fraction(1, 2)
    a4 = beta * beta * Fraction(1, 16)
    while len(c) <= n:
        m = len(c)  # c_m; the terms with a negative index or factor 0 are dropped
        acc = h * c[m - 1]
        if m >= 3:
            acc = acc + (a2 * (m - 2)) * c[m - 2] - a3 * c[m - 3]
        if m >= 5:
            acc = acc - (a4 * (m - 4)) * c[m - 4]
        c.append(acc * Fraction(1, m))
    return c


_FULL: list[GradedPoly] = [GradedPoly.one()]


def chern_full(n: int) -> GradedPoly:
    """n-th Chern class as a polynomial in h, beta, gamma (c_0 = 2, c_{<0} = 0)."""
    if n < 0:
        return GradedPoly.zero()
    if n == 0:
        return GradedPoly.constant(2)
    with _lock:
        return _chern_sequence(_FULL, n, H, BETA, GAMMA)[n]


_TILDE: list[GradedPoly] = [GradedPoly.one()]


def chern_tilde(n: int) -> GradedPoly:
    """The h = 1, gamma = 0 specialization, as a polynomial in beta alone."""
    if n < 0:
        return GradedPoly.zero()
    if n == 0:
        return GradedPoly.constant(2)
    with _lock:
        return _chern_sequence(_TILDE, n, 1, BETA, 0)[n]


_TILDE_MOD: dict[int, list[list[int]]] = {}


def tilde_mod_coeffs(n: int, g: int) -> list[list[int]]:
    """Ascending beta-coefficient lists of ct_0..ct_n over F_g; needs n < g."""
    if not is_prime(g) or g == 2:
        raise ValueError(f"g={g} is not an odd prime")
    if n >= g:
        raise ValueError(f"reduced Chern index {n} needs n < g = {g}")
    with _lock:
        seq = _TILDE_MOD.setdefault(g, [[2]])
        _chern_sequence(_TILDE, n, 1, BETA, 0)
        for m in range(len(seq), n + 1):
            coeffs = _TILDE[m].coeffs_in("beta")
            seq.append([c.numerator * pow(c.denominator, -1, g) % g for c in coeffs])
        return [row[:] for row in seq[: n + 1]]
