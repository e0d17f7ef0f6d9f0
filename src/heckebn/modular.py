"""Prime-field certificates: the M_j residues of the scaled class at a prime.

For an odd prime g > 2k the scaled class w = ((g-1)! 2^{g-1})^k P_k has
integer coefficients; M_j is the coefficient of beta^j h^{k(k+1)/2 - 2j}
mod g.  mj_mod computes the M_j natively in F_g[beta] as the Giambelli
determinant of the scaled reduced Chern entries, or, for g above the
kernel's float64 bound, reduces P_k(1, beta, 0) mod g; certify_mod hands
them to certificates.sweep_criteria, which applies

  e6.1:  M_0 + M_{(g-1)/2} + M_{g-1}        != 0 (mod g)
  e6.2:  M_{(g-1)/2 - l} + M_{g-1-l}        != 0 (mod g),  1 <= l <= e/2,

with e = 3g - 3 - k(k+1)/2 >= 0.  Either one certifies that the class is
nonzero at genus g.  Failure of all criteria proves nothing.  Where the
theorem applies is decided by certificates.admissible_prime alone.

Every matrix entry, including the constant first row (c_1 u, 2u, 0, ..., 0),
is scaled by the unit u = (g-1)! 2^{g-1} mod g, which is -1 by Wilson's theorem
and Fermat's little theorem, so the determinant equals u^k P_k(1, beta, 0)
mod g exactly, which is the defining expansion of the M_j.  A uniform unit
rescale cannot change the vanishing of any M_j sum.
"""

from __future__ import annotations

from .certificates import Certificate, admissible_prime, sweep_criteria
from .chern import tilde_mod_coeffs
from .errors import InapplicablePrimeError
from .giambelli import giambelli_rows, pk_beta
from .numbers import is_prime, next_prime
from .poly import _max_prime, det_mod_univariate

__all__ = [
    "find_gk",
    "find_gpk",
    "mj_mod",
    "certify_mod",
    "theorem43_gate",
]


def find_gk(k: int) -> int:
    """Smallest odd prime g with g - 1 >= k(k-1)/4."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return next_prime(max(-(-k * (k - 1) // 4), 2))


def find_gpk(k: int) -> int:
    """Smallest odd prime g with 3g - 3 >= k(k+1)/2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return next_prime(max(-(-k * (k + 1) // 6), 2))


def mj_mod(k: int, g: int, store=None) -> tuple[int, ...]:
    """Residues (M_0, M_1, ...) mod g via the Giambelli determinant over F_g[beta].

    The tuple ends at the last nonzero M_j, or is (0,) when all vanish.  Above
    the kernel's float64 bound, P_k(1, beta, 0) comes from pk_beta(k, store).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(g) or g == 2:
        raise ValueError(f"g={g} is not an odd prime")
    if g <= 2 * k:
        raise InapplicablePrimeError(
            k, g, f"prime {g} does not exceed 2k = {2 * k}; the scaled class "
            "is not integral below that"
        )
    if g > _max_prime(k, k):  # the kernel's bound: entries have <= k coefficients
        # u^k P_k with u = -1: P_k's denominators hold only 2 and primes < 2k < g
        c = pk_beta(k, store).polynomial.coeffs_in("beta")
        m = [(-1) ** k * x.numerator * pow(x.denominator, -1, g) % g for x in c]
        while len(m) > 1 and not m[-1]:
            m.pop()
    else:
        u = g - 1  # (g-1)! 2^(g-1) mod g
        hat = [[c * u % g for c in row] for row in tilde_mod_coeffs(2 * k - 1, g)]
        m = det_mod_univariate(giambelli_rows(k, hat, [0]), [g])[0][-1]
    if len(m) - 1 > k * k // 4:
        raise AssertionError(
            f"M_j nonzero beyond the floor(k^2/4) degree bound at k={k}, g={g}"
        )
    return tuple(m)


def certify_mod(k: int, g: int | None = None, store=None) -> Certificate | None:
    """Sweep the criteria at one prime, by default find_gpk(k); store as in mj_mod.

    A prime where Theorem 6.1 does not apply raises InapplicablePrimeError;
    a g that is not an odd prime raises ValueError.  Returns None when every
    criterion gives 0: that is inconclusive, never a proof of vanishing.
    """
    if g is None:
        g = find_gpk(k)
    if not admissible_prime(k, g):
        if not is_prime(g) or g == 2:
            raise ValueError(f"g={g} is not an odd prime")
        raise InapplicablePrimeError(
            k, g, f"Theorem 6.1 needs g > 2k = {2 * k} and 3g - 3 >= "
            f"k(k+1)/2 = {k * (k + 1) // 2}"
        )
    return sweep_criteria(k, g, mj_mod(k, g, store))


def theorem43_gate(g: int, k: int) -> bool:
    """Non-vanishing holds when g is an odd prime with g-1 >= max(k(k-1)/4, 2k-1)."""
    return k >= 1 and g >= 2 * k and 4 * (g - 1) >= k * (k - 1) and g != 2 and is_prime(g)
