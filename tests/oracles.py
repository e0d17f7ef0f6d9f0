"""Independent reference computations the tests compare the library against.

None of these is on a production path.  Each one reaches a result the
library also computes, by a different route: fraction-free Bareiss with
exact polynomial division, and evaluation at integer nodes with
interpolation, against the library's determinant engines, the
exponential generating series against the Chern recurrence, a pairing over
the Hecke correspondence that reduces each h^r by iterating
h^2 = alpha h - (alpha^2 - beta)/4 against the library's binomial closed
form for the h-coefficient, von Staudt-Clausen against the Bernoulli table,
and so on.  The polynomial algebra that only tests need, substitution,
evaluation and powers of a GradedPoly, lives here too, and so do the prime
finders' references, read off a sieve of Eratosthenes.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from heckebn.giambelli import closed_form_14, pk_eval
from heckebn.hecke import thaddeus_number
from heckebn.numbers import binomial, is_prime, next_prime
from heckebn.poly import ALPHA, BETA, GAMMA, SYMBOLS, WEIGHTS, H, GradedPoly
from heckebn.poly import _interp_nodes, det_numeric, poly_from_coeffs


def reduce_mod(coeffs: list, g: int) -> list[int]:
    """Fractions (or ints) reduced into F_g; every denominator must be a unit."""
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator % g == 0:
            raise ZeroDivisionError(f"denominator of {c} vanishes mod {g}")
        out.append(c.numerator * pow(c.denominator, -1, g) % g)
    return out


# ---------------------------------------------------------------------------
# primes off a sieve of Eratosthenes


@functools.cache
def _sieve(n: int) -> bytes:
    """s[m] == 1 iff m is prime, for 0 <= m < n: the sieve of Eratosthenes."""
    s = bytearray([1]) * n
    s[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if s[p]:
            s[p * p :: p] = bytes(len(range(p * p, n, p)))
    return bytes(s)


def _first_odd_prime_from(lo: int) -> int:
    """The smallest odd prime >= lo, off the sieve to the power of two above
    2 lo: by Bertrand's postulate a prime lies in [lo, 2 lo)."""
    lo = max(lo, 3)
    return _sieve(1 << (2 * lo).bit_length()).index(1, lo)


def find_gk_by_walk(k: int) -> int:
    """Smallest odd prime g with 4(g - 1) >= k(k-1): the first sieved prime
    at or above 1 + ceil(k(k-1)/4)."""
    return _first_odd_prime_from(1 - (-k * (k - 1) // 4))


def find_gpk_by_walk(k: int) -> int:
    """Smallest odd prime g with 6(g - 1) >= k(k+1): the first sieved prime
    at or above 1 + ceil(k(k+1)/6)."""
    return _first_odd_prime_from(1 - (-k * (k + 1) // 6))


def valid_primes_above(k: int, count: int = 2) -> list[int]:
    """First `count` primes g > 2k (all odd, so mj_mod accepts them)."""
    out = []
    g = 2 * k
    while len(out) < count:
        g = next_prime(g)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# substitution and powers, term by term


def substitute(p: GradedPoly, **values) -> GradedPoly:
    """Bind some symbols to scalars; the rest stay symbolic.  An unknown
    symbol raises ValueError."""
    bound = [(SYMBOLS.index(name), Fraction(v)) for name, v in values.items()]
    out: dict = {}
    for mono, c in p.items():
        rest = list(mono)
        for i, v in bound:
            c, rest[i] = c * v ** mono[i], 0
        out[tuple(rest)] = out.get(tuple(rest), 0) + c
    return GradedPoly(out)


def evaluate(p: GradedPoly, **values) -> Fraction:
    """Bind every symbol that occurs and return the scalar value."""
    r = substitute(p, **values)
    missing = sorted({SYMBOLS[i] for mono in r.coeffs for i, e in enumerate(mono) if e})
    if missing:
        raise ValueError(f"unbound symbols in evaluation: {missing}")
    return r.coeffs.get((0, 0, 0, 0), Fraction(0))


def power(p: GradedPoly, n: int) -> GradedPoly:
    """p^n for n >= 0 by repeated multiplication."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    return functools.reduce(lambda acc, _: acc * p, range(n), GradedPoly.one())


# ---------------------------------------------------------------------------
# grading: h and alpha weigh 1, beta 2, gamma 3


def weights(p: GradedPoly) -> set[int]:
    return {sum(e * w for e, w in zip(mono, WEIGHTS)) for mono in p.coeffs}


def is_homogeneous(p: GradedPoly, weight: int | None = None) -> bool:
    ws = weights(p)
    if not ws:
        return True
    if len(ws) > 1:
        return False
    return weight is None or ws == {weight}


def half_degree(p: GradedPoly) -> int | None:
    """Largest monomial weight, None on the zero polynomial."""
    ws = weights(p)
    return max(ws) if ws else None


# ---------------------------------------------------------------------------
# determinants: fraction-free Bareiss with exact polynomial division


def _lead(p: GradedPoly):
    mono = max(p.coeffs)
    return mono, p.coeffs[mono]


def exact_div(num: GradedPoly, den: GradedPoly) -> GradedPoly:
    """Exact quotient num/den; raises ArithmeticError if den does not divide num."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    dm, dc = _lead(den)
    rem = dict(num.coeffs)
    quo = {}
    while rem:
        m = max(rem)
        qm = tuple(a - b for a, b in zip(m, dm))
        if any(e < 0 for e in qm):
            raise ArithmeticError("inexact polynomial division")
        qc = rem[m] / dc
        quo[qm] = qc
        for m2, c2 in den.coeffs.items():
            t = (qm[0] + m2[0], qm[1] + m2[1], qm[2] + m2[2], qm[3] + m2[3])
            v = rem.get(t, 0) - qc * c2
            if v:
                rem[t] = v
            elif t in rem:
                del rem[t]
    return GradedPoly(quo)


def det_bareiss(rows: Sequence[Sequence[GradedPoly]]) -> GradedPoly:
    """Fraction-free Bareiss elimination with exact polynomial division."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = GradedPoly.one()
    for r in range(n - 1):
        if a[r][r].is_zero():
            for i in range(r + 1, n):
                if not a[i][r].is_zero():
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return GradedPoly.zero()
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = a[r][r] * a[i][j] - a[i][r] * a[r][j]
                a[i][j] = exact_div(num, prev)
            a[i][r] = GradedPoly.zero()
        prev = a[r][r]
    out = a[n - 1][n - 1]
    return -out if sign < 0 else out


def det_by_nodes(rows: Sequence[Sequence[GradedPoly]]) -> GradedPoly:
    """Determinant of a matrix of polynomials in beta by evaluation at 0..B
    and interpolation: the engine the multimodular det_interpolate replaced.

    B is the generic row-degree bound sum(max_j deg entry(i, j)).  Each row
    is scaled by the lcm of its coefficient denominators, every entry is
    evaluated at each node by Horner's rule, det_numeric (integer Bareiss)
    takes each integer matrix, and _interp_nodes turns the node values into
    coefficients over one common denominator.
    """
    bound = 0
    denom = 1
    scaled_rows = []
    for row in rows:
        d = max(p.degree_in("beta") for p in row)
        if d < 0:
            return GradedPoly.zero()
        bound += d
        l = math.lcm(*(c.denominator for p in row for c in p.coeffs.values()))
        denom *= l
        scaled_rows.append(
            [[c.numerator * (l // c.denominator) for c in p.coeffs_in("beta")] for p in row]
        )
    ys = []
    for x in range(bound + 1):
        values = [[_horner(e, x) for e in row] for row in scaled_rows]
        ys.append(det_numeric(values).numerator)
    return poly_from_coeffs(_interp_nodes(ys, denom))


def _horner(coeffs: list[int], x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# Chern classes: the closed-form exponential series


_QUARTER = Fraction(1, 4)
_ORACLE: list[GradedPoly] = []


def chern_oracle(n: int) -> GradedPoly:
    """c_n from c(t) - 1 = exp(sum_{m>=0} (beta h/4 - (m/2) gamma)
    (beta/4)^{m-1} t^{2m+1}/(2m+1)), expanded as a truncated power series;
    c_0 = 2 (the Giambelli convention)."""
    if n < 0:
        return GradedPoly.zero()
    if n == 0:
        return GradedPoly.constant(2)
    if len(_ORACLE) <= n:
        _ORACLE[:] = _exp_series(n)
    return _ORACLE[n]


def _exp_series(upto: int) -> list[GradedPoly]:
    # S(t) has odd coefficients s_1 = h and, for m >= 1,
    # s_{2m+1} = (beta h/4 - (m/2) gamma)(beta/4)^{m-1} / (2m+1).
    s = [GradedPoly.zero() for _ in range(upto + 2)]
    s[1] = H
    m = 1
    while 2 * m + 1 < len(s):
        s[2 * m + 1] = (
            (BETA * H * _QUARTER - GAMMA * Fraction(m, 2))
            * power(BETA, m - 1)
            * _QUARTER ** (m - 1)
            * Fraction(1, 2 * m + 1)
        )
        m += 1
    # E = exp(S) via (n+1) E_{n+1} = sum_j (j+1) s_{j+1} E_{n-j}.
    e = [GradedPoly.one()]
    for n in range(upto + 1):
        acc = GradedPoly.zero()
        for j in range(n + 1):
            if not s[j + 1].is_zero():
                acc = acc + s[j + 1] * e[n - j] * (j + 1)
        e.append(acc * Fraction(1, n + 1))
    return [GradedPoly.constant(2)] + e[1:]


def beta4_closed_form(n: int) -> Fraction:
    """Value of ct_n at beta = 4: central binomial ratio (2m)! / (4^m m!^2).

    For n >= 2 the odd and even neighbors agree: ct_{2m} = ct_{2m+1}.
    n = 0 gives 2 (the Giambelli convention) and n = 1 gives 1.
    """
    if n < 0:
        raise ValueError("negative Chern index")
    if n == 0:
        return Fraction(2)
    if n == 1:
        return Fraction(1)
    m = n // 2
    return Fraction(binomial(2 * m, m), 4**m)


# ---------------------------------------------------------------------------
# the Hecke correspondence and intersection numbers


@functools.lru_cache(maxsize=None)
def h_power_by_reduction(r: int) -> tuple[GradedPoly, GradedPoly]:
    """(f, f') with h^r = f h + f', by iterating h^2 = alpha h - (alpha^2 - beta)/4."""
    if r < 1:
        raise ValueError("h_power_by_reduction needs r >= 1")
    f, fprime = GradedPoly.one(), GradedPoly.zero()
    for _ in range(r - 1):
        # h * (f h + f') = (f alpha + f') h + f (beta - alpha^2)/4
        f, fprime = f * ALPHA + fprime, f * (BETA - ALPHA * ALPHA) * _QUARTER
    return f, fprime


def h_coefficient_by_reduction(poly: GradedPoly) -> GradedPoly:
    """The f in poly = f h + f', each h^r reduced by h_power_by_reduction."""
    f: dict = {}
    for (r, m, n, p), coeff in poly.items():
        if r == 0:
            continue
        for (_, m2, n2, p2), c2 in h_power_by_reduction(r)[0].items():
            key = (0, m + m2, n + n2, p + p2)
            f[key] = f.get(key, 0) + coeff * c2
    return GradedPoly(f)


def pair_by_reduction(
    poly: GradedPoly, monomial: tuple[int, int, int, int], g: int
) -> Fraction:
    """Integral over H of poly * alpha^a beta^b gamma^c h^d: the h-coefficient
    by iterated reduction, each of its terms paired by thaddeus_number."""
    a, b, c, d = monomial
    f = h_coefficient_by_reduction(poly * GradedPoly({(d, a, b, c): 1}))
    return sum(
        (coeff * thaddeus_number(g, m, n, p) for (_, m, n, p), coeff in f.items()),
        Fraction(0),
    )


def von_staudt_denominator(q: int) -> int:
    """Denominator of B_q for even q >= 0: product of primes p with (p-1) | q."""
    if q < 0 or q % 2 != 0:
        raise ValueError(f"von Staudt-Clausen applies to even q >= 0, got {q}")
    out = 1
    for p in range(2, q + 2):
        if is_prime(p) and q % (p - 1) == 0:
            out *= p
    return out


def beta_rank1(g: int, d: int, k: int) -> int:
    """Expected dimension of B(1,d,k): g - k(k - d + g - 1)."""
    if g < 2:
        raise ValueError("need g >= 2")
    return g - k * (k - d + g - 1)


# ---------------------------------------------------------------------------
# P_k(1, 4, 0) mod p and Schur dimensions


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers."""

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        return super().__new__(cls, parts)


def schur_dim(lam, n: int) -> int:
    """S_lambda(1, ..., 1) with n ones, by the hook-content product formula."""
    parts = tuple(p for p in Partition(lam) if p > 0)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(parts) > n:
        raise ValueError(f"partition has {len(parts)} rows > n = {n}")
    num = 1
    den = 1
    for i, row in enumerate(parts):  # 0-based cell (i, j)
        for j in range(row):
            num *= n + j - i
            arm = row - j - 1
            leg = sum(1 for r in parts[i + 1 :] if r > j)
            den *= arm + leg + 1
    q, r = divmod(num, den)
    if r:
        raise AssertionError("hook-content product is not an integer")
    return q


def lemma35_check(k: int, p: int) -> bool:
    """P_k(1,4,0) is a unit mod p for odd primes p > k.

    Evaluates the determinant exactly, reduces mod p, and cross-checks the
    residue against the closed form.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} is not an odd prime")
    if p <= k:
        raise ValueError(f"lemma needs p > k, got p={p}, k={k}")
    value = pk_eval(k, 1, 4, 0)
    if value.denominator % p == 0:
        return False
    (residue,) = reduce_mod([value], p)
    (pred_residue,) = reduce_mod([closed_form_14(k)], p)
    if residue != pred_residue:
        raise AssertionError(
            f"P_{k}(1,4,0) mod {p}: determinant gives {residue}, closed form {pred_residue}"
        )
    return residue != 0


# Reference kernel: per-coefficient Bareiss over F_p[x] on Python lists, with
# long division from the leading coefficient.  It shares no code with
# poly.det_mod_univariate, which runs each pivot step as Toeplitz products
# and divides by an x-adic series inverse.


def _ref_trim(v: list[int]) -> list[int]:
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def _ref_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _ref_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _ref_trim(out)


def _ref_divexact(num: list[int], den: list[int], p: int) -> list[int]:
    num = _ref_trim(num)
    den = _ref_trim(den)
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return num
    dn = len(den) - 1
    qd = len(num) - 1 - dn
    if qd < 0:
        raise ArithmeticError("inexact modular polynomial division")
    inv_lead = pow(den[-1], -1, p)
    rem = list(num)
    q = [0] * (qd + 1)
    for t in range(qd, -1, -1):
        c = rem[t + dn] * inv_lead % p
        q[t] = c
        if c:
            for i, d in enumerate(den):
                rem[t + i] = (rem[t + i] - c * d) % p
    if any(rem):
        raise ArithmeticError("inexact modular polynomial division")
    return q


def ref_det_mod(coeff_rows: list[list[list[int]]], p: int) -> list[int]:
    n = len(coeff_rows)
    a = [[_ref_trim([c % p for c in e]) for e in row] for row in coeff_rows]
    sign = 1
    prev = [1]
    for r in range(n - 1):
        if not a[r][r]:
            for i in range(r + 1, n):
                if a[i][r]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return [0]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = _ref_sub(
                    _ref_mul(a[r][r], a[i][j], p), _ref_mul(a[i][r], a[r][j], p), p
                )
                a[i][j] = _ref_divexact(num, prev, p)
            a[i][r] = []
        prev = a[r][r]
    out = [c if sign > 0 else (-c) % p for c in a[n - 1][n - 1]]
    return out if out else [0]


def giambelli_rows_by_k(k: int, c: list, zero) -> list[list]:
    """The k x k Giambelli matrix in its textbook layout, entry(i, j) =
    c[k - 2i + j] (0-based): giambelli_rows with its rows and its columns
    each in the opposite order, so the same determinant."""
    return [
        [c[k - 2 * i + j] if k - 2 * i + j >= 0 else zero for j in range(k)]
        for i in range(k)
    ]
