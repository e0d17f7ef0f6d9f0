"""Sparse exact polynomials in h, alpha, beta, gamma, and determinants of them.

Coefficients are rationals (stdlib Fraction).  The grading gives h and alpha
weight 1, beta weight 2, gamma weight 3 ("half-degree": all geometric
classes here have even cohomological degree).  GradedPoly carries what the
library uses: construction, +, -, *, degree_in, coeffs_in, items and JSON.
Substitution, evaluation and powers are test oracles (tests/oracles.py).

One polynomial-determinant kernel, det_mod_univariate: Bareiss over F_p[x]
on the whole active block of a stack of primes, a single prime being a stack
of one; a pivot step is a few Toeplitz matrix products, one x-adic series
inverse of the previous pivot, and multiply-back checks of that inverse and
of the top of each quotient.  While 2 p^2 n max_len < 2^53 coefficients sit
in float64 as exact integers: every sum has nonnegative terms below 2^53, so
no BLAS partial sum rounds.  Above that, Python-int object arrays.

det_interpolate, the determinant over Q of a matrix of polynomials in beta,
is multimodular on that kernel: rows scaled to integers, the determinant mod
primes taken downward from the float64 bound, as many as a proven
coefficient bound needs, in one kernel call, and the Chinese remainder
theorem in the symmetric range.  det_numeric (integer Bareiss) serves scalar
matrices; det_minor_expansion, Laplace expansion in any symbols, is the
tests' reference and on no library path.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .numbers import format_rational, is_prime, parse_canonical_rational

__all__ = [
    "SYMBOLS",
    "WEIGHTS",
    "Monomial",
    "GradedPoly",
    "det_minor_expansion",
    "det_numeric",
    "det_interpolate",
    "det_mod_univariate",
    "root_multiplicity",
    "poly_from_coeffs",
    "H",
    "ALPHA",
    "BETA",
    "GAMMA",
]

SYMBOLS = ("h", "alpha", "beta", "gamma")
WEIGHTS = (1, 1, 2, 3)

Monomial = tuple[int, int, int, int]

_ZERO_MONO: Monomial = (0, 0, 0, 0)
_ZERO = Fraction(0)


class GradedPoly:
    """Immutable sparse polynomial over Q.

    coeffs maps exponent tuples (e_h, e_alpha, e_beta, e_gamma) to nonzero
    Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                mono = tuple(mono)  # type: ignore[assignment]
                if len(mono) != 4 or not all(type(e) is int and e >= 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r}")
                v = Fraction(c)
                if v:
                    clean[mono] = clean.get(mono, _ZERO) + v
                    if not clean[mono]:
                        del clean[mono]
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, coeffs: dict) -> GradedPoly:
        """Wrap an arithmetic result on canonical operands.

        Skips the re-coercion of `__init__`; still drops zero coefficients.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", {m: c for m, c in coeffs.items() if c})
        return out

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> GradedPoly:
        return cls({})

    @classmethod
    def one(cls) -> GradedPoly:
        return cls({_ZERO_MONO: 1})

    @classmethod
    def constant(cls, c) -> GradedPoly:
        return cls({_ZERO_MONO: c})

    @classmethod
    def symbol(cls, name: str) -> GradedPoly:
        i = SYMBOLS.index(name)
        mono = tuple(1 if j == i else 0 for j in range(4))
        return cls({mono: 1})  # type: ignore[dict-item]

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            if isinstance(other, (int, Fraction)):
                other = GradedPoly.constant(other)
            else:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def degree_in(self, name: str) -> int:
        """Largest exponent of the symbol; -1 on the zero polynomial."""
        i = SYMBOLS.index(name)
        return max((mono[i] for mono in self.coeffs), default=-1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> GradedPoly:
        other = self._coerce(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, _ZERO) + c
        return GradedPoly._trusted(out)

    def __neg__(self) -> GradedPoly:
        return GradedPoly._trusted({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> GradedPoly:
        return self.__add__(-self._coerce(other))

    def __mul__(self, other) -> GradedPoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return GradedPoly._trusted({m: v * c for m, v in self.coeffs.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                out[m] = out.get(m, _ZERO) + c1 * c2
        return GradedPoly._trusted(out)

    def __rmul__(self, other) -> GradedPoly:
        return self.__mul__(other)

    def _coerce(self, other) -> GradedPoly:
        if isinstance(other, GradedPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedPoly.constant(other)
        raise TypeError(f"cannot combine GradedPoly with {type(other)!r}")

    # -- univariate view ---------------------------------------------------

    def coeffs_in(self, name: str) -> list[Fraction]:
        """Ascending coefficient list for a univariate polynomial in `name`."""
        i = SYMBOLS.index(name)
        extra = {SYMBOLS[j] for m in self.coeffs for j, e in enumerate(m) if e and j != i}
        if extra:
            raise ValueError(f"not univariate in {name}: also uses {sorted(extra)}")
        out = [_ZERO] * max(self.degree_in(name) + 1, 1)
        for mono, c in self.coeffs.items():
            out[mono[i]] = c
        return out

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical form: terms sorted by exponent tuple, exact coefficients."""
        return [
            {"e": list(mono), "c": format_rational(self.coeffs[mono])}
            for mono in sorted(self.coeffs)
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> GradedPoly:
        return cls({tuple(term["e"]): parse_canonical_rational(term["c"]) for term in obj})

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono in sorted(self.coeffs, key=self._display_key):
            body = "*".join(
                f"{SYMBOLS[i]}^{e}" if e > 1 else SYMBOLS[i]
                for i, e in enumerate(mono)
                if e
            )
            cs = format_rational(self.coeffs[mono])
            parts.append(f"({cs})*{body}" if body else f"({cs})")
        return " + ".join(parts)

    def _display_key(self, mono: Monomial):
        return (-sum(e * w for e, w in zip(mono, WEIGHTS)), mono)


# module-level symbols
H = GradedPoly.symbol("h")
ALPHA = GradedPoly.symbol("alpha")
BETA = GradedPoly.symbol("beta")
GAMMA = GradedPoly.symbol("gamma")


def poly_from_coeffs(coeffs: Iterable) -> GradedPoly:
    """Polynomial in beta from an ascending coefficient list."""
    return GradedPoly({(0, 0, e, 0): c for e, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# matrices and determinants


def det_minor_expansion(rows: Sequence[Sequence[GradedPoly]]) -> GradedPoly:
    """Laplace expansion along bottom rows, memoized on remaining column sets.

    The rows form a square matrix whose entries may hold any number of
    symbols.  This is the tests' reference for det_interpolate and the
    trivariate P_k; no library code calls it.  The bottom rows of Giambelli
    matrices are the sparsest, so expanding there keeps the number of
    distinct cofactors small.
    """
    memo: dict[frozenset, GradedPoly] = {}

    def rec(cols: frozenset) -> GradedPoly:
        got = memo.get(cols)
        if got is not None:
            return got
        r = len(cols) - 1
        ordered = sorted(cols)
        if r == 0:
            memo[cols] = rows[0][ordered[0]]
            return memo[cols]
        acc = GradedPoly.zero()
        for pos, j in enumerate(ordered):
            a = rows[r][j]
            if a.is_zero():
                continue
            term = a * rec(cols - {j})
            acc = acc - term if (r + pos) % 2 else acc + term
        memo[cols] = acc
        return acc

    return rec(frozenset(range(len(rows))))


def _det_bareiss_int(rows: list[list[int]]) -> int:
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            for i in range(r + 1, n):
                if a[i][r]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[r][r] * a[i][j] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


def det_numeric(rows: list[list[int | Fraction]]) -> Fraction:
    """Exact determinant of a matrix of ints and Fractions (integer Bareiss inside).

    Raises ValueError on an empty or non-square matrix and TypeError on any
    other entry type: floats are never accepted.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    factor = 1
    int_rows = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for c in row:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"det_numeric takes ints and Fractions, not {type(c).__name__}"
                )
        l = math.lcm(*(c.denominator for c in row))
        factor *= l
        int_rows.append([c.numerator * (l // c.denominator) for c in row])
    return Fraction(_det_bareiss_int(int_rows), factor)


def det_interpolate(rows: Sequence[Sequence[GradedPoly]]) -> GradedPoly:
    """Determinant of a square matrix of polynomials in beta, over Q.

    The name is kept from the interpolation engine this multimodular one
    replaced.  Each row is scaled by the lcm of its coefficient denominators.
    The integer determinant D has coefficients of absolute value at most
    prod_i sum_j ||a_ij||_1: its l1 norm is at most the sum of the l1 norms
    of the Leibniz terms, each term's norm is at most the product of its
    entries' norms, and expanding the product over rows of the row sums of
    norms yields every Leibniz term.  One det_mod_univariate call takes D
    mod the primes of _crt_primes, until their product exceeds twice that
    bound; the Chinese remainder theorem in the symmetric range gives D
    exactly, and D over the product of the row scales is the determinant.
    An entry in any other symbol raises ValueError.
    """
    denom = 1
    bound = 1
    scaled_rows = []
    for row in rows:
        l = math.lcm(*(c.denominator for p in row for c in p.coeffs.values()))
        scaled = [[c.numerator * (l // c.denominator) for c in p.coeffs_in("beta")] for p in row]
        norm = sum(abs(c) for e in scaled for c in e)
        if not norm:
            return GradedPoly.zero()
        denom *= l
        bound *= norm
        scaled_rows.append(scaled)
    max_len = max(len(e) for row in scaled_rows for e in row)
    primes = _crt_primes(2 * bound, len(scaled_rows), max_len)
    residues = det_mod_univariate(scaled_rows, primes)
    return poly_from_coeffs(Fraction(c, denom) for c in _crt_symmetric(residues, primes))


def _crt_primes(bound: int, n: int, max_len: int) -> list[int]:
    """Primes downward from the largest p with 2 p^2 n max_len < 2^53, the
    float64 bound of det_mod_univariate, until their product exceeds bound."""
    p = math.isqrt((2**53 - 1) // (2 * n * max_len))
    primes, product = [], 1
    while product <= bound:
        while not is_prime(p):
            if p < 2:
                raise ValueError("not enough primes below the float64 bound")
            p -= 1
        primes.append(p)
        product *= p
        p -= 1
    return primes


def _crt_symmetric(residues: list[list[int]], primes: list[int]) -> list[int]:
    """The integers c_t with |c_t| < M/2, M = prod(primes), and c_t =
    residues[i][t] mod primes[i]; a residue list shorter than another reads
    as 0 beyond its end."""
    m = math.prod(primes)
    out = [0] * max(map(len, residues))
    for r, p in zip(residues, primes):
        w = m // p * pow(m // p, -1, p)  # 1 mod p, 0 mod every other prime
        for t, c in enumerate(r):
            out[t] += c * w
    half = m // 2
    return [c - m if c > half else c for c in (c % m for c in out)]


def _interp_nodes(ys: list[int], den: int) -> list[Fraction]:
    """Ascending coefficients of the polynomial of degree <= B = len(ys) - 1
    whose value at x = 0..B is ys[x] / den.

    Newton's forward form p(x) = sum_j (Delta^j y_0 / j!) x(x-1)...(x-j+1),
    written over the common denominator B! * den: integer forward differences,
    an integer Horner expansion of the falling-factorial basis, and one
    Fraction per coefficient at the end.  Trailing zeros are dropped.
    """
    b = len(ys) - 1
    diffs = list(ys)
    lead = [diffs[0]]
    for j in range(b):
        diffs = [diffs[i + 1] - diffs[i] for i in range(b - j)]
        lead.append(diffs[0])
    # b!/j! for j = b, b-1, ..., 0 scales Delta^j y_0 / j! to the denominator b!
    scale = 1
    num = [lead[b]]
    for j in range(b - 1, -1, -1):
        scale *= j + 1
        # num <- num * (x - j) + scale * Delta^j y_0
        shifted = [0] + num
        for t, c in enumerate(num):
            shifted[t] -= j * c
        shifted[0] += scale * lead[j]
        num = shifted
    total = scale * den
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return [Fraction(c, total) for c in num]


# dense univariate arithmetic over F_p on arrays of integers in [0, p)

# det_mod_univariate's budgets, one prime or many: _STACK_BYTES of residues
# per stack; _STEP_BYTES per block of (prime, row) pairs of a pivot step, each
# pair a numerator row and the Toeplitz block of its -a[i, 0].  On modcert,
# 256 KiB kept the peak RSS of the old one-prime rule at 1.05-1.10x its time;
# budgets that kept its time cost 0.05-0.12 MB more RSS (ROADMAP item 4).
_STEP_BYTES = 1 << 18
_STACK_BYTES = 1 << 17
_CHUNK = 64  # most rows of a Toeplitz block


def _coeff_dtype(p: int, n: int, max_len: int):
    """float64 while 2 p^2 n max_len < 2^53 (see det_mod_univariate), else ints."""
    return np.float64 if 2 * p * p * n * max_len < 2**53 else object


def _reduce(x, p):
    """x mod p, in place on float64 integers 0 <= x < 2^53; p is a prime or an
    array of primes broadcasting against x.  With x = kp + j, 0 <= j < p,
    x / p lies d/p below k + 1 (d = p - j >= 1), and half the float spacing
    below k + 1 is under (k + 1) 2^-53 = (x + d) / (p 2^53) <= d/p: x / p
    rounds to no integer above k, so floor(x / p) is exact."""
    if x.dtype == object:
        return x % p
    q = x / p
    x -= np.multiply(np.floor(q, out=q), p, out=q)
    return x


def _chunk(n: int) -> int:
    """Rows of the Toeplitz block for n columns of x: even slices of <= _CHUNK."""
    return -(-n // max(1, -(-n // _CHUNK)))


def _toeplitz(f, rows: int, cols: int):
    """(r, t): t[..., i, i + s] = f[..., s], else 0, a rows x cols view of the
    rows r[..., i, :] = [f, 0, ...] of period cols + 1; writing r[..., s0:s1]
    sets f[s0:s1] in every row of t while len(f) <= cols - rows + 1."""
    lead = f.shape[:-1]
    r = np.zeros(lead + (rows, cols + 1), dtype=f.dtype)
    r[..., : f.shape[-1]] = f[..., None, :]
    return r, r.reshape(lead + (-1,))[..., : rows * cols].reshape(lead + (rows, cols))


def _tmul(x, t, lo: int, hi: int):
    """(x * f)[..., lo:hi], unreduced, len(x) <= hi, for t from _toeplitz(f,
    ...) broadcasting against x as in matmul: x @ t on each slice of len(t)
    columns of x, overlap-added; with one slice, hi is at most t's columns."""
    n, (c, cols) = x.shape[-1], t.shape[-2:]
    if n <= c:
        return np.matmul(x, t[..., :n, lo:hi])
    for c0 in range(0, n, c):
        s0, s1 = max(lo - c0, 0), min(hi - c0, cols)
        part = np.matmul(x[..., c0 : c0 + c], t[..., : n - c0, s0:s1])
        if c0 == 0:
            out = np.zeros(part.shape[:-1] + (hi - lo,), dtype=part.dtype)
        out[..., c0 + s0 - lo : c0 + s1 - lo] += part
    return out


def _conv(x, f, out_len: int):
    """(x * f)[..., :out_len] along the last axis, unreduced, len(x) <= out_len;
    f is a stack broadcasting against x as in matmul; one block is out_len wide."""
    c = _chunk(x.shape[-1])
    cols = c + f.shape[-1] - 1
    return _tmul(x, _toeplitz(f, c, cols if c < x.shape[-1] else max(cols, out_len))[1], 0, out_len)


def _series_inverse(f, width: int, p):
    """g with f * g = 1 mod (x^width, p) for a stack f, f[:, 0] != 0, and the
    column p of its primes, by Newton iteration from g = 1/f0 - (f1/f0^2) x:
    with g right mod x^h, f g = 1 + x^h r and g (1 - x^h r) is right mod
    x^2h.  g lives in the rows of its Toeplitz block (_toeplitz), so both
    products of a doubling, -r from p - f (entries in [1, p]) and the new
    top g (-r), are matmuls on that block, and each new half is one write."""
    ps = [int(q) for q in np.ravel(p).tolist()]
    g0 = [pow(int(a), -1, q) for a, q in zip(f[:, 0].tolist(), ps)]
    f1 = f[:, 1].tolist() if f.shape[-1] > 1 else [0] * len(ps)
    g = np.array([[a, -int(b) * a * a % q] for a, b, q in zip(g0, f1, ps)], dtype=f.dtype)
    c = _chunk(width)
    rows, t = _toeplitz(g[:, :width], c, width + c - 1)
    neg_f = p - f[:, None, :width]
    h = 2
    while h < width:
        m = min(2 * h, width)
        neg_r = _reduce(_tmul(neg_f[..., :m], t, h, m), p)
        rows[..., h:m] = _reduce(_tmul(neg_r, t, 0, m - h), p)
        h = m
    return rows[:, 0, :width].copy()


def _divexact(num, v: int, pv, inv, p):
    """Exact quotients num / (x^v pv) over F_p, inv = 1/pv mod x^len(inv), pv,
    inv and p stacks broadcasting against num: the truncated products q of
    num / x^v with inv.  q pv is num / x^v below x^len(q) when inv is right,
    which det_mod_univariate checks once per step, so multiplying back checks
    the top len(pv) - 1 coefficients: the low ones of the reversals' product."""
    qlen = num.shape[-1] - v - pv.shape[-1] + 1
    if num[..., :v].any() or (qlen < 1 and num.any()):
        raise ArithmeticError("inexact modular polynomial division")
    num = num[..., v:]
    if qlen < 1:
        return num[..., :0]
    q = _reduce(_conv(num[..., :qlen], inv[..., :qlen], qlen), p)
    top = pv.shape[-1] - 1
    if top and not np.array_equal(
        _reduce(_conv(q[..., : -top - 1 : -1], pv[..., ::-1], top), p), num[..., : qlen - 1 : -1]
    ):
        raise ArithmeticError("inexact modular polynomial division")
    return q


def _trim_block(a):
    """Drop the length columns that are zero in every entry."""
    nz = (a if a.ndim == 1 else a.reshape(-1, a.shape[-1] or 1).any(axis=0)).nonzero()[0]
    return a[..., : nz[-1] + 1 if len(nz) else 0]


def det_mod_univariate(coeff_rows: list[list[list[int]]], p):
    """Determinant over F_p[x] of a matrix given as coefficient lists.

    p is a prime, giving a coefficient list, or a sequence of primes, giving
    one list per prime; a prime is a stack of one.  Each stack of primes
    (_STACK_BYTES) runs one Bareiss on the whole active block a: entry (i, j)
    becomes (piv a[i, j] + (-a[i, 0] mod p) a[0, j]) / prev, piv = a[0, 0],
    both terms Toeplitz products over blocks of (prime, row) pairs
    (_STEP_BYTES).  prev = x^v pv, pv(0) != 0, is inverted once per step as
    an x-adic series, checked by multiplying back, as is the top of every
    quotient (_divexact): each division is proven exact.  The primes of a
    stack share each pivot row and the valuation and length of each prev; a
    prime that would differ is finished as a stack of its own.

    Coefficients are integers in [0, p), in float64 while 2 p^2 n max_len <
    2^53 for the largest p of a stack: entries are minors of length <= n
    max_len and quotients at most twice that, so every sum has <= 2 n
    max_len terms in [0, p^2), every BLAS partial sum in any order is an
    exact integer below 2^53, and x - floor(x/p) p reduces it exactly.
    Above the bound the same code runs on Python-int object arrays.  Raises
    ValueError on an empty or non-square matrix or no prime, TypeError on a
    coefficient not an int."""
    n = len(coeff_rows)
    primes = [p] if isinstance(p, int) else list(map(operator.index, p))
    if n == 0 or not primes or any(len(row) != n for row in coeff_rows):
        raise ValueError("det_mod_univariate needs a nonempty square matrix and a prime")
    if not all(isinstance(c, int) for row in coeff_rows for e in row for c in e):
        raise TypeError("det_mod_univariate takes int coefficients")
    max_len = max(1, *(len(e) for row in coeff_rows for e in row))
    batch = max(1, _STACK_BYTES // (8 * n * n * max_len))
    stacks = [primes[i : i + batch] for i in range(0, len(primes), batch)]
    dets = [d for s in stacks for d in _det_stack(coeff_rows, s, max_len)]
    return dets[0] if isinstance(p, int) else dets


def _det_stack(coeff_rows: list[list[list[int]]], primes: list[int], max_len: int) -> list:
    """det_mod_univariate on one stack of primes, its input checked."""
    n = len(coeff_rows)
    dtype = _coeff_dtype(max(primes), n, max_len)
    ps = np.array(primes, dtype=dtype)
    # a[q, i, j] = entry (i, j) mod primes[q], zero-padded to max_len
    a = np.zeros((len(primes), n, n, max_len), dtype=dtype)
    filled = np.arange(max_len) < np.array([len(e) for row in coeff_rows for e in row])[:, None]
    for k, q in enumerate(primes):  # one prime's residues alive at a time
        a[k].reshape(n * n, max_len)[filled] = [c % q for row in coeff_rows for e in row for c in e]
    dets: list = [None] * len(primes)
    at = np.arange(len(primes))  # position in dets of each prime of the stack
    sign, prev = 1, None  # the first step divides by 1
    for m in range(n - 1, 0, -1):
        live = (a[:, :, 0] != 0).any(axis=-1)
        if len(ps) > 1:
            # each prime's pivot row, and the valuation and length of its prev
            key = [np.where(live.any(axis=1), live.argmax(axis=1), -1)]
            if prev is not None:
                key += [(prev != 0).argmax(axis=1), (prev[:, ::-1] != 0).argmax(axis=1)]
            apart = np.any([k != k[0] for k in key], axis=0)
            if apart.any():
                for i in at[apart]:
                    dets[i] = _det_stack(coeff_rows, [primes[i]], max_len)[0]
                keep = ~apart
                a, ps, at, live = a[keep], ps[keep], at[keep], live[keep]
                prev = None if prev is None else _trim_block(prev[keep])
        if not live[0, 0]:
            if not live[0].any():
                a = a[:, :1, :1, :0]  # a zero first column: every determinant is 0
                break
            i = int(live[0].nonzero()[0][0])
            a[:, [0, i]] = a[:, [i, 0]]
            sign = -sign
        p4 = ps[:, None, None, None]
        piv = _trim_block(a[:, 0, 0]).copy()  # a copy, so prev does not keep `a`
        negc = _trim_block(np.where(a[:, 1:, 0], p4[..., 0] - a[:, 1:, 0], 0))
        num_len = a.shape[-1] + max(piv.shape[-1], negc.shape[-1]) - 1
        if prev is not None:
            v = int(prev[0].nonzero()[0][0])
            width = max(num_len - prev.shape[-1] + 1, 1)
            inv = _series_inverse(prev[:, v:], width, p4[:, 0])
            # pv inv = 1 mod x^width: with it, _divexact's top check proves
            # every quotient of this step exact
            unit = _reduce(_conv(inv[:, None], prev[:, v : v + width], width)[:, 0], p4[:, 0, 0])
            if unit[:, 1:].any() or (unit[:, 0] != 1).any():
                raise ArithmeticError("wrong modular series inverse")
        # a numerator row and the Toeplitz block of its -a[i, 0]
        pairs = max(1, _STEP_BYTES // (8 * (m + _chunk(a.shape[-1])) * num_len))
        qb, rb = (pairs // m, m) if pairs >= m else (1, pairs)
        whole = qb >= len(ps) and rb >= m
        for q0 in range(0, len(ps), qb):
            qs = slice(q0, q0 + qb)
            for i0 in range(0, m, rb):
                # the -a[i, 0] term first: its Toeplitz stack is freed before
                # the second product, whose Toeplitz block is one per prime
                num = _conv(a[qs, :1, 1:], negc[qs, i0 : i0 + rb], num_len)
                num += _conv(a[qs, 1 + i0 : 1 + i0 + rb, 1:], piv[qs, None], num_len)
                q = _reduce(num, p4[qs])
                del num  # no block keeps its temporaries while the next one runs
                if prev is not None:
                    q = _divexact(q, v, prev[qs, None, v:], inv[qs, None], p4[qs])
                if q0 == i0 == 0:
                    out = q if whole else np.empty((len(ps), m, m, q.shape[-1]), dtype=a.dtype)
                if not whole:
                    out[qs, i0 : i0 + rb] = q
                del q
        a, prev = _trim_block(out), piv
    for q, i in enumerate(at):
        pq, c = int(ps[q]), _trim_block(a[q, 0, 0])
        dets[i] = [int(x) if sign > 0 else int(pq - x) % pq for x in c] or [0]
    return dets


def root_multiplicity(p: GradedPoly, root: Fraction | int) -> int:
    """Multiplicity of `root` in a polynomial in beta.

    The coefficients are scaled once to integers.  For root = a/b in lowest
    terms, (b*x - a) is primitive, so by Gauss's lemma it divides an integer
    polynomial over Q only if the quotient is integral: the synthetic division
    runs in integers, and an inexact step means the root is not there.  The
    zero polynomial is rejected.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root multiplicity")
    coeffs = p.coeffs_in("beta")
    l = math.lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (l // c.denominator) for c in coeffs]
    root = Fraction(root)
    a, b = root.numerator, root.denominator
    mult = 0
    while True:
        # f = (b*x - a) * q from the top down: q_{i-1} = (f_i + a*q_i) / b
        quo = []
        q = 0
        for c in reversed(f[1:]):
            q, r = divmod(c + a * q, b)
            if r:
                return mult
            quo.append(q)
        if f[0] + a * q:
            return mult
        quo.reverse()
        f = quo
        mult += 1
