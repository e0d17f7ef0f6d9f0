"""Giambelli determinant for the virtual class polynomial P_k and its analyses.

P_k is the k x k determinant with entry(i, j) = c_{k - 2(i-1) + (j-1)}
(1-based), where c is the Chern sequence, c_0 = 2 and c_{<0} = 0.  One row
builder, giambelli_rows, lays out that matrix for every coefficient domain:
polynomials in beta at h = 1 and a fixed gamma, rationals at a point
(pk_eval), and coefficient lists over F_g (modular.mj_mod).  It reverses
the rows and the columns, entry(i, j) = c_{2i - j + 1} (0-based): one
permutation of both leaves the determinant unchanged, and the layout free
of k.  The leading k' x k' block is the matrix of P_{k'}, so the pivots of
Bareiss elimination, the leading principal minors, are P_1, ..., P_k.

Both rational forms come from one engine.  The slice P_k(1, beta, gamma0) is
det_interpolate of its rows, a multimodular determinant on the prime-field
kernel poly.det_mod_univariate; variant "beta" is the slice at gamma0 = 0,
and one pk_beta(k) fills the memo for every k' <= k from those minors.
No alpha occurs, so P_k is weighted homogeneous of weight W = k(k+1)/2 in h,
beta, gamma (weights 1, 2, 3): variant "full" interpolates the slices at
gamma0 = 0..floor(W/3) in gamma and restores h^(W - 2n - 3p).

Structural facts checked here: the beta = 4 closed form
(-1)^{delta(k)} 2^{-k(k-1)/2}, the degree bound floor(k^2/4) on the beta
specialization, and root multiplicities at beta = 1/i^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from . import tool_stamp
from .chern import _chern_sequence, chern_tilde
from .poly import BETA, GradedPoly, _interp_nodes, det_interpolate, det_numeric
from .poly import root_multiplicity

__all__ = [
    "PK_FULL_DEFAULT_LIMIT",
    "PkRecord",
    "giambelli_rows",
    "pk_full",
    "pk_beta",
    "pk_eval",
    "delta_parity",
    "closed_form_14",
    "DegreeReport",
    "degree_check",
    "multiplicity_profile",
    "lemma37_bound",
    "conjecture_bound",
]

# Largest k for the trivariate P_k; decide's pairing fallback and deep
# verification of rational certificates stop there too.
PK_FULL_DEFAULT_LIMIT = 12

_lock = threading.Lock()
_MEMO: dict[tuple[int, str], "PkRecord"] = {}


@dataclass(frozen=True)
class PkRecord:
    """A computed P_k with provenance.

    algorithm is a fixed label per variant ("numeric" for P_1(1, beta, 0),
    else "evaluate-interpolate"), kept across engine changes so that stored
    records and printed outputs stay byte-identical; it does not name the
    engine that computed the polynomial.
    """

    k: int
    variant: str
    polynomial: GradedPoly
    algorithm: str
    version: str = field(default_factory=tool_stamp)

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "variant": self.variant,
            "algorithm": self.algorithm,
            "version": self.version,
            "poly": self.polynomial.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> PkRecord:
        if type(obj["k"]) is not int:
            raise TypeError(f"k must be an int, not {obj['k']!r}")
        return cls(
            k=obj["k"],
            variant=obj["variant"],
            polynomial=GradedPoly.from_json_obj(obj["poly"]),
            algorithm=obj["algorithm"],
            version=obj["version"],
        )


def giambelli_rows(k: int, c: list, zero) -> list[list]:
    """Rows of the k x k Giambelli matrix, entry(i, j) = c[2i - j + 1] (0-based).

    c holds c_0 .. c_{2k-1} in any coefficient domain; negative indices give
    `zero`.  The leading k' x k' block is giambelli_rows(k', c, zero).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return [
        [c[2 * i - j + 1] if 2 * i - j + 1 >= 0 else zero for j in range(k)]
        for i in range(k)
    ]


def pk_full(k: int, store=None) -> PkRecord:
    """Trivariate P_k(h, beta, gamma); homogeneous of half-degree k(k+1)/2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > PK_FULL_DEFAULT_LIMIT:
        raise ValueError(f"trivariate P_k is limited to k <= {PK_FULL_DEFAULT_LIMIT}")
    return _pk_cached(k, "full", store)


def pk_beta(k: int, store=None) -> PkRecord:
    """P_k(1, beta, 0) computed directly from the reduced Chern entries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _pk_cached(k, "beta", store)


def _pk_cached(k: int, variant: str, store) -> PkRecord:
    with _lock:
        rec = _MEMO.get((k, variant))
    if rec is not None:
        if store is not None:
            store.put_pk_record(rec)
        return rec
    if store is not None:
        rec = store.get_pk_record(k, variant)
        if rec is not None:
            with _lock:
                _MEMO[(k, variant)] = rec
            return rec
    if variant == "full":
        found = {k: _pk_trivariate(k)}
    else:
        # P_k's kernel run yields every P_r, r < k, too: keep those not yet memoized
        with _lock:
            orders = [r for r in range(1, k + 1) if (r, variant) not in _MEMO]
        found = dict(zip(orders, _pk_slice(k, 0, orders)))
    with _lock:
        for r, poly in found.items():
            # P_1(1, beta, 0) = c_1 = 1 is a constant 1 x 1 determinant
            algorithm = "numeric" if (r, variant) == (1, "beta") else "evaluate-interpolate"
            _MEMO.setdefault((r, variant), PkRecord(r, variant, poly, algorithm))
        rec = _MEMO[(k, variant)]
    if store is not None:
        store.put_pk_record(rec)
    return rec


def _pk_slice(k: int, gamma0: int, orders: list[int]) -> list[GradedPoly]:
    """P_r(1, beta, gamma0) for r in orders (each <= k) as polynomials in beta,
    the leading minors of P_k's rows; gamma0 = 0 reads chern_tilde."""
    if gamma0 == 0:
        c = [chern_tilde(n) for n in range(2 * k)]
    else:
        c = _chern_sequence([GradedPoly.one()], 2 * k - 1, 1, BETA, gamma0)
        c[0] = GradedPoly.constant(2)
    return det_interpolate(giambelli_rows(k, c, GradedPoly.zero()), orders)


def _pk_trivariate(k: int) -> GradedPoly:
    """P_k(h, beta, gamma) from its slices at gamma0 = 0..floor(W/3)."""
    w = k * (k + 1) // 2
    slices = [_pk_slice(k, g0, [k])[0].coeffs_in("beta") for g0 in range(w // 3 + 1)]
    terms = {}
    for n in range(max(map(len, slices))):
        ys = [s[n] if n < len(s) else Fraction(0) for s in slices]
        den = math.lcm(*(y.denominator for y in ys))
        nums = [y.numerator * (den // y.denominator) for y in ys]
        for p, c in enumerate(_interp_nodes(nums, den)):
            if not c:
                continue
            if 2 * n + 3 * p > w:
                raise AssertionError(
                    f"P_{k} has a term beta^{n} gamma^{p} of weight above {w}"
                )
            terms[(w - 2 * n - 3 * p, 0, n, p)] = c
    return GradedPoly(terms)


def pk_eval(k: int, h0, beta0, gamma0) -> Fraction:
    """P_k at a rational point: scalar Chern recurrence, then an exact determinant."""
    h0, beta0, gamma0 = Fraction(h0), Fraction(beta0), Fraction(gamma0)
    c = _chern_sequence([Fraction(1)], 2 * k - 1, h0, beta0, gamma0)
    c[0] = Fraction(2)
    return det_numeric(giambelli_rows(k, c, Fraction(0)))


# redundant parity table guarding the delta convention for small k
_DELTA_TABLE = {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1}


def delta_parity(k: int) -> int:
    """delta(k) = 1 iff k = 2m with m odd, else 0."""
    d = 1 if (k % 2 == 0 and (k // 2) % 2 == 1) else 0
    if k in _DELTA_TABLE and _DELTA_TABLE[k] != d:
        raise AssertionError(f"delta convention slipped at k={k}")
    return d


def closed_form_14(k: int) -> Fraction:
    """Predicted P_k(1,4,0) = (-1)^delta(k) / 2^{k(k-1)/2}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction((-1) ** delta_parity(k), 2 ** (k * (k - 1) // 2))


@dataclass(frozen=True)
class DegreeReport:
    """Degree of P_k(1, beta, 0) against the floor(k^2/4) bound."""

    k: int
    degree: int
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.degree <= self.bound

    @property
    def equality(self) -> bool:
        return self.degree == self.bound


def degree_check(k: int) -> DegreeReport:
    poly = pk_beta(k).polynomial
    return DegreeReport(k, poly.degree_in("beta"), k * k // 4)


def lemma37_bound(k: int, i: int) -> int:
    """Proven multiplicity lower bound at beta = 1/i^2 for 1 <= i < floor((k+1)/2)."""
    if not 1 <= i < (k + 1) // 2:
        return 0
    return (k + 1) // 2 - i


def conjecture_bound(k: int, i: int) -> int:
    """Conjectured multiplicity lower bound floor((k-i+1)/2) for 1 <= i <= k-1."""
    if not 1 <= i <= k - 1:
        return 0
    return (k - i + 1) // 2


def multiplicity_profile(k: int) -> list[tuple[int, int]]:
    """Exact multiplicity of beta = 1/i^2 in P_k(1, beta, 0) for 1 <= i <= k-1."""
    if k < 2:
        raise ValueError("multiplicity profile needs k >= 2")
    poly = pk_beta(k).polynomial
    return [
        (i, root_multiplicity(poly, Fraction(1, i * i))) for i in range(1, k)
    ]
