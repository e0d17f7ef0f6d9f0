"""Machine-checkable non-vanishing certificates.

Two kinds share one record type.  A modular certificate stores the residues
whose nonzero combination mod g0 witnesses non-vanishing of the class at
genus g0; a rational certificate stores a monomial and the exact nonzero
intersection pairing.  JSON forms keep every integer as a decimal string so
readers in any language can parse them without overflow.

The rules of the modular certificates (arXiv 1311.5007, Thm 6.1) live here
and nowhere else: admissible_prime decides where the theorem applies (an odd
prime g0 > 2k with e = 3g0 - 3 - k(k+1)/2 >= 0), first_admissible_prime is
the smallest such g0, _criterion_indices gives the M_j each criterion sums,
and sweep_criteria builds the first certificate that the M_j residues at one
prime support.  verify() checks a certificate against the same rules;
verify(deep=True) recomputes the underlying determinant or pairing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from . import tool_stamp
from .numbers import format_rational, is_prime, next_prime, parse_canonical_rational

__all__ = [
    "SCHEMA_VERSION",
    "Certificate",
    "expected_dimension",
    "admissible_prime",
    "first_admissible_prime",
    "sweep_criteria",
    "canonical_json_bytes",
    "content_hash",
]

SCHEMA_VERSION = "1"


def canonical_json_bytes(obj) -> bytes:
    """Stable byte serialization used for hashing and on-disk records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def _parse_int(text: str) -> int:
    """Inverse of str(int): anything else raises ValueError or TypeError, so a
    stored record is read only in the form it was written."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a decimal integer as str(int) writes it: {text!r}")
    return value


def _parse_ints(items) -> tuple[int, ...]:
    """A JSON list of _parse_int strings; a string or any other iterable raises."""
    if not isinstance(items, list):
        raise TypeError(f"expected a JSON list, not {type(items).__name__}")
    return tuple(map(_parse_int, items))


def expected_dimension(g0: int, k: int) -> int:
    """Expected dimension e = 3g0 - 3 - k(k+1)/2 of B(2, K, k) at genus g0."""
    return 3 * g0 - 3 - k * (k + 1) // 2


def admissible_prime(k: int, g0: int) -> bool:
    """Whether Theorem 6.1 applies at genus g0: an odd prime g0 > 2k, e >= 0."""
    return (
        g0 > 2 * k
        and g0 != 2
        and expected_dimension(g0, k) >= 0
        and is_prime(g0)
    )


def first_admissible_prime(k: int) -> int:
    """Smallest g0 with admissible_prime(k, g0); e >= 0 is g0 - 1 >= k(k+1)/6."""
    return next_prime(max(2 * k, -(-k * (k + 1) // 6)))


def _criterion_indices(g0: int, e: int, criterion: str, ell: int) -> list[int] | None:
    """Indices j of the M_j that (criterion, ell) sums; None where it does not apply.

      e6.1, ell = 0:          M_0 + M_{(g0-1)/2} + M_{g0-1}
      e6.2, 1 <= ell <= e/2:  M_{(g0-1)/2 - ell} + M_{g0-1-ell}
    """
    if criterion == "e6.1" and ell == 0:
        return [0, (g0 - 1) // 2, g0 - 1]
    if criterion == "e6.2" and 1 <= ell <= e // 2:
        # a negative first index means that term is absent and contributes 0
        return [i for i in ((g0 - 1) // 2 - ell, g0 - 1 - ell) if i >= 0]
    return None


def _residues(m, idx) -> tuple[int, ...]:
    """The M_j at the indices idx; an index past the end of m reads as 0."""
    return tuple(m[i] if i < len(m) else 0 for i in idx)


def sweep_criteria(k: int, g0: int, m) -> Certificate | None:
    """First certificate of (e6.1, 0), (e6.2, 1), ..., (e6.2, e/2) at one prime.

    m holds the residues M_0, M_1, ... mod g0 (modular.mj_mod).  Returns None
    when every residue sum is 0: that is inconclusive, never a proof of
    vanishing.
    """
    e = expected_dimension(g0, k)
    sweep = itertools.chain([("e6.1", 0)], (("e6.2", ell) for ell in range(1, e // 2 + 1)))
    for criterion, ell in sweep:
        idx = _criterion_indices(g0, e, criterion, ell)
        values = _residues(m, idx)
        residue = sum(values) % g0
        if residue:
            return Certificate(
                kind="modular",
                k=k,
                g0=g0,
                criterion=criterion,
                ell=ell,
                witness_residue=residue,
                m_indices=tuple(idx),
                m_values=values,
            )
    return None


@dataclass(frozen=True)
class Certificate:
    """Evidence that the class is nonzero at genus g0 for a given k."""

    kind: str  # "modular" | "rational"
    k: int
    g0: int
    criterion: str  # "e6.1" | "e6.2" | "pairing"
    ell: int = 0  # used by e6.2; 0 otherwise
    witness_residue: int | None = None
    m_indices: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    monomial: tuple[int, int, int, int] | None = None
    witness_value: Fraction | None = None
    generated_by: str = ""

    def __post_init__(self):
        if self.kind not in ("modular", "rational"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if not self.generated_by:
            object.__setattr__(self, "generated_by", tool_stamp())

    def verify(self, deep: bool = False) -> bool:
        """Recheck the witness; deep recomputes it from the parameters alone.

        Returns False, never raises, when a field has the wrong type or the
        parameters are outside the range where the criterion proves
        anything.  A deep check of a rational certificate needs the
        trivariate P_k, so above PK_FULL_DEFAULT_LIMIT it returns False as
        well.
        """
        if not self._well_typed() or self.k < 1:
            return False
        if self.kind == "modular":
            return self._verify_modular(deep)
        return self._verify_rational(deep)

    def _well_typed(self) -> bool:
        """Whether every integer field holds ints; the residue may be None."""
        try:
            ints = [self.k, self.g0, self.ell, *self.m_indices, *self.m_values,
                    *(() if self.monomial is None else self.monomial)]
        except TypeError:
            return False
        ints += [] if self.witness_residue is None else [self.witness_residue]
        return all(type(v) is int for v in ints) and isinstance(
            self.witness_value, (type(None), int, Fraction)
        )

    def _verify_modular(self, deep: bool) -> bool:
        g0 = self.g0
        if not admissible_prime(self.k, g0):
            return False
        expected_idx = _criterion_indices(
            g0, expected_dimension(g0, self.k), self.criterion, self.ell
        )
        if (expected_idx is None or list(self.m_indices) != expected_idx
                or len(self.m_values) != len(expected_idx)):
            return False
        if self.witness_residue == 0 or self.witness_residue != sum(self.m_values) % g0:
            return False
        if deep:
            from .modular import mj_mod

            if _residues(mj_mod(self.k, g0), self.m_indices) != tuple(self.m_values):
                return False
        return True

    def _verify_rational(self, deep: bool) -> bool:
        if self.criterion != "pairing" or self.g0 < 2:
            return False
        mono = self.monomial
        if mono is None or len(mono) != 4 or min(mono) < 0:
            return False
        a, b, c, d = mono
        e = expected_dimension(self.g0, self.k)
        if e < 0 or a + 2 * b + 3 * c + d != e + 1:
            return False
        if self.witness_value is None or self.witness_value == 0:
            return False
        if deep:
            from .giambelli import PK_FULL_DEFAULT_LIMIT, pk_full
            from .hecke import pair_with_monomial

            if self.k > PK_FULL_DEFAULT_LIMIT:
                return False
            value = pair_with_monomial(
                pk_full(self.k).polynomial, self.monomial, self.g0
            )
            if value != self.witness_value:
                return False
        return True

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        if self.kind == "modular":
            return {
                "version": SCHEMA_VERSION,
                "kind": "modular",
                "k": str(self.k),
                "g0": str(self.g0),
                "unit": str(self.g0 - 1),  # (g0-1)! 2^(g0-1) mod g0, by Wilson and Fermat
                "criterion": self.criterion,
                "ell": str(self.ell),
                "witness_residue": str(self.witness_residue),
                "M_indices_used": [str(i) for i in self.m_indices],
                "M_values_used": [str(v) for v in self.m_values],
                "generated_by": self.generated_by,
            }
        return {
            "version": SCHEMA_VERSION,
            "kind": "rational",
            "k": str(self.k),
            "g0": str(self.g0),
            "criterion": self.criterion,
            "monomial": [str(e) for e in self.monomial],
            "witness_value": format_rational(self.witness_value),
            "generated_by": self.generated_by,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> Certificate:
        if obj.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported certificate version {obj.get('version')!r}")
        kind = obj["kind"]
        if kind == "modular":
            if obj["unit"] != str(_parse_int(obj["g0"]) - 1):
                raise ValueError(f"unit {obj['unit']!r} is not g0 - 1")
            return cls(
                kind="modular",
                k=_parse_int(obj["k"]),
                g0=_parse_int(obj["g0"]),
                criterion=obj["criterion"],
                ell=_parse_int(obj["ell"]),
                witness_residue=_parse_int(obj["witness_residue"]),
                m_indices=_parse_ints(obj["M_indices_used"]),
                m_values=_parse_ints(obj["M_values_used"]),
                generated_by=obj["generated_by"],
            )
        if kind == "rational":
            return cls(
                kind="rational",
                k=_parse_int(obj["k"]),
                g0=_parse_int(obj["g0"]),
                criterion=obj["criterion"],
                monomial=_parse_ints(obj["monomial"]),
                witness_value=parse_canonical_rational(obj["witness_value"]),
                generated_by=obj["generated_by"],
            )
        raise ValueError(f"unknown certificate kind {kind!r}")

    def hash(self) -> str:
        return content_hash(self.to_json_obj())
