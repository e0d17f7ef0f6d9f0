"""Single-field mutations of valid certificates.

verify(deep=True) must answer every mutant with a bool, also one with a field
of the wrong type.  A mutant that still verifies must carry a true claim,
which is confirmed here without the library's determinant engines or its
pairing: modular residues from P_k(1, beta, 0) reduced mod g0 and scaled by
unit^k, rational pairings of P_k computed by fraction-free Bareiss, each h^r
reduced by iteration.
"""

import dataclasses
import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from heckebn.certificates import first_admissible_prime
from heckebn.chern import chern_full
from heckebn.giambelli import giambelli_rows, pk_beta
from heckebn.hecke import rational_certificate
from heckebn.modular import certify_mod
from heckebn.numbers import is_prime
from heckebn.poly import GradedPoly
from oracles import det_bareiss, pair_by_reduction, reduce_mod


@functools.lru_cache(maxsize=None)
def _valid_certificates() -> tuple:
    modular = [certify_mod(k, first_admissible_prime(k)) for k in range(1, 9)]
    rational = [rational_certificate(g, k).certificate for g, k in ((5, 2), (8, 3))]
    return tuple(modular + rational)


@functools.lru_cache(maxsize=None)
def _pk_bareiss(k: int):
    c = [chern_full(n) for n in range(2 * k)]
    return det_bareiss(giambelli_rows(k, c, GradedPoly.zero()))


def _confirm_modular(c) -> None:
    g, k = c.g0, c.k
    e = 3 * g - 3 - k * (k + 1) // 2
    assert is_prime(g) and g > 2 * k and e >= 0
    unit_k = pow(math.factorial(g - 1) * 2 ** (g - 1), k, g)
    coeffs = reduce_mod(pk_beta(k).polynomial.coeffs_in("beta"), g)
    m = [x * unit_k % g for x in coeffs]

    def m_at(j: int) -> int:
        return m[j] if 0 <= j < len(m) else 0

    if c.criterion == "e6.1":
        idx = [0, (g - 1) // 2, g - 1]
    else:
        assert c.criterion == "e6.2" and 1 <= c.ell <= e // 2
        idx = [(g - 1) // 2 - c.ell, g - 1 - c.ell]
    assert sum(m_at(j) for j in idx) % g == c.witness_residue != 0


def _confirm_rational(c) -> None:
    value = pair_by_reduction(_pk_bareiss(c.k), c.monomial, c.g0)
    assert value == c.witness_value != 0


small_ints = st.integers(-3, 60)
int_tuples = st.lists(small_ints, max_size=5).map(tuple)
# values of the wrong type for every field but kind and generated_by
ill_typed = st.sampled_from([None, "41", 41.0, (None, 1, 2)])

MUTATIONS = {
    "kind": st.sampled_from(["modular", "rational"]),
    "k": st.integers(-2, 10) | ill_typed,
    "g0": small_ints | ill_typed,
    "criterion": st.sampled_from(["e6.1", "e6.2", "pairing", "", "E6.1"]) | ill_typed,
    "ell": st.integers(-2, 20) | ill_typed,
    "witness_residue": st.none() | small_ints | ill_typed,
    "m_indices": int_tuples | ill_typed,
    "m_values": int_tuples | ill_typed,
    "monomial": st.none() | int_tuples | ill_typed,
    "witness_value": st.none()
    | st.fractions(-(10**6), 10**6, max_denominator=100)
    | ill_typed,
    "generated_by": st.text(max_size=8),
}


def test_valid_certificates_verify():
    for cert in _valid_certificates():
        assert cert.verify(deep=True), cert


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_field_mutation(data):
    cert = data.draw(st.sampled_from(_valid_certificates()))
    name = data.draw(st.sampled_from(sorted(MUTATIONS)))
    mutant = dataclasses.replace(cert, **{name: data.draw(MUTATIONS[name])})
    assert isinstance(mutant.verify(), bool)
    ok = mutant.verify(deep=True)
    assert isinstance(ok, bool)
    if ok:
        if mutant.kind == "modular":
            _confirm_modular(mutant)
        else:
            _confirm_rational(mutant)
