"""Prime-field M_j computation, the criterion sweep and modular certificates."""

import dataclasses
import json

import pytest

from heckebn.certificates import (
    Certificate,
    admissible_prime,
    expected_dimension,
    first_admissible_prime,
    sweep_criteria,
)
from heckebn.errors import InapplicablePrimeError
from heckebn.giambelli import pk_beta
from heckebn.numbers import factorial_mod, next_prime
from heckebn.modular import (
    certify_mod,
    find_gk,
    find_gpk,
    mj_mod,
    theorem43_gate,
)
from oracles import find_gk_by_walk, find_gpk_by_walk, valid_primes_above


def test_find_gk_values():
    assert find_gk(1) == 3
    assert find_gk(2) == 3
    assert find_gk(8) == 17
    assert find_gk(9) == 19
    with pytest.raises(ValueError):
        find_gk(0)


def test_find_gpk_values():
    # crossing table for the certificate default prime
    expected = {1: 3, 2: 3, 8: 13, 9: 17, 10: 23, 11: 23, 12: 29, 13: 37,
                14: 37, 15: 41, 16: 47, 17: 53, 18: 59, 19: 67, 20: 71,
                21: 79, 22: 89, 23: 97, 24: 101}
    for k, g in expected.items():
        assert find_gpk(k) == g, k


def test_prime_finders_match_the_walks():
    for k in range(1, 401):
        assert find_gk(k) == find_gk_by_walk(k), k
        assert find_gpk(k) == find_gpk_by_walk(k), k
    with pytest.raises(ValueError):
        find_gpk(0)


def test_first_admissible_prime_is_the_smallest():
    for k in range(1, 201):
        g = 2
        while not admissible_prime(k, g):
            g += 1
        assert first_admissible_prime(k) == g, k
    # the larger of find_gpk(k) and the first prime above 2k; the smaller
    # one is not admissible
    for k in range(1, 201):
        lo, hi = sorted((find_gpk(k), valid_primes_above(k, 1)[0]))
        assert hi == first_admissible_prime(k), k
        assert lo == hi or not admissible_prime(k, lo), k


def test_valid_primes_above():
    assert valid_primes_above(8) == [17, 19]
    assert valid_primes_above(1, 3) == [3, 5, 7]
    assert all(g > 2 * 12 for g in valid_primes_above(12, 4))


def test_mj_mod_small_frozen():
    assert mj_mod(3, 11) == (4, 2, 5)
    assert mj_mod(1, 5) == (4,)


def test_mj_mod_rejects_small_or_composite_primes():
    with pytest.raises(InapplicablePrimeError):
        mj_mod(8, 13)
    with pytest.raises(InapplicablePrimeError):
        mj_mod(4, 7)
    with pytest.raises(ValueError):
        mj_mod(3, 9)
    with pytest.raises(ValueError):
        mj_mod(3, 2)


def test_mj_matches_rational_reduction():
    # dual path: native F_g determinant vs the exact rational coefficients
    # of P_k(1, beta, 0) scaled by u^k and reduced mod g
    for k in range(1, 13):
        pk = pk_beta(k)
        coeffs = pk.polynomial.coeffs_in("beta")
        for g in valid_primes_above(k, 2):
            uk = pow(g - 1, k, g)  # u = (g-1)! 2^(g-1) = -1 mod g
            expected = []
            for c in coeffs:
                num = c.numerator * uk % g
                den = pow(c.denominator % g, g - 2, g)
                expected.append(num * den % g)
            while len(expected) > 1 and expected[-1] == 0:
                expected.pop()
            assert list(mj_mod(k, g)) == expected, (k, g)


def test_mj_unit_is_minus_one():
    # Wilson: (g-1)! = -1, and 2^{g-1} = 1 by Fermat, so u = -1 mod g
    g = 3
    while g < 2000:
        assert factorial_mod(g - 1, g) * pow(2, g - 1, g) % g == g - 1, g
        g = next_prime(g)
    for k, g in [(1, 3), (2, 5), (3, 11), (5, 13), (10, 23)]:
        assert certify_mod(k, g).to_json_obj()["unit"] == str(g - 1)


def test_mj_degree_bound():
    for k, g in [(4, 11), (6, 17), (9, 23)]:
        assert len(mj_mod(k, g)) - 1 <= k * k // 4


def test_criterion_e61():
    cert = sweep_criteria(3, 11, mj_mod(3, 11))
    assert (cert.criterion, cert.ell, cert.witness_residue) == ("e6.1", 0, 4)
    # indices 5 and 10 exceed the beta-degree, so only M_0 contributes
    assert (cert.m_indices, cert.m_values) == ((0, 5, 10), (4, 0, 0))
    assert cert.verify(deep=True)


def _m_at(m: tuple[int, ...], j: int) -> int:
    return m[j] if 0 <= j < len(m) else 0


def _e62_claim(k: int, g: int, ell: int) -> Certificate:
    m = mj_mod(k, g)
    idx = ((g - 1) // 2 - ell, g - 1 - ell)
    values = tuple(_m_at(m, i) for i in idx)
    return Certificate(
        kind="modular", k=k, g0=g, criterion="e6.2", ell=ell,
        witness_residue=sum(values) % g, m_indices=idx, m_values=values,
    )


def test_criterion_e62():
    # l = 1 sums M_4 + M_9 = 0, which certifies nothing
    assert _e62_claim(3, 11, 1).witness_residue == 0
    assert not _e62_claim(3, 11, 1).verify()
    # l = 3 reaches M_2 = 5 at index (g-1)/2 - 3 = 2
    assert _e62_claim(3, 11, 3).witness_residue == 5
    assert _e62_claim(3, 11, 3).verify(deep=True)
    # l = 0 and l > e/2 are outside e6.2, whatever the residues
    for ell in (0, expected_dimension(11, 3) // 2 + 1):
        bad = dataclasses.replace(_e62_claim(3, 11, 3), ell=ell)
        assert not bad.verify()


def test_sweep_synthetic_runs():
    # no real (k, g) with k <= 14, g < 140 needs e6.2 beyond l = 1, so the
    # sweep order is checked on runs built by hand: e6.1 sums to 0, e6.2 sums
    # to 0 at l = 1, 2 and first reaches M_2 at l = 3
    cert = sweep_criteria(3, 11, (0, 2, 5))
    assert (cert.criterion, cert.ell, cert.witness_residue) == ("e6.2", 3, 5)
    assert (cert.m_indices, cert.m_values) == ((2, 7), (5, 0))
    assert cert.verify()
    # M_2 = 5 is also the true residue at (3, 11)
    assert cert.verify(deep=True)
    # every sum is 0: inconclusive
    assert sweep_criteria(3, 11, (0, 0, 0)) is None
    assert sweep_criteria(3, 11, (0,)) is None


def test_certify_mod_prime_sweep():
    seen = {}
    for k in range(10, 25):
        cert = certify_mod(k)
        assert cert is not None, k
        assert cert.g0 == find_gpk(k)
        assert cert.verify()
        seen[k] = (cert.criterion, cert.ell)
    for k, pattern in seen.items():
        if k == 17:
            assert pattern == ("e6.2", 1)
        else:
            assert pattern == ("e6.1", 0), k


def test_certify_mod_17_details():
    cert = certify_mod(17)
    assert cert.g0 == 53
    assert cert.m_indices == (25, 51)
    assert (cert.criterion, cert.ell) == ("e6.2", 1)
    # e6.1 sums to 0 at (17, 53), so the sweep moved on
    assert sum(_m_at(mj_mod(17, 53), i) for i in (0, 26, 52)) % 53 == 0
    assert cert.verify(deep=True)


def test_certify_mod_inapplicable_defaults():
    # find_gpk(8) = 13 and find_gpk(9) = 17 do not exceed 2k; the next
    # primes above 2k do
    for k, g in ((8, 17), (9, 19)):
        with pytest.raises(InapplicablePrimeError):
            certify_mod(k)
        cert = certify_mod(k, g)
        assert cert is not None and cert.g0 == g and cert.verify()
    # 47 > 2 * 17, but e = 3 * 47 - 3 - 153 < 0
    with pytest.raises(InapplicablePrimeError):
        certify_mod(17, 47)
    for g in (15, 2, 1):
        with pytest.raises(ValueError):
            certify_mod(3, g=g)


def test_admissible_prime():
    # an odd prime g > 2k with e = 3g - 3 - k(k+1)/2 >= 0
    assert admissible_prime(8, 17) and admissible_prime(17, 53)
    assert not admissible_prime(8, 13)  # g <= 2k
    assert not admissible_prime(17, 47)  # e < 0
    assert not admissible_prime(3, 15)  # not prime
    assert not admissible_prime(0, 2)  # not odd
    for k in range(1, 15):
        above = valid_primes_above(k, 40)
        for g in range(2, 140):
            expected = g in above and 6 * (g - 1) >= k * (k + 1)
            assert admissible_prime(k, g) == expected, (k, g)


def test_certificate_json_round_trip():
    cert = certify_mod(11)
    obj = cert.to_json_obj()
    assert obj["kind"] == "modular"
    assert obj["criterion"] == "e6.1"
    assert all(isinstance(v, str) for v in obj["M_values_used"])
    text = json.dumps(obj)
    back = Certificate.from_json_obj(json.loads(text))
    assert back == cert
    assert back.hash() == cert.hash()
    assert back.verify(deep=True)


def test_certificate_verify_rejects_tampering():
    cert = certify_mod(10)
    bad = Certificate.from_json_obj({
        **cert.to_json_obj(),
        "witness_residue": "0",
    })
    assert not bad.verify()
    wrong_value = list(cert.m_values)
    wrong_value[0] = (wrong_value[0] + 1) % cert.g0
    bad2 = Certificate.from_json_obj({
        **cert.to_json_obj(),
        "M_values_used": [str(v) for v in wrong_value],
    })
    assert not bad2.verify(deep=True)


def test_verify_rejects_ell_beyond_half_dimension():
    # at (k=17, g0=53) e = 3, so e6.2 allows ell = 1 only; ell = 2 reads true
    # residues from the run but the criterion does not apply there
    cert = certify_mod(17)
    m = mj_mod(17, 53)
    assert expected_dimension(53, 17) == 3
    idx = (24, 50)
    values = tuple(_m_at(m, i) for i in idx)
    assert sum(values) % 53 != 0
    bad = dataclasses.replace(
        cert, ell=2, m_indices=idx, m_values=values, witness_residue=sum(values) % 53
    )
    assert not bad.verify()
    assert not bad.verify(deep=True)


def test_verify_rejects_bad_prime_without_raising():
    composite = Certificate(
        kind="modular", k=3, g0=9, criterion="e6.1", witness_residue=1,
        m_indices=(0, 4, 8), m_values=(1, 0, 0),
    )
    too_small = Certificate(
        kind="modular", k=10, g0=7, criterion="e6.1", witness_residue=1,
        m_indices=(0, 3, 6), m_values=(1, 0, 0),
    )
    negative_e = Certificate(
        kind="modular", k=17, g0=47, criterion="e6.1", witness_residue=1,
        m_indices=(0, 23, 46), m_values=(1, 0, 0),
    )
    for cert in (composite, too_small, negative_e):
        assert not cert.verify()
        assert not cert.verify(deep=True)


def test_verify_rejects_values_without_indices():
    # e6.1 sums to 0 at (17, 53); an unindexed extra value must not rescue it
    m = mj_mod(17, 53)
    idx = (0, 26, 52)
    values = tuple(_m_at(m, i) for i in idx)
    assert sum(values) % 53 == 0
    bad = Certificate(
        kind="modular", k=17, g0=53, criterion="e6.1", witness_residue=1,
        m_indices=idx, m_values=values + (1,),
    )
    assert not bad.verify()
    assert not bad.verify(deep=True)


def test_theorem43_gate():
    assert theorem43_gate(17, 8)
    assert theorem43_gate(19, 8)
    assert not theorem43_gate(13, 8)
    assert not theorem43_gate(23, 11)
    assert theorem43_gate(31, 11)
    assert not theorem43_gate(15, 2)
    assert not theorem43_gate(2, 1)
    assert theorem43_gate(3, 1)

