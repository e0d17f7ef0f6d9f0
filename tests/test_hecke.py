"""Tests for basis expansion, intersection numbers, and rational certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heckebn.certificates import Certificate
from heckebn.errors import NegativeExpectedDimensionError
from heckebn.giambelli import pk_beta, pk_full
from heckebn.hecke import (
    HeckeClass,
    IntersectionQuery,
    candidate_monomials,
    h_power,
    integrate_over_H,
    lemma41_scan,
    rational_certificate,
    thaddeus_number,
    to_basis,
)
from heckebn.poly import ALPHA, BETA, GAMMA, H, GradedPoly
from oracles import h_power_by_reduction


def test_h_power_small():
    assert h_power(1).f == GradedPoly.one()
    assert h_power(1).fprime.is_zero()
    assert h_power(2).f == ALPHA
    assert h_power(2).fprime == (BETA - ALPHA**2) * Fraction(1, 4)
    assert h_power(3).f == (3 * ALPHA**2 + BETA) * Fraction(1, 4)
    assert h_power(3).fprime == (ALPHA * BETA - ALPHA**3) * Fraction(1, 4)
    with pytest.raises(ValueError):
        h_power(0)


def test_h_power_formula_vs_reduction():
    for r in range(1, 13):
        a, b = h_power(r), h_power_by_reduction(r)
        assert a.f == b.f and a.fprime == b.fprime, f"r={r}"


def test_h_power_recurrence_consistency():
    for r in range(1, 21):
        cur = h_power(r)
        lifted = H * (cur.f * H + cur.fprime)
        nxt = to_basis(lifted)
        want = h_power(r + 1)
        assert nxt.f == want.f and nxt.fprime == want.fprime, f"r={r}"


def test_to_basis_examples():
    hc = to_basis(H)
    assert hc.f == GradedPoly.one() and hc.fprime.is_zero()
    hc = to_basis(H**2 + BETA)
    assert hc.f == ALPHA
    assert hc.fprime == BETA - (ALPHA**2 - BETA) * Fraction(1, 4)
    hc = to_basis(pk_full(2).polynomial)
    assert hc.f == (3 * ALPHA**2 + BETA) * Fraction(1, 24) - BETA * Fraction(1, 6)
    assert hc.fprime == (ALPHA * BETA - ALPHA**3) * Fraction(1, 24) + GAMMA * Fraction(1, 3)
    # idempotent on h-free input
    free = ALPHA * BETA + GAMMA
    hc = to_basis(free)
    assert hc.f.is_zero() and hc.fprime == free


def test_hecke_class_validation():
    with pytest.raises(ValueError):
        HeckeClass(H, GradedPoly.zero())
    c = HeckeClass(ALPHA**2, GAMMA)
    assert c.is_homogeneous(3)
    assert not c.is_homogeneous(4)


def test_intersection_query_validation():
    IntersectionQuery(3, 6, 0, 0)
    with pytest.raises(ValueError):
        IntersectionQuery(3, 5, 0, 0)
    with pytest.raises(ValueError):
        IntersectionQuery(1, 0, 0, 0)
    with pytest.raises(ValueError):
        IntersectionQuery(3, -1, 2, 1)


def test_thaddeus_values():
    assert thaddeus_number(2, 3, 0, 0) == 4
    assert thaddeus_number(3, 0, 3, 0) == 0
    assert thaddeus_number(3, 6, 0, 0) == 224
    assert thaddeus_number(3, 1, 1, 1) == -24
    assert thaddeus_number(5, 4, 4, 0) % 5 == 4  # == -1 mod 5


def test_thaddeus_integrality_small():
    for g in range(2, 7):
        top = 3 * g - 3
        for p in range(top // 3 + 1):
            for n in range((top - 3 * p) // 2 + 1):
                m = top - 3 * p - 2 * n
                assert thaddeus_number(g, m, n, p).denominator == 1, (g, m, n, p)


def test_integrate_over_H():
    assert integrate_over_H(HeckeClass(ALPHA**3, GradedPoly.zero()), 2) == 4
    assert integrate_over_H(HeckeClass(BETA**3, GradedPoly.zero()), 3) == 0
    assert integrate_over_H(HeckeClass(ALPHA**6 + BETA**3, GradedPoly.zero()), 3) == 224
    # the f' component never contributes
    assert integrate_over_H(HeckeClass(ALPHA**3, ALPHA**4), 2) == 4
    with pytest.raises(ValueError):
        integrate_over_H(HeckeClass(ALPHA**2 + BETA, GradedPoly.zero()), 2)


def test_integrate_linearity():
    rng = random.Random(555)
    g = 3
    monos = [(6, 0, 0), (4, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 1), (0, 0, 2)]
    for _ in range(5):
        c1 = {(0, m, n, p): rng.randint(-5, 5) for (m, n, p) in monos}
        c2 = {(0, m, n, p): rng.randint(-5, 5) for (m, n, p) in monos}
        f1, f2 = GradedPoly(c1), GradedPoly(c2)
        lhs = integrate_over_H(HeckeClass(f1 + f2, GradedPoly.zero()), g)
        rhs = integrate_over_H(
            HeckeClass(f1, GradedPoly.zero()), g
        ) + integrate_over_H(HeckeClass(f2, GradedPoly.zero()), g)
        assert lhs == rhs


def test_candidate_monomials():
    cands = list(candidate_monomials(5))
    assert cands[:3] == [(1, 0, 0, 5), (1, 1, 0, 3), (1, 2, 0, 1)]
    assert len(cands) == len(set(cands))
    for a, b, c, d in cands:
        assert a + 2 * b + 3 * c + d == 6
    # lexicographic tail after the preferred family
    tail = cands[3:]
    assert tail == sorted(tail)


def test_rational_certificate_first_witness():
    w = rational_certificate(3, 1)
    assert w is not None
    assert w.monomial == (1, 0, 0, 5)
    assert w.value == 8
    cert = w.certificate
    assert cert.kind == "rational" and cert.g0 == 3 and cert.k == 1
    assert cert.verify()
    assert cert.verify(deep=True)
    back = Certificate.from_json_obj(cert.to_json_obj())
    assert back == cert


def test_verify_rejects_rational_monomial_of_wrong_degree():
    w = rational_certificate(5, 2)
    assert w.monomial == (1, 0, 0, 9)
    for mono in ((1, 0, 0, 8), (1, 0, 0, 10), (1, 0, -1, 12)):
        bad = Certificate(
            kind="rational", k=2, g0=5, criterion="pairing",
            monomial=mono, witness_value=w.value,
        )
        assert not bad.verify()
        assert not bad.verify(deep=True)


def test_verify_deep_above_pk_full_limit_returns_false():
    # k = 13 is above PK_FULL_DEFAULT_LIMIT: the stored pairing is well formed,
    # but a deep check cannot recompute it and must say so without raising
    e = 3 * 40 - 3 - 13 * 14 // 2
    cert = Certificate(
        kind="rational", k=13, g0=40, criterion="pairing",
        monomial=(1, 0, 0, e), witness_value=Fraction(5),
    )
    assert cert.verify() is True
    assert cert.verify(deep=True) is False


def test_rational_certificate_more_cases():
    w = rational_certificate(5, 2)
    assert w is not None and w.value != 0
    assert w.monomial == (1, 0, 0, 9)
    assert rational_certificate(3, 1, budget=0) is None


def test_rational_certificate_negative_dimension():
    with pytest.raises(NegativeExpectedDimensionError):
        rational_certificate(3, 4)
    with pytest.raises(ValueError):
        rational_certificate(1, 1)


def test_lemma41_scan():
    for g in (3, 5, 7, 11, 13):
        report = lemma41_scan(g)
        assert report.ok, f"g={g}: {report.mismatches[:3]}"
    assert lemma41_scan(3).total == 7
    with pytest.raises(ValueError):
        lemma41_scan(9)
    with pytest.raises(ValueError):
        lemma41_scan(2)


def test_lowest_beta_coefficient_identity():
    # coefficient of alpha^{l-1} beta^i in f, where l = k(k+1)/2 - 2i and
    # beta^i is the lowest nonzero term of the beta specialization
    for k in range(1, 9):
        f = to_basis(pk_full(k).polynomial).f
        coeffs = pk_beta(k).polynomial.beta_coefficients()
        i, n_coeff = next((j, c) for j, c in enumerate(coeffs) if c != 0)
        ell = k * (k + 1) // 2 - 2 * i
        assert f.coefficient_of((0, ell - 1, i, 0)) == Fraction(ell, 2 ** (ell - 1)) * n_coeff
