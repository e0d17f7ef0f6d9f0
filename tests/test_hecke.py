"""Tests for pairings over H, intersection numbers, and rational certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckebn.certificates import Certificate
from heckebn.errors import NegativeExpectedDimensionError
from heckebn.giambelli import pk_beta, pk_full
from heckebn.hecke import (
    candidate_monomials,
    lemma41_scan,
    pair_with_monomial,
    rational_certificate,
    thaddeus_number,
)
from heckebn.poly import ALPHA, BETA, GAMMA, H, GradedPoly
from oracles import h_coefficient_by_reduction, h_power_by_reduction, pair_by_reduction, power


def _monomials(weight: int) -> list[tuple[int, int, int, int]]:
    """Every (e_h, e_alpha, e_beta, e_gamma) of the given half-degree."""
    return [
        (r, weight - r - 2 * n - 3 * p, n, p)
        for p in range(weight // 3 + 1)
        for n in range((weight - 3 * p) // 2 + 1)
        for r in range(weight - 2 * n - 3 * p + 1)
    ]


def _complements(g: int, weight: int) -> list[tuple[int, int, int, int]]:
    """Every alpha^a beta^b gamma^c h^d pairing a class of this weight over H."""
    return [(a, n, p, r) for r, a, n, p in _monomials(3 * g - 2 - weight)]


def test_h_power_small():
    assert h_power_by_reduction(1) == (GradedPoly.one(), GradedPoly.zero())
    assert h_power_by_reduction(2) == (ALPHA, (BETA - power(ALPHA, 2)) * Fraction(1, 4))
    assert h_power_by_reduction(3) == (
        (3 * power(ALPHA, 2) + BETA) * Fraction(1, 4),
        (ALPHA * BETA - power(ALPHA, 3)) * Fraction(1, 4),
    )
    with pytest.raises(ValueError):
        h_power_by_reduction(0)


def test_h_power_formula_vs_reduction():
    # h^j against every complement alpha^a beta^b gamma^c h^d covers
    # h^R = h^(j + d) for R = 1..13: the closed-form h-coefficient pairs like
    # the iterated reduction
    for g in range(2, 6):
        for j in range(3 * g - 1):
            for mono in _complements(g, j):
                want = pair_by_reduction(power(H, j), mono, g)
                assert pair_with_monomial(power(H, j), mono, g) == want, (g, j, mono)


def test_h_power_recurrence_consistency():
    # h^2 - alpha h + (alpha^2 - beta)/4 = 0 in the cohomology of H, so the
    # pairing kills every multiple of it
    relation = power(H, 2) - ALPHA * H + (power(ALPHA, 2) - BETA) * Fraction(1, 4)
    rng = random.Random(77)
    for g in range(2, 6):
        for r in range(3 * g - 3):
            monos = _monomials(r)
            q = GradedPoly({m: rng.randint(-4, 4) for m in rng.sample(monos, min(4, len(monos)))})
            for mono in _complements(g, r + 2):
                assert pair_with_monomial(relation * q, mono, g) == 0, (g, r, mono)


def test_pairing_examples():
    # classes f h + f' whose f is known; only f pairs, against d = 0 complements
    p2 = pk_full(2).polynomial
    for g in (3, 4):
        for a, b, c, d in _complements(g, 1):
            if not d:
                # h: f = 1
                assert pair_with_monomial(H, (a, b, c, 0), g) == thaddeus_number(g, a, b, c)
        for a, b, c, d in _complements(g, 2):
            if not d:
                # h^2 + beta = alpha h + beta - (alpha^2 - beta)/4: f = alpha
                want = thaddeus_number(g, a + 1, b, c)
                assert pair_with_monomial(power(H, 2) + BETA, (a, b, c, 0), g) == want
        for a, b, c, d in _complements(g, 3):
            if not d:
                # P_2: f = (3 alpha^2 + beta)/24 - beta/6
                want = Fraction(3, 24) * thaddeus_number(g, a + 2, b, c) + (
                    Fraction(1, 24) - Fraction(1, 6)
                ) * thaddeus_number(g, a, b + 1, c)
                assert pair_with_monomial(p2, (a, b, c, 0), g) == want
                # h-free classes pair to zero
                assert pair_with_monomial(ALPHA * BETA + GAMMA, (a, b, c, 0), g) == 0


_COEFFS = st.fractions(-20, 20, max_denominator=6)
_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@st.composite
def _homogeneous(draw, weight: int, min_size: int = 0) -> GradedPoly:
    """A polynomial in h, alpha, beta, gamma with every term of this weight."""
    monos = draw(
        st.lists(st.sampled_from(_monomials(weight)), min_size=min_size, max_size=6, unique=True)
    )
    coeffs = {m: draw(_COEFFS.filter(bool)) for m in monos}
    return GradedPoly(coeffs)


@st.composite
def _class_at_genus(draw, min_size: int = 0):
    g = draw(st.integers(2, 6))
    weight = draw(st.integers(0, 3 * g - 2))
    return g, weight, draw(_homogeneous(weight, min_size))


@settings(max_examples=100, deadline=None)
@given(_class_at_genus())
def test_pairing_matches_reduction_on_random_classes(case):
    g, weight, poly = case
    for mono in _complements(g, weight):
        assert pair_with_monomial(poly, mono, g) == pair_by_reduction(poly, mono, g), mono


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pairing_matches_reduction_on_pk(data):
    k = data.draw(st.integers(1, 8))
    weight = k * (k + 1) // 2
    g = data.draw(st.integers(max(2, (weight + 5) // 3), (weight + 5) // 3 + 3))
    mono = data.draw(st.sampled_from(list(candidate_monomials(3 * g - 3 - weight))))
    pk = pk_full(k).polynomial
    assert pair_with_monomial(pk, mono, g) == pair_by_reduction(pk, mono, g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_is_linear(data):
    g, weight, p1 = data.draw(_class_at_genus())
    p2 = data.draw(_homogeneous(weight))
    s, t = data.draw(_COEFFS), data.draw(_COEFFS)
    mono = data.draw(st.sampled_from(_complements(g, weight)))
    both = p1 * s + p2 * t
    lhs = pair_with_monomial(both, mono, g)
    assert lhs == s * pair_with_monomial(p1, mono, g) + t * pair_with_monomial(p2, mono, g)
    assert lhs == pair_by_reduction(both, mono, g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_rejects_bad_input(data):
    g, weight, poly = data.draw(_class_at_genus(min_size=1))
    mono = data.draw(st.sampled_from(_complements(g, weight)))
    shift = data.draw(st.sampled_from(_UNITS))
    # a wrong total degree, from the monomial or from a term of the class
    with pytest.raises(ValueError, match="homogeneous"):
        pair_with_monomial(poly, tuple(x + y for x, y in zip(mono, shift)), g)
    stray = GradedPoly({data.draw(st.sampled_from(_monomials(weight + 1))): 1})
    with pytest.raises(ValueError, match="homogeneous"):
        pair_with_monomial(poly + stray, mono, g)
    negative = list(mono)
    negative[data.draw(st.integers(0, 3))] = -data.draw(st.integers(1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        pair_with_monomial(poly, tuple(negative), g)
    with pytest.raises(ValueError, match="genus"):
        pair_with_monomial(poly, mono, data.draw(st.integers(-2, 1)))


def test_intersection_query_validation():
    assert thaddeus_number(3, 6, 0, 0) == 224
    with pytest.raises(ValueError, match="degree condition violated"):
        thaddeus_number(3, 5, 0, 0)
    with pytest.raises(ValueError, match="genus must be >= 2"):
        thaddeus_number(1, 0, 0, 0)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        thaddeus_number(3, -1, 2, 1)


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
    # f h + f' pairs as f, read here as the class times h^1
    assert pair_with_monomial(power(ALPHA, 3), (0, 0, 0, 1), 2) == 4
    assert pair_with_monomial(power(BETA, 3), (0, 0, 0, 1), 3) == 0
    assert pair_with_monomial(power(ALPHA, 6) + power(BETA, 3), (0, 0, 0, 1), 3) == 224
    # the f' component never contributes
    assert pair_with_monomial(power(ALPHA, 3) * H + power(ALPHA, 4), (0, 0, 0, 0), 2) == 4
    with pytest.raises(ValueError):
        pair_with_monomial(power(ALPHA, 2) + BETA, (0, 0, 0, 1), 2)


def test_integrate_linearity():
    rng = random.Random(555)
    g = 3
    monos = [(6, 0, 0), (4, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 1), (0, 0, 2)]
    for _ in range(5):
        c1 = {(1, m, n, p): rng.randint(-5, 5) for (m, n, p) in monos}
        c2 = {(1, m, n, p): rng.randint(-5, 5) for (m, n, p) in monos}
        f1, f2 = GradedPoly(c1), GradedPoly(c2)
        lhs = pair_with_monomial(f1 + f2, (0, 0, 0, 0), g)
        rhs = pair_with_monomial(f1, (0, 0, 0, 0), g) + pair_with_monomial(
            f2, (0, 0, 0, 0), g
        )
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


def test_rational_certificate_rejects_negative_budget():
    # a negative budget tries no candidate, so it must not read as "inconclusive"
    with pytest.raises(ValueError, match="budget"):
        rational_certificate(5, 2, budget=-5)
    assert rational_certificate(5, 2, budget=0) is None


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
        f = h_coefficient_by_reduction(pk_full(k).polynomial)
        coeffs = pk_beta(k).polynomial.coeffs_in("beta")
        i, n_coeff = next((j, c) for j, c in enumerate(coeffs) if c != 0)
        ell = k * (k + 1) // 2 - 2 * i
        assert f.coeffs.get((0, ell - 1, i, 0), 0) == Fraction(ell, 2 ** (ell - 1)) * n_coeff
