"""Tests for the Giambelli determinant layer."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from heckebn.giambelli import (
    DegreeReport,
    PkRecord,
    closed_form_14,
    conjecture_bound,
    degree_check,
    delta_parity,
    giambelli_rows,
    lemma37_bound,
    multiplicity_profile,
    pk_beta,
    pk_eval,
    pk_full,
)
from heckebn.chern import _chern_sequence, chern_full, chern_tilde, tilde_mod_coeffs
from heckebn.numbers import next_prime
from heckebn.poly import BETA, GAMMA, H, GradedPoly, det_numeric
from oracles import (
    Partition,
    evaluate,
    giambelli_rows_by_k,
    is_homogeneous,
    lemma35_check,
    power,
    ref_det_mod,
    schur_dim,
    substitute,
)


def test_matrix_layout():
    zero = GradedPoly.zero()
    full = [chern_full(n) for n in range(4)]
    assert giambelli_rows(1, full, zero) == [[chern_full(1)]]
    assert giambelli_rows(2, full, zero) == [
        [chern_full(1), chern_full(0)],
        [chern_full(3), chern_full(2)],
    ]
    tilde = [chern_tilde(n) for n in range(14)]
    for k in (2, 4, 7):
        rows = giambelli_rows(k, tilde, zero)
        # first row (c_1, 2, 0, ..., 0), last row (c_{2k-1}, ..., c_k)
        assert rows[0] == [GradedPoly.one(), GradedPoly.constant(2)] + [zero] * (k - 2)
        assert rows[-1] == [chern_tilde(2 * k - 1 - j) for j in range(k)]
        # the leading k' x k' block is the matrix of P_k'
        for kp in range(1, k + 1):
            assert [row[:kp] for row in rows[:kp]] == giambelli_rows(kp, tilde, zero)
    with pytest.raises(ValueError):
        giambelli_rows(0, tilde, zero)


def test_layout_keeps_the_textbook_determinant():
    # the same permutation reverses rows and columns: over F_g on the scaled
    # Chern entries of mj_mod, and at rational points
    rng = random.Random(2013)
    for k in range(1, 13):
        for g in (next_prime(2 * k + 1), 1009):
            hat = [[c * (g - 1) % g for c in row] for row in tilde_mod_coeffs(2 * k - 1, g)]
            assert ref_det_mod(giambelli_rows(k, hat, [0]), g) == ref_det_mod(
                giambelli_rows_by_k(k, hat, [0]), g
            ), (k, g)
        for _ in range(3):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            c = _chern_sequence([Fraction(1)], 2 * k - 1, *pt)
            c[0] = Fraction(2)
            assert det_numeric(giambelli_rows(k, c, Fraction(0))) == det_numeric(
                giambelli_rows_by_k(k, c, Fraction(0))
            ), (k, pt)


def test_pk_full_small():
    assert pk_full(1).polynomial == H
    expected = power(H, 3) * Fraction(1, 6) - BETA * H * Fraction(1, 6) + GAMMA * Fraction(1, 3)
    assert pk_full(2).polynomial == expected
    spec3 = substitute(pk_full(3).polynomial, h=1, gamma=0)
    assert spec3 == (BETA - 1) * (4 * BETA - 1) * Fraction(1, 360)


def test_pk_full_homogeneous_and_limit():
    for k in range(1, 7):
        assert is_homogeneous(pk_full(k).polynomial, k * (k + 1) // 2)
    with pytest.raises(ValueError, match="limited to k <= 12"):
        pk_full(13)


def test_pk_beta_values():
    assert pk_beta(1).polynomial == GradedPoly.one()
    assert pk_beta(2).polynomial == -BETA * Fraction(1, 6) + Fraction(1, 6)
    assert pk_beta(3).polynomial == (BETA - 1) * (4 * BETA - 1) * Fraction(1, 360)


def test_pk_full_specializes_to_pk_beta():
    for k in range(1, 13):
        assert substitute(pk_full(k).polynomial, h=1, gamma=0) == pk_beta(k).polynomial


def test_pk_eval_matches_substitution():
    rng = random.Random(424242)
    for k in range(1, 7):
        poly = pk_full(k).polynomial
        for _ in range(10):
            pt = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for name in ("h", "beta", "gamma")
            }
            assert pk_eval(k, pt["h"], pt["beta"], pt["gamma"]) == evaluate(poly, **pt)


def test_closed_form_values():
    assert closed_form_14(2) == Fraction(-1, 2)
    assert closed_form_14(3) == Fraction(1, 8)
    assert closed_form_14(4) == Fraction(1, 64)
    assert closed_form_14(5) == Fraction(1, 2**10)
    assert closed_form_14(6) == Fraction(-1, 2**15)
    assert delta_parity(1) == 0
    assert delta_parity(2) == 1
    assert delta_parity(10) == 1
    assert delta_parity(12) == 0


def test_pk_eval_against_closed_form_small():
    for k in range(1, 9):
        assert pk_eval(k, 1, 4, 0) == closed_form_14(k)


def test_degree_check():
    r = degree_check(2)
    assert isinstance(r, DegreeReport)
    assert r.degree == 1 and r.bound == 1 and r.within_bound and r.equality
    assert degree_check(1).degree == 0
    assert degree_check(3).degree == 2
    for k in range(2, 13):
        rep = degree_check(k)
        assert rep.within_bound and rep.equality, f"k={k}: degree {rep.degree}"


def test_multiplicity_profile():
    assert multiplicity_profile(2) == [(1, 1)]
    assert multiplicity_profile(3) == [(1, 1), (2, 1)]
    prof5 = dict(multiplicity_profile(5))
    assert prof5[1] >= 2
    for k in range(2, 13):
        prof = dict(multiplicity_profile(k))
        for i in range(1, (k + 1) // 2):
            assert prof[i] >= lemma37_bound(k, i), (k, i)
        for i in range(1, k):
            assert prof[i] >= conjecture_bound(k, i), (k, i)
    with pytest.raises(ValueError):
        multiplicity_profile(1)


def test_pk_beta_nonzero():
    for k in range(1, 15):
        assert not pk_beta(k).polynomial.is_zero()


def _ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Count semistandard tableaux of the shape with entries in 1..n."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return 1

    def fill(i: int, row_vals: list[tuple[int, ...]]) -> int:
        if i == len(rows):
            return 1
        total = 0
        for vals in itertools.combinations_with_replacement(range(1, n + 1), rows[i]):
            if i > 0:
                above = row_vals[i - 1]
                if any(vals[j] <= above[j] for j in range(rows[i])):
                    continue
            total += fill(i + 1, row_vals + [vals])
        return total

    return fill(0, [])


def test_schur_dim_examples():
    assert schur_dim((1,), 3) == 3
    assert schur_dim((2,), 2) == 3
    assert schur_dim((1, 1), 2) == 1
    assert schur_dim((0, 0), 5) == 1
    with pytest.raises(ValueError):
        schur_dim((1, 1, 1), 2)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_schur_dim_matches_tableau_count():
    shapes = list(itertools.product(range(4), repeat=3))
    for raw in shapes:
        shape = tuple(sorted(raw, reverse=True))
        for n in range(1, 5):
            if len([r for r in shape if r]) > n:
                continue
            assert schur_dim(shape, n) == _ssyt_count(shape, n), (shape, n)


def test_lemma35_check():
    assert lemma35_check(3, 5)
    assert lemma35_check(2, 7)
    assert lemma35_check(8, 11)
    with pytest.raises(ValueError):
        lemma35_check(3, 3)  # p > k required
    with pytest.raises(ValueError):
        lemma35_check(3, 9)


def test_pk_record_round_trip():
    rec = pk_full(2)
    obj = rec.to_json_obj()
    assert set(obj) == {"k", "variant", "algorithm", "version", "poly"}
    back = PkRecord.from_json_obj(obj)
    assert back.polynomial == rec.polynomial
    assert back.variant == "full"
