"""Tests for exact scalar arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from heckebn.numbers import (
    bernoulli,
    binomial,
    factorial_mod,
    format_rational,
    is_prime,
    next_prime,
    parse_rational,
)
from oracles import von_staudt_denominator


def bernoulli_series_oracle(n_terms: int) -> list[Fraction]:
    """B_q/q! as the power-series inverse of (e^x - 1)/x, independent of the table."""
    # s[n] = 1/(n+1)!; find e with e * s == 1 term by term.
    s = [Fraction(1, math.factorial(n + 1)) for n in range(n_terms)]
    e = [Fraction(1)]
    for n in range(1, n_terms):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += s[j] * e[n - j]
        e.append(-acc)
    return e


def test_bernoulli_matches_generating_function():
    oracle = bernoulli_series_oracle(31)
    for q in range(31):
        assert bernoulli(q) == oracle[q] * math.factorial(q)


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_zero_cases():
    assert bernoulli(-4) == 0
    assert bernoulli(-1) == 0
    for q in range(3, 61, 2):
        assert bernoulli(q) == 0


def test_von_staudt_denominator():
    assert von_staudt_denominator(0) == 1
    assert von_staudt_denominator(2) == 6
    assert von_staudt_denominator(4) == 30
    assert von_staudt_denominator(12) == 2730
    for q in range(2, 61, 2):
        assert bernoulli(q).denominator == von_staudt_denominator(q)
    with pytest.raises(ValueError):
        von_staudt_denominator(3)


def test_integrality_product():
    # (q+2)(q+1)(q/2)! * B_q is an integer for even q.
    for q in range(0, 41, 2):
        v = (q + 2) * (q + 1) * math.factorial(q // 2) * bernoulli(q)
        assert v.denominator == 1


def test_rational_round_trip():
    cases = [Fraction(3, 4), Fraction(-3, 4), Fraction(7), Fraction(-7), Fraction(0)]
    strings = ["3/4", "-3/4", "7", "-7", "0"]
    for q, s in zip(cases, strings):
        assert format_rational(q) == s
        assert parse_rational(s) == q
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert parse_rational("  -1/2 ") == Fraction(-1, 2)


def test_binomial_edges():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0


def test_is_prime_against_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 2000):
        assert is_prime(n) == slow(n)
    # a few larger spot checks
    assert is_prime(104729)
    assert not is_prime(104729 * 104729)
    assert is_prime(2**31 - 1)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(46) == 47
    assert next_prime(100) == 101


def test_wilson():
    for p in range(2, 201):
        if is_prime(p):
            assert factorial_mod(p - 1, p) == p - 1


def test_factorial_mod_overflow_to_zero():
    assert factorial_mod(13, 13) == 0
    assert factorial_mod(20, 13) == 0
    assert factorial_mod(3, 7) == 6
    assert type(factorial_mod(3, 7)) is int
