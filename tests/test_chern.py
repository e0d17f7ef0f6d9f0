"""Tests for the Chern class sequences and their cross-checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from heckebn.chern import _chern_sequence, chern_full, chern_tilde, tilde_mod_coeffs
from heckebn.numbers import factorial_mod, is_prime
from heckebn.poly import BETA, GAMMA, H, GradedPoly
from oracles import (
    beta4_closed_form,
    chern_oracle,
    evaluate,
    is_homogeneous,
    power,
    reduce_mod,
    substitute,
)


def test_full_seed_values():
    assert chern_full(-2).is_zero()
    assert chern_full(0) == GradedPoly.constant(2)
    assert chern_full(1) == H
    assert chern_full(2) == power(H, 2) * Fraction(1, 2)
    assert chern_full(3) == (
        power(H, 3) * Fraction(1, 6) + BETA * H * Fraction(1, 12) - GAMMA * Fraction(1, 6)
    )
    assert chern_full(4) == (
        power(H, 4) * Fraction(1, 24)
        + BETA * power(H, 2) * Fraction(1, 12)
        - GAMMA * H * Fraction(1, 6)
    )


def test_full_first_recurrence_step():
    # c_5 worked out by hand from the four-term recurrence at n = 1
    expected = (
        power(H, 5) * Fraction(1, 120)
        + BETA * power(H, 3) * Fraction(1, 24)
        + power(BETA, 2) * H * Fraction(1, 80)
        - GAMMA * power(H, 2) * Fraction(1, 12)
        - BETA * GAMMA * Fraction(1, 20)
    )
    assert chern_full(5) == expected
    assert chern_oracle(5) == expected


def test_full_matches_oracle():
    for n in range(31):
        assert chern_full(n) == chern_oracle(n), f"mismatch at n={n}"


def test_full_homogeneous():
    for n in range(31):
        assert is_homogeneous(chern_full(n), n)


def test_tilde_matches_specialization():
    for n in range(31):
        assert chern_tilde(n) == substitute(chern_full(n), h=1, gamma=0)


def test_tilde_values():
    assert chern_tilde(0) == GradedPoly.constant(2)
    assert chern_tilde(1) == GradedPoly.one()
    assert chern_tilde(2) == GradedPoly.constant(Fraction(1, 2))
    assert chern_tilde(3) == BETA * Fraction(1, 12) + Fraction(1, 6)
    assert chern_tilde(4) == BETA * Fraction(1, 12) + Fraction(1, 24)
    assert chern_tilde(5) == (
        power(BETA, 2) * Fraction(1, 80) + BETA * Fraction(1, 24) + Fraction(1, 120)
    )


def test_ode_identity():
    # (1 - (beta/4) t^2)^2 c'(t) == (c(t) - 1)(h (1 - (beta/4) t^2) - (gamma/2) t^2)
    depth = 30
    c = [chern_full(n) for n in range(depth + 2)]

    def series_mul(a, b):
        out = [GradedPoly.zero() for _ in range(depth + 1)]
        for i, ai in enumerate(a):
            if i > depth or ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if i + j > depth:
                    break
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return out

    zero = GradedPoly.zero()
    q = Fraction(-1, 4)
    one_minus = [GradedPoly.one(), zero, BETA * q] + [zero] * (depth - 2)
    lhs = series_mul(series_mul(one_minus, one_minus), [c[n + 1] * (n + 1) for n in range(depth + 1)])
    c_minus_1 = [c[0] - 1] + c[1 : depth + 1]
    factor = [H, zero, BETA * H * q - GAMMA * Fraction(1, 2)] + [zero] * (depth - 2)
    rhs = series_mul(c_minus_1, factor)
    for n in range(depth + 1):
        assert lhs[n] == rhs[n], f"ODE identity fails at t^{n}"


def test_beta4_closed_form():
    assert beta4_closed_form(0) == 2
    assert beta4_closed_form(1) == 1
    assert beta4_closed_form(2) == Fraction(1, 2)
    assert beta4_closed_form(3) == Fraction(1, 2)
    assert beta4_closed_form(4) == Fraction(3, 8)
    assert beta4_closed_form(6) == Fraction(5, 16)
    for n in range(51):
        assert beta4_closed_form(n) == evaluate(chern_tilde(n), beta=4)
    with pytest.raises(ValueError):
        beta4_closed_form(-1)


def _trim(row: list) -> list:
    row = list(row)
    while len(row) > 1 and not row[-1]:
        row.pop()
    return row


def hat(n: int, g: int) -> list[int]:
    """Beta-coefficients of u * ct_n over F_g with u = (g-1)! 2^{g-1}, the
    entries mj_mod scales by."""
    u = factorial_mod(g - 1, g) * pow(2, g - 1, g) % g
    assert u == g - 1  # Wilson times Fermat
    return _trim([c * u % g for c in tilde_mod_coeffs(n, g)[n]])


def test_hat_values_mod_11():
    assert hat(0, 11) == [9]
    assert hat(1, 11) == [10]
    assert hat(3, 11) == [9, 10]


def test_hat_matches_scaled_tilde():
    for g in (11, 13, 53, 101):
        for n in range(0, g, max(1, g // 10)):
            reduced = reduce_mod(chern_tilde(n).coeffs_in("beta"), g)
            expected = _trim([c * (g - 1) % g for c in reduced])
            assert hat(n, g) == expected, f"n={n}, g={g}"


def test_hat_preconditions():
    with pytest.raises(ValueError):
        tilde_mod_coeffs(11, 11)
    with pytest.raises(ValueError):
        tilde_mod_coeffs(3, 9)
    with pytest.raises(ValueError):
        tilde_mod_coeffs(3, 2)
    assert tilde_mod_coeffs(-1, 11) == []


def test_tilde_mod_prefix():
    rows = tilde_mod_coeffs(5, 11)
    assert rows[0] == [2]
    assert rows[1] == [1]
    # ct_5 = 1/120 + beta/24 + beta^2/80 mod 11
    assert rows[5] == [
        pow(120, -1, 11) % 11,
        pow(24, -1, 11) % 11,
        pow(80, -1, 11) % 11,
    ]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_scalar_sequence_matches_oracle(h0, beta0, gamma0):
    # the Fraction sequence pk_eval builds its matrix from (c_0 = 1 there)
    c = _chern_sequence([Fraction(1)], 20, h0, beta0, gamma0)
    assert c[0] == 1
    for n in range(1, 21):
        assert c[n] == evaluate(chern_oracle(n), h=h0, beta=beta0, gamma=gamma0), n


ODD_PRIMES = [p for p in range(3, 400) if is_prime(p)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.data())
def test_tilde_mod_matches_oracle(g, data):
    n = data.draw(st.integers(0, min(g, 20) - 1))
    expected = reduce_mod(substitute(chern_oracle(n), h=1, gamma=0).coeffs_in("beta"), g)
    assert _trim(tilde_mod_coeffs(n, g)[n]) == _trim(expected)
