"""Tests for the graded polynomial ring and determinant engines."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckebn import poly
from heckebn.chern import chern_tilde, tilde_mod_coeffs
from heckebn.giambelli import giambelli_rows
from heckebn.modular import mj_mod
from heckebn.numbers import is_prime, next_prime
from heckebn.poly import (
    ALPHA,
    BETA,
    GAMMA,
    H,
    GradedPoly,
    det_interpolate,
    det_minor_expansion,
    det_mod_univariate,
    det_numeric,
    poly_from_coeffs,
    root_multiplicity,
)
from oracles import (
    _ref_divexact,
    _ref_mul,
    _ref_sub,
    _ref_trim,
    det_bareiss,
    det_by_nodes,
    evaluate,
    exact_div,
    half_degree,
    is_homogeneous,
    power,
    reduce_mod,
    ref_det_mod,
    substitute,
)


def sample_p2() -> GradedPoly:
    # h^3/6 - beta*h/6 + gamma/3
    return (
        power(H, 3) * Fraction(1, 6)
        - BETA * H * Fraction(1, 6)
        + GAMMA * Fraction(1, 3)
    )


def test_ring_basics():
    p = (H + ALPHA) * (H - ALPHA)
    assert p == power(H, 2) - power(ALPHA, 2)
    assert substitute(power(BETA, 2) - 4, beta=2).is_zero()
    assert sample_p2().coeffs[(1, 0, 1, 0)] == Fraction(-1, 6)
    q = power(BETA, 2) * Fraction(1, 90) - BETA * Fraction(1, 72) + Fraction(1, 360)
    assert q.degree_in("beta") == 2
    assert q.degree_in("h") == 0
    assert GradedPoly.zero().degree_in("beta") == -1


def test_substitute_and_evaluate():
    p = sample_p2()
    assert substitute(p, h=1, gamma=0) == -BETA * Fraction(1, 6) + Fraction(1, 6)
    assert evaluate(p, h=1, beta=4, gamma=0) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        evaluate(p, h=1)
    with pytest.raises(ValueError):
        substitute(p, delta=1)


def test_homogeneity():
    p = sample_p2()
    assert is_homogeneous(p, 3)
    assert half_degree(p) == 3
    assert not is_homogeneous(H + BETA)
    assert is_homogeneous(GradedPoly.zero(), 7)
    assert half_degree(GradedPoly.zero()) is None
    # products add half-degrees
    q = BETA * H - GAMMA
    assert is_homogeneous(p * q, 6)


def test_pow_and_scalars():
    assert power(H + 1, 3) == power(H, 3) + 3 * power(H, 2) + 3 * H + 1
    assert (H * Fraction(1, 2)) * 2 == H
    assert power(H, 0) == GradedPoly.one()


def test_json_round_trip():
    p = sample_p2()
    obj = p.to_json_obj()
    assert obj == [
        {"e": [0, 0, 0, 1], "c": "1/3"},
        {"e": [1, 0, 1, 0], "c": "-1/6"},
        {"e": [3, 0, 0, 0], "c": "1/6"},
    ]
    assert GradedPoly.from_json_obj(obj) == p


@pytest.mark.parametrize("e", [[0, 0, 1.5, 0], [0, 0, "1", 0], [0, 0, True, 0],
                               [0, 0, -1, 0], [0, 0, 1], "0010"])
def test_json_rejects_non_int_exponents(e):
    # an exponent is a nonnegative int, never coerced from a float, str or bool
    with pytest.raises(ValueError):
        GradedPoly.from_json_obj([{"e": e, "c": "1"}])


def test_exact_div():
    num = (H + BETA) * (power(H, 2) - GAMMA) * 6
    assert exact_div(num, (H + BETA) * 2) == (power(H, 2) - GAMMA) * 3
    with pytest.raises(ArithmeticError):
        exact_div(power(H, 2) + 1, H + 1)


def _rows(rows) -> list[list[GradedPoly]]:
    """Matrix rows with every scalar entry made a constant polynomial."""
    return [
        [x if isinstance(x, GradedPoly) else GradedPoly.constant(x) for x in row]
        for row in rows
    ]


def test_det_small_examples():
    assert det_interpolate(_rows([[1]])) == [1]
    assert det_numeric([[1]]) == 1
    m = _rows([[BETA, 1], [4, BETA]])
    assert det_interpolate(m) == [BETA, power(BETA, 2) - 4]
    # row swap flips the sign
    m2 = _rows([[4, BETA], [BETA, 1]])
    assert det_interpolate(m2)[-1] == -(power(BETA, 2) - 4)
    assert det_minor_expansion(m2) == det_bareiss(m2) == -(power(BETA, 2) - 4)


def _random_poly(rng: random.Random, symbols: int) -> GradedPoly:
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0, 0, 0, 0]
        for i in range(symbols):
            mono[i] = rng.randint(0, 2)
        coeffs[tuple(mono)] = rng.randint(-4, 4)
    return GradedPoly(coeffs)


def test_det_engines_agree_multivariate():
    rng = random.Random(20260501)
    for _ in range(8):
        m = [[_random_poly(rng, 4) for _ in range(4)] for _ in range(4)]
        assert det_minor_expansion(m) == det_bareiss(m)


def test_det_engines_agree_univariate():
    rng = random.Random(77)
    for _ in range(8):
        m = [
            [poly_from_coeffs([rng.randint(-3, 3) for _ in range(3)]) for _ in range(4)]
            for _ in range(4)
        ]
        assert det_interpolate(m)[-1] == det_minor_expansion(m) == det_bareiss(m)


# Reference interpolation: Newton's divided differences on Fractions.  It
# shares no code with poly._interp_nodes, which works on integers over one
# common denominator.


def ref_interp_newton(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [Fraction(0)] * n
    basis = [Fraction(1)]
    for i in range(n):
        for t, c in enumerate(basis):
            out[t] += coef[i] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for t, c in enumerate(basis):
            nxt[t] -= c * xs[i]
            nxt[t + 1] += c
        basis = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def rational_univariate_matrices(draw):
    """Univariate rational matrices, some shaped so the determinant degenerates."""
    n = draw(st.integers(1, 4))
    entry = st.lists(rationals, max_size=4).map(poly_from_coeffs)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "zero row", "constant row", "dependent"]))
    r = draw(st.integers(0, n - 1))
    if shape == "zero row":
        rows[r] = [GradedPoly.zero()] * n
    elif shape == "constant row":
        rows[r] = [GradedPoly.constant(draw(rationals)) for _ in range(n)]
    elif shape == "dependent" and n > 1:
        # row r is a multiple of row s plus constants, so the determinant's
        # true degree falls below the generic bound (or it vanishes)
        s = (r + 1) % n
        c = draw(rationals)
        rows[r] = [a * c + draw(rationals) for a in rows[s]]
    return rows


@settings(max_examples=100, deadline=None)
@given(rational_univariate_matrices())
def test_det_interpolate_matches_reference(m):
    # the multimodular engine against the node-by-node engine it replaced and
    # against Laplace expansion
    got = det_interpolate(m)[-1]
    assert got == det_by_nodes(m) == det_minor_expansion(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12))
def test_interp_nodes_matches_reference(ys):
    den = math.lcm(*(y.denominator for y in ys))
    scaled = [y.numerator * (den // y.denominator) for y in ys]
    xs = list(range(len(ys)))
    assert poly._interp_nodes(scaled, den) == ref_interp_newton(xs, ys)


polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), rationals, max_size=4
).map(GradedPoly)


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a * 1 == a + 0 == a
    assert (a * 0).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys, polys.filter(lambda p: not p.is_zero()))
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


@settings(max_examples=100, deadline=None)
@given(polys)
def test_json_round_trip_property(p):
    assert GradedPoly.from_json_obj(json.loads(json.dumps(p.to_json_obj()))) == p


def _dets(rows, primes) -> list[list[int]]:
    """det_mod_univariate's last order, the determinant, at each prime."""
    return [minors[-1] for minors in det_mod_univariate(rows, primes)]


def test_mj_mod_above_the_float_bound_matches_reference():
    # above the kernel's float64 bound mj_mod reduces P_k(1, beta, 0) mod g;
    # the list kernel takes the u-scaled Giambelli rows at the same prime
    for k in range(1, 13):
        for g in (next_prime(poly._max_prime(k, k)), 33554467):
            u = g - 1  # (g-1)! 2^(g-1) mod g
            hat = [[c * u % g for c in row] for row in tilde_mod_coeffs(2 * k - 1, g)]
            assert list(mj_mod(k, g)) == ref_det_mod(giambelli_rows(k, hat, [0]), g), (k, g)


def _integer_matrix(coeff_rows) -> list[list[GradedPoly]]:
    return [[poly_from_coeffs(e) for e in row] for row in coeff_rows]


def _rational_det_mod(coeff_rows, p: int) -> list[int]:
    """The rational determinant of the same integer matrix, reduced mod p.

    det_by_nodes shares no code with the prime-field kernel, which the
    library's det_interpolate now runs on."""
    d = det_by_nodes(_integer_matrix(coeff_rows))
    return _ref_trim(reduce_mod(d.coeffs_in("beta"), p))


PRIMES = (3, 5, 7, 101, 1009)


@st.composite
def mod_matrices(draw):
    """Univariate F_p matrices, some shaped to hit the kernel's special cases."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 5))
    coeff = st.integers(0, p - 1)
    rows = [
        [draw(st.lists(coeff, max_size=4)) for _ in range(n)] for _ in range(n)
    ]
    if n > 1 and draw(st.booleans()):
        # zero leading pivot: forces a row swap (or a zero first column)
        rows[0][0] = []
    if draw(st.booleans()):
        # first row divisible by x, so the first pivot has prev(0) = 0
        rows[0] = [[0] + e if e else e for e in rows[0]]
    if n > 1 and draw(st.booleans()):
        # last row a multiple of the first: singular
        c = draw(coeff)
        rows[-1] = [[c * x % p for x in e] for e in rows[0]]
    return p, rows


@settings(max_examples=300, deadline=None)
@given(mod_matrices())
def test_det_mod_matches_reference_kernels(case):
    p, rows = case
    [got] = _dets(rows, [p])
    assert got == ref_det_mod(rows, p)
    assert _ref_trim(got) == _rational_det_mod(rows, p)


@st.composite
def mod_batches(draw):
    """Integer matrices and batches of small primes, with repeats.  Zero
    pivots, pivot valuations that differ between the primes and determinants
    that vanish mod some primes only are all common at these primes."""
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6))
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3000, 3000)
    rows = [[draw(st.lists(coeff, max_size=4)) for _ in range(n)] for _ in range(n)]
    q = draw(st.sampled_from(primes))
    if draw(st.booleans()):
        # entry (0, 0) vanishes mod q, and maybe mod no other prime
        rows[0][0] = [q * c for c in rows[0][0]]
    if draw(st.booleans()):
        # row 0 is divisible by x mod q: the next pivot's valuation splits
        rows[0] = [[q * e[0]] + e[1:] if e else e for e in rows[0]]
    if n > 1 and draw(st.booleans()):
        rows[-1] = [list(e) for e in rows[0]]
    return primes, rows


@settings(max_examples=300, deadline=None)
@given(mod_batches())
def test_det_mod_prime_batch_matches_single_primes(case):
    primes, rows = case
    assert det_mod_univariate(rows, primes) == [det_mod_univariate(rows, [q])[0] for q in primes]


@st.composite
def giambelli_mod_cases(draw):
    """Giambelli rows of a random small-integer sequence c, at a prime of
    PRIMES or a random prime below the float64 bound; c_1 = 0 mod p cuts
    the kernel's minors at order 1."""
    n = draw(st.integers(1, 6))
    c = [draw(st.lists(st.integers(-9, 9), max_size=3)) for _ in range(2 * n)]
    p = draw(st.sampled_from(PRIMES) | st.integers(1010, poly._max_prime(n, 3)))
    while not is_prime(p):
        p -= 1
    cut = draw(st.booleans())
    if cut:
        c[1] = [p * x for x in c[1]]
    return p, giambelli_rows(n, c, []), cut


@settings(max_examples=200, deadline=None)
@given(giambelli_mod_cases())
def test_det_mod_leading_minors_match_reference(case):
    p, rows, cut = case
    [minors] = det_mod_univariate(rows, [p])
    assert len(minors) == len(rows) and minors[-1] is not None
    for r, got in enumerate(minors, 1):
        # an order is missing only past the first zero pivot
        assert got is not None or [0] in minors[: r - 1]
        if got is not None:
            assert got == ref_det_mod([row[:r] for row in rows[:r]], p), r
    if cut:
        assert minors[0] == [0] and minors[1:-1] == [None] * (len(rows) - 2)


@st.composite
def giambelli_rational_cases(draw):
    """Giambelli rows over Q of a random sequence c; c_1 = 0 makes every
    prime of det_interpolate lose the orders between 1 and n."""
    n = draw(st.integers(1, 5))
    c = [poly_from_coeffs(draw(st.lists(rationals, max_size=3))) for _ in range(2 * n)]
    if draw(st.booleans()):
        c[1] = GradedPoly.zero()
    return giambelli_rows(n, c, GradedPoly.zero())


@settings(max_examples=100, deadline=None)
@given(giambelli_rational_cases())
def test_det_interpolate_minors_are_the_leading_blocks(rows):
    got = det_interpolate(rows)
    for r in range(1, len(rows) + 1):
        block = [row[:r] for row in rows[:r]]
        assert got[r - 1] == det_interpolate(block)[-1] == det_bareiss(block), r
    assert det_interpolate(rows, [len(rows), 1]) == [got[-1], got[0]]


def test_det_mod_batch_pivot_vanishing_mod_one_prime(monkeypatch):
    # entry (0, 0) is 7 (x + 1): 0 mod 7 only, so 7 alone needs a row swap in
    # the first step, and a stack holding 7 runs again prime by prime; 5 and
    # 101 part in the second step
    rows = [[[7, 7], [1], [2, 1]], [[1, 1], [3], [0, 1]], [[2], [1, 4], [5]]]
    runs = []
    det_stack = poly._det_stack

    def count_runs(coeff_rows, primes, max_len):
        runs.append(list(primes))
        return det_stack(coeff_rows, primes, max_len)

    monkeypatch.setattr(poly, "_det_stack", count_runs)
    for primes in ([5, 7, 101], [7, 5], [101, 7, 7, 1009], [5, 101]):
        want = [ref_det_mod(rows, q) for q in primes]
        runs.clear()
        assert _dets(rows, primes) == want
        assert runs == [primes] + [[q] for q in primes]
        assert [_dets(rows, [q])[0] for q in primes] == want
    runs.clear()
    primes = [101, 103, 1009]
    assert _dets(rows, primes) == [ref_det_mod(rows, q) for q in primes]
    assert runs == [primes]
    assert [[c % q for c in rows[0][0]] for q in (5, 7, 101)] == [[2, 2], [0, 0], [7, 7]]


@pytest.mark.parametrize("chunk", [2, 3])
def test_det_mod_block_splits_at_small_sizes(monkeypatch, chunk):
    # A budget of 8 bytes makes every block of a pivot step one (prime, row)
    # pair, and Toeplitz blocks of 2 or 3 rows make every product of more
    # coefficients overlap-add: every row split, prime split and chunk loop
    # then runs on 3 x 3 to 5 x 5 matrices.
    monkeypatch.setattr(poly, "_STEP_BYTES", 8)
    monkeypatch.setattr(poly, "_CHUNK", chunk)
    blocks, chunked = [], []
    divexact, tmul = poly._divexact, poly._tmul

    def count_blocks(num, *args):
        blocks.append(num.shape[:2])
        return divexact(num, *args)

    def count_chunks(x, t, lo, hi):
        chunked.append(x.shape[-1] > t.shape[-2])
        return tmul(x, t, lo, hi)

    monkeypatch.setattr(poly, "_divexact", count_blocks)
    monkeypatch.setattr(poly, "_tmul", count_chunks)
    rng = random.Random(chunk)

    def entry():
        return [rng.randint(-50, 50) for _ in range(rng.randint(2, 5))]

    for n in (3, 4, 5):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        blocks.clear()
        assert _dets(rows, [101]) == [ref_det_mod(rows, 101)]
        # one block per row of every step that divides
        assert set(blocks) == {(1, 1)} and len(blocks) == (n - 1) * (n - 2) // 2
        primes = [101, 103, 107, 101]
        blocks.clear()
        assert _dets(rows, primes) == [ref_det_mod(rows, q) for q in primes]
        # one block per (prime, row) pair; a stack whose primes diverge runs
        # its steps again prime by prime
        assert set(blocks) == {(1, 1)}
        assert len(blocks) >= len(primes) * (n - 1) * (n - 2) // 2
    assert any(chunked)


def test_crt_primes_descend_from_the_float_bound(monkeypatch):
    # the primes det_interpolate hands the kernel for P_12(1, beta, 0)
    k = 12
    rows = giambelli_rows(k, [chern_tilde(i) for i in range(2 * k)], GradedPoly.zero())
    seen: list[int] = []

    def spy(coeff_rows, primes):
        seen.extend(primes)
        return det_mod_univariate(coeff_rows, primes)

    monkeypatch.setattr(poly, "det_mod_univariate", spy)
    first = det_interpolate(rows)
    primes = list(seen)
    seen.clear()
    assert det_interpolate(rows) == first and seen == primes  # deterministic
    # the l1 row-product bound on the integer determinant, from the scaled rows
    bound, max_len = 1, 0
    for row in rows:
        l = math.lcm(*(c.denominator for e in row for c in e.coeffs.values()))
        scaled = [[c.numerator * (l // c.denominator) for c in e.coeffs_in("beta")] for e in row]
        bound *= sum(abs(c) for e in scaled for c in e)
        max_len = max(max_len, *map(len, scaled))
    # consecutive primes downward from the largest p with 2 p^2 n max_len < 2^53
    top = int(math.sqrt(2**53 / (2 * k * max_len))) + 2
    assert 2 * top * top * k * max_len >= 2**53
    while not (is_prime(top) and 2 * top * top * k * max_len < 2**53):
        top -= 1
    walk = [top]
    while len(walk) < len(primes):
        walk.append(max(q for q in range(walk[-1] - 1, walk[-1] - 500, -1) if is_prime(q)))
    assert primes == walk
    assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])


def _divide(num, den: list[int], p: int) -> list:
    """poly._divexact on float64 arrays, set up as one pivot step does for a
    stack of one prime.

    num is one coefficient list or a block of them (equal lengths).
    """
    den = np.array([den], dtype=np.float64)
    v = int(np.flatnonzero(den)[0])
    pv, col = den[:, v:], np.full((1, 1, 1), float(p))
    num = np.array(num, dtype=np.float64)
    inv = poly._series_inverse(pv, max(num.shape[-1] - den.shape[-1] + 1, 1), col)
    q = poly._divexact(np.atleast_2d(num)[None], v, pv, inv, col)
    return q.reshape(num.shape[:-1] + q.shape[-1:]).astype(int).tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(0, 1008), min_size=1, max_size=5),
    st.lists(st.integers(0, 1008), min_size=1, max_size=5),
    st.integers(0, 2),
    st.lists(st.integers(0, 1008), min_size=1, max_size=5),
)
def test_mod_divexact_matches_reference(p, q, pv, v, rem):
    pv = [pv[0] % (p - 1) + 1] + [c % p for c in pv[1:]]
    pv = _ref_trim(pv)
    q = _ref_trim([c % p for c in q])
    rem = _ref_trim([c % p for c in rem])
    if not q:
        return
    den = [0] * v + pv
    num = _ref_mul(q, den, p)
    inv = poly._series_inverse(np.array([pv], dtype=np.float64), 8, np.full((1, 1, 1), float(p)))
    assert _ref_mul(pv, [int(c) for c in inv[0]], p)[:8] == [1] + [0] * 7
    assert _divide(num, den, p) == _ref_divexact(num, den, p) == q
    # a nonzero remainder of lower degree than den: inexact for both kernels,
    # alone and as one entry of a block whose other entry divides exactly
    if rem and len(rem) < len(den):
        bad = _ref_sub(num, [(-c) % p for c in rem], p)
        with pytest.raises(ArithmeticError):
            _ref_divexact(bad, den, p)
        with pytest.raises(ArithmeticError):
            _divide(bad, den, p)
        with pytest.raises(ArithmeticError):
            _divide([num, bad], den, p)


def test_mod_divexact_inexact_cases():
    p = 7
    # guard 1: a coefficient below the x-valuation of den
    with pytest.raises(ArithmeticError):
        _divide([1, 1, 1], [0, 1], p)
    # guard 2: a nonzero num shorter than den
    with pytest.raises(ArithmeticError):
        _divide([1, 1], [1, 2, 3], p)
    # guard 3: x + 1 does not divide x^2 + 1 over F_7, so the multiply-back fails
    with pytest.raises(ArithmeticError):
        _divide([1, 0, 1], [1, 1], p)
    # exact cases: zero numerators, and a block of (x + 1) * q_i
    assert _divide([], [1, 1], p) == []
    assert _divide([0, 0], [1, 2, 3], p) == []
    assert _divide([[1, 2, 1], [0, 3, 3], [0, 0, 0]], [1, 1], p) == [
        [1, 1],
        [0, 3],
        [0, 0],
    ]


def test_det_mod_rejects_a_wrong_series_inverse(monkeypatch):
    # _divexact multiplies back only the top of each quotient, so a wrong
    # low coefficient of the inverse must be caught where it is made
    rows = [[[3, 1], [1, 2], [0, 1]], [[2], [1, 1, 1], [4]], [[1, 5], [2], [1, 0, 3]]]
    assert _dets(rows, [101]) == [ref_det_mod(rows, 101)]
    right = poly._series_inverse

    def off_by_one(f, width, p):
        g = right(f, width, p)
        g[:, :1] = (g[:, :1] + 1) % p[:, 0]  # p: the stack's primes, shape (s, 1, 1)
        return g

    monkeypatch.setattr(poly, "_series_inverse", off_by_one)
    for primes in ([101], [101, 103]):
        with pytest.raises(ArithmeticError, match="series inverse"):
            _dets(rows, primes)


def test_det_mod_quotients_shorter_than_prev():
    # step 0 leaves constants under the pivot x^3, so step 1's numerators are
    # shorter than the divisor x^3: exact only when they are all zero
    top = [[[0, 0, 0, 1], [1], []], [[1, 0, 0, 1], [1], []]]
    for last in ([[], [], []], [[], [], [1]], [[2], [], [1, 1]]):
        rows = top + [last]
        assert _dets(rows, [7]) == [ref_det_mod(rows, 7)]


def test_det_mod_dense_matches_minor():
    rng = random.Random(11)
    for p in (5, 11, 101):
        for _ in range(6):
            rows = [
                [[rng.randint(0, p - 1) for _ in range(3)] for _ in range(3)]
                for _ in range(3)
            ]
            minor = det_minor_expansion(_integer_matrix(rows)).coeffs_in("beta")
            got = _ref_trim(_dets(rows, [p])[0])
            assert got == _ref_trim(reduce_mod(minor, p)) == _ref_trim(ref_det_mod(rows, p))


def test_det_mod_python_fallback_path():
    # float64 arrays are exact while 2 p^2 n max_len < 2^53; each case is the
    # largest prime below that bound, with entries near p (the primes above
    # it are rejected: test_det_mod_rejects_malformed_matrices)
    cases = [(33554393, 2, 2), (22369601, 3, 3)]
    rng = random.Random(2**31 - 1)
    for p, n, max_len in cases:
        top = poly._max_prime(n, max_len)
        assert 2 * top * top * n * max_len < 2**53 <= 2 * (top + 1) ** 2 * n * max_len
        assert is_prime(p) and p <= top < next_prime(p)
        for _ in range(3):
            rows = [
                [[p - rng.randint(1, 50) for _ in range(max_len)] for _ in range(n)]
                for _ in range(n)
            ]
            got = _ref_trim(_dets(rows, [p])[0])
            assert got == _rational_det_mod(rows, p) == _ref_trim(ref_det_mod(rows, p))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(0, 2**53 - 1), st.integers(2**53 - 2**20, 2**53 - 1)),
    st.integers(2, 2**31 - 1),
)
def test_float_reduction_is_exact(x, p):
    # x - floor(x/p) p on float64 for every integer 0 <= x < 2^53
    assert poly._reduce(np.array([float(x)]), p).tolist() == [x % p]


def test_det_mod_rejects_malformed_matrices():
    with pytest.raises(ValueError):
        det_mod_univariate([], [5])
    with pytest.raises(ValueError):
        det_mod_univariate([[[1], [2]]], [5])
    with pytest.raises(ValueError):
        det_mod_univariate([[[1], [2]], [[3]]], [5])
    with pytest.raises(ValueError):
        det_mod_univariate([[[1]]], [])
    with pytest.raises(TypeError):
        det_mod_univariate([[[1.5]]], [5])
    with pytest.raises(TypeError):
        det_mod_univariate([[[1], [2]], [[3], [4, Fraction(1, 2)]]], [5])
    with pytest.raises(TypeError):
        det_mod_univariate([[[1]]], 5)  # a prime is passed as [5]
    # primes above the float64 bound: the smallest primes above it for 2 x 2
    # and 3 x 3 matrices of entries of length 2 and 3, and 2^31 - 1
    for p, n, max_len in ((33554467, 2, 2), (22369661, 3, 3), (2**31 - 1, 2, 2)):
        assert is_prime(p) and 2 * p * p * n * max_len >= 2**53
        rows = [[[p - 1] * max_len for _ in range(n)] for _ in range(n)]
        for primes in ([p], [101, p]):
            with pytest.raises(ValueError, match="float64 bound"):
                _dets(rows, primes)


def test_det_numeric():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert det_numeric(rows) == Fraction(1, 10) - Fraction(1, 12)
    assert det_numeric([[Fraction(0)]]) == 0
    assert det_numeric([[2, Fraction(1, 3)], [3, 1]]) == 1


def test_det_numeric_rejects_empty_matrix():
    with pytest.raises(ValueError):
        det_numeric([])


def test_det_numeric_rejects_floats():
    with pytest.raises(TypeError):
        det_numeric([[0.5]])
    with pytest.raises(TypeError):
        det_numeric([[1, 2], [Fraction(1, 2), 0.25]])


def test_det_singular_and_zero_column():
    m = [[H, H], [H, H]]
    assert det_minor_expansion(m).is_zero()
    assert det_bareiss(m).is_zero()
    m2 = _rows([[0, H], [0, power(H, 2)]])
    assert det_bareiss(m2).is_zero()
    assert det_minor_expansion(m2).is_zero()


def test_det_interpolate_rejects_other_symbols():
    # beta is det_interpolate's only variable; h or gamma raise from coeffs_in
    with pytest.raises(ValueError):
        det_interpolate([[H, BETA], [1, BETA]])
    with pytest.raises(ValueError):
        det_interpolate([[BETA + GAMMA]])


def test_root_multiplicity():
    p = (BETA - 1) * (4 * BETA - 1) * Fraction(1, 360)
    assert root_multiplicity(p, 1) == 1
    assert root_multiplicity(p, Fraction(1, 4)) == 1
    assert root_multiplicity(p, 3) == 0
    q = power(BETA - 2, 3) * (BETA + 1)
    assert root_multiplicity(q, 2) == 3
    assert root_multiplicity(q, -1) == 1
    with pytest.raises(ValueError):
        root_multiplicity(GradedPoly.zero(), 1)
    with pytest.raises(ValueError):
        root_multiplicity(H * BETA, 1)


# Reference: the Fraction loop root_multiplicity replaced, one Horner pass per
# factor removed.  It shares no code with the integer synthetic division by
# (b*x - a) in poly.root_multiplicity.


def ref_root_multiplicity(p: GradedPoly, root) -> int:
    coeffs = [Fraction(c) for c in p.coeffs_in("beta")]
    root = Fraction(root)
    mult = 0
    while True:
        quo = []
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * root + c
            quo.append(acc)
        if acc != 0:
            return mult
        quo.reverse()
        coeffs = quo[1:]
        mult += 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5).filter(any),
    rationals.filter(bool),
    rationals,
)
def test_root_multiplicity_matches_reference(mults, cofactor, scale, other):
    """scale * cofactor * prod_i (i^2 beta - 1)^m_i has multiplicity m_i plus
    the cofactor's at each 1/i^2."""
    base = poly_from_coeffs(cofactor)
    p = base * scale
    for i, m in enumerate(mults, start=1):
        p = p * power(i * i * BETA - 1, m)
    for i in range(1, len(mults) + 3):
        root = Fraction(1, i * i)
        want = (mults[i - 1] if i <= len(mults) else 0) + ref_root_multiplicity(base, root)
        assert root_multiplicity(p, root) == ref_root_multiplicity(p, root) == want
    assert root_multiplicity(p, other) == ref_root_multiplicity(p, other)


def test_coeff_lists():
    q = power(BETA, 2) * Fraction(1, 90) - BETA * Fraction(1, 72) + Fraction(1, 360)
    assert q.coeffs_in("beta") == [
        Fraction(1, 360),
        Fraction(-1, 72),
        Fraction(1, 90),
    ]
    assert GradedPoly.zero().coeffs_in("beta") == [0]
    with pytest.raises(ValueError, match=r"not univariate in beta: also uses \['h'\]"):
        (H * BETA).coeffs_in("beta")
