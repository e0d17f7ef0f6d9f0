"""Golden outputs: verdict tables, Theorem 6.1 certificates, M_j residues,
P_k(1, beta, 0), the trivariate P_k(h, beta, gamma), rational certificates and pairings.

The digests are fixed: a change to any class polynomial, residue or verdict
changes one of them.  P_k(1, beta, 0) is also checked off the interpolation
nodes against the scalar evaluation pk_eval.  The P_k(h, beta, gamma)
digests for k <= 9 were recorded from memoized Laplace expansion; above
that, P_k(h, beta, gamma) is checked against pk_eval at rational points off
the interpolation slices (h = 1, integer gamma).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from heckebn import giambelli, poly
from heckebn.certificates import admissible_prime
from heckebn.giambelli import pk_beta, pk_eval, pk_full
from heckebn.hecke import candidate_monomials, pair_with_monomial, rational_certificate
from heckebn.modular import certify_mod, find_gpk, mj_mod
from heckebn.numbers import format_rational
from heckebn.store import Store
from heckebn.verdict import emit_table
from oracles import evaluate, valid_primes_above


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of emit_table("2..40", "1..14") at each assumption level; the levels
# share one store, so the later ones read the class certificates back
VERDICT_DIGESTS = {
    "general": "56e743ceecdeecb66d1aff8fac0d7969dc2ca4e2eae9f2410b5c814247a9cf3c",
    "petri": "b92f0bdce8c6cb96ab71a5da4da150b4f150d99c023a7b15c1dd3c6fa165dfa3",
    "any_curve": "1057cc9a0167e9330260d8b655fe1e976fef7eac73182817e30404b4867e5ebd",
}


def test_verdict_table_digest(tmp_path):
    store = Store(tmp_path)
    got = {
        level: sha256(emit_table("2..40", "1..14", assumption=level, store=store))
        for level in VERDICT_DIGESTS
    }
    assert got == VERDICT_DIGESTS


# the same tables as JSON, which adds the twisted bounds to every row
VERDICT_JSON_DIGESTS = {
    "general": "9e8da773f945683cf54d63b0aff4ed9e327f2d2bcc5c5a2df4ff25f7afe3f5f2",
    "petri": "50c064e9a160739f28f98ba2fbfac4136d4e395cf56543fc25d6d7c446723f65",
    "any_curve": "ccb2c1fd326a91ede3c7eba5958b4799a1327047586df5a8536fbd957c51b4db",
}


def test_verdict_json_digest(tmp_path):
    store = Store(tmp_path)
    got = {
        level: sha256(emit_table("2..40", "1..14", assumption=level, fmt="json",
                                 store=store))
        for level in VERDICT_JSON_DIGESTS
    }
    assert got == VERDICT_JSON_DIGESTS


def test_verdict_table_rational_budget_digest():
    # the exact-pairing fallback decides the class where no modular
    # certificate or gate does: 40 rows differ from the default table,
    # among them (3, 2) and (28, 12)
    got = sha256(emit_table("2..40", "1..12", rational_budget=16))
    assert got == "6472700d4f42404da42ec407e79357c2cef69a5aabe85280167593b443e64160"


THM61_HASHES = {
    10: "cfd698eb9a369aefc4ce5f8d594bbd6c22552fb40b75b00f9dedc85f90de202a",
    11: "31b0997dc49028533d6649742e1f010e6d555f962eb9b8344b56827ddf33614d",
    12: "17028066da244bf75c86ad92f7b80db9eccb4bd67acb34e5afc44231b15b4272",
    13: "c2fbeb248f9126a9df52d6a5eadd35a8f0f7b5b03581165694461af18639ad97",
    14: "04fe157aa9f636626c84c8b56a0de2bc8caad9741b9b588086a46a10f38e4d84",
    15: "3e5c7b8c74adf370d658812b3a6c17d28c360665cb8ca4e62109680cd6faa82c",
    16: "656483801dc47c8584264685bef112a1b532f5587dda169027ad5b2fd36fd688",
    17: "6521629e566492bb483cc20bf5f03a51c24e94304e542ea83d088e572e5a5e9d",
    18: "d37afcb7f933179038dbef2081f672c0e7fe92c13f89c33c76ef8dffcfc93810",
    19: "3344fadbf0700ce9abeba8a713fdb9c79a16346a489a7c5884a0dcd400e38638",
    20: "08eb4e4b34df9735e496c218b0c48c0d9fbcf912a61eda3284cd6e1ba467c15f",
    21: "e83af211b029e5184c242b50a3ee4114443433e731cf4216abae59c5b072f8fd",
    22: "fc14af4e2bdf69776e5de116e8d38d08a8bb5f757af289e05f7cae8ed424d2b1",
    23: "de9b271b0a4b62e9a36b79778499699b751fa26fc4092ef43111b5935f0140a3",
    24: "ec926a1a70795219cfdd3462c9214c50113795123827a335a02147f35dd45846",
}


def test_thm61_certificate_hashes():
    got = {k: certify_mod(k).hash() for k in THM61_HASHES}
    assert got == THM61_HASHES


def _mj_primes(k: int) -> list[int]:
    """find_gpk(k), the first two primes above 2k and 1009, without repeats."""
    assert admissible_prime(k, 1009)
    out: list[int] = []
    for g in (find_gpk(k), *valid_primes_above(k), 1009):
        if g not in out:
            out.append(g)
    return out


# sha256 of json.dumps([[g, list(mj_mod(k, g))] for g in _mj_primes(k)]): every
# residue M_j, not only the ones a certificate quotes
MJ_DIGESTS = {
    10: "668d009cf8fa2d20d028be8b973155bfbef64b998bc4caabfe95c0f6cf81873b",
    11: "0caa0c7c800f41d41d3a233c42885a5653a010df6e5c822ad37187ea3fb5c02a",
    12: "889af6c09fe5f8b9bff725708a5290f45774694721ef186b0b6791d52edee2fa",
    13: "70540258dc9b6638d38908a2a94df8c8d82f4a42db3c55b5a9d080f97c831aae",
    14: "7f42a825001937085e7537cc837fcefd80e4acf68110b5166acd9ddd6175369b",
    15: "085a25d0f5776abbb2e6dc21880d43e9186d0e3d4982006410c2051e68b7bd48",
    16: "200eff6cc9c53cf3614caf99f418d801464cd4bc9024ed7a19a0160c81263be7",
    17: "91e1bf2a95e72077769a70d0d630b052dc4fdff27f3f2f304e4e856e350e0e44",
    18: "65c8fabad9dfb93712976d9274fe4d863f320bab5cfb5951acf07674ecbccc9e",
    19: "040f88fff920f4010bba3bc999837731d472fbcd9345e894c1c7a0ac42471f78",
    20: "5a4d5112ef02f1912f30aad55dc63c301ab1fb033a2aca7d1cecad020d487167",
    21: "69d866a309597c7e83bc2be904d978916d8433f5ec4ac5c1a200002881f4a180",
    22: "cc72f4ba800b421001e9653c8421323bde4e9194c47dbc6a5d749e7782c4b859",
    23: "c2c927790c6d4ecc35d343b27c59a547490ee97fc347b47a51fc4a22b3315c15",
    24: "640b9084b892e7991350a90afa375eff54dadd8cd799a47c80dc62aece7b29e7",
    25: "c5c631293a3dbe80c10aff0339af24f65bc931bd6f81031fc912b2e3902059fa",
    26: "3ed8831154d8b35efccaf1702a1c529911b14f6de8a686fd6074ad137b6c92e8",
    27: "e7fe3357bf95ee59ce014e29fa183190a7b98ecc3aaa089487c3487bb733c9eb",
    28: "494973341908b796b18a4d5a7262fba532830499cbb6401012306ed4428b14c1",
    29: "4bc593cf4ba85937d6fca76a02ce44433d47ecded01c7c442059f1e22b4f5f1e",
    30: "03a12e26fe141758c51715ec7cd9722cbedb93396ba671f6dcaf08a95aae2105",
}


def test_mj_residue_digests():
    got = {
        k: sha256(json.dumps([[g, list(mj_mod(k, g))] for g in _mj_primes(k)]))
        for k in MJ_DIGESTS
    }
    assert got == MJ_DIGESTS


# sha256 of the ascending beta-coefficients of P_k(1, beta, 0), as "num/den",
# over a range of k
PK_BETA_DIGESTS = {
    (1, 12): "7d252628c35e6d7845df79de143e0fe35b947f2d49ff082d33a8a2f187361323",
    (13, 20): "80d8c53e21ef8264d284e042091fb9eb4e264c7d70ee63a70a16da29c8a4b8b4",
}


def _pk_beta_rows(lo: int, hi: int) -> list[list[str]]:
    return [
        [format_rational(c) for c in pk_beta(k).polynomial.coeffs_in("beta")]
        for k in range(lo, hi + 1)
    ]


def test_pk_beta_coefficient_digest():
    rows = _pk_beta_rows(1, 12)
    assert rows[2] == ["1/360", "-1/72", "1/90"]
    assert sha256(json.dumps(rows)) == PK_BETA_DIGESTS[1, 12]


def test_pk_beta_coefficient_digest_large_k():
    assert sha256(json.dumps(_pk_beta_rows(13, 20))) == PK_BETA_DIGESTS[13, 20]


def test_pk_beta_fills_the_memo_below_k(monkeypatch):
    # P_20's kernel run holds every P_k, k < 20, as a leading minor
    monkeypatch.setattr(giambelli, "_MEMO", {})
    pk_beta(20)
    runs = []
    monkeypatch.setattr(poly, "det_mod_univariate", lambda *args: runs.append(args))
    got = {r: sha256(json.dumps(_pk_beta_rows(*r))) for r in PK_BETA_DIGESTS}
    assert got == PK_BETA_DIGESTS and runs == []


def test_pk_beta_algorithm_strings():
    # printed by `hecke pk --variant beta`
    assert pk_beta(1).algorithm == "numeric"
    assert {pk_beta(k).algorithm for k in range(2, 21)} == {"evaluate-interpolate"}


@pytest.mark.parametrize("x", [Fraction(-1, 3), Fraction(7, 2), Fraction(1, 4)])
def test_pk_beta_off_node_values(x):
    # interpolation nodes are the integers 0..B; these points are not nodes
    for k in range(1, 15):
        assert evaluate(pk_beta(k).polynomial, beta=x) == pk_eval(k, 1, x, 0)


# sha256 of json.dumps(pk_full(k).polynomial.to_json_obj())
PK_FULL_DIGESTS = {
    1: "7292bff3f32df1dc3890ef41019fad9993dfd48bedeb38c609b259aca4a03dc1",
    2: "4fa8e5fb23c6ca0c392aacd08415b8e744933ce74e29c96f324c8231ddf8646a",
    3: "539194f775aa6c0d2ac2d9a2f616f82eafcac8ca9115cba267c37c6cdb69889a",
    4: "7b6821043f0ce943fd949b1e2fee98811ff2d3032018ed491249306b3f3998fb",
    5: "980586c7c7682907e91797d276c2c1abfe29f798b6ecaa9f916f2c59b4d4bb98",
    6: "63fa43b524248ba0e42e21c0265c7aeb8a40af555777f205eb48bb0af95a419d",
    7: "1ec67f36e747e9952f2a73bff3c6fb29983aaede8e48620034989dc5d42b907e",
    8: "9a1738c0b97cdb5bd599438e7d7d0d2c9ddaf9ba900a199c1f821d2d787325e3",
    9: "f87af9c2fa314923e0c3afb162e483bca8b2415a58d4f7f8d5dd9759ab27687d",
}


def test_pk_full_digests():
    got = {
        k: sha256(json.dumps(pk_full(k).polynomial.to_json_obj()))
        for k in PK_FULL_DIGESTS
    }
    assert got == PK_FULL_DIGESTS


def _off_slice_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        h, beta, gamma = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if h != 1 and gamma.denominator > 1:
            return h, beta, gamma


@pytest.mark.parametrize("k", [10, 11, 12])
def test_pk_full_off_slice_values(k):
    rng = random.Random(1000 + k)
    poly = pk_full(k).polynomial
    for _ in range(6):
        h, beta, gamma = _off_slice_point(rng)
        assert evaluate(poly, h=h, beta=beta, gamma=gamma) == pk_eval(k, h, beta, gamma)


# Certificate.hash() of rational_certificate(g, k, budget=8); recorded from the
# pairing that expanded each h^r in the basis {1, h}
RATIONAL_HASHES = {
    (5, 2): "1c6d686cc72c045a635b89319d30362488cf762be4d4ddfac948825d6f9b3917",
    (8, 3): "90c193f86a75981085b6136923817ba33ab9fe75e3202708a67edad1c42e1482",
    (12, 4): "9b34bcc8e201de506ae486f16ea06fc71fd6954ef20c605d280624c0facc3f4d",
    (16, 5): "03e66fba1771bf8b5dc5cd12c59ae4b7fb21aabc1420d7da392d1a3635a2fbf9",
    (22, 6): "84b28df31051e24121c3fecc94964bb9f4c97641e7e2a687fb8cd72fa87ec154",
    (13, 8): "2155ddcd0acf37639e941f88c847764717bd4d9bd2ed4c59cfad12ce6672edd4",
    (16, 9): "396e76f5249f79ef997994c4e1e90f49e551538da94c39cf2f304bfd9f3e8ad1",
    (20, 10): "42af130051fb0684328e5f7f1edd3e21895c2ab885df0135c9adde9ec4b120c6",
    (27, 12): "c286d268ddb1afd91db66e2ef2c7de339f78311eda2736f8935ae0bb9ffdb210",
    (28, 12): "aabbfc8a120cb5928e099de0f56055ecfc4947684932007a38fc48153388e206",
}


def test_rational_certificate_hashes():
    got = {gk: rational_certificate(*gk, budget=8).certificate.hash() for gk in RATIONAL_HASHES}
    assert got == RATIONAL_HASHES


# sha256 of json.dumps of the format_rational pairings of P_k with the first
# 20 candidate monomials at (g, k); the lists hold zeros and monomials other
# than alpha h^e
PAIRING_DIGESTS = {
    (8, 3): "fd356209beedd3dbafa47f61657bc9064c2d37da22c795108fb8c060b07b9d5d",
    (12, 4): "661b7a002811706ce88b18ce67c9a3c17e37319da7f95de3aa51a9e471d83bda",
    (22, 6): "317e18cdf6b939158b6bc064efbfce01f969a6043bb01169a12cb0a6ba3b658f",
    (15, 8): "4b0bb4459f637412169101a083bc34fe465072ac163f203dbd49232350db6b0f",
}


def test_pairing_digests():
    got = {}
    for g, k in PAIRING_DIGESTS:
        pk = pk_full(k).polynomial
        e = 3 * g - 3 - k * (k + 1) // 2
        monos = itertools.islice(candidate_monomials(e), 20)
        got[g, k] = sha256(
            json.dumps([format_rational(pair_with_monomial(pk, m, g)) for m in monos])
        )
    assert got == PAIRING_DIGESTS
