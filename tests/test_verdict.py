"""Decision engine, exception rows, level filtering, store, and tables."""

import dataclasses
import hashlib
import json
import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckebn.certificates import Certificate, canonical_json_bytes
from heckebn.giambelli import pk_beta
from heckebn.hecke import rational_certificate
from heckebn.modular import certify_mod
from heckebn.store import Store
from heckebn.verdict import (
    ANY_CURVE,
    CSV_HEADER,
    GENERAL,
    PETRI,
    Verdict,
    beta_rank2,
    decide,
    emit_table,
    twisted_bounds,
)
from oracles import beta_rank1


def test_beta_rank2():
    assert beta_rank2(13, 8) == 0
    assert beta_rank2(3, 4) == -4
    assert beta_rank2(2, 1) == 2
    with pytest.raises(ValueError):
        beta_rank2(1, 1)


def test_beta_rank1():
    assert beta_rank1(4, 3, 1) == 3
    # negative: no line bundles of degree 2 with two sections at genus 4
    assert beta_rank1(4, 2, 2) == -2
    for g in (2, 5, 9):
        assert beta_rank1(g, g - 1, 1) == g - 1


def test_rational_fallback_skipped_above_pk_full_limit():
    # (32, 13) has beta >= 0 and no modular certificate or gate; the pairing
    # fallback would need P_13 over Q, which is above the default limit
    v = decide(32, 13, rational_budget=8)
    assert v.class_status == "UNKNOWN"
    assert v == decide(32, 13)


def test_first_unknown_case():
    v = decide(13, 8)
    assert v.class_status == "UNKNOWN"
    assert v.locus_status == "UNKNOWN"
    assert v.assumption == GENERAL
    assert v.certificate is None


def test_quarter_square_gate():
    v = decide(16, 8)
    assert v.class_status == "UNKNOWN"
    assert v.locus_status == "NONEMPTY"
    assert v.assumption == GENERAL
    assert "teixidor" in v.witness_rule


def test_direct_certificate_and_transfer():
    v = decide(17, 8)
    assert v.class_status == "NONZERO"
    assert v.locus_status == "NONEMPTY"
    assert v.assumption == PETRI
    assert v.certificate is not None and v.certificate.g0 == 17
    assert "petri-transfer" in v.witness_rule


def test_monotone_witness():
    v = decide(18, 8)
    assert v.class_status == "NONZERO"
    assert v.certificate.g0 == 17
    assert "+monotone" in v.witness_rule


def test_exception_rows():
    cases = {
        (2, 1): ("NONZERO", "NONEMPTY", ANY_CURVE),
        (2, 2): ("NONZERO", "EMPTY", ANY_CURVE),
        (2, 3): ("ZERO", "EMPTY", ANY_CURVE),
        (2, 9): ("ZERO", "EMPTY", ANY_CURVE),
        (3, 4): ("ZERO", "EMPTY", GENERAL),
        (4, 4): ("NONZERO", "EMPTY", PETRI),
    }
    for (g, k), (cstat, lstat, level) in cases.items():
        v = decide(g, k)
        assert (v.class_status, v.locus_status, v.assumption) == (
            cstat, lstat, level,
        ), (g, k)
        assert "exception" in v.witness_rule


def test_level_filtering():
    # the (3,4) emptiness claim needs a general curve; the class vanishing
    # is a ring fact and survives at weaker levels
    v = decide(3, 4, assumption=PETRI)
    assert v.class_status == "ZERO"
    assert v.locus_status == "UNKNOWN"
    assert v.assumption == ANY_CURVE
    v = decide(23, 11, assumption=ANY_CURVE)
    assert v.class_status == "NONZERO"
    assert v.locus_status == "UNKNOWN"
    v = decide(16, 8, assumption=PETRI)
    assert v.locus_status == "UNKNOWN"
    with pytest.raises(ValueError):
        decide(5, 1, assumption="generic")


def test_conjecture_range_certified():
    v = decide(23, 11)
    assert v.class_status == "NONZERO"
    assert v.locus_status == "NONEMPTY"
    assert v.assumption == PETRI
    assert v.certificate.g0 == 23


def test_expected_dim_gate_any_curve():
    v = decide(12, 4, assumption=ANY_CURVE)
    assert v.locus_status == "NONEMPTY"
    assert v.assumption == ANY_CURVE
    assert "expected-dim-gate" in v.witness_rule


def test_negative_beta_general_only():
    v = decide(4, 5)
    assert v.beta == -6
    assert v.locus_status == "EMPTY"
    assert v.assumption == GENERAL
    v = decide(4, 5, assumption=PETRI)
    assert v.locus_status == "UNKNOWN"


def test_never_nonempty_below_zero():
    for g in range(2, 12):
        for k in range(1, 9):
            if beta_rank2(g, k) < 0:
                for level in (ANY_CURVE, PETRI, GENERAL):
                    assert decide(g, k, level).locus_status != "NONEMPTY", (g, k)


def test_class_monotone_in_genus():
    # once NONZERO at some genus, NONZERO at every larger genus
    for k in (1, 2, 5, 8):
        seen = False
        for g in range(2, 26):
            status = decide(g, k).class_status
            if seen:
                assert status == "NONZERO", (g, k)
            seen = status == "NONZERO" and (g, k) not in ((2, 1), (2, 2))
    # ZERO never appears outside the exception rows
    for k in (1, 3, 6, 9):
        for g in range(3, 20):
            if (g, k) not in ((3, 4), (4, 4)):
                assert decide(g, k).class_status != "ZERO"


def test_twisted_bounds():
    assert twisted_bounds(23, 11, class_nonzero=True) == (1, 11)
    assert twisted_bounds(17, 8, class_nonzero=True) == (13, 20)
    assert twisted_bounds(3, 1, class_nonzero=True) == (6, None)
    assert twisted_bounds(5, 2, class_nonzero=False) == (None, 11)
    assert twisted_bounds(5, 2, class_nonzero=False, level=PETRI) == (None, None)
    v = decide(17, 8)
    assert (v.twisted_lower, v.twisted_upper) == (13, 20)


def test_store_round_trip(tmp_path):
    store = Store(tmp_path)
    cert = certify_mod(10)
    digest = store.put_certificate(cert)
    assert store.put_certificate(cert) == digest
    back = store.get_certificate("modular", 10, cert.g0)
    assert back == cert
    assert store.get_certificate("modular", 10, 9973) is None
    path = tmp_path / f"cert@modular@10@{cert.g0}"
    assert path.read_bytes() == digest.encode() + b"\n" + canonical_json_bytes(cert.to_json_obj())
    rec = pk_beta(4, store=store)
    again = store.get_pk_record(4, "beta")
    assert again is not None and again.polynomial == rec.polynomial
    # one file per key: no refs/ directory and no digest-named blob
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, "pk@beta@4"]


def test_store_rejects_corruption(tmp_path):
    store = Store(tmp_path)
    cert = certify_mod(11)
    store.put_certificate(cert)
    path = tmp_path / f"cert@modular@11@{cert.g0}"
    header, body = path.read_bytes().split(b"\n", 1)
    obj = json.loads(body)
    obj["witness_residue"] = "1"
    path.write_bytes(header + b"\n" + json.dumps(obj).encode())
    assert store.get_certificate("modular", 11, cert.g0) is None


def _put_by_hand(store: Store, name: str, obj) -> None:
    """Write obj as the file name under a header whose sha256 checks out."""
    data = canonical_json_bytes(obj)
    (store.root / name).write_bytes(hashlib.sha256(data).hexdigest().encode() + b"\n" + data)


@pytest.mark.parametrize("bad", [5, None, [1]], ids=["int", "null", "list"])
def test_store_rejects_non_string_coefficient(tmp_path, bad):
    # one coefficient that is not a "num/den" string
    store = Store(tmp_path)
    obj = pk_beta(4).to_json_obj()
    obj["poly"][0]["c"] = bad
    _put_by_hand(store, "pk@beta@4", obj)
    assert store.get_pk_record(4, "beta") is None


@pytest.mark.parametrize("bad", [[0, 0, 1.5, 0], [0, 0, "1", 0], [0, 0, True, 0]],
                         ids=["float", "str", "bool"])
def test_store_rejects_non_int_exponent(tmp_path, bad):
    # each of these once read as beta^1
    store = Store(tmp_path)
    obj = pk_beta(4).to_json_obj()
    obj["poly"][0]["e"] = bad
    _put_by_hand(store, "pk@beta@4", obj)
    assert store.get_pk_record(4, "beta") is None


@pytest.mark.parametrize("bad", [3.7, 3.0, "3"], ids=["float", "whole-float", "str"])
def test_store_rejects_non_int_record_k(tmp_path, bad):
    # each of these once read as k = 3
    store = Store(tmp_path)
    obj = pk_beta(3).to_json_obj()
    obj["k"] = bad
    _put_by_hand(store, "pk@beta@3", obj)
    assert store.get_pk_record(3, "beta") is None


@pytest.mark.parametrize(
    "key, bad",
    [("k", 10.0), ("k", "1_0"), ("k", " 10"), ("k", "+10"), ("k", "010"),
     ("ell", "-0")],
    ids=["float", "underscore", "space", "plus", "leading-zero", "minus-zero"],
)
def test_store_rejects_non_canonical_certificate_integer(tmp_path, key, bad):
    # integer fields are decimal strings exactly as str(int) writes them;
    # each of these once read as the true value (k = 10, ell = 0)
    store = Store(tmp_path)
    cert = certify_mod(10)
    assert cert.ell == 0
    obj = {**cert.to_json_obj(), key: bad}
    _put_by_hand(store, f"cert@modular@10@{cert.g0}", obj)
    assert store.get_certificate("modular", 10, cert.g0) is None


@pytest.mark.parametrize("key", ["M_indices_used", "M_values_used"])
def test_store_rejects_string_for_modular_list(tmp_path, key):
    # at (k, g0) = (2, 5) every index and value is one digit, so the string
    # "024" once read as the true indices (0, 2, 4)
    store = Store(tmp_path)
    cert = certify_mod(2, 5)
    obj = cert.to_json_obj()
    obj[key] = "".join(obj[key])
    _put_by_hand(store, "cert@modular@2@5", obj)
    assert store.get_certificate("modular", 2, 5) is None


def test_store_rejects_string_for_monomial(tmp_path):
    # the monomial (1, 0, 0, 9) written as "1009" once read back unchanged
    store = Store(tmp_path)
    cert = rational_certificate(5, 2).certificate
    assert cert.monomial == (1, 0, 0, 9)
    obj = {**cert.to_json_obj(), "monomial": "1009"}
    _put_by_hand(store, "cert@rational@2@5", obj)
    assert store.get_certificate("rational", 2, 5) is None
    obj["monomial"] = list(obj["monomial"])
    _put_by_hand(store, "cert@rational@2@5", obj)
    assert store.get_certificate("rational", 2, 5) == cert


@pytest.mark.parametrize("bad", ["3392.0", "6784/2", " 3392", "3.392e3"], ids=repr)
def test_store_rejects_non_canonical_witness_value(tmp_path, bad):
    # each of these parses as the witness 3392 and once read back as the true
    # certificate; stored rationals are read only as format_rational writes them
    store = Store(tmp_path)
    cert = rational_certificate(5, 2).certificate
    assert cert.to_json_obj()["witness_value"] == "3392"
    _put_by_hand(store, "cert@rational@2@5", {**cert.to_json_obj(), "witness_value": bad})
    assert store.get_certificate("rational", 2, 5) is None
    _put_by_hand(store, "cert@rational@2@5", cert.to_json_obj())
    assert store.get_certificate("rational", 2, 5) == cert


@pytest.mark.parametrize("bad", ["2/180", " 1/90", "+1/90", "1/090", "1_0/900"], ids=repr)
def test_store_rejects_non_canonical_coefficient(tmp_path, bad):
    # the beta^2 coefficient 1/90 of P_3 in forms Fraction also parses
    store = Store(tmp_path)
    obj = pk_beta(3).to_json_obj()
    assert obj["poly"][2] == {"e": [0, 0, 2, 0], "c": "1/90"}
    obj["poly"][2]["c"] = bad
    _put_by_hand(store, "pk@beta@3", obj)
    assert store.get_pk_record(3, "beta") is None


@pytest.mark.parametrize("bad", ["1", "0", 52, "052", None], ids=repr)
def test_store_rejects_unit_other_than_g0_minus_one(tmp_path, bad):
    # the unit (g0-1)! 2^(g0-1) is -1 mod g0 in every modular certificate
    store = Store(tmp_path)
    cert = certify_mod(17)
    assert cert.g0 == 53 and cert.to_json_obj()["unit"] == "52"
    obj = {**cert.to_json_obj(), "unit": bad}
    _put_by_hand(store, "cert@modular@17@53", obj)
    assert store.get_certificate("modular", 17, 53) is None


def test_store_rejects_corrupt_header(tmp_path):
    store = Store(tmp_path)
    cert, other = certify_mod(11), certify_mod(12)
    digest = store.put_certificate(cert)
    other_digest = store.put_certificate(other)
    path = tmp_path / f"cert@modular@11@{cert.g0}"
    sound = path.read_bytes()
    header, body = sound.split(b"\n", 1)
    assert header == digest.encode()
    # no path is ever read from a file, so "../x" is just a wrong header
    for content in ["not a digest", digest.upper(), digest + "\n", "0" * 64,
                    other_digest, "../x", "../store/" + digest]:
        path.write_bytes(content.encode() + b"\n" + body)
        assert store.get_certificate("modular", 11, cert.g0) is None, content
    # a sound file, but of another key
    path.write_bytes((tmp_path / f"cert@modular@12@{other.g0}").read_bytes())
    assert store.get_certificate("modular", 11, cert.g0) is None
    path.write_bytes(sound)
    assert store.get_certificate("modular", 11, cert.g0) == cert


def test_store_put_repairs_corrupt_file(tmp_path):
    store = Store(tmp_path)
    cert = certify_mod(10)
    store.put_certificate(cert)
    path = tmp_path / f"cert@modular@10@{cert.g0}"
    sound = path.read_bytes()
    path.write_bytes(sound[:-1])
    assert store.get_certificate("modular", 10, cert.g0) is None
    store.put_certificate(cert)
    assert path.read_bytes() == sound
    assert store.get_certificate("modular", 10, cert.g0) == cert


def test_store_put_replaces_record_of_same_key(tmp_path):
    store = Store(tmp_path)
    cert = certify_mod(10)
    store.put_certificate(dataclasses.replace(cert, generated_by="heckebn 0.0.1"))
    assert store.get_certificate("modular", 10, cert.g0) is None
    store.put_certificate(cert)
    assert store.get_certificate("modular", 10, cert.g0) == cert


def test_store_ignores_earlier_layouts(tmp_path):
    # a sound record in the blob-and-ref layout (<sha256>.json, and
    # refs/<key> holding that digest) and in an earlier index.json
    store = Store(tmp_path)
    cert = certify_mod(10)
    key = f"cert:modular:10:{cert.g0}"
    data = canonical_json_bytes(cert.to_json_obj())
    digest = hashlib.sha256(data).hexdigest()
    (tmp_path / f"{digest}.json").write_bytes(data)
    (tmp_path / "refs").mkdir()
    (tmp_path / "refs" / key.replace(":", "@")).write_text(digest)
    (tmp_path / "index.json").write_text(json.dumps({key: digest}))
    assert store.get_certificate("modular", 10, cert.g0) is None
    assert store.put_certificate(cert) == digest
    assert store.get_certificate("modular", 10, cert.g0) == cert


def _race_certificates(worker: int) -> list[Certificate]:
    # the store does not verify what it holds, so 40 distinct keys per worker
    # need no computation
    return [
        Certificate(kind="modular", k=10, g0=1000 + 40 * worker + j, criterion="e6.1",
                    witness_residue=1, m_indices=(0,), m_values=(1,))
        for j in range(40)
    ]


def _put_race(root: str, worker: int, barrier) -> None:
    store = Store(root)
    barrier.wait(timeout=60)
    for cert in _race_certificates(worker):
        store.put_certificate(cert)


def test_store_concurrent_writers_keep_every_key(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    procs = [ctx.Process(target=_put_race, args=(str(tmp_path), w, barrier)) for w in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(not p.is_alive() and p.exitcode == 0 for p in procs)
    store = Store(tmp_path)
    written = [c for w in range(4) for c in _race_certificates(w)]
    assert len({c.g0 for c in written}) == 160
    lost = [c.g0 for c in written if store.get_certificate("modular", 10, c.g0) != c]
    assert lost == []


@st.composite
def certificates(draw):
    k = draw(st.integers(1, 60))
    g0 = draw(st.integers(2, 10**6))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, g0), max_size=3))
        return Certificate(
            kind="modular", k=k, g0=g0, criterion=draw(st.sampled_from(["e6.1", "e6.2"])),
            ell=draw(st.integers(0, 100)), witness_residue=draw(st.integers(0, g0 - 1)), m_indices=tuple(idx),
            m_values=tuple(draw(st.integers(0, g0 - 1)) for _ in idx),
        )
    return Certificate(
        kind="rational", k=k, g0=g0, criterion="pairing",
        monomial=tuple(draw(st.lists(st.integers(0, 300), min_size=4, max_size=4))),
        witness_value=draw(st.fractions().filter(bool)),
    )


@settings(max_examples=100, deadline=None)
@given(certificates(), st.integers(min_value=0), st.integers(1, 255))
def test_certificate_and_store_round_trip(cert, pos, flip):
    assert Certificate.from_json_obj(cert.to_json_obj()) == cert
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        store.put_certificate(cert)
        assert store.get_certificate(cert.kind, cert.k, cert.g0) == cert
        # any byte of the one file, header included
        path = store.root / f"cert@{cert.kind}@{cert.k}@{cert.g0}"
        data = bytearray(path.read_bytes())
        data[pos % len(data)] ^= flip
        path.write_bytes(bytes(data))
        assert store.get_certificate(cert.kind, cert.k, cert.g0) is None


def test_store_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "envcache"))
    store = Store()
    assert store.root == tmp_path / "envcache"
    monkeypatch.delenv("HECKE_CACHE_DIR")
    monkeypatch.chdir(tmp_path)
    assert Store().root == tmp_path / ".hecke-cache"


def test_decide_uses_store_cache(tmp_path):
    store = Store(tmp_path)
    first = decide(17, 8, store=store)
    cached = store.get_certificate("modular", 8, 17)
    assert cached is not None
    second = decide(17, 8, store=store)
    assert first.to_json_obj() == second.to_json_obj()


def test_class_certificate_tries_g_then_smallest_admissible_prime(monkeypatch):
    # both inconclusive: (23, 8) falls to the prime gate, (24, 10) to nothing
    tried = []
    monkeypatch.setattr("heckebn.verdict.certify_mod", lambda k, p: tried.append((k, p)))
    v = decide(23, 8)
    assert tried == [(8, 23), (8, 17)]
    assert v.certificate is None
    assert v.class_status == "NONZERO" and v.witness_rule.startswith("class=prime-gate;")
    tried.clear()
    v = decide(24, 10)
    assert tried == [(10, 23)]
    assert v.certificate is None
    assert v.class_status == "UNKNOWN" and v.witness_rule.startswith("class=none;")


def test_emit_table_shape_and_order():
    text = emit_table(range(2, 6), range(1, 4))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 13
    cells = [line.split(",")[:2] for line in lines[1:]]
    keys = [(int(k), int(g)) for g, k in cells]
    assert keys == sorted(keys)


def test_emit_table_json_and_ranges():
    text = emit_table("4..5", "4", fmt="json")
    rows = json.loads(text)
    assert [(r["g"], r["k"]) for r in rows] == [(4, 4), (5, 4)]
    assert rows[0]["class_status"] == "NONZERO"
    assert rows[0]["locus_status"] == "EMPTY"
    with pytest.raises(ValueError):
        emit_table("3..4", "1..2", fmt="yaml")


def test_emit_table_checks_format_before_deciding(monkeypatch):
    calls = []
    monkeypatch.setattr("heckebn.verdict.decide", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown format"):
        emit_table("2..40", "1..14", fmt="xml")
    assert calls == []


def test_emit_table_deterministic(tmp_path):
    a = emit_table("2..18", "1..8", store=Store(tmp_path / "one"))
    b = emit_table("2..18", "1..8", store=Store(tmp_path / "two"))
    assert a == b


def test_warm_emit_table_writes_nothing(tmp_path):
    # os.replace makes a new inode, which shows a rewrite within one
    # timestamp tick
    def snapshot():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
                for p in tmp_path.iterdir()}

    cold = emit_table("2..18", "1..8", store=Store(tmp_path))
    before = snapshot()
    assert any(name.startswith("cert@modular@") for name in before)
    assert emit_table("2..18", "1..8", store=Store(tmp_path)) == cold
    assert snapshot() == before


def test_verdict_json_fields():
    obj = decide(17, 8).to_json_obj()
    assert set(obj) == {
        "g", "k", "beta", "class_status", "locus_status", "assumption",
        "witness_rule", "certificate_ref", "twisted_lower", "twisted_upper",
    }
    assert obj["certificate_ref"]
    bare = Verdict(
        g=5, k=1, beta=11, class_status="NONZERO", locus_status="NONEMPTY",
        assumption=ANY_CURVE, witness_rule="class=x;locus=y",
    )
    assert bare.certificate_ref == ""
