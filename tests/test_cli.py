"""End-to-end command line behaviour, including exit codes and caching."""

import json

import pytest

from heckebn import giambelli, suites
from heckebn.cli import main
from heckebn.store import Store
from heckebn.suites import SuiteCheck, SuiteReport


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gk_gpk(capsys):
    code, out, _ = run_cli(capsys, "gk", "--k", "8")
    assert (code, out.strip()) == (0, "17")
    code, out, _ = run_cli(capsys, "gpk", "--k", "17")
    assert (code, out.strip()) == (0, "53")


def test_pk_eval(capsys):
    code, out, _ = run_cli(
        capsys, "pk-eval", "--k", "3", "--h", "1", "--beta", "4", "--gamma", "0"
    )
    assert (code, out.strip()) == (0, "1/8")
    code, out, _ = run_cli(
        capsys, "pk-eval", "--k", "2", "--h", "1/2", "--beta=-3/7",
        "--gamma", "2",
    )
    assert code == 0 and out.strip() == "81/112"


def test_pk_json(capsys):
    code, out, _ = run_cli(capsys, "pk", "--k", "2", "--variant", "full")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["variant"] == "full"
    terms = {tuple(t["e"]): t["c"] for t in obj["poly"]}
    assert terms[(3, 0, 0, 0)] == "1/6"
    assert terms[(1, 0, 1, 0)] == "-1/6"
    assert terms[(0, 0, 0, 1)] == "1/3"


def test_pk_full_limit_message(capsys):
    # the CLI has no way to lift the limit, so the message names only the limit
    code, out, err = run_cli(capsys, "pk", "--k", "13", "--variant", "full")
    assert code == 2 and out == ""
    assert "limited to k <= 12" in err and "force" not in err


def test_thaddeus(capsys):
    code, out, _ = run_cli(
        capsys, "thaddeus", "--g", "2", "--m", "3", "--n", "0", "--p", "0"
    )
    assert (code, out.strip()) == (0, "4")
    code, _, err = run_cli(
        capsys, "thaddeus", "--g", "2", "--m", "1", "--n", "0", "--p", "0"
    )
    assert code == 2 and "error" in err
    code, out, err = run_cli(
        capsys, "thaddeus", "--g", "1", "--m", "0", "--n", "0", "--p", "0"
    )
    assert (code, out) == (2, "") and "genus must be >= 2" in err


def test_mod_cert(capsys, isolated_cache):
    code, out, _ = run_cli(capsys, "mod-cert", "--k", "3", "--prime", "11")
    assert code == 0
    obj = json.loads(out)
    assert obj["criterion"] == "e6.1"
    assert obj["witness_residue"] == "4"
    cert = Store(isolated_cache / "cache").get_certificate("modular", 3, 11)
    assert cert is not None and cert.to_json_obj() == obj


def test_mod_cert_above_the_float_bound_reads_the_stored_pk(capsys, isolated_cache, monkeypatch):
    # above the kernel's float64 bound mj_mod reduces P_12(1, beta, 0) mod the
    # prime; a second process on the same cache reads P_12 from the store
    slices = []
    pk_slice = giambelli._pk_slice
    monkeypatch.setattr(giambelli, "_pk_slice", lambda *args: slices.append(args) or pk_slice(*args))
    outs = []
    for _ in range(2):
        monkeypatch.setattr(giambelli, "_MEMO", {})  # as in a fresh process
        outs.append(run_cli(capsys, "mod-cert", "--k", "12", "--prime", "33554467"))
    assert len(slices) == 1
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_mod_cert_inapplicable(capsys):
    code, _, err = run_cli(capsys, "mod-cert", "--k", "8")
    assert code == 3
    assert "inapplicable" in err
    code, _, err = run_cli(capsys, "mod-cert", "--k", "3", "--prime", "5")
    assert code == 3
    # 47 > 2k, but the expected dimension is negative there
    code, _, err = run_cli(capsys, "mod-cert", "--k", "17", "--prime", "47")
    assert code == 3 and "inapplicable" in err


def test_mod_cert_rejects_non_prime(capsys):
    # a g that is not an odd prime is a usage error, not an inapplicable prime
    for g in ("15", "2"):
        code, out, err = run_cli(capsys, "mod-cert", "--k", "3", "--prime", g)
        assert (code, out) == (2, "") and "not an odd prime" in err


def test_rational_cert(capsys):
    code, out, _ = run_cli(capsys, "rational-cert", "--g", "3", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["criterion"] == "pairing"
    assert obj["monomial"] == ["1", "0", "0", "5"]
    assert obj["witness_value"] == "8"
    code, _, err = run_cli(capsys, "rational-cert", "--g", "3", "--k", "4")
    assert code == 3 and "negative" in err


def test_rational_cert_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "rational-cert", "--g", "5", "--k", "2", "--budget", "0"
    )
    assert code == 0
    assert json.loads(out) == {"status": "inconclusive", "g": 5, "k": 2}


def test_rational_cert_negative_budget(capsys):
    code, out, err = run_cli(
        capsys, "rational-cert", "--g", "5", "--k", "2", "--budget", "-5"
    )
    assert (code, out) == (2, "") and "budget" in err


def test_verdict_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "--g", "13..17", "--k", "8",
        "--assumption", "general",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("g,k,beta,")
    row17 = lines[-1].split(",")
    assert row17[:6] == ["17", "8", "12", "NONZERO", "NONEMPTY", "petri"]


def test_verdict_out_file_and_json(capsys, isolated_cache):
    path = isolated_cache / "table.json"
    code, out, _ = run_cli(
        capsys, "verdict", "--g", "2..4", "--k", "4", "--assumption", "any",
        "--format", "json", "--out", str(path),
    )
    assert code == 0 and out == ""
    rows = json.loads(path.read_text())
    assert [r["locus_status"] for r in rows] == ["EMPTY", "UNKNOWN", "UNKNOWN"]
    assert [r["class_status"] for r in rows] == ["ZERO", "ZERO", "NONZERO"]


def test_verdict_bad_path(capsys, isolated_cache):
    code, _, err = run_cli(
        capsys, "verdict", "--g", "3", "--k", "1",
        "--out", str(isolated_cache / "missing-dir" / "t.csv"),
    )
    assert code == 2
    assert "t.csv" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["failed"] == 0


def test_verify_fail_exit_code(capsys, monkeypatch):
    def broken():
        return [SuiteCheck("demo", False, "forced failure")]

    monkeypatch.setitem(suites.SUITE_NAMES, "broken", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "broken")
    assert code == 2
    obj = json.loads(out)
    assert obj["counterexamples"] == [
        {"label": "demo", "detail": "forced failure"}
    ]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_suite_report_shape():
    report = SuiteReport("demo", (SuiteCheck("a", True), SuiteCheck("b", True)))
    assert report.passed and report.failures() == []
    assert report.to_json_obj()["total"] == 2
