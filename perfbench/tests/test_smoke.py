"""Smoke tests for the benchmark itself, on the small input sizes.

    python3 -m pytest perfbench/tests -q

They are not part of the library's test suite (pytest's testpaths there is
``tests/``), so they add nothing to its run time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, out = run_bench("--workload", workload, "--seed", "3", "--trace", str(trace),
                          "--size", "smoke")
    assert code == 0
    res = result_line(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_wrong_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected["modcert"]["11"]["hash"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    code, out = run_bench("--workload", "modcert", "--seed", "3", "--size", "smoke",
                          "--expected", str(path))
    res = result_line(out)
    assert code != 0
    assert res["correct"] is False
    assert res["failed"] > 0
    assert res["metrics"]["pass_ratio"]["value"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_passes_agree(workload, tmp_path):
    outputs = []
    for trace in ("0", "1"):
        store = tmp_path / f"store{trace}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", "5", "--size", "smoke", "--trace", trace, "--store", str(store),
             "--t0", repr(time.perf_counter())],
            capture_output=True, text=True, check=True, timeout=170,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0
        assert ("layers" in res) == (trace == "1")
        outputs.append(res["outputs_sha256"])
    assert outputs[0] == outputs[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, out = run_bench("--workload", "grid", "--seed", "1", cwd=tmp_path)
    assert code != 0
    assert out == ""
