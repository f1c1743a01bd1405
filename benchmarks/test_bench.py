"""Tests of the benchmark itself (not collected by the library's test suite).

Run from the root of a checkout:  python3 -m pytest -q benchmarks
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 5])
def test_smoke(name, seed):
    """One tiny pass per workload: digest checks for the default seed,
    oracle checks for another seed."""
    result, info = run.run_workload(name, seed, 0, trace=False, limit=4)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 and info["passes"] == 1
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_queries():
    lib = run.import_library()
    for workload in WORKLOADS.values():
        a = workload.make_queries(lib, random.Random(3))
        b = workload.make_queries(lib, random.Random(3))
        assert a == b


def test_corrupted_digest_counts_as_failure():
    lib = run.import_library()
    first = WORKLOADS["hecke"].make_queries(lib, random.Random(run.DEFAULT_SEED))[0]
    expected = dict(run.load_digests("hecke"))
    key = run.query_key(first)
    expected[key] = "0" * 16
    result, _ = run.run_workload("hecke", run.DEFAULT_SEED, 0, trace=False,
                                 expected=expected, limit=3)
    assert result["failed"] >= 1 and not result["correct"]


def test_wrong_output_fails_oracle(monkeypatch):
    """A non-default seed is checked by oracles, which catch a wrong answer."""
    hecke = WORKLOADS["hecke"]
    real = hecke.execute

    def doubled(lib, state, query):
        raw = real(lib, state, query)
        return raw + raw
    monkeypatch.setattr(hecke, "execute", doubled)
    result, _ = run.run_workload("hecke", 5, 0, trace=False, limit=3)
    assert result["failed"] == 3


def test_trace_emits_per_layer_metrics(tmp_path):
    out = tmp_path / "spans.jsonl"
    result, _ = run.run_workload("hecke", 5, 0, trace=True, limit=3,
                                 trace_out=str(out))
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == names("per_layer")
    assert metrics["charring.lusztig_q.calls"]["value"] == 0
    assert metrics["affweyl.aff_mul.calls"]["value"] > 0
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert {s["layer"] for s in spans} >= {"query", "heckebraid"}
    ids = {s["span"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_tracer_restores_library():
    lib = run.import_library()
    from tracer import Tracer
    before = lib.heckebraid.aff_mul, lib.laurent.LaurentPoly.__mul__
    tracer = Tracer(lib)
    tracer.install()
    assert lib.heckebraid.aff_mul is lib.affweyl.aff_mul is not before[0]
    tracer.uninstall()
    assert (lib.heckebraid.aff_mul, lib.laurent.LaurentPoly.__mul__) == before


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hecke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
