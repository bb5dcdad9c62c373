"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from knotbands import bandform

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    table, result = run_bench(
        "--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace), "--items", "3"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3 * len(WORKLOADS)
    rows = {tuple(line.split()[i] for i in (0, 1, 3)) for line in table}
    for name in WORKLOADS:
        assert (name, "fail_ratio", "ratio") in rows
        for metric in SPEC[kind]:
            assert (name, metric["name"], metric["unit"]) in rows
            printed = result["metrics"][f"{name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))


def test_single_workload_reports_exactly_the_end_to_end_metrics():
    _, result = run_bench("--workload", "cables", "--seed", "4", "--seconds", "1", "--items", "2")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _tamper(monkeypatch, i, j, delta):
    original = bandform.gl_form

    def tampered(F):
        G = [list(r) for r in original(F)]
        G[i][j] += delta
        return tuple(tuple(r) for r in G)

    monkeypatch.setattr(bandform, "gl_form", tampered)


def test_tampered_gl_form_fails_the_identities(monkeypatch):
    _tamper(monkeypatch, 0, 1, 1)
    result = worker.run_workload("surfaces", seed=5, seconds=0, trace=False, items=3)
    assert result["attempted"] == 3
    assert result["failed"] == 3
    assert sum("not symmetric" in p for p in result["problems"]) == 3


def test_tampered_gl_form_fails_the_recorded_digest(monkeypatch):
    # +2 on the diagonal keeps symmetry and parity, so on a non-orientable
    # surface only the committed output digest of seed 0 can catch it
    _tamper(monkeypatch, 0, 0, 2)
    result = worker.run_workload("surfaces", seed=worker.RECORDED_SEED, seconds=0, trace=False, items=15)
    assert result["failed"] == 15
    assert any("output digest" in p for p in result["problems"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_leaves_results_unchanged(name):
    # seed 0 compares every traced output with the recorded untraced one
    originals = dict(vars(bandform))
    result = worker.run_workload(name, seed=worker.RECORDED_SEED, seconds=0, trace=True, items=4)
    assert result["failed"] == 0, result["problems"]
    assert {k: v for k, v in vars(bandform).items() if k in originals} == originals
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]} | {"machine_speed"}
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert 0.9 < sum(shares) <= 1.0


def test_laurent_parser_reads_the_library_format():
    from workloads import parse_laurent

    assert parse_laurent("t^-1 - 1 + t") == {-1: 1, 0: -1, 1: 1}
    assert parse_laurent("-2t^-2 + 5 - 2t^2") == {-2: -2, 0: 5, 2: -2}
    assert parse_laurent("1") == {0: 1}
    with pytest.raises(ValueError):
        parse_laurent("t^^2")
