"""Smoke test of the benchmark: every workload at its tiny size, untraced and
traced, through the same code path as a full run. Nothing here asserts a
timing; the whole module takes a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from cubesieve import cube, zq  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _wrappers_left() -> list[str]:
    owners = [*tracer.MODULES, zq.SubsetWitness, tracer.primes.PrimeSet]
    return [f"{getattr(o, '__name__', o)}.{k}" for o in owners for k, v in vars(o).items()
            if getattr(v, "__qualname__", "").startswith("Tracer._wrap")]


@pytest.fixture
def no_probe(monkeypatch):
    """Skips the fresh interpreter of each setup probe; test_setup_probe
    covers it once."""
    monkeypatch.setattr(run, "probe_setup", lambda name, seed, size: (0.1, 0.008))


def test_setup_probe():
    probe, ref = run.probe_setup("f2-exact", 1, "tiny")
    assert probe > 0 and ref > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_untraced_then_traced(name, tmp_path, no_probe):
    before = tracer.bindings()
    result, record = run.run_workload(name, 1, 0, False, "tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert record["seed"] == 1 and record["passes"] == 1

    traced = []
    for _ in range(2):
        result, record = run.run_workload(name, 1, 0, True, "tiny", out_dir=tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
        assert tracer.bindings() == before
        assert _wrappers_left() == []
        traced.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert traced[0] == traced[1]
    spans = json.loads((tmp_path / f"trace-{name}-seed1.json").read_text())
    assert spans["workload"] == name and spans["spans"]


def test_failed_check_fails_the_run(monkeypatch, capsys, no_probe):
    monkeypatch.setattr(cube, "verify", lambda c, s, n: (False, c.a0))
    status = run.main(["--workload", "f2-exact", "--seconds", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f2-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
