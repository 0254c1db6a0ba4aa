"""Smoke test of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Every workload runs for a moment, traced and untraced, emits exactly the
metrics ``BENCHMARK.json`` names, and passes its correctness gate. A
stubbed failing verdict must show up as failed operations. The tier-1 run
does not collect this file: pyproject's ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, kind):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert re.search(r"error_rate 0$", proc.stdout, re.MULTILINE)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if kind == "end_to_end":
            assert m["value"] > 0, name


def test_failing_verdict_counts_as_error(monkeypatch, capsys):
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from qrelay import verify

    real = verify.check_faithful

    def failing(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), passed=False)

    monkeypatch.setattr(verify, "check_faithful", failing)
    code = run.main(["--workload", "faithful-exhaustive", "--seed", "7", "--seconds", "0.2"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("FAILED ") and "did not pass" in line for line in out)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
