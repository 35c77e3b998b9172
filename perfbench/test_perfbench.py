"""Tests of the benchmark itself, on the tiny version of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py

The repository's own test run does not collect this file (pyproject sets
``testpaths = ["tests"]``), so it adds nothing to that run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    return run.run(run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                                   "--trace", str(trace), "--tiny"]))


def test_fixture_labels_follow_from_closed_forms():
    for (name, fam), z in wl.FIXTURE_WITNESS.items():
        inside = z.real > 0 if fam in ("p", "b") else abs(z) > 1
        assert inside, (name, fam, z)
        assert wl.margin(fam, wl.CLOSED_FORMS[name](z)) < -0.1, (name, fam)
    for name, form in wl.CLOSED_FORMS.items():
        r = wl.kc.fixture(name)
        for z in (0.3 + 1.2j, 2.0, -1.5 + 0.5j):
            assert wl.close(wl.transfer(r, z), form(z))


def test_resonance_label_and_constructed_inputs():
    assert wl.margin("b", wl.transfer(wl.resonance(), wl.RESONANCE_WITNESS)) == pytest.approx(-0.05)
    rng = np.random.default_rng(3)
    for fam in ("p", "b", "dp", "db", "eta"):
        r = wl.member(rng, fam, 5, 2)
        assert wl.certified_by_identity(r, fam)
        shifted = wl.shift_past_bound(r, fam)
        assert wl.margin(fam, shifted.D) == pytest.approx(-wl.VIOLATION)
    lossless = wl.kc.fixture("F2", a=1.7, b=-0.4)
    assert np.abs(wl.q_form(lossless, np.eye(2), "p")).max() < 1e-12


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_result_has_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = tiny(workload, 1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(report["cases"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_held_out_seed_keeps_labels_and_metric_names(workload):
    first, r1 = tiny(workload, 1, 0)
    second, r2 = tiny(workload, 2, 0)
    assert first["label_counts"] == second["label_counts"]
    assert [c["case"] for c in first["cases"]] == [c["case"] for c in second["cases"]]
    assert set(r1["metrics"]) == set(r2["metrics"])


def test_tracing_restores_the_program():
    import kypcert
    from kypcert import cli, qmi

    before = (kypcert.solve_p, cli.solve_p, qmi.verify_kyp, cli.main)
    report, result = tiny("solve-certify", 1, 1)
    assert (kypcert.solve_p, cli.solve_p, qmi.verify_kyp, cli.main) == before
    assert result["metrics"]["qmi.solve_p.calls"]["value"] == 8
    assert result["metrics"]["qmi.solve_p.verified_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "oracle-large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
