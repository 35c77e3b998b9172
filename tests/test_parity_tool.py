"""tools/parity.py: digests are exact and repeatable, and diff names what moved."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kypcert import fixture

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    # the tool pins BLAS threads in the environment when imported
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ.clear()
    os.environ.update(saved)
    return module


def test_leaves_are_exact(parity):
    r = fixture("F1")
    base = parity.leaves({"r": r, "x": 0.1, "tag": (1, "a")}, "result", {})
    assert base["result.x"] == "0.1" and base["result.tag[0]"] == 1 and base["result.tag[1]"] == "a"
    assert base["result.r.type"] == "Realization" and base["result.r.n"] == 2
    a = np.array(r.A)
    a[0, 0] = np.nextafter(a[0, 0].real, np.inf)
    moved = parity.leaves({"r": type(r)(n=2, m=2, A=a, B=r.B, C=r.C, D=r.D), "x": 0.1, "tag": (1, "a")},
                          "result", {})
    assert [k for k in base if base[k] != moved[k]] == ["result.r.A"]


def test_diff_names_the_moved_leaf(parity):
    a = {"provenance": {}, "cases": {"w/7/x": {"exit": 0, "judge": "ok"}, "w/7/y": {"exit": 0}}}
    b = {"provenance": {}, "cases": {"w/7/x": {"exit": 1, "judge": "ok"}, "w/7/z": {"exit": 0}}}
    out = parity.diff(a, b)
    assert list(out) == ["w/7/x", "w/7/y", "w/7/z"]
    assert out["w/7/x"] == ["exit: 0 -> 1"]
    assert out["w/7/y"] == ["only in A"] and out["w/7/z"] == ["only in B"]


def test_diff_sees_a_change_of_indentation(parity, tmp_path):
    report = {"verdict": "pass", "p": [[[1.0, 0.0]]]}

    def record(indent):
        case = SimpleNamespace(call=lambda: (0, json.dumps(report, indent=indent)), judge=lambda result: ("ok",))
        return {"provenance": {}, "cases": {"w/7/x": parity.run_case(case, tmp_path)}}

    out = parity.diff(record(2), record(1))
    assert list(out) == ["w/7/x"]
    assert len(out["w/7/x"]) == 1 and out["w/7/x"][0].startswith("stdout:raw: ")


def test_records_of_one_checkout_agree(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        subprocess.run([sys.executable, str(TOOL), "record", str(ROOT), str(out), "--seeds", "7", "--tiny"],
                       check=True, capture_output=True)
    done = subprocess.run([sys.executable, str(TOOL), "diff", *map(str, outs)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
    assert done.stdout.strip().endswith("0 differ")
