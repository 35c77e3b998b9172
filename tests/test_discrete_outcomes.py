"""The discrete outcomes of every benchmark case stay as recorded.

`tools/parity.py record` runs each case of `perfbench/workloads.py` for the
seeds 7 and 3 (about 2 s). Of each case this test keeps only what names an
outcome: the exit code, the benchmark's judge, an error, and every leaf
called ``verdict``, ``stop`` or ``status`` (the report's verdict, the
solver's stop, certificate statuses). It compares them with
``discrete_outcomes.json`` and names each case and leaf that moved. Floats,
digests and written files are left to a full ``parity.py diff``.

After a change that moves an outcome on purpose, rewrite the file with

    python tests/test_discrete_outcomes.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"
EXPECTED = Path(__file__).with_name("discrete_outcomes.json")
SEEDS = ["7", "3"]


def outcomes(record: dict) -> dict:
    """The outcome leaves of a `parity.py record` document, case by case."""
    def kept(leaf: str) -> bool:
        return leaf in ("exit", "judge") or leaf.startswith("error") or leaf.rsplit(".", 1)[-1] in (
            "verdict", "stop", "status")

    return {case: {leaf: value for leaf, value in entry.items() if kept(leaf)}
            for case, entry in record["cases"].items()}


def record(out: Path) -> dict:
    """The outcomes of this checkout's cases, with the numpy and scipy they ran on."""
    subprocess.run([sys.executable, str(TOOL), "record", str(ROOT), str(out), "--seeds", *SEEDS],
                   check=True, capture_output=True)
    doc = json.loads(out.read_text())
    return {"provenance": {key: doc["provenance"][key] for key in ("numpy", "scipy")}, "cases": outcomes(doc)}


def test_discrete_outcomes_stay_as_recorded(tmp_path):
    got = tmp_path / "outcomes.json"
    got.write_text(json.dumps(record(tmp_path / "record.json")))
    done = subprocess.run([sys.executable, str(TOOL), "diff", str(EXPECTED), str(got)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = record(Path(tmp) / "record.json")
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc['cases'])} cases written to {EXPECTED}")
