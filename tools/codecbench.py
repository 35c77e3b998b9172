"""Time the JSON codec of one checkout: CPU time per call, BLAS at one thread.

    python tools/codecbench.py SRC

Imports ``kypcert`` from ``SRC/src`` and prints, in ms per call (the median
of ``REPEATS`` timed loops):

* ``save_realization``: writing an N x N realization with M inputs to a file;
* ``decode_matrix``: reading its parsed N x N block ``A``;
* writing the report that ``kypcert check --family p --solve --deterministic``
  prints for fixture ``F1``: by ``json.dumps(indent=2, sort_keys=True)`` of its
  list form, and by ``serialization._dumps`` with the certificate's ``p`` as an
  array, as ``kypcert`` writes it (skipped where ``_dumps`` takes lists only).

Run it on two checkouts on the same machine to compare them.
"""

import os

# BLAS threads are fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

N, M, REPEATS = 64, 4, 7


def per_call_ms(fn, budget_s: float = 0.2) -> float:
    """Median CPU ms per call over REPEATS loops of about `budget_s` each."""
    start = time.process_time()
    fn()
    loops = max(1, int(budget_s / max(time.process_time() - start, 1e-6)))
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        for _ in range(loops):
            fn()
        times.append((time.process_time() - start) / loops)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from kypcert import Realization, cli, fixture, save_realization, serialization

    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((N, N), (N, M), (M, N), (M, M))]
    r = Realization(N, M, *blocks)
    with tempfile.TemporaryDirectory(prefix="codecbench-") as tmp:
        doc_path, fixture_path = Path(tmp) / "r.json", Path(tmp) / "f1.json"
        print(f"save_realization  n={N}  {per_call_ms(lambda: save_realization(doc_path, r)):8.3f} ms")
        block = json.loads(doc_path.read_text())["A"]
        print(f"decode_matrix     n={N}  {per_call_ms(lambda: serialization.decode_matrix(block, N, N)):8.3f} ms")

        save_realization(fixture_path, fixture("F1"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", "--family", "p", "--solve", "--deterministic", str(fixture_path)])
    report = json.loads(out.getvalue())
    ms = per_call_ms(lambda: json.dumps(report, indent=2, sort_keys=True))
    print(f"check --solve F1 report, json.dumps  {ms * 1e3:8.1f} us")
    report["certificate"]["p"] = serialization.decode_matrix(report["certificate"]["p"])
    try:
        ms = per_call_ms(lambda: serialization._dumps(report))
    except TypeError:  # a writer of the list form only, that is json.dumps itself
        return 0
    print(f"check --solve F1 report, _dumps      {ms * 1e3:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
