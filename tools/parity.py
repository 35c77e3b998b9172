"""Record and compare what every benchmark case returns, digest by digest.

    python tools/parity.py record SRC OUT [--seeds 7 3] [--tiny]
    python tools/parity.py diff A B

``record`` imports ``kypcert`` from ``SRC/src`` and the cases from
``SRC/perfbench/workloads.py`` (every case of its three workloads, once per
seed), runs each case once with BLAS at one thread and writes OUT, a JSON
document with one entry per case. An entry maps each leaf of the result to
its value or digest:

* ``exit``, ``stdout:raw`` and ``stdout.*`` for a CLI case: the exit code,
  a digest of its stdout text, so that a change of whitespace or key order
  shows, and the fields of its JSON report (a numeric list is hashed as a
  whole);
* ``file:<name>`` for each file the case wrote, hashed bytewise;
* ``result.*`` for a library case: dataclass fields, with arrays hashed over
  their dtype, shape and bytes, and floats written exactly (``repr``);
* ``judge``: the benchmark's own classification of the result.

The work directory's path is replaced by ``<work>`` before hashing, so two
checkouts recorded in different temporary directories compare equal.

``diff`` lists the cases whose entries differ, leaf by leaf, and exits 1 if
any do. Recording a parent commit and a change on the same machine and
diffing the two shows which cases a change moved.
"""

import os

# BLAS threads are fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

#: a leaf value longer than this is shown truncated by `diff`
SHOW = 60


def _sha(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _numeric(obj) -> bool:
    """A JSON list of numbers or of such lists (an encoded matrix or point)."""
    return isinstance(obj, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) or _numeric(x) for x in obj)


def leaves(obj, prefix: str, out: dict) -> dict:
    """Flatten `obj` into `out`, one exact value or digest per leaf."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, str)):
        out[prefix] = obj
    elif isinstance(obj, (float, complex)):
        out[prefix] = repr(obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out[prefix] = _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    elif isinstance(obj, enum.Enum):
        out[prefix] = obj.value
    elif isinstance(obj, BaseException):
        out[prefix] = f"{type(obj).__name__}: {obj}"
    elif dataclasses.is_dataclass(obj):
        out[f"{prefix}.type"] = type(obj).__name__
        for f in dataclasses.fields(obj):
            leaves(getattr(obj, f.name), f"{prefix}.{f.name}", out)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            leaves(obj[key], f"{prefix}.{key}", out)
    elif _numeric(obj):
        out[prefix] = _sha(json.dumps(obj).encode())
    elif isinstance(obj, (list, tuple)):
        for i, x in enumerate(obj):
            leaves(x, f"{prefix}[{i}]", out)
    else:
        out[prefix] = f"{type(obj).__name__}: {obj!r}"
    return out


def _snapshot(work: Path) -> dict:
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in work.rglob("*") if p.is_file()}


def run_case(case, work: Path) -> dict:
    """Run one case and flatten what it returned and wrote."""
    before = _snapshot(work)
    entry = {}
    try:
        result = case.call()
    except Exception as exc:  # a case's failure is part of its record
        return leaves(exc, "error", entry)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        code, text = result
        entry["exit"] = int(code)
        text = text.replace(str(work), "<work>")
        entry["stdout:raw"] = _sha(text.encode())
        try:
            leaves(json.loads(text), "stdout", entry)
        except json.JSONDecodeError:
            pass
    else:
        leaves(result, "result", entry)
    for path, stamp in sorted(_snapshot(work).items()):
        if before.get(path) != stamp:
            data = path.read_bytes().replace(str(work).encode(), b"<work>")
            entry[f"file:{path.relative_to(work)}"] = _sha(data)
    try:
        entry["judge"] = ": ".join(case.judge(result))
    except Exception as exc:
        leaves(exc, "judge", entry)
    return entry


def record(src: Path, out: Path, seeds, tiny: bool) -> None:
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    import scipy

    import kypcert
    import workloads

    digest = hashlib.sha256()
    for path in sorted((src / "src" / "kypcert").glob("*.py")):
        digest.update(path.read_bytes())
    doc = {
        "provenance": {"kypcert": str(Path(kypcert.__file__).parent), "src_sha256": digest.hexdigest(),
                       "numpy": np.__version__, "scipy": scipy.__version__, "seeds": list(seeds), "tiny": tiny},
        "cases": {},
    }
    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
                work = Path(tmp)
                for case in build(seed, work, tiny):
                    key = f"{name}/{seed}/{case.name}"
                    if key in doc["cases"]:
                        raise SystemExit(f"duplicate case {key}")
                    doc["cases"][key] = run_case(case, work)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc['cases'])} cases recorded to {out}")


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= SHOW else text[: SHOW - 3] + "..."


def diff(a: dict, b: dict) -> dict:
    """The differing leaves of each case that differs, as lines of text."""
    ca, cb = a["cases"], b["cases"]
    out = {}
    for case in sorted(set(ca) | set(cb)):
        if case not in cb or case not in ca:
            out[case] = [f"only in {'A' if case in ca else 'B'}"]
            continue
        lines = [f"{leaf}: {_show(ca[case].get(leaf, '<missing>'))} -> {_show(cb[case].get(leaf, '<missing>'))}"
                 for leaf in sorted(set(ca[case]) | set(cb[case])) if ca[case].get(leaf) != cb[case].get(leaf)]
        if lines:
            out[case] = lines
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every benchmark case of a checkout and write their digests")
    rec.add_argument("src", type=Path, help="root of the checkout to record")
    rec.add_argument("out", type=Path, help="JSON file to write")
    rec.add_argument("--seeds", type=int, nargs="+", default=[7, 3])
    rec.add_argument("--tiny", action="store_true", help="the benchmark's few-second case set")
    dif = sub.add_parser("diff", help="list the cases whose digests differ")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.src.resolve(), args.out, args.seeds, args.tiny)
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    for key in ("numpy", "scipy"):
        if a["provenance"][key] != b["provenance"][key]:
            print(f"note: {key} {a['provenance'][key]} in A, {b['provenance'][key]} in B")
    moved = diff(a, b)
    for case, lines in moved.items():
        print(case)
        print("\n".join(f"    {line}" for line in lines))
    print(f"{len(set(a['cases']) | set(b['cases']))} cases, {len(moved)} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
