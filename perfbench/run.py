"""Time-to-verdict benchmark for kypcert.

    python3 perfbench/run.py --workload cli-fixtures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One caller runs one case at a time in this process (a closed loop)
with BLAS pinned to one thread. Every case of the workload runs once, then
the cases run again in the same order until ``--seconds`` of wall-clock time
have passed. Each output is checked against a label fixed by construction
(see workloads.py).

Times are CPU seconds of this single-threaded process. On a shared machine
wall-clock time also counts the periods the machine is descheduled: one
5000-iteration solve varied by 70% in wall-clock time but by 20% in CPU time
on a 2-vCPU virtual machine (Intel Xeon, shared host). The report gives the
wall-clock figures too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each case once
untraced and once with every public function of the package's layers
wrapped, in alternating order, and prints the per-layer metrics, the tracing
overhead and the ROADMAP baseline figures beside the benchmark's own.
The last line of standard output is the result as one JSON object; the lines
before it are the full report. ``--tiny`` runs a few-second version of each
workload for the benchmark's own tests. README.md says why each workload was
chosen and which end-to-end metric each per-layer metric should move.
"""

import os

# BLAS threads are fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up is repeated this many times per run and its median reported
SETUP_ROUNDS = 3

#: outcome classes from worst to best; a case that ran several times is
#: classed by its worst outcome
OUTCOMES = ("error", "wrong", "wrong-sampled", "inconclusive", "ok")

#: ROADMAP baseline (Python 3.11, numpy 2.4, scipy 1.17), in seconds
BASELINE = {
    "projector build, n=8, m=2": 0.02,
    "projector build, n=16, m=2": 0.42,
    "projector build, n=24, m=2": 1.9,
    "NotFound iteration, n=8": 10.3 / 5000,
    "membership_oracle on 128 points, n=1": 0.018,
    "membership_oracle on 128 points, n=64": 0.247,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cli-fixtures", "solve-certify", "oracle-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few-second version of the workload")
    return parser.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "kypcert").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def execute(case):
    """Run one case; returns (cpu seconds, wall seconds, outcome, note)."""
    wall, cpu = time.perf_counter(), time.process_time()
    failure = None
    try:
        result = case.call()
    except Exception as exc:  # a case that raises is counted, the run goes on
        failure = f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if failure:
        return cpu, wall, "error", failure
    try:
        outcome, note = case.judge(result)
    except Exception as exc:  # an output the judge cannot read is an error too
        outcome, note = "error", f"unreadable output: {type(exc).__name__}: {exc}"
    return cpu, wall, outcome, note


class Slots:
    """Times and outcomes of each case of the workload, in case order."""

    def __init__(self, cases):
        self.cases = cases
        self.times = [[] for _ in cases]
        self.walls = [[] for _ in cases]
        self.outcomes = [[] for _ in cases]
        self.notes = [None] * len(cases)

    def record(self, i, cpu, wall, outcome, note):
        if not self.outcomes[i] or OUTCOMES.index(outcome) < OUTCOMES.index(self.worst(i)):
            self.notes[i] = note
        self.times[i].append(cpu)
        self.walls[i].append(wall)
        self.outcomes[i].append(outcome)

    def worst(self, i) -> str:
        return min(self.outcomes[i], key=OUTCOMES.index)

    def medians(self, wall: bool = False) -> list[float]:
        return [statistics.median(t) for t in (self.walls if wall else self.times)]

    def executions(self) -> int:
        return sum(len(t) for t in self.times)

    def failed(self) -> int:
        return sum(o in ("error", "wrong") for os_ in self.outcomes for o in os_)

    def table(self) -> list[dict]:
        return [{"case": c.name, "label": c.label, "outcome": self.worst(i), "note": self.notes[i],
                 "runs": len(self.times[i]), "median_cpu_ms": 1e3 * statistics.median(self.times[i]),
                 "median_wall_ms": 1e3 * statistics.median(self.walls[i])}
                for i, c in enumerate(self.cases)]


def measure(cases, seconds: float) -> Slots:
    """Run every case once, then keep cycling through them until `seconds`."""
    slots = Slots(cases)
    start = time.perf_counter()
    while True:
        for i, case in enumerate(cases):
            if slots.times[i] and time.perf_counter() - start >= seconds:
                return slots
            slots.record(i, *execute(case))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten of n samples beyond it, but
    never below the median, which short tiny-mode lists would give."""
    return max(0.5, 1.0 - 10.0 / n)


def timings(med: list[float]) -> dict:
    return {
        "cases_per_s": (len(med) / sum(med), "1/s"),
        "case_p50_ms": (1e3 * statistics.median(med), "ms"),
        "case_tail_ms": (1e3 * quantile(med, tail_quantile(len(med))), "ms"),
    }


def end_to_end(slots: Slots, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the report lines that go with them.

    Timings are over the per-case medians, so every case of the fixed list
    weighs the same however often the time allowed it to run.
    """
    cpu = timings(slots.medians())
    wall = timings(slots.medians(wall=True))
    n = len(slots.cases)
    worst = Counter(slots.worst(i) for i in range(n))
    wrong = (worst["wrong"] + worst["wrong-sampled"]) / n
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": cpu["cases_per_s"],
        "case_p50_ms": cpu["case_p50_ms"],
        "case_tail_ms": cpu["case_tail_ms"],
        "right_verdict_ratio": (1.0 - wrong, "ratio"),
        "conclusive_ratio": (1.0 - worst["inconclusive"] / n, "ratio"),
        "no_error_ratio": (1.0 - worst["error"] / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "case_tail_ms": {"percentile": 100.0 * tail_quantile(n), "samples": n,
                         "sample": "median CPU time of each case of the list"},
        "wall_clock": {k: v for k, (v, unit) in wall.items()},
        "wrong_verdict_ratio": wrong,
        "inconclusive_ratio": worst["inconclusive"] / n,
        "error_ratio": worst["error"] / n,
        "ratio_base": f"{n} cases, each classed by its worst outcome",
        "outcomes": dict(worst),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def baseline_probes(workload: str, spans, tiny: bool) -> list[dict]:
    """Run the ROADMAP baseline's inputs through the traced program and put
    the figures side by side."""
    import numpy as np

    import kypcert as kc
    from workloads import member, shift_past_bound

    rows = []

    def row(what, seconds, inputs):
        rows.append({"what": what, "roadmap_s": BASELINE[what], "bench_s": seconds, "inputs": inputs})

    if workload == "solve-certify":
        for n in (8, 16, 24):
            times = [s[2] - s[1] for s in spans if s[0] == "qmi.solve_p" and s[4] == "cases" and s[5]
                     and s[5][0] == n and s[5][1]]
            if times:
                row(f"projector build, n={n}, m=2", statistics.median(times),
                    "median verified solve_p of the workload (projector build plus iterations)")
    elif workload == "cli-fixtures" and not tiny:
        rng = np.random.default_rng(0)
        r = shift_past_bound(member(rng, "p", 8, 2), "p")
        found = kc.solve_p(r, kc.Family.POSITIVE_REAL)
        span = next(s for s in reversed(spans) if s[0] == "qmi.solve_p")
        if isinstance(found, kc.NotFound):
            row("NotFound iteration, n=8", (span[2] - span[1]) / found.iterations,
                f"positive-real member with D shifted past the bound, n=8, m=2: {found.iterations} iterations")
    elif workload == "oracle-large" and not tiny:
        rng = np.random.default_rng(0)
        grid = kc.make_grid(kc.Domain.RIGHT_HALF_PLANE, 64, 64, 0)
        for n in (1, 64):
            r = member(rng, "p", n, 1)
            start = time.process_time()
            kc.membership_oracle(r, kc.Family.POSITIVE_REAL, grid)
            row(f"membership_oracle on 128 points, n={n}", time.process_time() - start,
                f"positive-real member, n={n}, m=1, grid 64+64")
    return rows


def untraced(args, build, work: Path, import_s: float):
    """Set up several times, then measure: the end-to-end metrics."""
    rounds = []
    for k in range(SETUP_ROUNDS):
        (work / str(k)).mkdir()
        start = time.process_time()
        cases = build(args.seed, work / str(k), args.tiny)
        rounds.append(time.process_time() - start)
    slots = measure(cases, args.seconds)
    metrics, detail = end_to_end(slots, import_s + statistics.median(rounds))
    return slots, metrics, dict(setup={"import_s": import_s, "build_rounds_s": rounds}, **detail)


def traced(args, build, work: Path):
    """Traced set-up, then every case once untraced and once traced: the
    per-layer metrics, the tracing overhead and the baseline figures."""
    from tracing import Tracer, layer_metrics, per_function

    tracer = Tracer()

    def under_trace(phase, fn, *fn_args):
        tracer.phase = phase
        tracer.install()
        try:
            return fn(*fn_args)
        finally:
            tracer.uninstall()

    cases = under_trace("setup", build, args.seed, work, args.tiny)
    plain, slots = Slots(cases), Slots(cases)
    for i, case in enumerate(cases):
        # alternate which run goes first, so warm caches favour neither
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                slots.record(i, *under_trace("cases", execute, case))
            else:
                plain.record(i, *execute(case))
    baseline = under_trace("probe", baseline_probes, args.workload, tracer.spans, args.tiny)
    untraced_s, traced_s = sum(map(sum, plain.times)), sum(map(sum, slots.times))
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer_metrics(tracer.spans).items()}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
    return slots, metrics, {
        "tracing_overhead": {"untraced_s": untraced_s, "traced_s": traced_s,
                             "ratio": traced_s / untraced_s - 1.0, "spans": len(tracer.spans)},
        "baseline": baseline,
        "functions": {phase: per_function(tracer.spans, phase) for phase in ("cases", "setup")},
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns the full report and the result object."""
    import_start = time.process_time()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy, scipy and kypcert

    import_s = time.process_time() - import_start
    build = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "why": " ".join(build.__doc__.split()), "seed": args.seed,
              "tiny": args.tiny, "trace": args.trace, "provenance": provenance(args.seed)}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            slots, metrics, extra = traced(args, build, work)
        else:
            slots, metrics, extra = untraced(args, build, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(extra)
    report["cases"] = slots.table()
    report["label_counts"] = dict(Counter(c.label for c in slots.cases))
    result = {"correct": slots.failed() == 0, "attempted": slots.executions(), "failed": slots.failed(),
              "metrics": metrics}
    report["result"] = result
    return report, result


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("families.oracle.us_") or name.endswith("us_per_notfound_iter"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kypcert" / "__init__.py").is_file():
        print(f"error: no kypcert sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    report, result = run(args)
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
