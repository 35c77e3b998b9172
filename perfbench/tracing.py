"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the traced layers by a
wrapper, under every name the package's modules see it by (for example both
``kypcert.cli.solve_p`` and ``kypcert.qmi.solve_p``), so calls between
modules are caught as well as the benchmark's own calls. Each call records
one span: name, start, end, parent span and the phase the runner was in;
times are CPU seconds of the process, like the benchmark's case times.
Spans stay in memory until the run ends; `Tracer.uninstall` puts the
original functions back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "kypcert"

#: the package's layers, in the order the report lists them; ``_linalg`` is
#: private and is reached only through ``qmi`` and ``families``
LAYERS = ("cli", "serialization", "families", "realization", "qmi", "convexity", "cones")

#: ``cli`` is traced at its entry point only, so that the self time of
#: ``cli.main`` is argparse, report assembly and JSON emit
ENTRY_ONLY = {"cli": ("main",)}

ORACLES = (
    "families.membership_oracle",
    "families.hyper_bounded_oracle",
    "families.lossless_boundary_oracle",
    "families.anti_db_oracle",
)
SAVES = ("serialization.save_realization", "serialization.save_matrix", "serialization.save_isometry_family")


def _note(name: str, args, result):
    """The small piece of a call's outcome that a per-layer metric needs."""
    if name == "qmi.solve_p":
        iterations = getattr(result, "iterations", None)
        return (args[0].n, iterations is None, iterations or 0)
    if name in ORACLES:
        return (result.samples_used, result.skipped)
    if name in SAVES:
        return os.path.getsize(args[0])
    if name == "qmi.balance":
        return result[1].verified
    return None


class Tracer:
    def __init__(self):
        self.phase = "setup"
        #: (name, start, end, parent index or -1, phase, note)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _targets(self) -> dict[int, tuple[str, object]]:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            names = ENTRY_ONLY.get(layer) or getattr(mod, "__all__", ())
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (f"{layer}.{attr}", fn)
        return targets

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.process_time(), parent, self.phase, None)
                stack.pop()
                raise
            end = time.process_time()
            stack.pop()
            spans[index] = (name, start, end, parent, self.phase, _note(name, args, result))
            return result

        return traced

    def install(self) -> None:
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and targets[id(value)][1] is value:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Calls are nested and single-threaded, so children never overlap and the
    covered part is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, phase, note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, *_) in enumerate(spans)]


def per_function(spans, phase: str) -> dict[str, dict]:
    """calls, busy (inclusive) and self seconds per traced function."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent, ph, note), own in zip(spans, selfs):
        if ph == phase:
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += own
    return dict(sorted(table.items()))


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of the benchmark, over the spans of the timed
    cases, except the sampler's busy time, which belongs to set-up."""
    cases = per_function(spans, "cases")
    setup = per_function(spans, "setup")

    def busy(name: str, table=cases) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> int:
        return cases.get(name, {}).get("calls", 0)

    # a call that raised carries no note
    in_cases = [s for s in spans if s[4] == "cases" and s[5] is not None]
    solves = [s for s in in_cases if s[0] == "qmi.solve_p"]
    verified = [s for s in solves if s[5][1]]
    notfound = [s for s in solves if not s[5][1]]
    nf_iters = sum(s[5][2] for s in notfound)
    nf_busy = sum(s[2] - s[1] for s in notfound)

    balances = [s[5] for s in in_cases if s[0] == "qmi.balance"]
    oracle_spans = [s for s in in_cases if s[0] in ORACLES]
    points = sum(s[5][0] for s in oracle_spans)
    outer = sum(s[2] - s[1] for s in oracle_spans if s[3] < 0 or spans[s[3]][0] not in ORACLES)

    m = {
        "qmi.solve_p.calls": calls("qmi.solve_p"),
        "qmi.solve_p.busy_s": busy("qmi.solve_p"),
        "qmi.solve_p.verified_ratio": len(verified) / len(solves) if solves else 0.0,
        "qmi.solve_p.verified_busy_s": sum(s[2] - s[1] for s in verified),
        "qmi.solve_p.notfound_iterations": nf_iters,
        "qmi.solve_p.us_per_notfound_iter": 1e6 * nf_busy / nf_iters if nf_iters else 0.0,
        "qmi.verify_kyp.busy_s": busy("qmi.verify_kyp"),
        "qmi.balance.busy_s": busy("qmi.balance"),
        "qmi.balance.verified_ratio": sum(balances) / len(balances) if balances else 0.0,
        "qmi.random_certified_realization.busy_s": busy("qmi.random_certified_realization", setup),
        "families.membership_oracle.busy_s": busy("families.membership_oracle"),
        "families.lossless_boundary_oracle.busy_s": busy("families.lossless_boundary_oracle"),
        "families.hyper_bounded_oracle.busy_s": busy("families.hyper_bounded_oracle"),
        "families.make_grid.busy_s": busy("families.make_grid"),
        "families.oracle.points": points,
        "families.oracle.skipped": sum(s[5][1] for s in oracle_spans),
        "families.oracle.us_per_point": 1e6 * outer / points if points else 0.0,
        "families.bilinear_substitute.busy_s": busy("families.bilinear_substitute"),
        "families.cayley_function.busy_s": busy("families.cayley_function"),
        "realization.evaluate.calls": calls("realization.evaluate"),
        "realization.evaluate.busy_s": busy("realization.evaluate"),
        "realization.is_minimal.busy_s": busy("realization.is_minimal"),
        "realization.invert_array.busy_s": busy("realization.invert_array"),
        "realization.invert_function.busy_s": busy("realization.invert_function"),
        "realization.change_coordinates.busy_s": busy("realization.change_coordinates"),
        "serialization.load_realization.busy_s": busy("serialization.load_realization"),
        "serialization.save_realization.busy_s": busy("serialization.save_realization"),
        "serialization.bytes_written": sum(s[5] for s in in_cases if s[0] in SAVES),
        "convexity.verify_preservation.busy_s": busy("convexity.verify_preservation"),
        "convexity.combine_realizations.busy_s": busy("convexity.combine_realizations"),
        "cones.random_isometry_tuple.busy_s": busy("cones.random_isometry_tuple"),
        "cli.main.self_s": cases.get("cli.main", {}).get("self_s", 0.0),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in cases.items() if name.startswith(layer + "."))
    return m
