"""The benchmark's three workloads, their labelled cases and output checks.

A label is fixed by construction (a sampled certified realization, a
feedthrough shifted past the family's bound) or by the fixtures' closed forms
and lossless identity as the tests state them; it is never read from the
output of the program under test. Transfer values used by the checks come
from this module's own evaluator and closed forms.

Every case is a `Case`: `call` is the timed part, `judge` classifies its
result afterwards as one of

* ``ok``            the verdict agrees with the label and every check holds;
* ``inconclusive``  exit 3, or ``NotFound`` on a certifiable input;
* ``wrong``         a non-member passes with a certificate, a member is
                    refuted, a verified ``P`` fails ``verify_kyp`` again, a
                    witness does not re-evaluate to a negative margin, or a
                    transform breaks its defining identity;
* ``wrong-sampled`` a non-member passes on sampling evidence alone, which the
                    oracle documents as evidence and not proof (the known
                    resonance gap);
* ``error``         an exception or exit 1 that the label does not expect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kypcert as kc
from kypcert import cli

FAMILIES = ("p", "b", "dp", "db")
FAMILY = {
    "p": kc.Family.POSITIVE_REAL,
    "b": kc.Family.BOUNDED_REAL,
    "dp": kc.Family.DISCRETE_POSITIVE_REAL,
    "db": kc.Family.DISCRETE_BOUNDED_REAL,
}

#: hyper-bounded parameter of the --eta cases; its norm bound is sqrt(1/2)
ETA = 3.0

#: size of a constructed violation: the non-member's margin at z = infinity
VIOLATION = 0.5


@dataclass
class Case:
    name: str
    #: "member", "non-member" or "identity" (a transform, eval or combine)
    label: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[str, str]]


# ---------------------------------------------------------------------------
# independent evaluation and margins
# ---------------------------------------------------------------------------


def transfer(r, z: complex) -> np.ndarray:
    """F(z) = C (zI - A)^-1 B + D, computed here rather than by the program."""
    if r.n == 0:
        return np.array(r.D)
    return r.C @ np.linalg.solve(z * np.eye(r.n) - r.A, r.B) + r.D


def margin(kind: str, f: np.ndarray) -> float:
    """Pointwise margin of a value; negative means the condition fails."""
    if kind in ("p", "dp"):
        return float(np.linalg.eigvalsh(f + f.conj().T)[0])
    if kind in ("b", "db"):
        return 1.0 - float(np.linalg.norm(f, 2))
    if kind == "eta":
        return math.sqrt((ETA - 1.0) / (ETA + 1.0)) - float(np.linalg.norm(f, 2))
    if kind == "LP":
        return -float(np.linalg.norm(f + f.conj().T, 2))
    if kind == "LB":
        return -float(np.linalg.norm(f.conj().T @ f - np.eye(f.shape[0]), 2))
    raise ValueError(kind)


def decode(entries, shape=(0, 0)) -> np.ndarray:
    """A matrix from its [re, im] encoding; `shape` is used when it is empty."""
    arr = np.array(entries, dtype=float)
    if arr.size == 0:
        return np.zeros(shape, dtype=complex)
    return arr[..., 0] + 1j * arr[..., 1]


def read_realization(path) -> kc.Realization:
    """Parse a realization document without the program's loader."""
    doc = json.loads(Path(path).read_text())
    n, m = doc["n"], doc["m"]
    blocks = {k: decode(doc[k], s) for k, s in
              (("A", (n, n)), ("B", (n, m)), ("C", (m, n)), ("D", (m, m)))}
    return kc.Realization(n=n, m=m, **blocks)


def q_form(r, p: np.ndarray, family: str) -> np.ndarray:
    """The family's quadratic form Q(P), written out block by block."""
    a, b, c, d = r.A, r.B, r.C, r.D
    cd = np.hstack([c, d])
    ab = np.hstack([a, b])
    if family == "p":
        return np.block([[-p @ a - a.conj().T @ p, c.conj().T - p @ b], [c - b.conj().T @ p, d + d.conj().T]])
    if family in ("b", "eta"):
        # the hyper-bounded weight scales the output term by (eta+1)/(eta-1)
        k = 1.0 if family == "b" else (ETA + 1.0) / (ETA - 1.0)
        lin = np.block([[-p @ a - a.conj().T @ p, -p @ b], [-b.conj().T @ p, np.eye(r.m)]])
        return lin - k * cd.conj().T @ cd
    if family == "dp":
        lin = np.block([[p, c.conj().T], [c, d + d.conj().T]])
        return lin - ab.conj().T @ p @ ab
    lin = np.block([[p, np.zeros((r.n, r.m))], [np.zeros((r.m, r.n)), np.eye(r.m)]])
    return lin - ab.conj().T @ p @ ab - cd.conj().T @ cd


def certified_by_identity(r, family: str) -> bool:
    """P = I certifies r: Q(I) is positive semidefinite up to round-off."""
    q = q_form(r, np.eye(r.n), family)
    q = (q + q.conj().T) / 2
    return float(np.linalg.eigvalsh(q)[0]) >= -1e-9 * (1.0 + float(np.linalg.norm(q, 2)))


def close(x: np.ndarray, y: np.ndarray, rtol: float = 1e-7) -> bool:
    return float(np.abs(x - y).max()) <= rtol * (1.0 + float(np.abs(x).max()) + float(np.abs(y).max()))


# ---------------------------------------------------------------------------
# constructed inputs
# ---------------------------------------------------------------------------


def unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def coordinates(rng, n: int, cond: float = 10.0) -> np.ndarray:
    """A random change of coordinates with condition number at most `cond`."""
    s = np.exp(rng.uniform(0.0, math.log(cond), n))
    return (unitary(rng, n) * s) @ unitary(rng, n)


def member(rng, family: str, n: int, m: int, contraction: float = 0.7) -> kc.Realization:
    """A realization that P = I certifies, checked here with `q_form`."""
    tag = kc.FamilyTag(kc.Family.BOUNDED_REAL, ETA) if family == "eta" else FAMILY[family]
    r = kc.random_certified_realization(tag, n, m, rng, contraction=contraction)
    if not certified_by_identity(r, family):
        raise RuntimeError(f"sampled {family} member is not certified by P = I")
    return r


def shift_past_bound(r: kc.Realization, family: str) -> kc.Realization:
    """Move the feedthrough so that F(infinity) = D has margin -VIOLATION.

    Infinity lies in the closure of every family's domain, so the result is
    a non-member whose violation has exactly that size there.
    """
    d = r.D
    if family in ("p", "dp"):
        lam = float(np.linalg.eigvalsh(d + d.conj().T)[0])
        d = d - (lam + VIOLATION) / 2.0 * np.eye(r.m)
    else:
        bound = 1.0 if family in ("b", "db") else math.sqrt((ETA - 1.0) / (ETA + 1.0))
        u, s, vh = np.linalg.svd(d)
        d = d + (bound + VIOLATION - s[0]) * np.outer(u[:, 0], vh[0])
    out = kc.Realization(n=r.n, m=r.m, A=r.A, B=r.B, C=r.C, D=d)
    if abs(margin(family, out.D) + VIOLATION) > 1e-9:
        raise RuntimeError("feedthrough shift missed its target")
    return out


def resonance() -> kc.Realization:
    """F(s) = 1.05 * 2 zeta w s / (s^2 + 2 zeta w s + w^2), zeta = 1e-4,
    w = 0.37: |F(i w)| = 1.05, so it is not bounded-real, but the peak is
    about 4e-5 wide."""
    zeta, w, gain = 1e-4, 0.37, 1.05
    return kc.Realization(n=2, m=1, A=[[0.0, 1.0], [-w * w, -2 * zeta * w]], B=[[0.0], [1.0]],
                          C=[[0.0, gain * 2 * zeta * w]], D=[[0.0]])


RESONANCE_WITNESS = 0.37j


# closed forms of the fixtures at a = b = 1, as tests/helpers.py states them
CLOSED_FORMS = {
    "f": lambda z: np.array([[1.0 / (2.0 * (2.0 * z + 1.0))]]),
    "g": lambda z: np.array([[2.0 * (2.0 + z) / z]]),
    "F1": lambda z: (1.0 / z) * np.array([[2.0, z - 1.0], [-(z + 1.0), 1.0]]),
    "F2": lambda z: (1.0 / (z * z + 1.0)) * np.array([[z, z - 1.0], [z + 1.0, 2.0 * z]]),
    "F3": lambda z: (z / (1.0 + z * z)) * np.array([[1.0, 1.0 - z], [1.0 + z, 2.0]]),
}

#: Fixture labels. Members, from the closed forms: f = 1/(4z+2) has Re f > 0
#: and |f| < 1/2 for Re z > 0, and |f| < 1/2 for |z| > 1; g = 2 + 4/z has
#: Re g > 2 for Re z > 0; F1, F2, F3 are lossless positive-real (the tests
#: check J R + R* J = 0 exactly), so they are positive-real. Every other
#: pair is a non-member, shown by a point of the family's domain where the
#: closed form's margin is negative.
FIXTURE_WITNESS = {
    ("f", "dp"): -2.0,
    ("g", "b"): 1.0,
    ("g", "dp"): -1.5,
    ("g", "db"): 2.0,
    ("F1", "b"): 1.0,
    ("F1", "dp"): -2.0,
    ("F1", "db"): 2.0,
    ("F2", "b"): 1.0,
    ("F2", "dp"): -2.0,
    ("F2", "db"): 1.1j,
    ("F3", "b"): 1.0,
    ("F3", "dp"): -2.0,
    ("F3", "db"): 1.1j,
}


# ---------------------------------------------------------------------------
# calls and judges
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def judge_check(r, kind: str, is_member: bool, parent: str | None = None, value=None):
    """Judge a `check` report against the label of realization `r`.

    `kind` names the margin the oracle tests; under ``--lossless`` it is
    ``LP`` or ``LB`` and `parent` is the family whose oracle also runs.
    `value` is the transfer function used to re-evaluate a witness.
    """
    family = parent or ("b" if kind == "eta" else kind)
    value = value or (lambda z: transfer(r, z))

    def judge(result) -> tuple[str, str]:
        code, text = result
        if code == 1 or not text:
            return "error", f"exit {code}"
        rep = json.loads(text)
        verdict = rep["verdict"]
        cert = rep.get("certificate")
        certified = cert is not None and cert["status"] == "verified"
        if certified and not kc.verify_kyp(r, decode(cert["p"], (r.n, r.n)), FAMILY[family]).verified:
            return "wrong", "verified P not accepted again by verify_kyp"
        if verdict == "refuted-by-witness":
            if is_member:
                return "wrong", "member refuted"
            key = "oracle" if rep["oracle"]["verdict"] == "fail" else "lossless_oracle"
            z = complex(*rep[key]["worst_point"])
            # the lossless oracle reports the parent's point when that is worse
            test = kind if key == "lossless_oracle" and z.real == 0.0 else (parent or kind)
            if margin(test, value(z)) >= 0.0:
                return "wrong", f"witness {z} does not re-evaluate negative"
            return "ok", "refuted"
        if verdict == "pass":
            if is_member:
                return "ok", "pass"
            if certified:
                return "wrong", "non-member certified"
            return "wrong-sampled", "non-member passed sampling"
        if verdict == "inconclusive":
            return "inconclusive", "inconclusive"
        return "error", verdict

    return judge


def judge_transform(r, op: str, path: Path, z: complex, family: str = "p", value=None):
    """Judge a `transform` of `r` by its defining identity at the point z."""
    value = value or (lambda x: transfer(r, x))

    def judge(result) -> tuple[str, str]:
        code, text = result
        if code != 0:
            return "error", f"exit {code}"
        g = read_realization(path)
        if op == "invert-array":
            ok = close(g.array @ r.array, np.eye(r.n + r.m), 1e-6)
        else:
            f, gz, eye = value(z), transfer(g, z), np.eye(r.m)
            if op in ("coords", "balance"):
                ok = close(gz, f)
            elif op == "invert-fn":
                ok = close(gz @ f, eye)
            elif op == "cayley-fn":
                ok = close(gz @ (eye + f), eye - f)
            elif op == "bilinear":
                ok = close(gz, value((1 + z) / (1 - z)))
            else:
                raise ValueError(op)
            if ok and op == "balance":
                ok = kc.verify_kyp(g, np.eye(g.n), FAMILY[family]).verified
        return ("ok", op) if ok else ("wrong", f"{op} breaks its identity at {z}")

    return judge


def judge_eval(r, z: complex):
    def judge(result) -> tuple[str, str]:
        code, text = result
        if code != 0:
            return "error", f"exit {code}"
        value = decode(json.loads(text)["value"])
        return ("ok", "eval") if close(value, transfer(r, z)) else ("wrong", f"F({z}) differs")

    return judge


def judge_combine(family: str, path: Path):
    def judge(result) -> tuple[str, str]:
        code, text = result
        if code == 3:
            return "inconclusive", "combination not certified"
        if code != 0:
            return "error", f"exit {code}"
        g = read_realization(path)
        if not kc.verify_kyp(g, np.eye(g.n), FAMILY[family]).verified:
            return "wrong", "combined P = I not accepted by verify_kyp"
        return "ok", "combined"

    return judge


def _cli_case(name: str, label: str, argv: list[str], judge) -> Case:
    return Case(name, label, lambda: run_cli(argv), judge)


def _check_case(name: str, label: str, flags: list[str], path: str, seed: int, judge) -> Case:
    return _cli_case(name, label, ["check", *flags, "--seed", str(seed), "--deterministic", path], judge)


def _label(is_member: bool) -> str:
    return "member" if is_member else "non-member"


def _save(path: Path, r) -> str:
    kc.save_realization(path, r)
    return str(path)


def _point(rng) -> complex:
    """A sample point away from the axis and the circle."""
    return complex(rng.uniform(0.2, 1.5), rng.uniform(-2.0, 2.0))


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------


def cli_fixtures(seed: int, work: Path, tiny: bool) -> list[Case]:
    """`kypcert check --solve` on the five fixtures x four families, the
    resonance case, n = 0 constants, and a few transforms and a combine.

    n <= 2, and most solves run to the 5000-iteration cap, so the cost of one
    projection iteration dominates."""
    rng = np.random.default_rng(seed)
    files = {name: _save(work / f"{name}.json", kc.fixture(name)) for name in kc.FIXTURE_NAMES}
    cases = []
    for name in ("f", "g") if tiny else kc.FIXTURE_NAMES:
        for fam in FAMILIES:
            if tiny and name == "g" and fam in ("dp", "db"):
                continue
            is_member = (name, fam) not in FIXTURE_WITNESS
            judge = judge_check(kc.fixture(name), fam, is_member, value=CLOSED_FORMS[name])
            cases.append(_check_case(f"check:{name}:{fam}", _label(is_member), ["--family", fam, "--solve"],
                                     files[name], seed, judge))
    if not tiny:
        res = resonance()
        cases.append(_check_case("check:resonance:b", "non-member", ["--family", "b", "--solve"],
                                 _save(work / "resonance.json", res), seed, judge_check(res, "b", False)))
    # Hermitian constants with spectrum in (0.2, 0.8) belong to every family
    for fam in FAMILIES[:2] if tiny else FAMILIES:
        u = unitary(rng, 2)
        const = kc.Realization.constant((u * rng.uniform(0.2, 0.8, 2)) @ u.conj().T)
        cases.append(_check_case(f"check:const:{fam}", "member", ["--family", fam, "--solve"],
                                 _save(work / f"const-{fam}.json", const), seed, judge_check(const, fam, True)))

    z = _point(rng)
    transforms = [("invert-array", "f", []), ("bilinear", "f", [])]
    if not tiny:
        transforms += [("invert-fn", "F1", []), ("cayley-fn", "F1", [])]
        t = coordinates(rng, 2)
        kc.save_matrix(work / "T.json", t)
        transforms.append(("coords", "F2", ["--t-matrix", str(work / "T.json")]))
    # F2 in coordinates T has the certificate P = T* T, which balance undoes
    t = coordinates(rng, 2)
    moved = kc.change_coordinates(kc.fixture("F2"), t)
    kc.save_matrix(work / "P.json", t.conj().T @ t)
    transforms.append(("balance", "F2t", ["--p-matrix", str(work / "P.json"), "--family", "p"]))
    files["F2t"] = _save(work / "F2t.json", moved)
    s = ["--seed", str(seed), "--deterministic"]
    for op, name, extra in transforms:
        r = moved if name == "F2t" else kc.fixture(name)
        out = work / f"out-{op}.json"
        judge = judge_transform(r, op, out, z, "p", CLOSED_FORMS[name.rstrip("t")])
        cases.append(_cli_case(f"transform:{op}:{name}", "identity",
                               ["transform", "--op", op, *extra, files[name], "-o", str(out), *s], judge))
    trio = ",".join(files[n] for n in (("f",) * 3 if tiny else ("F1", "F2", "F3")))
    out = work / "out-combine.json"
    cases.append(_cli_case("combine:p", "identity",
                           ["combine", "--family", "p", "--inputs", trio, "--random", "3", "-o", str(out), *s],
                           judge_combine("p", out)))
    return cases


# ---------------------------------------------------------------------------
# solve-certify
# ---------------------------------------------------------------------------


def _solve_case(name: str, r, family: str, z: complex) -> Case:
    tag = FAMILY[family]

    def call():
        found = kc.solve_p(r, tag)
        if isinstance(found, kc.NotFound):
            return found, None, None
        again = kc.verify_kyp(r, found.p, tag)
        return found, again, kc.balance(r, found)

    def judge(result) -> tuple[str, str]:
        found, again, balanced = result
        if again is None:
            return "inconclusive", f"NotFound after {found.iterations} iterations"
        r_bal, cert_bal = balanced
        if not again.verified:
            return "wrong", "verified P not accepted again by verify_kyp"
        if not close(transfer(r_bal, z), transfer(r, z)):
            return "wrong", "balance changed the transfer function"
        # the verdict rests on P; the balanced certificate's own status is
        # counted by the traced run as qmi.balance.verified_ratio
        return "ok", f"verified; balanced certificate {cert_bal.status.value}"

    return Case(name, "member", call, judge)


def _preservation_case(name: str, rs, family: str, seed: int) -> Case:
    tag = FAMILY[family]

    def call():
        fam = kc.random_isometry_family(len(rs), rs[0].n, rs[0].m, seed)
        try:
            return kc.verify_preservation(rs, fam, tag)
        except kc.InputNotCertified as exc:
            return exc

    def judge(result) -> tuple[str, str]:
        if isinstance(result, kc.InputNotCertified):
            return "inconclusive", str(result)
        if not certified_by_identity(result.combined, family):
            return "wrong", "combination of certified inputs is not certified by P = I"
        if not result.certificate.verified:
            return "wrong", "combined certificate refuted"
        return "ok", "preserved"

    return Case(name, "member", call, judge)


#: how often each state dimension appears per family in one pass
SOLVE_SWEEP = ((4, 3), (8, 3), (16, 2), (24, 1))


def solve_certify(seed: int, work: Path, tiny: bool) -> list[Case]:
    """solve_p, verify_kyp and balance on certifiable inputs in random
    well-conditioned coordinates (so P != I), plus verify_preservation.

    The search converges in a few iterations, so building the affine
    projector dominates: qmi used the opposite way to cli-fixtures."""
    rng = np.random.default_rng(seed)
    z = _point(rng)
    sweep = ((4, 1), (6, 1)) if tiny else SOLVE_SWEEP
    cases = []
    for fam in FAMILIES:
        for n, copies in sweep:
            for k in range(copies):
                # contraction 0.5 keeps the inputs strictly inside the family, so
                # the search converges in a few iterations and the projector
                # build is most of a solve (about 93% at n = 16)
                r = kc.change_coordinates(member(rng, fam, n, 2, contraction=0.5), coordinates(rng, n))
                cases.append(_solve_case(f"solve:{fam}:n{n}:{k}", r, fam, z))
    # verify_preservation takes balanced inputs (P = I), its documented use;
    # inputs in other coordinates go through solve_p and balance, whose
    # re-verified certificate lands inconclusive for some seeds
    for fam in FAMILIES:
        n = 3 if tiny else 6
        rs = [member(rng, fam, n, 2) for _ in range(3)]
        cases.append(_preservation_case(f"preserve:{fam}:n{n}", rs, fam, int(rng.integers(2**31))))
    return cases


# ---------------------------------------------------------------------------
# oracle-large
# ---------------------------------------------------------------------------

TRANSFORM_OPS = ("coords", "cayley-fn", "bilinear", "invert-fn", "invert-array")


def oracle_large(seed: int, work: Path, tiny: bool) -> list[Case]:
    """Oracle-only `check` (plain, --eta, --lossless), `transform` and
    `eval` on large labelled realizations, plus the resonance case.

    qmi does no work here, so a solver change must show no change; the cost
    is per oracle point and JSON save/load."""
    rng = np.random.default_rng(seed)
    s = ["--seed", str(seed), "--deterministic"]
    shapes = ((3, 1), (4, 2)) if tiny else ((8, 1), (8, 4), (32, 1), (32, 4), (64, 1), (64, 4))
    cases = []
    for i, (n, m) in enumerate(shapes):
        big = n >= 64
        grid = "64" if big or tiny else "256"
        small_grid = "64" if n >= 32 or tiny else "256"
        tag = f"n{n}m{m}"
        fam_in, fam_out = FAMILIES[i % 4], FAMILIES[(i + 1) % 4]
        inside = member(rng, fam_in, n, m)
        outside = shift_past_bound(member(rng, fam_out, n, m), fam_out)
        hyper = member(rng, "eta", n, m)
        hyper_in = i % 2 == 0
        if not hyper_in:
            hyper = shift_past_bound(hyper, "eta")
        p_in, p_out, p_eta = (_save(work / f"{tag}-{k}.json", x) for k, x in
                              (("in", inside), ("out", outside), ("eta", hyper)))
        cases += [
            _check_case(f"check:{tag}:{fam_in}:member:g{grid}", "member", ["--family", fam_in, "--grid", grid],
                        p_in, seed, judge_check(inside, fam_in, True)),
            _check_case(f"check:{tag}:{fam_out}:shifted:g{grid}", "non-member",
                        ["--family", fam_out, "--grid", grid], p_out, seed, judge_check(outside, fam_out, False)),
            _check_case(f"check:{tag}:eta:g{small_grid}", _label(hyper_in),
                        ["--family", "b", "--eta", str(ETA), "--grid", small_grid],
                        p_eta, seed, judge_check(hyper, "eta", hyper_in)),
        ]
        # Lossless members are the fixtures F1, F2 at seeded (a, b), lossless
        # positive-real for every a != 0 (J R + R* J = 0 exactly). Sampled
        # skew lossless arrays of size 8 and up are left out: the lossless
        # oracle's absolute 1e-8 tolerance refutes some of them near their
        # poles on the axis, depending on the seed.
        if n <= 8:
            name = f"F{i + 1}"
            lossless = kc.fixture(name, a=rng.uniform(0.5, 2.0), b=rng.uniform(-2.0, 2.0))
            kind, lossless_member = "p", True
        else:
            name = tag
            kind = "p" if i % 2 == 0 else "b"
            lossless, lossless_member = member(rng, kind, n, m), False
        judge = judge_check(lossless, "LP" if kind == "p" else "LB", lossless_member, parent=kind)
        cases.append(_check_case(f"check:{name}:{kind}:lossless:g{small_grid}", _label(lossless_member),
                                 ["--family", kind, "--lossless", "--grid", small_grid],
                                 _save(work / f"{tag}-lossless.json", lossless), seed, judge))
        op = TRANSFORM_OPS[i % len(TRANSFORM_OPS)]
        extra = []
        if op == "coords":
            kc.save_matrix(work / f"{tag}-T.json", coordinates(rng, n))
            extra = ["--t-matrix", str(work / f"{tag}-T.json")]
        out = work / f"{tag}-transformed.json"
        z = _point(rng)
        cases.append(_cli_case(f"transform:{tag}:{op}", "identity",
                               ["transform", "--op", op, *extra, p_in, "-o", str(out), *s],
                               judge_transform(inside, op, out, z)))
        cases.append(_cli_case(f"eval:{tag}", "identity", ["eval", "--at", f"{z.real!r},{z.imag!r}", p_in, *s],
                               judge_eval(inside, z)))
        if big and i == len(shapes) - 1:
            judge = judge_check(inside, fam_in, True)
            cases.append(_check_case(f"check:{tag}:{fam_in}:member:g256", "member",
                                     ["--family", fam_in, "--grid", "256"], p_in, seed, judge))
    res = resonance()
    path = _save(work / "resonance.json", res)
    for grid in ("64",) if tiny else ("64", "256"):
        cases.append(_check_case(f"check:resonance:b:g{grid}", "non-member", ["--family", "b", "--grid", grid],
                                 path, seed, judge_check(res, "b", False)))
    return cases


WORKLOADS = {
    "cli-fixtures": cli_fixtures,
    "solve-certify": solve_certify,
    "oracle-large": oracle_large,
}
