"""`check` decides each verdict, and `kypcert check` reports it.

Each row drives the library to one verdict and runs the console command on
the same input: the report carries the same verdict, and the exit code is the
one `cli.CHECK_EXITS` maps it to.
"""

import json

import numpy as np
import pytest
from helpers import discrete, resonance

from kypcert import (
    BadParams,
    Certificate,
    Domain,
    DomainMismatch,
    Family,
    FamilyTag,
    NotFound,
    Realization,
    check,
    family_domain,
    fixture,
    is_minimal,
    make_grid,
    qmi,
    save_matrix,
    save_realization,
    verify_kyp,
)
from kypcert.cli import CHECK_EXITS, FAMILY_CODES, main


def nonminimal():
    """F = 1 realized with an antistable, unreachable state: no P certifies it."""
    return Realization(n=1, m=1, A=[[2.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]])


def unsampled():
    """Poles at both points of the one-point grids of seed 0: no oracle keeps a point."""
    z1 = make_grid(Domain.RIGHT_HALF_PLANE, 1, 1, 0).interior_points[0]
    return Realization(n=2, m=1, A=np.diag([0.0, z1]), B=[[1.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]])


def narrow_peak():
    """A db non-member whose resonance peak, 1e-6 wide, the grid misses, and
    the P of the rung's shifted pass with its axis test switched off, which
    `verify_kyp` verifies at min_eig_q of about -2.7e-10."""
    r = discrete(resonance(1.0001, 1e-6, 10**1.25))
    tag = FamilyTag(Family.DISCRETE_BOUNDED_REAL)
    g, k = qmi._continuous(r, tag)
    popov = qmi._popov_blocks(g, qmi._io_weight(tag, 1))
    shifted = g.A - 1e-3 * g.poles().real.max() * np.eye(g.n)
    p = -k * qmi._riccati_x(shifted, g.B, popov, 0.0, 0.0)[0]
    assert verify_kyp(r, p, tag).verified
    return r, p


#: id: (input and P, family code, keywords of `check`, grid size, verdict, words of the note)
ROWS = {
    "pass": (lambda: (fixture("f"), None), "p", {"solve": True}, 64, "pass", None),
    "pass-lossless": (lambda: (fixture("F1"), np.eye(2)), "p", {"lossless": True}, 64, "pass", None),
    "refuted": (lambda: (fixture("g"), None), "db", {"solve": True}, 64, "refuted-by-witness", None),
    "no-certificate": (lambda: (fixture("f"), 10.0 * np.eye(1)), "p", {}, 64, "inconclusive", None),
    "not-minimal": (lambda: (nonminimal(), None), "p", {"solve": True}, 64, "inconclusive", "not minimal"),
    "unsampled": (lambda: (unsampled(), None), "p", {}, 1, "inconclusive", "no sampling evidence"),
    "verified-beyond-the-oracle": (lambda: (fixture("g"), np.eye(1)), "db", {"tol_psd": 1e3}, 64, "tool-error",
                                   "internal inconsistency"),
    "verified-beyond-the-screen": (narrow_peak, "db", {}, 64, "tool-error", "internal inconsistency"),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_the_library_verdict_is_the_reported_verdict(capsys, tmp_path, row):
    build, code, keywords, size, verdict, note = ROWS[row]
    r, p = build()
    fam = FAMILY_CODES[code]
    v = check(r, fam, make_grid(family_domain(fam), size, size, 0), p=p, **keywords)
    assert v.verdict == verdict
    assert (v.note is None) if note is None else (note in v.note)
    assert v.minimal == is_minimal(r)
    if verdict == "tool-error":
        assert isinstance(v.certificate, Certificate) and v.certificate.verified and not v.oracle.passed

    save_realization(tmp_path / "r.json", r)
    argv = ["check", "--family", code, "--grid", str(size), "--seed", "0", "--deterministic"]
    if p is not None:
        save_matrix(tmp_path / "p.json", p)
        argv += ["--p-matrix", str(tmp_path / "p.json")]
    argv += [f"--{flag}" for flag in ("solve", "lossless") if keywords.get(flag)]
    if "tol_psd" in keywords:
        argv += ["--tol-psd", str(keywords["tol_psd"])]
    exit_code = main([*argv, str(tmp_path / "r.json")])
    rep = json.loads(capsys.readouterr().out)
    assert (exit_code, rep["verdict"]) == (CHECK_EXITS[verdict], verdict)
    assert rep.get("note") == v.note and rep.get("lossless_qmi") == v.lossless_qmi
    assert rep["oracle"]["verdict"] == v.oracle.verdict and rep["oracle"]["samples_used"] == v.oracle.samples_used
    assert ("solver" in rep) == isinstance(v.certificate, NotFound)
    assert ("certificate" in rep) == isinstance(v.certificate, Certificate)


def test_each_verdict_has_its_exit_code():
    assert CHECK_EXITS == {"pass": 0, "refuted-by-witness": 2, "inconclusive": 3, "tool-error": 1}
    assert {row[4] for row in ROWS.values()} == set(CHECK_EXITS)


def test_the_screen_point_is_one_more_oracle_sample():
    # the grid passes the narrow peak; the witness screen's point fails it
    r, p = narrow_peak()
    grid = make_grid(Domain.EXTERIOR_DISK)
    plain = check(r, Family.DISCRETE_BOUNDED_REAL, grid)
    assert plain.verdict == "pass" and plain.witness is None
    v = check(r, Family.DISCRETE_BOUNDED_REAL, grid, p=p)
    assert v.witness is not None and v.oracle.worst_point == v.witness
    assert v.oracle.samples_used == plain.oracle.samples_used + 1


@pytest.mark.parametrize(("call", "error"), [
    (lambda: check(fixture("f"), Family.DISCRETE_POSITIVE_REAL, make_grid(Domain.EXTERIOR_DISK), lossless=True),
     BadParams),
    (lambda: check(fixture("f"), Family.POSITIVE_REAL, make_grid(Domain.EXTERIOR_DISK)), DomainMismatch),
], ids=["lossless-in-dp", "wrong-domain"])
def test_bad_arguments_raise_a_typed_error(call, error):
    with pytest.raises(error):
        call()
