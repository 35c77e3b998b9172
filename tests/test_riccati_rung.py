"""The Riccati rung of `solve_p`.

With Rx = Phi(D) positive definite, the stabilizing solution X of the KYP
Riccati equation tightened by eps s I gives P = -X (P = P_G / 2 through the
bilinear substitution for the discrete families), accepted only by
`verify_kyp`. An eigenvalue of the Hamiltonian on the imaginary axis ends the
rung, so near-boundary non-members never get a certificate from it.
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from helpers import OVERFLOWING_Q, discrete, resonance, riccati_off
from hypothesis import given, settings
from hypothesis import strategies as st

from kypcert import (
    Certificate,
    CertificateStatus,
    Family,
    FamilyTag,
    NotFound,
    NumericalFailure,
    Realization,
    balance,
    bilinear_substitute,
    change_coordinates,
    fixture,
    random_certified_realization,
    random_isometry_family,
    solve_p,
    verify_kyp,
    verify_preservation,
)
from kypcert import qmi, save_realization
from kypcert.cli import FAMILY_CODES, main
from kypcert.qmi import (
    _RICCATI_EPS,
    _continuous,
    _hamiltonian,
    _io_weight,
    _ordered_schur,
    _popov_blocks,
    _riccati_certificate,
)

TAGS = [FamilyTag(fam) for fam in Family] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def moved_member(rng, tag, n, m, contraction=0.7, cond=10.0):
    """A member certified by P = I, in coordinates T with cond(T) <= cond."""
    r = random_certified_realization(tag, n, m, rng, contraction=contraction)
    s = np.exp(rng.uniform(0.0, math.log(cond), n))
    return change_coordinates(r, (unitary(rng, n) * s) @ unitary(rng, n))


# -- near-boundary non-members -----------------------------------------------------


def _transfer(r, z):
    x = np.linalg.solve(z[:, None, None] * np.eye(r.n) - r.A, np.broadcast_to(r.B, (z.size, r.n, r.m)))
    return r.C @ x + r.D


def _io_gain(tag):
    """k with Phi(F) = I - k F*F for the bounded families, None for p/dp."""
    if tag.family in (Family.POSITIVE_REAL, Family.DISCRETE_POSITIVE_REAL):
        return None
    return 1.0 if math.isinf(tag.eta) else (tag.eta + 1.0) / (tag.eta - 1.0)


def _boundary_margin(r, tag, theta):
    """lambda_min(Phi(F(z(theta)))) on the boundary, z = e^(i theta) or
    i tan(theta / 2), written with the closed forms of Phi."""
    z = np.exp(1j * theta) if tag.family.is_discrete else 1j * np.tan(theta / 2.0)
    f = _transfer(r, np.atleast_1d(z))
    k = _io_gain(tag)
    fh = f.conj().swapaxes(1, 2)
    phi = f + fh if k is None else np.eye(r.m) - k * fh @ f
    return np.linalg.eigvalsh(phi)[:, 0]


def near_boundary(r, tag, t):
    """A non-member with Phi(F(z0)) = -t exactly at the boundary point z0
    where the member r comes closest to the boundary: D shifted for p/dp, F
    scaled for the bounded families. Its peak margin is -t up to how well z0
    was found, and never above -t."""
    theta = np.linspace(-np.pi, np.pi, 2049)[1:-1]
    mu = _boundary_margin(r, tag, theta)
    i, h = int(np.argmin(mu)), theta[1] - theta[0]
    res = scipy.optimize.minimize_scalar(lambda x: _boundary_margin(r, tag, np.array([x]))[0],
                                         bounds=(theta[i] - h, theta[i] + h), method="bounded")
    th0 = np.array([res.x if res.fun < mu[i] else theta[i]])
    z0 = np.exp(1j * th0) if tag.family.is_discrete else 1j * np.tan(th0 / 2.0)
    f0 = _transfer(r, z0)[0]
    k = _io_gain(tag)
    if k is None:
        shift = (np.linalg.eigvalsh(f0 + f0.conj().T)[0] + t) / 2.0
        out = Realization(n=r.n, m=r.m, A=r.A, B=r.B, C=r.C, D=r.D - shift * np.eye(r.m))
    else:
        g = math.sqrt((1.0 + t) / k) / np.linalg.norm(f0, 2)
        out = Realization(n=r.n, m=r.m, A=r.A, B=r.B, C=g * r.C, D=g * r.D)
    assert _boundary_margin(out, tag, th0)[0] == pytest.approx(-t, rel=1e-6)
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 16),
    m=st.sampled_from([1, 3]),
    log_t=st.floats(-6.0, -2.0),
    contraction=st.floats(0.3, 0.99),
)
def test_near_boundary_non_members_get_no_rung_certificate(seed, tag, n, m, log_t, contraction):
    rng = np.random.default_rng(seed)
    r = near_boundary(moved_member(rng, tag, n, m, contraction), tag, 10.0**log_t)
    judged, why = _riccati_certificate(r, tag, None)
    assert judged == []
    assert why.startswith(("axis eigenvalue", "Rx not positive definite")), why
    # nor from any later candidate
    assert isinstance(solve_p(r, tag), NotFound)


def test_pinned_resonance_gets_no_rung_certificate():
    # a peak about 2e-4 wide, 1e-3 past the bound: the Hamiltonian has axis
    # eigenvalues
    r = resonance(1.001, 1e-3, 0.1)
    tag = FamilyTag(Family.BOUNDED_REAL)
    assert _riccati_certificate(r, tag, None) == ([], "axis eigenvalue")
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"


# -- members ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 24),
    m=st.sampled_from([1, 4]),
    contraction=st.floats(0.3, 0.99),
    log_cond=st.floats(0.0, 2.0),
)
def test_moved_members_get_a_rung_certificate(seed, tag, n, m, contraction, log_cond):
    r = moved_member(np.random.default_rng(seed), tag, n, m, contraction, 10.0**log_cond)
    judged, why = _riccati_certificate(r, tag, None)
    assert judged and judged[-1].verified, why
    assert verify_kyp(r, judged[-1].p, tag).verified


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
def test_rung_p_is_the_riccati_solution(tag):
    """P against scipy's Riccati solver, on r for p/b and on the bilinear
    substitute for dp/db, where P = P_G / 2."""
    r = moved_member(np.random.default_rng(3), tag, 6, 2)
    [cert], why = _riccati_certificate(r, tag, None)
    assert why == "certified by the Riccati rung at eps=1e-06"
    g = bilinear_substitute(r) if tag.family.is_discrete else r
    cd = np.block([[g.C, g.D], [np.zeros((g.m, g.n)), np.eye(g.m)]])
    mx = cd.conj().T @ _io_weight(tag, g.m) @ cd
    s = 1.0 + np.linalg.norm(mx, 2)
    x = scipy.linalg.solve_continuous_are(g.A, g.B, mx[:g.n, :g.n] - 1e-6 * s * np.eye(g.n),
                                          mx[g.n:, g.n:], s=mx[:g.n, g.n:])
    scale = 0.5 if tag.family.is_discrete else 1.0
    assert np.allclose(cert.p, -scale * x, rtol=1e-6, atol=1e-9 * np.abs(x).max())


def test_balance_reverifies_solver_certificates():
    """The Riccati P lies strictly inside the feasible set, so the balanced
    realization passes P = I again."""
    for fam in Family:
        for n in (4, 8, 12):
            for k in range(8):
                r = moved_member(np.random.default_rng(100 * n + k), FamilyTag(fam), n, 2)
                cert = solve_p(r, fam)
                assert isinstance(cert, Certificate)
                assert balance(r, cert)[1].verified, (fam, n, k)


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_preservation_accepts_moved_trios(fam):
    for n in (4, 8, 12):
        rng = np.random.default_rng(n)
        rs = [moved_member(rng, FamilyTag(fam), n, 2) for _ in range(3)]
        res = verify_preservation(rs, random_isometry_family(3, n, 2, rng), fam)
        assert res.certificate.verified


# -- when the rung does not run -----------------------------------------------------


@pytest.mark.parametrize("name,fam", [("f", Family.POSITIVE_REAL), ("F1", Family.POSITIVE_REAL),
                                      ("F2", Family.POSITIVE_REAL), ("F3", Family.POSITIVE_REAL),
                                      ("g", Family.BOUNDED_REAL)])
def test_singular_or_indefinite_rx_skips_the_rung(monkeypatch, name, fam):
    r = fixture(name)
    assert _riccati_certificate(r, FamilyTag(fam), None) == ([], "Rx not positive definite")
    on = solve_p(r, fam)
    riccati_off(monkeypatch)
    off = solve_p(r, fam)
    assert type(on) is type(off)
    if isinstance(on, Certificate):
        assert on.p.tobytes() == off.p.tobytes() and on.status is off.status
    else:
        assert on.best_p.tobytes() == off.best_p.tobytes() and on.stop == off.stop


@pytest.mark.parametrize("r,fam", [
    (moved_member(np.random.default_rng(5), FamilyTag(Family.BOUNDED_REAL), 6, 2), Family.BOUNDED_REAL),
    (moved_member(np.random.default_rng(6), FamilyTag(Family.DISCRETE_POSITIVE_REAL), 6, 2),
     Family.DISCRETE_POSITIVE_REAL),
    (resonance(1.001, 1e-3, 0.1), Family.BOUNDED_REAL),
], ids=["member-b", "member-dp", "resonance"])
def test_failed_schur_reordering_falls_through(monkeypatch, caplog, r, fam):
    """LAPACK's reordering returns info = 1 when eigenvalues next to the axis
    cannot be separated; solve_p then goes on exactly as without the rung."""
    ztrsen = qmi.ztrsen

    def failing(*args, **kwargs):
        return (*ztrsen(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(qmi, "ztrsen", failing)
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        failed = solve_p(r, fam)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "kypcert.qmi"]
    assert len(lines) == 1
    assert lines[0].startswith(f"solve_p {fam.value} n={r.n} m={r.m}: Schur reordering failed; ")
    riccati_off(monkeypatch)
    off = solve_p(r, fam)
    assert type(failed) is type(off)
    if isinstance(off, Certificate):
        assert failed.p.tobytes() == off.p.tobytes() and failed.status is off.status
    else:
        assert failed.best_p.tobytes() == off.best_p.tobytes() and failed.stop == off.stop
        assert failed.witness == off.witness


ORDERED_SCHUR_CASES = [(FamilyTag(fam), n) for fam in Family for n in (1, 2, 4, 8, 16, 24)]


@pytest.mark.parametrize("tag,n", ORDERED_SCHUR_CASES, ids=[f"{t.family.value}-n{n}" for t, n in ORDERED_SCHUR_CASES])
def test_ordered_schur_form_is_scipys_lhp_sorted_schur_form(tag, n):
    rng = np.random.default_rng(n)
    hams = []
    for m in (1, 2, 3):
        g = _continuous(moved_member(rng, tag, n, m), tag)[0]
        hams.append(_hamiltonian(g.A, g.B, _popov_blocks(g, _io_weight(tag, g.m)), _RICCATI_EPS))
    if tag.family is Family.BOUNDED_REAL and n == 2:
        r = resonance(1.001, 1e-3, 0.1)
        hams.append(_hamiltonian(r.A, r.B, _popov_blocks(r, _io_weight(tag, 1)), _RICCATI_EPS))
    for h in hams:
        t, u, k = _ordered_schur(h)
        t_ref, u_ref, k_ref = scipy.linalg.schur(h, output="complex", sort="lhp")
        assert k == k_ref
        assert t.tobytes() == t_ref.tobytes() and u.tobytes() == u_ref.tobytes()


def test_non_finite_hamiltonian_skips_the_rung():
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[1e200]], C=[[1.0]], D=[[1.0]])
    assert _riccati_certificate(r, FamilyTag(Family.POSITIVE_REAL), None) == ([], "H not finite")


@pytest.mark.parametrize("fam", [Family.POSITIVE_REAL, Family.BOUNDED_REAL], ids=lambda f: f.value)
def test_huge_entries_give_a_typed_result_without_warnings(fam):
    # B B* overflows in the Hamiltonian and F F* in the witness screen at
    # B = 1e200; at B = 1e150, H is finite but its norm overflows
    for b in (1e200, 1e150):
        r = Realization(n=1, m=1, A=[[-1.0]], B=[[b]], C=[[1.0]], D=[[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_p(r, fam)
        assert isinstance(res, (Certificate, NotFound))
        if isinstance(res, Certificate):
            assert verify_kyp(r, res.p, fam).verified


@pytest.mark.parametrize("fam,r", OVERFLOWING_Q, ids=[fam.value for fam, _ in OVERFLOWING_Q])
def test_overflowing_q_raises_a_typed_error(fam, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="Q overflows"):
            verify_kyp(r, np.eye(1), fam)
        with pytest.raises(NumericalFailure, match="Q overflows"):
            solve_p(r, fam)


# -- the shifted pass ---------------------------------------------------------------


#: lightly damped members on which the first pass meets axis eigenvalues
SHIFTED_MEMBERS = [
    (resonance(0.99, 1e-5, 0.37), "b"),
    (resonance(0.9, 1e-4, 1.0), "b"),
    (resonance(0.95, 1e-3, 0.37), "b"),
    (discrete(resonance(0.99, 1e-5, 0.37)), "db"),
]


@pytest.mark.parametrize("r,code", SHIFTED_MEMBERS, ids=["b-1e-5", "b-1e-4", "b-1e-3", "db-1e-5"])
def test_lightly_damped_members_are_verified_by_the_shifted_pass(tmp_path, capsys, r, code):
    fam = FAMILY_CODES[code]
    judged, why = _riccati_certificate(r, FamilyTag(fam), None)
    assert why == "axis eigenvalue; certified by the shifted rung"
    cert = solve_p(r, fam)
    assert isinstance(cert, Certificate) and cert.p.tobytes() == judged[-1].p.tobytes()
    assert verify_kyp(r, cert.p, fam).verified and balance(r, cert)[1].verified
    path = str(tmp_path / "r.json")
    save_realization(path, r)
    assert main(["check", "--family", code, "--solve", "--deterministic", path]) == 0
    assert '"status": "verified"' in capsys.readouterr().out


def test_a_rejected_shifted_p_is_judged_and_counted():
    # zeta w = 2.3e-7: the shifted pass's margin 2e-3 zeta w lies below the
    # rounding of Q, so verify_kyp leaves its P inconclusive
    r = resonance(0.7, 1e-5, 0.023)
    judged, why = _riccati_certificate(r, FamilyTag(Family.BOUNDED_REAL), None)
    assert why == "axis eigenvalue" and [c.status for c in judged] == [CertificateStatus.INCONCLUSIVE]
    res = solve_p(r, Family.BOUNDED_REAL)
    # judged: the shifted P, the deflated rung's P and the identity
    assert isinstance(res, NotFound) and res.stop == "no-certificate" and res.iterations == 3
    assert res.best_p.tobytes() == judged[0].p.tobytes() and res.min_eig_q == judged[0].min_eig_q


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gain=st.floats(1.0001, 1.5), log_zeta=st.floats(-6.0, -1.0), log_w=st.floats(-2.0, 2.0))
def test_resonances_with_gain_above_one_never_verify(gain, log_zeta, log_w):
    r = resonance(gain, 10.0**log_zeta, 10.0**log_w)
    for res in (solve_p(r, Family.BOUNDED_REAL), solve_p(discrete(r), Family.DISCRETE_BOUNDED_REAL)):
        assert isinstance(res, NotFound) and res.stop == "witness"


# -- one DEBUG line per call --------------------------------------------------------


def _unstable(b):
    """1 + 1/(s - 1) scaled: Phi(F(i w)) = 2 + 2 Re(b / (i w - 1)) >= 2 - 2|b|,
    so positive for |b| < 1, but the pole at 1 rules out every P > 0."""
    return Realization(n=1, m=1, A=[[1.0]], B=[[b]], C=[[1.0]], D=[[1.0]])


@pytest.mark.parametrize("r,fam,message", [
    (fixture("f"), Family.BOUNDED_REAL, "certified by the Riccati rung at eps=1e-06"),
    (fixture("f"), Family.POSITIVE_REAL, "Rx not positive definite; certified by the deflated rung"),
    (fixture("g"), Family.POSITIVE_REAL, "axis eigenvalue; certified by the deflated rung"),
    (Realization(n=2, m=1, A=np.diag([-1.0, -2.0]), B=np.ones((2, 1)), C=np.ones((1, 2)), D=[[0.0]]),
     Family.POSITIVE_REAL, "Rx not positive definite; certified by the deflated rung"),
    (resonance(), Family.BOUNDED_REAL, "axis eigenvalue; no certificate"),
    (_unstable(0.5), Family.POSITIVE_REAL, "verify_kyp rejected P; no certificate"),
    (_unstable(0.0), Family.POSITIVE_REAL, "U1 singular; no certificate"),
], ids=["certified", "rx", "axis", "identity", "none", "rejected", "u1"])
def test_one_debug_line_names_the_rung_or_the_reason(caplog, r, fam, message):
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        solve_p(r, fam)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "kypcert.qmi"]
    assert lines == [f"solve_p {fam.value} n={r.n} m={r.m}: {message}"]


def test_debug_line_names_the_shifted_pass(caplog):
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        cert = solve_p(resonance(0.99, 1e-5, 0.37), Family.BOUNDED_REAL)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "kypcert.qmi"]
    assert lines == ["solve_p bounded-real n=2 m=1: axis eigenvalue; certified by the shifted rung"]
    assert cert.verified


def test_debug_line_without_a_rung(caplog):
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        for d in (0.5, -0.5):
            solve_p(Realization(n=0, m=1, A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)),
                                D=[[d]]), Family.POSITIVE_REAL)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "kypcert.qmi"]
    assert lines == ["solve_p positive-real n=0 m=1: Q = Phi(D) is verified",
                     "solve_p positive-real n=0 m=1: Q = Phi(D) is refuted"]
