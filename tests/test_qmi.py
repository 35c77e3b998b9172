import math
import warnings

import numpy as np
import pytest
from helpers import (
    lossless_member,
    q_bounded_real,
    q_discrete_bounded_real,
    q_discrete_positive_real,
    q_positive_real,
    rand_coordinates,
    rand_hpd,
    rand_realization,
    rand_unitary,
    resonance,
    transfer_max_err,
    widely_scaled_certificate,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kypcert import (
    BadFamily,
    BadParams,
    Certificate,
    CertificateNotVerified,
    CertificateStatus,
    DimensionMismatch,
    Domain,
    EtaOutOfRange,
    Family,
    FamilyTag,
    NotFound,
    NotPositiveDefinite,
    Realization,
    SingularT,
    WMatrix,
    array_swap,
    assemble_q,
    balance,
    build_balanced_weight,
    build_weight,
    change_coordinates,
    check_lossless,
    evaluate,
    family_domain,
    fixture,
    invert_array,
    make_grid,
    membership_oracle,
    random_certified_realization,
    solve_p,
    verify_kyp,
    weight_rotation_delta_to_beta,
    weight_transfer_beta_to_gamma,
    weight_transfer_delta_to_alpha,
)

FAMILIES = list(Family)

ORACLES = {
    Family.POSITIVE_REAL: q_positive_real,
    Family.BOUNDED_REAL: q_bounded_real,
    Family.DISCRETE_POSITIVE_REAL: q_discrete_positive_real,
    Family.DISCRETE_BOUNDED_REAL: q_discrete_bounded_real,
}


# -- weight construction ------------------------------------------------------


def test_weight_dbr_identity_example():
    w = build_weight(Family.DISCRETE_BOUNDED_REAL, np.eye(1), 1)
    assert np.abs(w.entries - np.diag([-1.0, -1.0, 1.0, 1.0])).max() == 0.0


def test_weight_eta_infinite_equals_plain_bounded():
    p = rand_hpd(np.random.default_rng(0), 3)
    plain = build_weight(Family.BOUNDED_REAL, p, 2)
    with_inf = build_weight(FamilyTag(Family.BOUNDED_REAL, eta=np.inf), p, 2)
    assert np.abs(plain.entries - with_inf.entries).max() == 0.0


def test_weight_alpha_identity_is_balanced():
    w = build_weight(Family.POSITIVE_REAL, np.eye(3), 2)
    w_hat = build_balanced_weight(Family.POSITIVE_REAL, 3, 2)
    assert np.abs(w.entries - w_hat.entries).max() == 0.0


def test_balanced_weight_examples():
    w = build_balanced_weight(Family.DISCRETE_BOUNDED_REAL, 1, 1)
    assert np.abs(w.entries - np.diag([-1.0, -1.0, 1.0, 1.0])).max() == 0.0
    # permuting the bounded-real weight reproduces the discrete-positive one
    n, m = 2, 2
    wb = build_balanced_weight(Family.BOUNDED_REAL, n, m).entries
    wg = build_balanced_weight(Family.DISCRETE_POSITIVE_REAL, n, m).entries
    assert np.abs(wb @ weight_transfer_beta_to_gamma(n, m) - wg).max() == 0.0
    # the positive-real weight is symmetric with zero diagonal blocks
    wa = build_balanced_weight(Family.POSITIVE_REAL, n, m).entries
    assert np.abs(wa - wa.T).max() == 0.0
    assert np.abs(wa[: n + m, : n + m]).max() == 0.0
    assert np.abs(wa[n + m :, n + m :]).max() == 0.0


@pytest.mark.parametrize("n,m", [(-1, 1), (1, -1), (1, 0), (0, 0)])
def test_weight_dimensions_follow_the_realization_rule(n, m):
    # n >= 0 and m >= 1, as for a Realization: a typed error, not numpy's
    with pytest.raises(DimensionMismatch):
        build_balanced_weight(Family.POSITIVE_REAL, n, m)
    if n >= 0:
        with pytest.raises(DimensionMismatch):
            build_weight(Family.POSITIVE_REAL, np.eye(n), m)


def test_weight_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        build_weight(Family.POSITIVE_REAL, np.diag([1.0, -1.0]), 1)
    with pytest.raises(NotPositiveDefinite):
        build_weight(Family.POSITIVE_REAL, np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_weight_takes_every_p_that_cholesky_factors():
    # P = diag(d) P0 diag(d), d a permutation of geomspace(1e-5, 1e5, n): a
    # certificate in badly scaled coordinates, which eigvalsh can put below 0
    rng = np.random.default_rng(0)
    for i in range(600):
        n = 2 + i % 5
        d = rng.permutation(np.geomspace(1e-5, 1e5, n))
        p0 = np.eye(n) if i % 2 else rand_hpd(rng, n)
        p = d[:, None] * p0 * d[None, :]
        assert build_weight(Family.POSITIVE_REAL, p, 1).p_used.shape == (n, n)


def test_eta_validation():
    with pytest.raises(EtaOutOfRange):
        FamilyTag(Family.BOUNDED_REAL, eta=1.0)
    with pytest.raises(EtaOutOfRange):
        FamilyTag(Family.POSITIVE_REAL, eta=3.0)


def test_weight_relation_identities():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = rand_hpd(rng, n)
        wd = build_weight(Family.DISCRETE_BOUNDED_REAL, p, m).entries
        wb = build_weight(Family.BOUNDED_REAL, p, m).entries
        wa = build_weight(Family.POSITIVE_REAL, p, m).entries
        wg = build_weight(Family.DISCRETE_POSITIVE_REAL, p, m).entries
        u1 = weight_rotation_delta_to_beta(n, m)
        assert np.abs(u1.T @ wd @ u1 - wb).max() < 1e-12
        u2 = weight_transfer_beta_to_gamma(n, m)
        assert np.abs(wb @ u2 - wg).max() < 1e-12
        ua = weight_transfer_delta_to_alpha(n, m)
        assert np.abs(wd @ ua - wa).max() < 1e-12


def test_weight_spectrum_law():
    rng = np.random.default_rng(2)
    for fam in FAMILIES:
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        p = rand_hpd(rng, n)
        w = build_weight(fam, p, m)
        got = np.sort(np.linalg.eigvalsh(w.entries))
        ep = np.linalg.eigvalsh(p)
        expected = np.sort(np.concatenate([ep, -ep, np.ones(m), -np.ones(m)]))
        assert np.abs(got - expected).max() < 1e-8


@pytest.mark.parametrize("tag", ["p", "b", "b-eta3", "dp", "db"])
def test_weight_entries_follow_the_block_table(tag):
    # block order (n, m, n, m); the state tier comes from the time axis and
    # the io tier from the positive/bounded axis, written out per family.
    # Compared byte for byte: -I_m carries -0.0 off its diagonal, and wmat
    # prints the sign of a zero. At n = 0 only the io tier is left.
    m = 2
    for n in (0, 2):
        p = rand_hpd(np.random.default_rng(5), n)
        zn, znm, zmn, zm, im = np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, n)), np.zeros((m, m)), np.eye(m)
        family, rows = {
            "p": (Family.POSITIVE_REAL,
                  [[zn, znm, -p, znm], [zmn, zm, zmn, im], [-p, znm, zn, znm], [zmn, im, zmn, zm]]),
            "b": (Family.BOUNDED_REAL,
                  [[zn, znm, -p, znm], [zmn, -im, zmn, zm], [-p, znm, zn, znm], [zmn, zm, zmn, im]]),
            # (1 + eta) / (1 - eta) = -2 at eta = 3
            "b-eta3": (FamilyTag(Family.BOUNDED_REAL, eta=3.0),
                       [[zn, znm, -p, znm], [zmn, -2 * im, zmn, zm], [-p, znm, zn, znm], [zmn, zm, zmn, im]]),
            "dp": (Family.DISCRETE_POSITIVE_REAL,
                   [[-p, znm, zn, znm], [zmn, zm, zmn, im], [zn, znm, p, znm], [zmn, im, zmn, zm]]),
            "db": (Family.DISCRETE_BOUNDED_REAL,
                   [[-p, znm, zn, znm], [zmn, -im, zmn, zm], [zn, znm, p, znm], [zmn, zm, zmn, im]]),
        }[tag]
        expected = np.block(rows).astype(complex)
        assert expected.shape == (2 * (n + m),) * 2
        assert build_weight(family, p, m).entries.tobytes() == expected.tobytes(), n


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", range(5))
def test_weight_transfers_hold_exactly(n, m):
    # the three identities of acceptance criterion 01 and the swap law, with
    # no tolerance: a signed permutation moves entries without rounding, and
    # the rotation is R D^-1/2 with R of entries 0 and +-1, D = 2 on the state
    # tiers and 1 on the io tiers, so R* W_dbr(P) R = W_br(2P) holds in
    # integers for an integer P
    rng = np.random.default_rng(10 * n + m)
    p = rand_hpd(rng, n)
    wd, wb, wa, wg = (build_weight(f, p, m).entries for f in (
        Family.DISCRETE_BOUNDED_REAL, Family.BOUNDED_REAL, Family.POSITIVE_REAL, Family.DISCRETE_POSITIVE_REAL))
    u2, ua, us = weight_transfer_beta_to_gamma(n, m), weight_transfer_delta_to_alpha(n, m), array_swap(n, m)
    for u in (u2, ua, us):
        assert u.dtype == float and np.array_equal(u.T @ u, np.eye(2 * (n + m)))
    assert np.array_equal(wb @ u2, wg)
    assert np.array_equal(wd @ ua, wa)
    assert np.array_equal(us.T @ wa @ us, wa) and np.array_equal(us.T @ wd @ us, -wd)
    u1 = weight_rotation_delta_to_beta(n, m)
    d = np.ones(2 * (n + m))
    d[np.r_[:n, n + m : 2 * n + m]] = 2.0
    r = np.sign(u1)
    assert u1.dtype == float and np.array_equal(u1, r / np.sqrt(d)) and np.array_equal(u1, u1.T)
    assert np.array_equal(r.T @ r, np.diag(d))
    g = rng.integers(-3, 4, (n, n))
    p_int = g @ g.T + np.eye(n)
    wd_int = build_weight(Family.DISCRETE_BOUNDED_REAL, p_int, m).entries
    assert np.array_equal(r.T @ wd_int @ r, build_weight(Family.BOUNDED_REAL, 2 * p_int, m).entries)


# -- quadratic form assembly ---------------------------------------------------


def test_assemble_q_fixture_f_positive_real():
    q = assemble_q(fixture("f"), build_weight(Family.POSITIVE_REAL, [[1.0]], 1))
    assert np.abs(q - np.array([[1.0, 0.0], [0.0, 0.0]])).max() < 1e-14


def test_assemble_q_zero_array():
    p = rand_hpd(np.random.default_rng(3), 2)
    r = Realization(n=2, m=2, A=np.zeros((2, 2)), B=np.zeros((2, 2)),
                    C=np.zeros((2, 2)), D=np.zeros((2, 2)))
    q = assemble_q(r, build_weight(Family.DISCRETE_BOUNDED_REAL, p, 2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = p
    expected[2:, 2:] = np.eye(2)
    assert np.abs(q - expected).max() < 1e-14
    assert np.linalg.eigvalsh(q)[0] > 0


def test_assemble_q_fixture_f_discrete_bounded():
    q = assemble_q(fixture("f"), build_weight(Family.DISCRETE_BOUNDED_REAL, [[1.0]], 1))
    assert np.abs(q - np.array([[0.5, 0.25], [0.25, 0.75]])).max() < 1e-14


def test_assemble_q_matches_block_oracles():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        r = rand_realization(rng, n, m)
        p = rand_hpd(rng, n)
        for fam, oracle in ORACLES.items():
            q = assemble_q(r, build_weight(fam, p, m))
            assert np.abs(q - oracle(r, p)).max() < 1e-10


def test_assemble_q_eta_matches_refined_formula():
    rng = np.random.default_rng(5)
    r = rand_realization(rng, 2, 2)
    p = rand_hpd(rng, 2)
    eta = 3.0
    q = assemble_q(r, build_weight(FamilyTag(Family.BOUNDED_REAL, eta=eta), p, 2))
    cd = np.hstack([r.C, r.D])
    lin = np.block([[-p @ r.A - r.A.conj().T @ p, -p @ r.B],
                    [-r.B.conj().T @ p, np.eye(2)]])
    expected = lin - (eta + 1.0) / (eta - 1.0) * cd.conj().T @ cd
    assert np.abs(q - expected).max() < 1e-12


# -- verify_kyp ---------------------------------------------------------------


def test_verify_examples():
    f = fixture("f")
    assert verify_kyp(f, [[1.0]], Family.POSITIVE_REAL).verified
    assert verify_kyp(f, [[1.0]], Family.DISCRETE_BOUNDED_REAL).verified
    bad = verify_kyp(f, [[-1.0]], Family.POSITIVE_REAL)
    assert bad.status is CertificateStatus.REFUTED


def test_verify_constant_positive_real():
    r = Realization.constant(np.array([[1.0, 2.0], [0.0, 3.0]]))
    cert = verify_kyp(r, np.zeros((0, 0)), Family.POSITIVE_REAL)
    assert cert.verified
    assert np.abs(cert.q - (r.D + r.D.conj().T)).max() < 1e-14


def test_certificate_q_consistency():
    rng = np.random.default_rng(6)
    r = random_certified_realization(Family.BOUNDED_REAL, 2, 2, rng)
    cert = verify_kyp(r, np.eye(2), Family.BOUNDED_REAL)
    w = build_weight(Family.BOUNDED_REAL, cert.p, r.m)
    assert np.abs(cert.q - assemble_q(r, w)).max() < 1e-10
    assert cert.min_eig_q >= -1e-9 * (1 + np.linalg.norm(cert.q, 2))


def test_congruence_invariance():
    rng = np.random.default_rng(7)
    for fam in FAMILIES:
        r = random_certified_realization(fam, 3, 2, rng)
        t = rand_coordinates(rng, 3)
        moved = change_coordinates(r, t)
        cert = verify_kyp(moved, t.conj().T @ t, fam)
        assert cert.verified, fam


def test_swap_law_positive_real():
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = random_certified_realization(Family.POSITIVE_REAL, 2, 2, rng)
        if np.linalg.cond(r.array) > 1e4:
            continue
        inv = invert_array(r)
        assert verify_kyp(inv, np.eye(2), Family.POSITIVE_REAL).verified


def test_swap_law_discrete_bounded():
    rng = np.random.default_rng(9)
    for _ in range(10):
        r = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 2, rng)
        if np.linalg.cond(r.array) > 1e4:
            continue
        inv = invert_array(r)
        w = build_weight(Family.DISCRETE_BOUNDED_REAL, np.eye(2), 2)
        neg = WMatrix(family=w.family, n=w.n, m=w.m, entries=-w.entries, p_used=w.p_used)
        q = assemble_q(inv, neg)
        assert np.linalg.eigvalsh(q)[0] >= -1e-8


def test_swap_matrix_properties():
    n, m = 2, 3
    u = array_swap(n, m)
    p = rand_hpd(np.random.default_rng(10), n)
    wa = build_weight(Family.POSITIVE_REAL, p, m).entries
    wd = build_weight(Family.DISCRETE_BOUNDED_REAL, p, m).entries
    assert np.abs(u.T @ wa @ u - wa).max() == 0.0
    assert np.abs(u.T @ wd @ u + wd).max() == 0.0


def test_eta_monotonicity_same_p():
    rng = np.random.default_rng(11)
    eta_small = 2.0
    tag_small = FamilyTag(Family.BOUNDED_REAL, eta=eta_small)
    r = random_certified_realization(tag_small, 2, 2, rng)
    assert verify_kyp(r, np.eye(2), tag_small).verified
    for eta_big in (3.0, 10.0, 1e4, np.inf):
        assert verify_kyp(r, np.eye(2), FamilyTag(Family.BOUNDED_REAL, eta=eta_big)).verified


# -- solve_p ------------------------------------------------------------------


def test_solve_fixture_f_both_families():
    f = fixture("f")
    for fam in (Family.POSITIVE_REAL, Family.DISCRETE_BOUNDED_REAL):
        cert = solve_p(f, fam)
        assert isinstance(cert, Certificate) and cert.verified


def test_solve_g_discrete_bounded_not_found():
    g = fixture("g")
    res = solve_p(g, Family.DISCRETE_BOUNDED_REAL)
    assert isinstance(res, NotFound)
    assert res.residual > 0
    # and the sampling oracle refutes membership outright
    grid = make_grid(Domain.EXTERIOR_DISK, 32, 32, 0)
    assert membership_oracle(g, Family.DISCRETE_BOUNDED_REAL, grid).verdict == "fail"


def test_solve_constant():
    r = Realization.constant(np.array([[1.0, 0.5], [-0.5, 2.0]]))
    cert = solve_p(r, Family.POSITIVE_REAL)
    assert isinstance(cert, Certificate) and cert.verified
    assert cert.p.shape == (0, 0)


def test_solve_transformed_certified_instances():
    rng = np.random.default_rng(12)
    for fam in FAMILIES:
        r = random_certified_realization(fam, 2, 2, rng)
        moved = change_coordinates(r, rand_coordinates(rng, 2, cond_max=5.0))
        cert = solve_p(moved, fam)
        assert isinstance(cert, Certificate) and cert.verified, fam


def test_certified_discrete_bounded_instances_are_contractions():
    # independent route: the balanced discrete-bounded QMI is I - R*R >= 0,
    # so certified instances must have contractive arrays
    rng = np.random.default_rng(15)
    for _ in range(10):
        r = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 3, 2, rng)
        assert np.linalg.norm(r.array, 2) <= 1.0 + 1e-10


def test_certificate_implies_oracle():
    rng = np.random.default_rng(13)
    for fam in FAMILIES:
        r = random_certified_realization(fam, 2, 2, rng)
        grid = make_grid(family_domain(fam), 32, 32, 1)
        rep = membership_oracle(r, fam, grid)
        assert rep.worst_margin >= -1e-6, fam


@pytest.mark.parametrize("tol", [-1e-12, -5.0, np.nan, np.inf, -np.inf])
def test_a_negative_or_non_finite_tol_psd_raises(tol):
    f = fixture("f")
    with pytest.raises(BadParams, match="tol_psd"):
        verify_kyp(f, [[1.0]], Family.POSITIVE_REAL, tol)
    with pytest.raises(BadParams, match="tol_psd"):
        solve_p(f, Family.POSITIVE_REAL, tol_psd=tol)


def test_a_zero_tol_psd_is_a_tolerance():
    f = fixture("f")
    assert verify_kyp(f, [[1.0]], Family.POSITIVE_REAL, 0.0).verified
    assert isinstance(solve_p(f, Family.POSITIVE_REAL, tol_psd=0.0), Certificate)


def _svd_status(cert: Certificate) -> CertificateStatus:
    """The status rule of `verify_kyp` on the balanced form
    Q~ = diag(P^-1/2, I) Q diag(P^-1/2, I), written with eigh of P, and with
    its default tolerance taken from an SVD of Q~: 1e-9 * (1 + sigma_max(Q~))."""
    if not cert.min_eig_p > 0.0:
        return CertificateStatus.REFUTED
    w, v = np.linalg.eigh(cert.p)
    n = w.size
    s = np.eye(cert.q.shape[0], dtype=complex)
    s[:n, :n] = (v / np.sqrt(w)) @ v.conj().T
    q_bal = s @ cert.q @ s
    assert cert.min_eig_q == pytest.approx(np.linalg.eigvalsh(q_bal)[0], rel=1e-6, abs=1e-9)
    tol = 1e-9 * (1.0 + np.linalg.svd(q_bal, compute_uv=False)[0])
    if cert.min_eig_q >= -tol:
        return CertificateStatus.VERIFIED
    if cert.min_eig_q < -1e3 * tol:
        return CertificateStatus.REFUTED
    return CertificateStatus.INCONCLUSIVE


def test_default_tolerance_gives_the_status_of_the_svd_rule():
    # moved members with their solved P, and moved lossless members, where
    # Q(T* T) = 0, with T* T pushed off the feasible set by 1e-13 to 1e-3
    rng = np.random.default_rng(23)
    seen = set()
    for tag in [FamilyTag(fam) for fam in FAMILIES] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]:
        for n in (1, 2, 4, 8):
            t = (rand_unitary(rng, n) * np.geomspace(1.0, 10.0, n)) @ rand_unitary(rng, n)
            moved = change_coordinates(random_certified_realization(tag, n, 2, rng, contraction=0.9), t)
            found = solve_p(moved, tag)
            cases = [(moved, np.eye(n)), (moved, rand_hpd(rng, n))]
            if isinstance(found, Certificate):
                cases.append((moved, found.p))
            if math.isinf(tag.eta):
                lossless = change_coordinates(lossless_member(rng, tag.family, n, 2), t)
                h = rand_hpd(rng, n) - rand_hpd(rng, n)
                cases += [(lossless, t.conj().T @ t + d * h) for d in np.geomspace(1e-13, 1e-3, 11)]
            for r, p in cases:
                cert = verify_kyp(r, p, tag)
                assert cert.status is _svd_status(cert)
                seen.add(cert.status)
    assert seen == set(CertificateStatus)


def test_a_large_channel_excuses_no_violation_in_another():
    # F(inf) = D = diag(10^k, -delta) is not positive real; the default
    # tolerance was 1e-9 (1 + ||Q~||_2), which admitted -2 delta for large k
    r = Realization(n=1, m=2, A=[[-1.0]], B=[[1.0, 0.0]], C=[[1.0], [0.0]], D=np.diag([1e6, -1e-3]))
    assert verify_kyp(r, np.eye(1), Family.POSITIVE_REAL).status is CertificateStatus.REFUTED
    for k in range(9):
        for delta in (1e-6, 1e-5, 1e-3):
            d = np.diag([10.0**k, -delta])
            for r in (Realization.constant(d), Realization(n=1, m=2, A=[[-1.0]], B=[[1.0, 0.0]],
                                                           C=[[1.0], [0.0]], D=d)):
                assert isinstance(solve_p(r, Family.POSITIVE_REAL), NotFound), (k, delta, r.n)


def test_a_tiny_p_verifies_no_non_member():
    # F(s) = 2 / (s + 1) is not bounded real, yet Q(1e-12) lies within 1e-10
    # of the PSD cone; the same holds for a resonance with gain 1.0625
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[2e5]], C=[[1e-5]], D=[[0.0]])
    assert verify_kyp(r, 1e-12, Family.BOUNDED_REAL).status is CertificateStatus.REFUTED
    cert = verify_kyp(resonance(1.0625, 1e-6, 10.0**-1.5), 1e-10 * np.eye(2), Family.BOUNDED_REAL)
    assert cert.status is CertificateStatus.REFUTED


def test_a_p_that_cholesky_rejects_is_refuted():
    f = fixture("f")
    for p in ([[0.0]], [[-1e-300]]):
        assert verify_kyp(f, p, Family.POSITIVE_REAL).status is CertificateStatus.REFUTED


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from([FamilyTag(fam) for fam in FAMILIES] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]),
    n=st.integers(2, 8),
    m=st.sampled_from([1, 2]),
    member=st.booleans(),
    log_c=st.floats(-6.0, 6.0),
)
def test_status_does_not_move_with_the_scale_of_p_or_diagonal_coordinates(seed, tag, n, m, member, log_c):
    # members certified by P = I, and random arrays with a random P that is
    # clearly not a certificate; in coordinates T, P becomes T* P T, so
    # T = sqrt(c) I takes P to c P
    rng = np.random.default_rng(seed)
    if member:
        r, p = random_certified_realization(tag, n, m, rng, contraction=0.9), np.eye(n)
    else:
        r, p = rand_realization(rng, n, m), rand_hpd(rng, n)
    cert = verify_kyp(r, p, tag)
    assert cert.verified if member else True
    assume(member or cert.min_eig_q < -1e-3)
    c = 10.0**log_c
    scaled = verify_kyp(change_coordinates(r, math.sqrt(c) * np.eye(n)), c * p, tag)
    d = rng.permutation(np.geomspace(1e-5, 1e5, n))  # T = diag(d) spans 10 decades
    moved = verify_kyp(change_coordinates(r, np.diag(d)), d[:, None] * p * d[None, :], tag)
    for other in (scaled, moved):
        assert other.status is cert.status
        assert other.min_eig_q == pytest.approx(cert.min_eig_q, rel=1e-6, abs=1e-8)


# -- balance ------------------------------------------------------------------


def test_balance_already_balanced():
    f = fixture("f")
    cert = verify_kyp(f, [[1.0]], Family.POSITIVE_REAL)
    r_bal, new_cert = balance(f, cert)
    assert np.abs(r_bal.array - f.array).max() < 1e-14
    assert new_cert.verified and np.abs(new_cert.p - np.eye(1)).max() < 1e-14


def test_balance_recovers_transported_certificate():
    f = fixture("f")
    moved = change_coordinates(f, [[3.0]])
    cert = verify_kyp(moved, [[9.0]], Family.POSITIVE_REAL)
    assert cert.verified
    r_bal, new_cert = balance(moved, cert)
    assert new_cert.verified
    pts = [1.0, 2.0 + 1j, 0.5 - 2j, 4.0]
    assert transfer_max_err(r_bal, f, pts) < 1e-12
    # the balanced quadratic form is the congruence of the original one
    t = 1.0 / 3.0
    s = np.diag([t, 1.0]).astype(complex)
    assert np.abs(new_cert.q - s.conj().T @ cert.q @ s).max() < 1e-12


def test_balance_preserves_psd():
    rng = np.random.default_rng(14)
    r = random_certified_realization(Family.DISCRETE_POSITIVE_REAL, 3, 2, rng)
    moved = change_coordinates(r, rand_coordinates(rng, 3))
    cert = solve_p(moved, Family.DISCRETE_POSITIVE_REAL)
    assert isinstance(cert, Certificate)
    _, new_cert = balance(moved, cert)
    assert new_cert.min_eig_q >= -1e-9 * (1 + np.linalg.norm(new_cert.q, 2))


def test_widely_scaled_certificates_verify_and_balance():
    # P = diag(d) P0 diag(d) with d spread over 1e-5..1e5: cond(P) reaches 1e21,
    # past what eigvalsh(P) resolves, while zpotrf still factors P and
    # cond(L^-*) stays near 1e10, below COND_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(300):
            family, r, t, p = widely_scaled_certificate(seed)
            moved = change_coordinates(r, t)
            cert = verify_kyp(moved, p, family)
            assert cert.verified, seed
            r_bal, new_cert = balance(moved, cert)
            assert new_cert.verified, seed
            # balance changes coordinates by T = L^-*, P = L L*, so T* P T = I
            t_bal = np.linalg.inv(np.linalg.cholesky(p)).conj().T
            assert np.abs(t_bal.conj().T @ p @ t_bal - np.eye(r.n)).max() < 1e-9, seed
            expected = change_coordinates(moved, t_bal).array
            assert np.abs(r_bal.array - expected).max() < 1e-9 * np.abs(expected).max(), seed
            assert transfer_max_err(r_bal, r, [1j, 2.0 + 1j, -0.5j, 3.0]) < 1e-9, seed


@pytest.mark.parametrize("cond_t", [1.0, 1e3, 1e11, 5e11, 2e12, 1e13])
def test_balance_rejects_t_exactly_when_change_coordinates_would(cond_t):
    # P diagonal, so that the T = L^-* of balance is exactly the P^(-1/2)
    # that eigh gives here, and the SVD of T is exact
    rng = np.random.default_rng(31)
    n = 4
    r = rand_realization(rng, n, 2)
    w = rng.permutation(np.geomspace(1e-4, 1e-4 * cond_t**2, n))
    cert = Certificate(family=FamilyTag(Family.POSITIVE_REAL), p=np.diag(w).astype(complex), q=np.eye(n + 2),
                       min_eig_q=1.0, min_eig_p=float(w.min()), status=CertificateStatus.VERIFIED)
    vals, vecs = np.linalg.eigh(cert.p)
    t = (vecs / np.sqrt(vals)) @ vecs.conj().T
    try:
        expected = change_coordinates(r, t)
    except SingularT:
        with pytest.raises(SingularT):
            balance(r, cert)
        assert cond_t > 1e12
    else:
        assert balance(r, cert)[0].array.tobytes() == expected.array.tobytes()
        assert cond_t < 1e12


def test_balance_requires_verified():
    f = fixture("f")
    bad = verify_kyp(f, [[-1.0]], Family.POSITIVE_REAL)
    with pytest.raises(CertificateNotVerified):
        balance(f, bad)
    # a certificate built by hand as verified, whose P does not factor
    forged = Certificate(family=bad.family, p=bad.p, q=bad.q, min_eig_q=1.0, min_eig_p=-1.0,
                         status=CertificateStatus.VERIFIED)
    with pytest.raises(CertificateNotVerified):
        balance(f, forged)


# -- lossless -----------------------------------------------------------------


def test_check_lossless_examples():
    assert check_lossless(fixture("F1"), np.eye(2), Family.POSITIVE_REAL)
    assert not check_lossless(fixture("f"), [[1.0]], Family.POSITIVE_REAL)
    skew = Realization.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert check_lossless(skew, np.zeros((0, 0)), Family.POSITIVE_REAL)
    with pytest.raises(BadFamily):
        check_lossless(fixture("F1"), np.eye(2), Family.DISCRETE_BOUNDED_REAL)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fam=st.sampled_from([Family.POSITIVE_REAL, Family.BOUNDED_REAL]),
    n=st.integers(1, 6),
    m=st.sampled_from([1, 2]),
    delta=st.sampled_from([0.0, 1e-6, 1e-4]),
)
def test_check_lossless_does_not_move_with_diagonal_coordinates(seed, fam, n, m, delta):
    # exact lossless members (Q(I) = 0) and their copies damped to A - delta I,
    # with P = I and with a random P; in coordinates T, P becomes T* P T
    rng = np.random.default_rng(seed)
    r = lossless_member(rng, fam, n, m)
    r = Realization(n=n, m=m, A=r.A - delta * np.eye(n), B=r.B, C=r.C, D=r.D)
    d = rng.permutation(np.geomspace(1e-5, 1e5, n))  # T = diag(d) spans 10 decades
    for p, lossless in ((np.eye(n), delta == 0.0), (rand_hpd(rng, n), False)):
        assert check_lossless(r, p, fam) is lossless
        assert check_lossless(change_coordinates(r, np.diag(d)), d[:, None] * p * d[None, :], fam) is lossless


def test_check_lossless_on_certified_lossless_members_in_moved_coordinates():
    # the first 25 lossless members per family, n in {2, 4, 8, 16}, that
    # solve_p certifies in coordinates of condition up to 100; ||Q(P)||_2
    # scales with P, and the absolute rule refuted 9 of the 50
    for fam in (Family.POSITIVE_REAL, Family.BOUNDED_REAL):
        certified, seed = 0, 0
        while certified < 25:
            rng = np.random.default_rng(seed)
            r = lossless_member(rng, fam, (2, 4, 8, 16)[seed % 4], 1 + seed % 2)
            s = np.exp(rng.uniform(0.0, math.log(100.0), r.n))
            r = change_coordinates(r, (rand_unitary(rng, r.n) * s) @ rand_unitary(rng, r.n))
            cert = solve_p(r, fam)
            if isinstance(cert, Certificate):
                certified += 1
                assert check_lossless(r, cert.p, fam), (fam, seed)
            seed += 1


def test_lossless_fixture_transfer_against_cayley_pair():
    # the bounded-real side: Cayley image of a lossless-positive fixture has
    # unit modulus on the imaginary axis, so its lossless QMI vanishes too
    from kypcert import cayley_function

    f1 = fixture("F1")
    cf = cayley_function(f1)
    for y in (0.5, 1.5, -2.0):
        v = evaluate(cf, 1j * y)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-10


def test_build_weight_reads_p_by_the_rule_of_verify_kyp():
    # Hermitian within 1e-10 of its scale, and zpotrf factors herm(P)
    r = random_certified_realization(Family.POSITIVE_REAL, 2, 1, np.random.default_rng(0))
    near = np.eye(2) + 1e-11 * np.outer([1.0, 0.0], [0.0, 1.0])
    assert verify_kyp(r, near, Family.POSITIVE_REAL).verified
    assert check_lossless(r, near, Family.POSITIVE_REAL, 10.0)
    w = build_weight(Family.POSITIVE_REAL, near, 1)
    assert np.array_equal(w.p_used, near)  # the entries come from P as given
    far = np.eye(2) + 1e-9 * np.outer([1.0, 0.0], [0.0, 1.0])
    assert verify_kyp(r, far, Family.POSITIVE_REAL).status is CertificateStatus.REFUTED
    for p in (far, np.diag([1.0, -1.0])):
        with pytest.raises(NotPositiveDefinite, match="P must be Hermitian positive definite"):
            build_weight(Family.POSITIVE_REAL, p, 1)


@pytest.mark.parametrize("contraction", [1.5, 1.0, -0.1, math.nan, math.inf])
def test_sampler_rejects_a_contraction_outside_the_unit_interval(contraction):
    with pytest.raises(BadParams):
        random_certified_realization(Family.POSITIVE_REAL, 2, 1, 0, contraction=contraction)


@pytest.mark.parametrize("n,m", [(-1, 1), (2, 0)])
def test_sampler_rejects_bad_dimensions(n, m):
    with pytest.raises(DimensionMismatch):
        random_certified_realization(Family.POSITIVE_REAL, n, m, 0)


def test_sampler_takes_the_zero_contraction():
    r = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 1, 0, contraction=0.0)
    assert verify_kyp(r, np.eye(2), Family.DISCRETE_BOUNDED_REAL).verified
