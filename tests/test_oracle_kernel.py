"""The batched oracle kernel against the per-point scan it replaced.

The reference evaluates F point by point with `evaluate` and keeps the worst
margin under a strict `<`, as the oracles did before evaluation was batched.
It judges each point by the oracles' one rule, margin >= -tol * scale (or
> tol * scale for the anti-discrete-bounded oracle), with the scale coded
here point by point: 1 + ||F v|| for the unit direction v the margin is taken
in (an eigenvector of F + F* from `np.linalg.eigh`, or ||F||_2 itself), and
2 + ||F*F - I||_2 for the lossless-bounded defect. Reports must agree field
for field and floats bit for bit; the kernel must
keep and skip the same points as `evaluate` and return the same values. As
the two share their arithmetic, the states the kernel returns are also held
to a backward-error bound that does not depend on either.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import lossless_member, rand_unitary

import kypcert.realization as realization
from kypcert import (
    Domain,
    DomainGrid,
    Family,
    MembershipReport,
    NumericalFailure,
    PoleAt,
    Realization,
    anti_db_oracle,
    evaluate,
    fixture,
    hyper_bounded_oracle,
    lossless_boundary_oracle,
    make_grid,
    membership_oracle,
)
from kypcert._linalg import min_eig, nearly_singular, sigma_min, spectral_norm
from kypcert.families import ORACLE_TOL
from kypcert.realization import _SCREEN_RTOL, POLE_RTOL, _evaluate_points, _pole_screen

# ---------------------------------------------------------------------------
# reference: the per-point scan
# ---------------------------------------------------------------------------


def ref_samples(r, points):
    """(z, F(z)) per point, F None where `evaluate` raises PoleAt."""
    out = []
    for z in points:
        try:
            out.append((complex(z), evaluate(r, z)))
        except PoleAt:
            out.append((complex(z), None))
    return out


def ref_scan(samples, margin_fn, strict=False):
    """(worst, point, used, skipped, passed); `margin_fn` gives one value's
    (margin, scale), and every kept point must clear tol times its scale."""
    worst, worst_point, used, skipped, passed = math.inf, None, 0, 0, True
    for z, f in samples:
        if f is None:
            skipped += 1
            continue
        used += 1
        margin, scale = margin_fn(f)
        passed &= margin > ORACLE_TOL * scale if strict else margin >= -ORACLE_TOL * scale
        if margin < worst:
            worst, worst_point = margin, z
    return worst, worst_point, used, skipped, passed


def _report(family, worst, point, used, skipped, passed, tol=ORACLE_TOL):
    return MembershipReport(
        family=family, verdict="pass" if passed else "fail", worst_point=point,
        worst_margin=worst, samples_used=used, skipped=skipped, tol=tol,
    )


def along(f, largest=False):
    """1 + ||F v|| for the unit eigenvector v of F + F* of its smallest
    eigenvalue, or of its eigenvalue of largest modulus."""
    w, v = np.linalg.eigh(f + f.conj().T)
    i = int(np.argmax(np.abs(w))) if largest else 0
    return 1.0 + np.linalg.norm(f @ v[:, i])


def ref_membership(samples, family: Family):
    if family.is_bounded:
        scan = ref_scan(samples, lambda f: (1.0 - spectral_norm(f), 1.0 + spectral_norm(f)))
    else:
        scan = ref_scan(samples, lambda f: (min_eig(f + f.conj().T), along(f)))
    return _report(family.value, *scan)


def ref_anti(samples):
    scan = ref_scan(samples, lambda f: (sigma_min(f) - 1.0, 1.0 + sigma_min(f)), strict=True)
    return _report("anti-discrete-bounded", *scan)


def ref_hyper(samples, eta, kind):
    bound = 1.0 if math.isinf(eta) else math.sqrt((eta - 1.0) / (eta + 1.0))
    scan = ref_scan(samples, lambda f: (bound - spectral_norm(f), 1.0 + spectral_norm(f)))
    return _report(f"{kind}(eta={eta:g})", *scan)


def ref_lossless(samples, n_boundary, kind, m):
    if kind == "LP":
        margin = lambda f: (-spectral_norm(f + f.conj().T), along(f, largest=True))  # noqa: E731
        parent, label = Family.POSITIVE_REAL, "lossless-positive"
    else:
        defect = lambda f: spectral_norm(f.conj().T @ f - np.eye(m))  # noqa: E731
        margin = lambda f: (-defect(f), 2.0 + defect(f))  # noqa: E731
        parent, label = Family.BOUNDED_REAL, "lossless-bounded"
    # each boundary point against a tolerance that scales with the size of F
    scan = ref_scan(samples[:n_boundary], margin)
    worst, point, used, skipped, within = scan
    parent_report = ref_membership(samples, parent)
    passed = within and parent_report.passed
    if not parent_report.passed and parent_report.worst_margin < worst:
        worst, point = parent_report.worst_margin, parent_report.worst_point
    return _report(label, worst, point, used, skipped, passed)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _random(rng, n, m, a=None):
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return Realization(n=n, m=m, A=c(n, n) / max(1, n) ** 0.5 if a is None else a, B=c(n, m), C=c(m, n), D=c(m, m))


def _rotated(rng, lam):
    """A unitarily similar to diag(lam), so its eigenvalues are lam to rounding."""
    q, _ = np.linalg.qr(rng.normal(size=(lam.size,) * 2) + 1j * rng.normal(size=(lam.size,) * 2))
    return (q * lam) @ q.conj().T


def _near(lam, scale, unit):
    """Each eigenvalue, and points 1e-13, 1e-11 and 1e-9 times scale off it
    along `unit` (tangent to the boundary, or into the interior)."""
    return np.concatenate([lam] + [lam + eps * scale * unit for eps in (1e-13, 1e-11, 1e-9)])


def _grids(seed, boundary_rhp=(), interior_rhp=(), boundary_disk=(), interior_disk=()):
    rhp = make_grid(Domain.RIGHT_HALF_PLANE, 64, 64, seed=seed)
    disk = make_grid(Domain.EXTERIOR_DISK, 64, 64, seed=seed)
    rhp = DomainGrid(Domain.RIGHT_HALF_PLANE, np.concatenate([rhp.boundary_points, boundary_rhp]),
                     np.concatenate([rhp.interior_points, interior_rhp]), seed)
    disk = DomainGrid(Domain.EXTERIOR_DISK, np.concatenate([disk.boundary_points, boundary_disk]),
                      np.concatenate([disk.interior_points, interior_disk]), seed)
    return rhp, disk


def _axis_case(rng, n, m, a, axis_lam, inner_lam):
    """A realization with eigenvalues `axis_lam` on the imaginary axis and
    `inner_lam` in the open right half plane, with grid points on and near
    each of them."""
    scale = float(np.linalg.norm(a, 2))
    return _random(rng, n, m, a=a), _grids(
        1, boundary_rhp=_near(axis_lam, scale, 1j), interior_rhp=_near(inner_lam, scale, 1.0)
    )


def _circle_case(rng, n, m, a, circle_lam, outer_lam):
    scale = float(np.linalg.norm(a, 2))
    circle = np.concatenate([circle_lam] + [circle_lam * np.exp(1j * eps * scale) for eps in (1e-13, 1e-11, 1e-9)])
    return _random(rng, n, m, a=a), _grids(
        2, boundary_disk=circle, interior_disk=_near(outer_lam, scale, outer_lam / np.abs(outer_lam))
    )


@functools.cache
def cases():
    rng = np.random.default_rng(20260)
    out = {}
    for n in (0, 1, 2, 8, 33):
        for m in (1, 3):
            out[f"random-n{n}-m{m}"] = (_random(rng, n, m), _grids(n + m))
    axis, inner = np.array([0.5j, -1.3j, 2.0j]), np.array([0.7 + 0.2j])
    circle, outer = np.exp(1j * np.array([0.4, -2.1, 3.0])), np.array([1.5 * np.exp(0.9j)])
    diag_rhp, diag_disk = np.concatenate([axis, inner]), np.concatenate([circle, outer])
    out["at-eigenvalues-diag-rhp"] = _axis_case(rng, 4, 2, np.diag(diag_rhp), axis, inner)
    out["at-eigenvalues-rotated-rhp"] = _axis_case(rng, 4, 2, _rotated(rng, diag_rhp), axis, inner)
    out["at-eigenvalues-diag-disk"] = _circle_case(rng, 4, 2, np.diag(diag_disk), circle, outer)
    out["at-eigenvalues-rotated-disk"] = _circle_case(rng, 4, 3, _rotated(rng, diag_disk), circle, outer)
    jordan = np.diag(np.full(3, 0.8j)) + np.diag(np.ones(2), 1)
    out["jordan-rhp"] = _axis_case(rng, 3, 1, jordan, np.array([0.8j]), np.zeros(0))
    jordan = np.diag(np.full(3, np.exp(0.3j))) + np.diag(np.ones(2), 1)
    out["jordan-disk"] = _circle_case(rng, 3, 2, jordan, np.array([np.exp(0.3j)]), np.zeros(0))
    v = np.eye(4, dtype=complex)
    v[:2, 1] = [1.0, 1e-8]
    out["kappa-1e8-rhp"] = _axis_case(rng, 4, 2, v @ np.diag(diag_rhp) @ np.linalg.inv(v), axis, inner)
    out["kappa-1e8-disk"] = _circle_case(rng, 4, 1, v @ np.diag(diag_disk) @ np.linalg.inv(v), circle, outer)
    # z = 0 is the first boundary point of every right-half-plane grid
    out["zero-A"] = (_random(rng, 3, 2, a=np.zeros((3, 3))), _grids(5))
    for name in ("f", "g", "F1", "F2", "F3"):
        out[f"fixture-{name}"] = (fixture(name), _grids(6))
    # m = n, and with the 32-entry budget blocks of n points: the shapes where
    # a stacked solve could read B as a stack of vectors instead of a matrix
    out["random-n3-m3"] = (_random(np.random.default_rng(20261), 3, 3), _grids(7))
    # an exact lossless member whose margin next to an axis pole, where
    # ||F|| is about 4e4, rounds to -2e-7: only the scaled rule passes it
    out["lossless-near-pole"] = (lossless_member(np.random.default_rng(3), Family.POSITIVE_REAL, 8, 2), _grids(3))
    # F + F* = diag(0, -2e-3) next to ||F|| = 1e6: a scale from all of F
    # would excuse the second direction's violation
    out["wide-spread"] = (Realization.constant(np.diag([1e6j, -1e-3])), _grids(4))
    return out


@functools.cache
def samples(case: str, domain: str):
    r, (rhp, disk) = cases()[case]
    return ref_samples(r, (rhp if domain == "rhp" else disk).points)


CASES = sorted(cases())

#: (name, grid, oracle call, reference from the per-point samples)
CALLS = [
    ("p", "rhp", lambda r, g: membership_oracle(r, Family.POSITIVE_REAL, g),
     lambda s, r, g: ref_membership(s, Family.POSITIVE_REAL)),
    ("b", "rhp", lambda r, g: membership_oracle(r, Family.BOUNDED_REAL, g),
     lambda s, r, g: ref_membership(s, Family.BOUNDED_REAL)),
    ("dp", "disk", lambda r, g: membership_oracle(r, Family.DISCRETE_POSITIVE_REAL, g),
     lambda s, r, g: ref_membership(s, Family.DISCRETE_POSITIVE_REAL)),
    ("db", "disk", lambda r, g: membership_oracle(r, Family.DISCRETE_BOUNDED_REAL, g),
     lambda s, r, g: ref_membership(s, Family.DISCRETE_BOUNDED_REAL)),
    ("anti-db", "disk", lambda r, g: anti_db_oracle(r, g), lambda s, r, g: ref_anti(s)),
    ("hyper-bounded", "rhp", lambda r, g: hyper_bounded_oracle(r, 3.0, g),
     lambda s, r, g: ref_hyper(s, 3.0, "hyper-bounded")),
    ("hyper-discrete-bounded", "disk", lambda r, g: hyper_bounded_oracle(r, 3.0, g),
     lambda s, r, g: ref_hyper(s, 3.0, "hyper-discrete-bounded")),
    ("hyper-inf", "rhp", lambda r, g: hyper_bounded_oracle(r, math.inf, g),
     lambda s, r, g: ref_membership(s, Family.BOUNDED_REAL)),
    ("LP", "rhp", lambda r, g: lossless_boundary_oracle(r, "LP", g),
     lambda s, r, g: ref_lossless(s, g.boundary_points.size, "LP", r.m)),
    ("LB", "rhp", lambda r, g: lossless_boundary_oracle(r, "LB", g),
     lambda s, r, g: ref_lossless(s, g.boundary_points.size, "LB", r.m)),
]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", [realization._BLOCK_ENTRIES, 32])
@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_evaluate(case, budget, monkeypatch):
    """Same kept set and bitwise the same values, with one block or many."""
    monkeypatch.setattr(realization, "_BLOCK_ENTRIES", budget)
    r, grids = cases()[case]
    for grid, domain in zip(grids, ("rhp", "disk")):
        values, keep = _evaluate_points(r, grid.points)
        ref = samples(case, domain)
        assert keep.tolist() == [f is not None for _, f in ref]
        for value, (z, f) in zip(values[keep], (s for s in ref if s[1] is not None)):
            assert value.tobytes() == f.tobytes(), z


@pytest.mark.parametrize("call", CALLS, ids=[c[0] for c in CALLS])
@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_per_point_scan(case, call):
    _, domain, oracle, reference = call
    r, (rhp, disk) = cases()[case]
    grid = rhp if domain == "rhp" else disk
    got, want = oracle(r, grid), reference(samples(case, domain), r, grid)
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0


def test_inputs_reach_the_paths_they_are_for():
    """Skips at and next to eigenvalues, the disabled screen on a Jordan
    block, kappa(V) near 1e8, and both outcomes of the lossless substitution."""
    c = cases()
    for case in ("at-eigenvalues-diag-rhp", "at-eigenvalues-rotated-disk", "jordan-rhp", "kappa-1e8-disk", "zero-A"):
        assert any(f is None for _, f in samples(case, "rhp") + samples(case, "disk")), case
    assert samples("zero-A", "rhp")[0] == (0j, None)
    for case in ("jordan-rhp", "jordan-disk"):
        assert _pole_screen(c[case][0].A, *realization._schur(c[case][0].A)) is None
    kappa = _pole_screen(c["kappa-1e8-rhp"][0].A, *realization._schur(c["kappa-1e8-rhp"][0].A))[1]
    assert 1e7 < kappa < 1e9
    substituted = []
    for case in CASES:
        r, (rhp, _) = c[case]
        for kind in ("LP", "LB"):
            rep = lossless_boundary_oracle(r, kind, rhp)
            substituted.append(rep.worst_point is not None and rep.worst_point.real != 0.0)
    assert any(substituted) and not all(substituted)


def test_near_pole_lossless_member_passes_the_scaled_rule_only():
    r, (rhp, _) = cases()["lossless-near-pole"]
    for rep in (membership_oracle(r, Family.POSITIVE_REAL, rhp), lossless_boundary_oracle(r, "LP", rhp)):
        assert rep.passed
        assert rep.worst_margin < -10 * ORACLE_TOL  # the absolute rule, worst >= -tol, refuted it
    assert ref_membership(samples("lossless-near-pole", "rhp"), Family.POSITIVE_REAL).passed


def test_kernel_logs_screen_and_skip_counts(caplog):
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("kypcert").handlers)
    c = cases()
    with caplog.at_level(logging.DEBUG, logger="kypcert"):
        membership_oracle(c["random-n8-m1"][0], Family.POSITIVE_REAL, c["random-n8-m1"][1][0])
        membership_oracle(c["jordan-rhp"][0], Family.POSITIVE_REAL, c["jordan-rhp"][1][0])
    first, second = (rec.args for rec in caplog.records)
    assert first[0] == 128 and first[1] == 128 and first[2] == 0 and first[3] == 0
    assert second[1] == 0 and second[2] == second[0] and second[3] > 0


def test_nearly_singular_edges():
    assert nearly_singular(np.zeros((2, 2)), POLE_RTOL)
    assert not nearly_singular(np.diag([1.0, POLE_RTOL]), POLE_RTOL)  # the rule is strict
    assert not nearly_singular(np.zeros((0, 0)), POLE_RTOL)
    assert nearly_singular(np.zeros((0, 3, 3)), POLE_RTOL).shape == (0,)
    assert nearly_singular(np.stack([np.eye(2), np.zeros((2, 2))]), POLE_RTOL).tolist() == [False, True]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    offset=st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-11, 1e-8, 1e-3, 1.0]),
)
def test_nearly_singular_agrees_with_two_svds(seed, n, offset):
    rng = np.random.default_rng(seed)
    a = _random(rng, n, 1).A
    lam = np.linalg.eigvals(a)
    z = lam + offset * (1.0 + np.abs(lam)) * np.exp(2j * np.pi * rng.random(n))
    stack = z[:, None, None] * np.eye(n) - a
    old = [sigma_min(x) < POLE_RTOL * max(spectral_norm(x), 1e-300) for x in stack]
    assert [nearly_singular(x, POLE_RTOL) for x in stack] == old
    assert nearly_singular(stack, POLE_RTOL).tolist() == old


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    log_cond=st.integers(0, 10),
    log_offset=st.integers(-16, -2),
)
def test_screen_keeps_what_evaluate_keeps(seed, n, log_cond, log_offset):
    """Non-normal A with kappa(V) up to about 1e10, points near its eigenvalues."""
    rng = np.random.default_rng(seed)
    v = _random(rng, n, 1).A @ np.diag(np.logspace(0, -log_cond, n))
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    r = _random(rng, n, 2, a=v @ np.diag(lam) @ np.linalg.inv(v))
    eig = np.linalg.eigvals(r.A)
    scale = 1.0 + np.abs(eig)
    points = np.concatenate([eig, eig + 10.0**log_offset * scale * np.exp(2j * np.pi * rng.random(n)), [0j, 1j]])
    values, keep = _evaluate_points(r, points)
    for z, kept, value in zip(points, keep, values):
        try:
            f = evaluate(r, z)
        except PoleAt:
            assert not kept, z
        else:
            assert kept and value.tobytes() == f.tobytes(), z


def _screen_input(rng, n, kind, log_cond, log_pert):
    """A of one of four kinds: random; upper triangular with repeated
    eigenvalues; diagonal moved by coordinates of condition 10**log_cond; a
    Jordan block moved by 10**log_pert."""
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "random":
        return c(n, n)
    if kind == "triangular":
        lam = c(int(rng.integers(1, n + 1)))
        return np.triu(c(n, n), 1) + np.diag(lam[rng.integers(0, lam.size, n)])
    if kind == "moved":
        t = rand_unitary(rng, n) @ np.diag(np.logspace(0, -log_cond, n)) @ rand_unitary(rng, n)
        return t @ np.diag(c(n)) @ np.linalg.inv(t)
    return c(1)[0] * np.eye(n) + np.diag(np.ones(n - 1), 1) + 10.0**log_pert * c(n, n)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(["random", "triangular", "moved", "jordan"]),
    log_cond=st.integers(0, 8),
    log_pert=st.integers(-14, -6),
)
def test_screen_bounds_hold(seed, n, kind, log_cond, log_pert):
    """V_T is upper triangular; the screen's kappa is at least kappa_2(V) and
    its sigma_min bound at most sigma_min(V), against an SVD of V = U V_T to
    that SVD's own accuracy, n eps kappa_2(V) relative; and every point it
    clears, on a grid and at 1e-12 to 1e-2 from the eigenvalues, passes the
    exact rule."""
    rng = np.random.default_rng(seed)
    a = _screen_input(rng, n, kind, log_cond, log_pert)
    t, u = realization._schur(a)
    lam, vt = np.linalg.eig(t)
    assert not np.tril(vt, -1).any()
    screen = _pole_screen(a, t, u)
    if screen is None:
        return
    _, kappa, delta, norm_a = screen
    v = u @ vt
    sv = np.linalg.svd(v, compute_uv=False)
    eps = np.finfo(float).eps
    slack = n * eps * sv[0] / sv[-1]
    assert kappa >= sv[0] / sv[-1] * (1.0 - slack)
    rounding = (n + 1) * eps * np.linalg.norm(a) * np.linalg.norm(v)
    sigma_bound = (np.linalg.norm(a @ v - v * lam) + rounding) / delta
    assert sigma_bound <= sv[-1] * (1.0 + slack)
    assert norm_a >= np.linalg.norm(a, 2) * (1.0 - n * eps)
    offsets = 10.0 ** np.arange(-12, -1)[:, None] * (1.0 + np.abs(lam)) * np.exp(2j * np.pi * rng.random((11, n)))
    points = np.concatenate([make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, seed=1).points, (lam + offsets).ravel()])
    # the clearing rule of `_evaluate_points`
    cleared = points[np.abs(points[:, None] - lam).min(axis=1) / kappa - delta > _SCREEN_RTOL * (np.abs(points) + norm_a)]
    for z in cleared:
        assert not nearly_singular(z * np.eye(n) - a, POLE_RTOL), z



def test_screen_is_off_where_the_eigenvector_inverse_overflows():
    """One eigenvalue twelve times over an upper triangle: V_T^-1 has entries
    near 1e179, whose squares overflow; the screen is off and warns nothing."""
    rng = np.random.default_rng(0)
    a = np.triu(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)), 1) + 0.3j * np.eye(12)
    assert _pole_screen(a, *realization._schur(a)) is None


#: c of the backward-error bound ||(zI - A) X - B||_F <= c n eps (||zI - A||_F ||X||_F + ||B||_F)
RESIDUAL_C = 50


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 7), st.sampled_from([33, 64])),
    log_cond=st.integers(0, 10),
    log_offset=st.integers(-16, -2),
)
def test_states_meet_the_backward_error_bound(seed, n, log_cond, log_offset):
    """Non-normal A with kappa(V) up to about 1e10 for n <= 7, random A for
    n = 33 and 64; points at and near the eigenvalues, and a few others."""
    rng = np.random.default_rng(seed)
    if n <= 7:
        v = _random(rng, n, 1).A @ np.diag(np.logspace(0, -log_cond, n))
        lam = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = _random(rng, n, 2, a=v @ np.diag(lam) @ np.linalg.inv(v))
    else:
        r = _random(rng, n, 2)
    eig = np.linalg.eigvals(r.A)
    scale = 1.0 + np.abs(eig)
    near = eig + 10.0**log_offset * scale * np.exp(2j * np.pi * rng.random(n))
    points = np.concatenate([eig, near, [0j, 1j], rng.normal(size=4) + 1j * rng.normal(size=4)])
    _, keep, xs = _evaluate_points(r, points, states=True)
    eps = np.finfo(float).eps
    for z, x in zip(points[keep], xs[keep]):
        zia = z * np.eye(n) - r.A
        residual = np.linalg.norm(zia @ x - r.B)
        assert residual <= RESIDUAL_C * n * eps * (np.linalg.norm(zia) * np.linalg.norm(x) + np.linalg.norm(r.B)), z


def test_failed_schur_form_raises_a_typed_error(monkeypatch):
    """LAPACK reports no convergence: every path through the Schur form
    raises NumericalFailure, and nothing falls back to another solve."""

    zgees = realization.zgees

    def no_convergence(select, a):
        return zgees(select, a)[:5] + (1,)

    monkeypatch.setattr(realization, "zgees", no_convergence)
    r, (rhp, _) = cases()["random-n8-m1"]
    for call in (
        lambda: evaluate(r, 1.0),
        lambda: _evaluate_points(r, rhp.points),
        lambda: membership_oracle(r, Family.POSITIVE_REAL, rhp),
    ):
        with pytest.raises(NumericalFailure, match="zgees info = 1"):
            call()
    assert not issubclass(NumericalFailure, np.linalg.LinAlgError)
    constant = cases()["random-n0-m1"][0]
    assert _evaluate_points(constant, rhp.points)[1].all()  # n = 0 needs no Schur form


def test_evaluate_is_the_kernel_on_one_point_without_the_screen(monkeypatch):
    """`evaluate` judges its point by the exact rule alone; a call with two
    or more points still screens."""
    r, (rhp, _) = cases()["random-n8-m1"]
    want = [evaluate(r, z) for z in rhp.points[:3]]

    def no_screen(*args):
        raise AssertionError("the screen ran")

    monkeypatch.setattr(realization, "_pole_screen", no_screen)
    for z, value in zip(rhp.points[:3], want):
        assert evaluate(r, z).tobytes() == value.tobytes()
    with pytest.raises(PoleAt):
        evaluate(r, np.linalg.eigvals(r.A)[0])
    with pytest.raises(AssertionError, match="the screen ran"):
        _evaluate_points(r, rhp.points[:2])
