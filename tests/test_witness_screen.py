"""The frequency-witness screen of `solve_p`.

At a point z of the closed domain that is not a pole, the vector
v = [(zI - A)^-1 B u; u] gives v* Q(P) v = sigma(z) x* P x + u* Phi(F(z)) u
with sigma(z) <= 0, so beta(z) = lambda_min(Phi(F(z))) / (1 + |x|^2) bounds
min eig Q(P) from above for every P >= 0. The screen stops the certificate
search after one iteration when some beta lies below the refutation
threshold of `verify_kyp`.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import rand_coordinates, rand_hpd, rand_realization
from hypothesis import given, settings
from hypothesis import strategies as st

import kypcert.qmi as qmi
from kypcert import (
    Certificate,
    Family,
    FamilyTag,
    NotFound,
    Realization,
    assemble_q,
    change_coordinates,
    family_domain,
    fixture,
    make_grid,
    random_certified_realization,
    solve_p,
)
from kypcert._linalg import min_eig, spectral_norm
from kypcert.qmi import _weight_entries, _witness_bounds, _witness_points

TAGS = [FamilyTag(fam) for fam in Family] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]

CODES = {"p": Family.POSITIVE_REAL, "b": Family.BOUNDED_REAL,
         "dp": Family.DISCRETE_POSITIVE_REAL, "db": Family.DISCRETE_BOUNDED_REAL}

#: the fixture x family pairs outside the family (closed forms in tests/helpers.py)
NON_MEMBERS = [("f", "dp"), ("g", "b"), ("g", "dp"), ("g", "db"),
               ("F1", "b"), ("F1", "dp"), ("F1", "db"),
               ("F2", "b"), ("F2", "dp"), ("F2", "db"),
               ("F3", "b"), ("F3", "dp"), ("F3", "db")]


def resonance(gain: float = 1.05, zeta: float = 1e-4, w: float = 0.37) -> Realization:
    """gain * 2 zeta w s / (s^2 + 2 zeta w s + w^2), which peaks at |F(i w)| = gain."""
    return Realization(n=2, m=1, A=[[0.0, 1.0], [-w * w, -2 * zeta * w]], B=[[0.0], [1.0]],
                       C=[[0.0, gain * 2 * zeta * w]], D=[[0.0]])


def q_of(r, tag, p):
    return assemble_q(r, _weight_entries(tag, p, r.m))


def screen_points(r, tag, seed):
    """The screen's own points plus a grid over the closed domain."""
    grid = make_grid(family_domain(tag), 8, 8, seed)
    return np.concatenate([_witness_points(r, tag), grid.points])


def screen_off(monkeypatch):
    monkeypatch.setattr(qmi, "_witness_bounds", lambda r, tag, points: np.full(1, np.inf))


def count_screens(monkeypatch) -> list:
    """Record one entry per call of the screen, which still runs."""
    calls = []
    screen = qmi._witness_bounds

    def spy(*args):
        calls.append(1)
        return screen(*args)

    monkeypatch.setattr(qmi, "_witness_bounds", spy)
    return calls


# -- the inequality -------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    member=st.booleans(),
)
def test_beta_bounds_min_eig_q_for_every_psd_p(seed, tag, n, m, member):
    rng = np.random.default_rng(seed)
    if member:
        r = random_certified_realization(tag, n, m, rng, contraction=0.9)
        r = change_coordinates(r, rand_coordinates(rng, n))
    else:
        r = rand_realization(rng, n, m)
    points = screen_points(r, tag, seed)
    beta = _witness_bounds(r, tag, points)
    assert np.isfinite(beta[0])  # infinity is never a pole
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for p in (np.zeros((n, n)), np.eye(n), rand_hpd(rng, n, floor=0.0), 1e4 * rand_hpd(rng, n),
              g[:, :1] @ g[:, :1].conj().T):
        q = q_of(r, tag, p)
        slack = 1e-9 * (1.0 + spectral_norm(q))
        assert min_eig(q) <= beta.min() + slack


def test_beta_divides_by_the_length_of_v():
    # F(s) = -10/(s + 1) at z = 0: F = -10 and x = 10, so Phi = -20 and
    # |v|^2 = 101. Q(0) = [[0, -1], [-1, 0]] has min eig -1, above -20
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[10.0]], C=[[-1.0]], D=[[0.0]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    beta = _witness_bounds(r, tag, [0j])[0]
    assert beta == pytest.approx(-20.0 / 101.0)
    assert min_eig(q_of(r, tag, np.zeros((1, 1)))) <= beta
    assert min_eig(q_of(r, tag, np.eye(1))) <= beta


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
def test_bound_needs_the_closed_domain(tag):
    rng = np.random.default_rng(3)
    r = random_certified_realization(tag, 2, 2, rng)
    if tag.family.is_discrete:
        inside, outside = np.array([1.5 + 0.5j, -3.0j]), np.array([0.5j, -0.3 + 0.1j])
    else:
        inside, outside = np.array([0.5 + 2.0j, 3.0]), np.array([-0.5 + 2.0j, -3.0])
    assert np.all(np.isfinite(_witness_bounds(r, tag, inside)))
    assert np.all(_witness_bounds(r, tag, outside) == np.inf)
    # the screen's own boundary points all count as inside
    assert np.all(np.isfinite(_witness_bounds(r, tag, _witness_points(r, tag))))


def test_pole_adjacent_points_are_dropped():
    r = fixture("F1")  # double pole at 0, on the imaginary axis
    tag = FamilyTag(Family.POSITIVE_REAL)
    beta = _witness_bounds(r, tag, [0j, 1j])
    assert beta[0] == np.inf and np.isfinite(beta[1])


# -- the stop rule in solve_p ---------------------------------------------------


@pytest.mark.parametrize("name,code", NON_MEMBERS, ids=lambda x: str(x))
def test_fixture_non_members_stop_on_a_witness(name, code):
    res = solve_p(fixture(name), CODES[code])
    assert isinstance(res, NotFound)
    assert res.stop == "witness" and res.iterations == 1
    assert res.residual > 0.0 and res.best_p.shape == (fixture(name).n,) * 2


def test_constant_past_the_hyper_bound_stops_on_a_witness():
    tag = FamilyTag(Family.BOUNDED_REAL, eta=1.05)  # bound sqrt(0.05/2.05) < 0.5
    state_space = Realization(n=1, m=1, A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[0.5]])
    res = solve_p(state_space, tag)
    assert isinstance(res, NotFound) and res.stop == "witness" and res.iterations == 1
    # n = 0: Q = Phi(D) does not depend on P, so there is nothing to iterate
    res = solve_p(Realization.constant(0.5 * np.eye(1)), tag)
    assert isinstance(res, NotFound) and res.stop == "witness" and res.iterations == 0


def test_witness_only_at_infinity():
    # F(s) = -1 + 200/(s + 100): Re F > 0 on every finite point of the sweep,
    # and F(inf) = -1
    r = Realization(n=1, m=1, A=[[-100.0]], B=[[1.0]], C=[[200.0]], D=[[-1.0]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    beta = _witness_bounds(r, tag, _witness_points(r, tag))
    assert beta[0] == pytest.approx(-2.0) and beta[1:].min() > 0.0
    res = solve_p(r, tag, max_iter=50)
    assert isinstance(res, NotFound) and res.stop == "witness" and res.iterations == 1


def test_witness_only_at_a_projected_eigenvalue():
    # a resonance with |F(i w)| = 2 and a peak narrower than the sweep's steps
    r = resonance(gain=2.0, zeta=0.1)
    tag = FamilyTag(Family.BOUNDED_REAL)
    points = _witness_points(r, tag)
    beta = _witness_bounds(r, tag, points)
    assert np.isclose(abs(points[np.argmin(beta)].imag), np.abs(np.linalg.eigvals(r.A).imag).max())
    assert beta[: 1 + qmi._WITNESS_SWEEP].min() > 0.0
    res = solve_p(r, tag, max_iter=50)
    assert isinstance(res, NotFound) and res.stop == "witness" and res.iterations == 1


def test_resonance_witness_is_below_the_refutation_threshold(monkeypatch):
    r = resonance()
    tag = FamilyTag(Family.BOUNDED_REAL)
    beta = _witness_bounds(r, tag, _witness_points(r, tag)).min()
    assert -1e-9 < beta < 0.0  # a witness, but far inside the PSD tolerance
    calls = count_screens(monkeypatch)
    res = solve_p(r, tag, max_iter=20)
    assert isinstance(res, NotFound) and res.stop == "max-iter" and res.iterations == 20
    assert len(calls) == 1  # the screen runs at iteration 1 only


def test_members_are_unchanged_by_the_screen(monkeypatch):
    rng = np.random.default_rng(12)
    cases = []
    for fam in Family:
        for n, contraction in ((2, 0.95), (3, 0.95), (4, 0.7)):
            r = random_certified_realization(fam, n, 2, rng, contraction=contraction)
            cases.append((change_coordinates(r, rand_coordinates(rng, n)), fam))
    calls = count_screens(monkeypatch)
    on = [solve_p(r, fam) for r, fam in cases]
    # some members verify after iteration 1, past the screen; the rest never reach it
    assert 0 < len(calls) < len(cases)
    screen_off(monkeypatch)
    off = [solve_p(r, fam) for r, fam in cases]
    for a, b in zip(on, off):
        assert isinstance(a, Certificate) and a.verified
        assert a.p.tobytes() == b.p.tobytes() and a.status is b.status


def test_stop_reasons(monkeypatch):
    g = fixture("g")
    res = solve_p(g, Family.BOUNDED_REAL, max_iter=0)
    assert res.stop == "max-iter" and res.iterations == 0
    screen_off(monkeypatch)
    res = solve_p(g, Family.BOUNDED_REAL)
    assert res.stop == "stall" and 1 < res.iterations < 5000
    res = solve_p(g, Family.BOUNDED_REAL, max_iter=10)
    assert res.stop == "max-iter" and res.iterations == 10
