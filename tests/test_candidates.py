"""The candidates `solve_p` judges after the Riccati rung.

The deflated rung fixes P B = Sx, which Q(P) >= 0 forces where Rx is
singular, and completes P with the rung on the reduced KYP form of order
n - rank B, deflating again where the rung finds no solution: exact for
lossless members and for the P B = C* that a singular D + D* forces in p;
the identity follows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import lossless_member, rand_complex, rand_coordinates, rand_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from kypcert import (
    Certificate,
    Family,
    FamilyTag,
    NotFound,
    Realization,
    balance,
    change_coordinates,
    fixture,
    solve_p,
    verify_kyp,
)
from kypcert.qmi import _deflated_p


def moved(rng, r, cond=3.0):
    """r in coordinates T with singular values drawn from [1, cond]."""
    s = np.exp(rng.uniform(0.0, math.log(cond), r.n))
    return change_coordinates(r, (rand_unitary(rng, r.n) * s) @ rand_unitary(rng, r.n))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fam=st.sampled_from(list(Family)),
    n=st.integers(1, 6),
    m=st.sampled_from([1, 2]),
)
def test_equalities_give_p_equal_to_i_on_balanced_lossless_members(seed, fam, n, m):
    r = lossless_member(np.random.default_rng(seed), fam, n, m)
    p = _deflated_p(r, FamilyTag(fam))
    assert verify_kyp(r, p, fam).verified
    assert np.allclose(p, np.eye(n), atol=1e-6)


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
@pytest.mark.parametrize("seed", range(4))
def test_lossless_fixtures_in_moved_coordinates(name, seed):
    rng = np.random.default_rng(seed)
    r = moved(rng, fixture(name, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))))
    cert = solve_p(r, Family.POSITIVE_REAL)
    assert isinstance(cert, Certificate) and verify_kyp(r, cert.p, Family.POSITIVE_REAL).verified
    assert balance(r, cert)[1].verified


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("seed", range(3))
def test_lossless_members_in_moved_coordinates(fam, seed):
    rng = np.random.default_rng(100 + seed)
    r = moved(rng, lossless_member(rng, fam, 2 + 2 * seed, 1 + seed % 2))
    cert = solve_p(r, fam)
    assert isinstance(cert, Certificate) and verify_kyp(r, cert.p, fam).verified


@pytest.mark.parametrize("name", ["f", "g", "F1", "F2", "F3"])
def test_fixture_members_in_p_balance(name):
    # D + D* singular (f, F1-F3) or a pole on the axis (g): the rung does not
    # run, and a later candidate gives a P that balance re-verifies
    r = fixture(name)
    cert = solve_p(r, Family.POSITIVE_REAL)
    assert isinstance(cert, Certificate) and cert.verified
    assert balance(r, cert)[1].verified


@pytest.mark.parametrize("fam", [Family.DISCRETE_POSITIVE_REAL, Family.DISCRETE_BOUNDED_REAL],
                         ids=lambda f: f.value)
def test_discrete_pole_next_to_minus_one(fam):
    # F(conj(u) z), realized by (u A, B, u C, D), is lossless with F; u puts
    # the pole of largest modulus at angle pi + 1e-3, where the bilinear
    # substitute without a rotation of the disk has a huge pole
    rng = np.random.default_rng(9)
    r = lossless_member(rng, fam, 5, 1)
    poles = r.poles()
    lam = poles[np.argmax(np.abs(poles))]
    u = -np.exp(1e-3j) * abs(lam) / lam
    r = moved(rng, Realization(n=5, m=1, A=u * r.A, B=r.B, C=u * r.C, D=r.D))
    p = _deflated_p(r, FamilyTag(fam))
    assert verify_kyp(r, p, fam).verified
    assert isinstance(solve_p(r, fam), Certificate)


def test_strictly_proper_member_is_certified_by_the_equalities():
    # F(s) = 1 / (2 (2 s + 1)) in other coordinates: Rx = D + D* = 0 forces
    # P B = C*, which fixes P at n = 1
    r = change_coordinates(fixture("f"), np.array([[3.0]]))
    p = _deflated_p(r, FamilyTag(Family.POSITIVE_REAL))
    assert p == pytest.approx(np.array([[9.0]]))
    assert isinstance(solve_p(r, Family.POSITIVE_REAL), Certificate)


def test_n0_inconclusive_q_stops_without_a_certificate():
    # Q = Phi(D) = 2 D = -2e-8: below -tol, above -1000 tol
    res = solve_p(Realization.constant(np.array([[-1e-8]])), Family.POSITIVE_REAL)
    assert isinstance(res, NotFound)
    assert res.stop == "no-certificate" and res.witness is None and res.iterations == 1
    assert res.residual == pytest.approx(2e-8)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 1), (8, 1), (4, 2), (8, 2), (16, 2), (16, 4), (32, 4)])
def test_strictly_proper_p_members_in_moved_coordinates(n, m):
    # A + A* < 0, C = B*, D = 0: Rx = 0, so P B = C* is forced, and P = I in
    # the drawn coordinates leaves a deflated form with Rx > 0 for the rung
    rng = np.random.default_rng(1000 * n + m)
    for _ in range(5):
        h, g = rand_complex(rng, (n, n)), rand_complex(rng, (n, n))
        b = rand_complex(rng, (n, m))
        a = (h - h.conj().T) / 2 - g @ g.conj().T - 0.1 * np.eye(n)
        r = Realization(n=n, m=m, A=a, B=b, C=b.conj().T, D=np.zeros((m, m)))
        r = change_coordinates(r, rand_coordinates(rng, n, cond_max=100.0))
        cert = solve_p(r, Family.POSITIVE_REAL)
        assert isinstance(cert, Certificate) and verify_kyp(r, cert.p, Family.POSITIVE_REAL).verified


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_every_moved_lossless_member_is_certified(fam):
    # the corpus of test_check_lossless_on_certified_lossless_members_in_moved_coordinates:
    # n in {2, 4, 8, 16}, coordinates of condition up to 100
    for seed in range(50):
        rng = np.random.default_rng(seed)
        r = lossless_member(rng, fam, (2, 4, 8, 16)[seed % 4], 1 + seed % 2)
        s = np.exp(rng.uniform(0.0, math.log(100.0), r.n))
        r = change_coordinates(r, (rand_unitary(rng, r.n) * s) @ rand_unitary(rng, r.n))
        assert isinstance(solve_p(r, fam), Certificate), seed
