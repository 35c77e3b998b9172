"""The frequency-witness screen of `solve_p`.

At a point z of the closed domain that is not a pole, the vector
v = [(zI - A)^-1 B u; u] gives v* Q(P) v = sigma(z) x* P x + u* Phi(F(z)) u
with sigma(z) <= 0, so lambda_min(Phi(F(z))) < 0 rules out every P >= 0.
The screen stops the certificate search after one iteration at a point
where lambda_min(Phi(F(z))) < -REFUTE_FACTOR * tau(z), tau being a
rounding-scaled tolerance. Its points are infinity, a boundary sweep, the
boundary projections of eig(A), circles around the eigenvalues of A inside
the open domain and, when those show nothing, the zero crossings of the
Popov function (imaginary-axis eigenvalues of a Hamiltonian) and the
midpoints between them.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from helpers import pole_inside, rand_coordinates, rand_realization, resonance
from hypothesis import given, settings
from hypothesis import strategies as st

import kypcert.qmi as qmi
from kypcert import (
    Certificate,
    Family,
    FamilyTag,
    NotFound,
    PoleAt,
    Realization,
    assemble_q,
    bilinear_substitute,
    change_coordinates,
    evaluate,
    family_domain,
    fixture,
    make_grid,
    random_certified_realization,
    solve_p,
)
from kypcert._linalg import min_eig, spectral_norm
from kypcert.qmi import (
    REFUTE_FACTOR,
    _axis_crossings,
    _crossing_points,
    _find_witness,
    _io_weight,
    _weight_entries,
    _witness_points,
    _witness_scores,
)

TAGS = [FamilyTag(fam) for fam in Family] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]

CODES = {"p": Family.POSITIVE_REAL, "b": Family.BOUNDED_REAL,
         "dp": Family.DISCRETE_POSITIVE_REAL, "db": Family.DISCRETE_BOUNDED_REAL}

#: the fixture x family pairs outside the family (closed forms in tests/helpers.py)
NON_MEMBERS = [("f", "dp"), ("g", "b"), ("g", "dp"), ("g", "db"),
               ("F1", "b"), ("F1", "dp"), ("F1", "db"),
               ("F2", "b"), ("F2", "dp"), ("F2", "db"),
               ("F3", "b"), ("F3", "dp"), ("F3", "db")]


def q_of(r, tag, p):
    return assemble_q(r, _weight_entries(tag, p, r.m))


def phi_of(tag, f):
    """Phi(F) = [F; I]* W_io [F; I], Hermitian-symmetrized."""
    g = np.vstack([f, np.eye(f.shape[0])])
    phi = g.conj().T @ _io_weight(tag, f.shape[0]) @ g
    return (phi + phi.conj().T) / 2


def reference_beta(r, tag, points):
    """The bound of the previous stop rule, written with `evaluate`:
    beta(z) = lambda_min(Phi(F(z))) / (1 + |x|^2), x = (zI - A)^-1 B u with u
    the eigenvector of lambda_min; +inf at poles and outside the closed
    domain."""
    out = []
    for z in points:
        if np.isinf(z):
            f, x = r.D, np.zeros((r.n, r.m))
        else:
            sigma = 1.0 - abs(z) ** 2 if tag.family.is_discrete else -2.0 * z.real
            if sigma > 8 * np.finfo(float).eps * (1.0 + abs(z) ** 2):
                out.append(np.inf)
                continue
            try:
                f = evaluate(r, z)
            except PoleAt:
                out.append(np.inf)
                continue
            x = np.linalg.solve(z * np.eye(r.n) - r.A, r.B)
        lam, u = np.linalg.eigh(phi_of(tag, f))
        out.append(lam[0] / (1.0 + np.linalg.norm(x @ u[:, 0]) ** 2))
    return np.array(out)


def screen_points(r, tag, seed):
    """The screen's own points, its crossings and a grid over the closed domain."""
    grid = make_grid(family_domain(tag), 8, 8, seed)
    return np.concatenate([_witness_points(r, tag), _crossing_points(r, tag), grid.points])


def screen_off(monkeypatch):
    monkeypatch.setattr(qmi, "_find_witness", lambda r, tag, tol_psd=None: None)


def count_screens(monkeypatch) -> list:
    """Record one entry per call of the screen, which still runs."""
    calls = []
    screen = qmi._find_witness

    def spy(*args):
        calls.append(1)
        return screen(*args)

    monkeypatch.setattr(qmi, "_find_witness", spy)
    return calls


# -- the point rule against the previous bound -----------------------------------


def assert_fires_wherever_beta_fired(r, tag):
    res = solve_p(r, tag)
    if isinstance(res, Certificate):
        return  # a candidate verified: the screen is never reached
    # the previous rule stopped once beta < -REFUTE_FACTOR * tol, with tol the
    # PSD tolerance of the iterate
    tol = qmi.PSD_TOL_SCALE * (1.0 + spectral_norm(q_of(r, tag, res.best_p)))
    points = _witness_points(r, tag)
    fired = reference_beta(r, tag, points) < -REFUTE_FACTOR * tol
    assert np.all(_witness_scores(r, tag, points[fired]) < -REFUTE_FACTOR)
    if fired.any():
        assert res.stop == "witness"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 3),
    m=st.integers(1, 2),
    scale=st.sampled_from([0.1, 1.0, 3.0]),
)
def test_point_rule_fires_wherever_beta_fired(seed, tag, n, m, scale):
    assert_fires_wherever_beta_fired(rand_realization(np.random.default_rng(seed), n, m, scale), tag)


@pytest.mark.parametrize("name,code", NON_MEMBERS, ids=lambda x: str(x))
def test_point_rule_fires_wherever_beta_fired_on_fixtures(name, code):
    assert_fires_wherever_beta_fired(fixture(name), FamilyTag(CODES[code]))


# -- members never meet the rule ----------------------------------------------------


def assert_never_fires(r, tag, near=()):
    """No screen, crossing, grid or `near` point meets the rule; returns the
    share of `near` points kept (not pole-adjacent)."""
    near = np.asarray(near, dtype=complex)
    scores = _witness_scores(r, tag, np.concatenate([screen_points(r, tag, 0), near]))
    assert scores.min() >= -REFUTE_FACTOR
    assert _find_witness(r, tag) is None
    return np.isfinite(scores[scores.size - near.size:]).mean() if near.size else 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 5),
    m=st.integers(1, 2),
    contraction=st.sampled_from([0.5, 0.9, 0.999]),
)
def test_members_never_meet_the_point_rule(seed, tag, n, m, contraction):
    rng = np.random.default_rng(seed)
    r = random_certified_realization(tag, n, m, rng, contraction=contraction)
    assert_never_fires(change_coordinates(r, rand_coordinates(rng, n)), tag)


def _near(centers, discrete, unit):
    """Boundary points 1e-2 ... 1e-11 times `unit` away from each center, on
    both sides."""
    steps = unit * np.array([s * 10.0 ** -e for e in range(2, 12) for s in (1, -1)])
    if discrete:
        return np.concatenate([c * np.exp(1j * steps) for c in centers])
    return np.concatenate([1j * (c.imag + steps) for c in centers])


@pytest.mark.parametrize("name,a,b", [("g", None, None)] + [
    (name, a, b) for name in ("F1", "F2", "F3") for a, b in ((1.0, 1.0), (0.3, -2.0), (3.0, 0.5))])
def test_fixture_members_never_meet_the_point_rule(name, a, b):
    r = fixture(name, a=a, b=b)
    tag = FamilyTag(Family.POSITIVE_REAL)
    assert assert_never_fires(r, tag, _near(r.poles(), False, max(spectral_norm(r.A), 1.0))) >= 0.9


def _pole_member(rng, discrete, jordan, m=2):
    """A member of p (or dp) with poles on the boundary: residues R >= 0 at
    i w (F = D + R / (s - i w)) or at |l| = 1 (F = D + R (z + l) / (z - l)).
    With `jordan`, each pole sits in a 2 x 2 Jordan block whose second state
    is uncontrollable, so F keeps its simple poles."""
    poles = np.exp(1j * rng.uniform(-3.0, 3.0, 2)) if discrete else 1j * rng.uniform(-5.0, 5.0, 2)
    blocks, bs, cs, d = [], [], [], np.zeros((m, m), dtype=complex)
    for lam in poles:
        g = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
        g *= np.sqrt(rng.uniform(0.01, 10.0))
        gain = 2.0 * lam if discrete else 1.0
        if jordan:
            blocks.append(np.array([[lam, 1.0], [0.0, lam]]))
            bs.append(np.vstack([g.conj().T, np.zeros((1, m))]))
            cs.append(np.hstack([gain * g, rng.standard_normal((m, 1))]))
        else:
            blocks.append(np.array([[lam]]))
            bs.append(g.conj().T)
            cs.append(gain * g)
        if discrete:
            d += g @ g.conj().T
    h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    d += (h - h.conj().T) / 2 + rng.choice([0.0, 1.0]) * (h @ h.conj().T)
    a = scipy.linalg.block_diag(*blocks)
    r = Realization(n=a.shape[0], m=m, A=a, B=np.vstack(bs), C=np.hstack(cs), D=d)
    return change_coordinates(r, rand_coordinates(rng, r.n)), poles


@pytest.mark.parametrize("discrete", [False, True], ids=["p", "dp"])
@pytest.mark.parametrize("jordan", [False, True], ids=["diagonal", "jordan"])
def test_members_with_boundary_poles_never_meet_the_point_rule(discrete, jordan):
    rng = np.random.default_rng(21)
    tag = FamilyTag(Family.DISCRETE_POSITIVE_REAL if discrete else Family.POSITIVE_REAL)
    for _ in range(15):
        r, poles = _pole_member(rng, discrete, jordan)
        kept = assert_never_fires(r, tag, _near(poles, discrete, max(spectral_norm(r.A), 1.0)))
        # sigma_min(zI - A) shrinks like d^2 next to a Jordan block, so the
        # pole rule drops the points from about 1e-6 on
        assert kept >= (0.4 if jordan else 0.8)


# -- the scores ----------------------------------------------------------------------


def test_score_is_lambda_min_over_tau():
    # F(s) = -10/(s + 1) at z = 0: F = -10 and X = 10, so Phi = -20 and
    # tau = 1e-9 (1 + 20 + 1 * (1 + |-1| |10| + 0)^2) = 1.42e-7
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[10.0]], C=[[-1.0]], D=[[0.0]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    assert _witness_scores(r, tag, [0j])[0] == pytest.approx(-20.0 / 1.42e-7)
    assert _witness_scores(r, tag, [0j], tol_psd=1e-3)[0] == pytest.approx(-2e4)
    assert _witness_scores(r, tag, [0j], tol_psd=0.0)[0] < -1e300
    assert min_eig(q_of(r, tag, np.zeros((1, 1)))) < 0.0


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
def test_bound_needs_the_closed_domain(tag):
    rng = np.random.default_rng(3)
    r = random_certified_realization(tag, 2, 2, rng)
    if tag.family.is_discrete:
        inside, outside = np.array([1.5 + 0.5j, -3.0j]), np.array([0.5j, -0.3 + 0.1j])
    else:
        inside, outside = np.array([0.5 + 2.0j, 3.0]), np.array([-0.5 + 2.0j, -3.0])
    assert np.all(np.isfinite(_witness_scores(r, tag, inside)))
    assert np.all(_witness_scores(r, tag, outside) == np.inf)
    # the screen's own boundary points all count as inside
    assert np.all(np.isfinite(_witness_scores(r, tag, _witness_points(r, tag))))


def test_pole_adjacent_points_are_dropped():
    r = fixture("F1")  # double pole at 0, on the imaginary axis
    tag = FamilyTag(Family.POSITIVE_REAL)
    scores = _witness_scores(r, tag, [0j, 1j])
    assert scores[0] == np.inf and np.isfinite(scores[1])
    # A = 0 keeps z = 1e-300 i, where F is about 1e300 and F*F overflows
    with np.errstate(all="ignore"):
        assert _witness_scores(r, FamilyTag(Family.BOUNDED_REAL), [1e-300j])[0] == np.inf


@pytest.mark.filterwarnings("error")
def test_points_where_the_states_overflow_are_dropped():
    # 1 + 1e308/(s - 1): on the circle around the pole inside the domain,
    # (zI - A)^-1 B overflows; those points score +inf, with no warning
    r = Realization(n=1, m=1, A=[[1.0]], B=[[1e308]], C=[[1.0]], D=[[1.0]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    points = _witness_points(r, tag)
    circle = np.isclose(np.abs(points - 1.0), 2e-3)
    assert circle.sum() == 8 and np.all(_witness_scores(r, tag, points)[circle] == np.inf)


# -- crossings of the Popov function --------------------------------------------------


def _with_crossings(rng, tag, n, m):
    """A random realization whose Phi changes sign on the boundary."""
    for _ in range(100):
        r = rand_realization(rng, n, m)
        r = Realization(n=n, m=m, A=r.A, B=r.B, C=r.C, D=0.2 * r.D)
        if _crossing_points(r, tag).size:
            return r
    raise AssertionError("no realization with crossings in 100 draws")


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
def test_crossings_are_zeros_of_phi(tag):
    rng = np.random.default_rng(8)
    for n, m in ((1, 1), (2, 1), (3, 2), (4, 2)):
        r = _with_crossings(rng, tag, n, m)
        g = bilinear_substitute(r) if tag.family.is_discrete else r
        w = _axis_crossings(g, _io_weight(tag, m))
        assert w.size
        z = (1.0 + 1j * w) / (1.0 - 1j * w) if tag.family.is_discrete else 1j * w
        for point in z:
            phi = phi_of(tag, evaluate(r, point))
            scale = 1.0 + np.linalg.norm(phi) + spectral_norm(_io_weight(tag, m)) * (
                1.0 + np.linalg.norm(evaluate(r, point))) ** 2
            assert np.abs(np.linalg.eigvalsh(phi)).min() <= 1e-8 * scale


def test_resonance_crossings():
    w = np.sort(_axis_crossings(resonance(), _io_weight(FamilyTag(Family.BOUNDED_REAL), 1)))
    assert w == pytest.approx([-0.37001, -0.36999, 0.36999, 0.37001], abs=2e-6)


@pytest.mark.parametrize("name,code", [("F1", "b"), ("F3", "b"), ("f", "p")])
def test_singular_rx_adds_no_crossings(name, code):
    # F1 and F3 have a unitary D, so I - D*D = 0 in b; f has D = 0
    assert _crossing_points(fixture(name), FamilyTag(CODES[code])).size == 0


# -- the stop rule in solve_p ---------------------------------------------------


@pytest.mark.parametrize("name,code", NON_MEMBERS, ids=lambda x: str(x))
def test_fixture_non_members_stop_on_a_witness(name, code):
    r, tag = fixture(name), FamilyTag(CODES[code])
    res = solve_p(r, tag)
    assert isinstance(res, NotFound)
    assert res.stop == "witness"
    assert res.residual > 0.0 and res.best_p.shape == (r.n,) * 2
    # the witness is the point of the most negative score
    points = _witness_points(r, tag)
    assert res.witness == points[np.argmin(_witness_scores(r, tag, points))]


def test_constant_past_the_hyper_bound_stops_on_a_witness():
    tag = FamilyTag(Family.BOUNDED_REAL, eta=1.05)  # bound sqrt(0.05/2.05) < 0.5
    state_space = Realization(n=1, m=1, A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[0.5]])
    res = solve_p(state_space, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"
    # n = 0: Q = Phi(D) does not depend on P, so the empty P is the one candidate
    res = solve_p(Realization.constant(0.5 * np.eye(1)), tag)
    assert isinstance(res, NotFound) and res.stop == "witness" and res.iterations == 1
    assert res.witness == complex(np.inf)


def test_witness_only_at_infinity():
    # F(s) = -1 + 200/(s + 100): Re F > 0 on every finite point of the sweep,
    # and F(inf) = -1
    r = Realization(n=1, m=1, A=[[-100.0]], B=[[1.0]], C=[[200.0]], D=[[-1.0]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    scores = _witness_scores(r, tag, _witness_points(r, tag))
    assert scores[0] < -REFUTE_FACTOR and scores[1:].min() > 0.0
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"
    assert res.witness == complex(np.inf)


def test_witness_only_at_a_projected_eigenvalue():
    # a resonance with |F(i w)| = 2 and a peak narrower than the sweep's steps
    r = resonance(gain=2.0, zeta=0.1)
    tag = FamilyTag(Family.BOUNDED_REAL)
    points = _witness_points(r, tag)
    scores = _witness_scores(r, tag, points)
    assert np.isclose(abs(points[np.argmin(scores)].imag), np.abs(np.linalg.eigvals(r.A).imag).max())
    assert scores[: 1 + qmi._WITNESS_SWEEP].min() > 0.0
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"


def _first_order(a, c, d, discrete):
    """F(s) = d + c / (s - a), or for `discrete` its image
    H(z) = F((z - 1)/(z + 1)) = d + k + k (1 + l) / (z - l) with
    k = c / (1 - a) and l = (1 + a)/(1 - a), which the Moebius map
    s = (z - 1)/(z + 1) carries from the axis onto the unit circle."""
    if not discrete:
        return Realization(n=1, m=1, A=[[a]], B=[[1.0]], C=[[c]], D=[[d]])
    k, lam = c / (1.0 - a), (1.0 + a) / (1.0 - a)
    return Realization(n=1, m=1, A=[[lam]], B=[[1.0]], C=[[k * (1.0 + lam)]], D=[[d + k]])


@pytest.mark.parametrize("case,discrete", [("gap", False), ("gap", True), ("pole", False)])
def test_witness_only_between_the_previous_points(monkeypatch, case, discrete):
    sig, w0 = 1e-3, 0.5
    if case == "gap":
        # F(s) = 1 - i k / (s + sig - i w0) with k = 2.2 sig: on the axis,
        # Re F(i(w0 + d)) = 1 - k d / (sig^2 + d^2) < 0 only for d in about
        # (0.64 sig, 1.56 sig), a gap between the sweep points and the
        # projected eigenvalue, where Re F = 1
        r = _first_order(-sig + 1j * w0, -2.2j * sig, 1.0, discrete)
    else:
        # F(s) = 1 + i sig / (s - i w0): Re F(i w) = 1 + sig / (w - w0) < 0
        # only for w in (w0 - sig, w0), between a crossing and the pole
        r = _first_order(1j * w0, 1j * sig, 1.0, discrete)
    tag = FamilyTag(Family.DISCRETE_POSITIVE_REAL if discrete else Family.POSITIVE_REAL)
    points = _witness_points(r, tag)
    assert _witness_scores(r, tag, points).min() > 0.0
    assert reference_beta(r, tag, points).min() > 0.0
    calls = count_screens(monkeypatch)
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"
    assert len(calls) == 1
    # back on the axis, the witness lies in the interval where Re F < 0
    s = (res.witness - 1.0) / (res.witness + 1.0) if discrete else res.witness
    d = s.imag - w0
    assert abs(s.real) < 1e-12
    assert 0.64 * sig < d < 1.56 * sig if case == "gap" else -sig < d < 0.0
    assert evaluate(r, res.witness)[0, 0].real < 0.0


def test_resonance_stops_on_a_witness_at_iteration_one(monkeypatch):
    r = resonance()
    tag = FamilyTag(Family.BOUNDED_REAL)
    # the previous bound divided lambda_min by |x|^2 of about 1.5e9 and
    # stayed far inside the PSD tolerance
    beta = reference_beta(r, tag, _witness_points(r, tag)).min()
    assert -1e-9 < beta < 0.0
    calls = count_screens(monkeypatch)
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"
    assert len(calls) == 1
    assert min(abs(res.witness - 0.37j), abs(res.witness + 0.37j)) < 1e-3
    assert abs(evaluate(r, res.witness)[0, 0]) > 1.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    gain=st.floats(1.001, 2.0),
    log_zeta=st.floats(-6.0, -1.0),
    log_w=st.floats(-2.0, 2.0),
)
def test_resonance_gain_above_one_always_refutes(gain, log_zeta, log_w):
    res = solve_p(resonance(gain, 10.0**log_zeta, 10.0**log_w), Family.BOUNDED_REAL)
    assert isinstance(res, NotFound) and res.stop == "witness"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    gain=st.floats(0.5, 0.999),
    log_zeta=st.floats(-6.0, -1.0),
    log_w=st.floats(-2.0, 2.0),
)
def test_resonance_gain_below_one_never_stops_on_a_witness(gain, log_zeta, log_w):
    r = resonance(gain, 10.0**log_zeta, 10.0**log_w)
    assert _find_witness(r, FamilyTag(Family.BOUNDED_REAL)) is None
    res = solve_p(r, Family.BOUNDED_REAL)
    assert isinstance(res, Certificate) or res.stop != "witness"


def test_user_tol_psd_is_the_tolerance():
    # Phi(F(inf)) = 2 D = -2e-6: below -1000 * 1e-10, above -1000 * 1e-8
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[-1e-6]])
    tag = FamilyTag(Family.POSITIVE_REAL)
    assert _find_witness(r, tag, 1e-10) == complex(np.inf)
    assert _find_witness(r, tag, 1e-8) is None


def test_members_are_unchanged_by_the_screen(monkeypatch):
    rng = np.random.default_rng(12)
    cases = []
    for fam in Family:
        for n, contraction in ((2, 0.95), (3, 0.95), (4, 0.7)):
            r = random_certified_realization(fam, n, 2, rng, contraction=contraction)
            cases.append((change_coordinates(r, rand_coordinates(rng, n)), fam))
    calls = count_screens(monkeypatch)
    on = [solve_p(r, fam) for r, fam in cases]
    # a candidate certifies every member, so none reaches the screen
    assert not calls
    screen_off(monkeypatch)
    off = [solve_p(r, fam) for r, fam in cases]
    for a, b in zip(on, off):
        assert isinstance(a, Certificate) and a.verified
        assert a.p.tobytes() == b.p.tobytes() and a.status is b.status


def test_stop_reasons(monkeypatch):
    g, tag = fixture("g"), FamilyTag(Family.BOUNDED_REAL)
    res = solve_p(g, tag)
    assert res.stop == "witness" and res.witness is not None
    screen_off(monkeypatch)
    res = solve_p(g, tag)
    # judged: the identity; Rx = 1 - D*D < 0 skips both passes of the rung
    # and the deflated rung
    assert res.stop == "no-certificate" and res.iterations == 1 and res.witness is None
    assert res.min_eig_q == min_eig(q_of(g, tag, res.best_p)) < 0.0
    assert res.residual == -res.min_eig_q


# -- points inside the domain ---------------------------------------------------


@pytest.mark.parametrize("code", ["p", "b", "dp", "db"])
def test_a_pole_inside_the_domain_stops_on_a_witness(code):
    # the boundary passes; F is unbounded beside the pole, so a point of the
    # circle of radius 1e-3 (1 + |pole|) around it refutes
    r, pole = pole_inside(code)
    tag = FamilyTag(CODES[code])
    assert _witness_scores(r, tag, _witness_points(r, tag)[: 1 + qmi._WITNESS_SWEEP + 1]).min() > 0.0
    res = solve_p(r, tag)
    assert isinstance(res, NotFound) and res.stop == "witness"
    assert np.isclose(abs(res.witness - pole), 1e-3 * (1.0 + abs(pole)), rtol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(TAGS),
    n=st.integers(1, 4),
    m=st.integers(1, 2),
    hidden=st.sampled_from(["uncontrollable", "unobservable"]),
)
def test_a_hidden_mode_inside_the_domain_never_gives_a_witness(seed, tag, n, m, hidden):
    # F of the padded array is the member's: analytic in the open domain,
    # so no circle point around the hidden mode meets the rule
    rng = np.random.default_rng(seed)
    r = random_certified_realization(tag, n, m, rng)
    radius = 1.05 + rng.uniform(0.0, 1.0)
    lam = radius * np.exp(2j * np.pi * rng.uniform()) if tag.family.is_discrete else radius - 1.0 + 1j * rng.normal()
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[:n, :n], a[n, n] = r.A, lam
    pad, zero = rng.normal(size=(1, m)) + 1j * rng.normal(size=(1, m)), np.zeros((1, m))
    b = np.vstack([r.B, zero if hidden == "uncontrollable" else pad])
    c = np.hstack([r.C, (pad if hidden == "uncontrollable" else zero).T])
    padded = Realization(n=n + 1, m=m, A=a, B=b, C=c, D=r.D)
    assert _find_witness(padded, tag) is None
    res = solve_p(padded, tag)
    assert isinstance(res, NotFound) and res.stop == "no-certificate"


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
@pytest.mark.parametrize("name", ["F2", "g"])
def test_no_circle_around_poles_on_the_boundary_or_outside(name, tag):
    # F2's poles +-i (one with Re 2.8e-17 after rounding) and g's pole 0 lie
    # on the boundary or outside the domain: the screen adds no circle there
    r = fixture(name)
    projections = r.n - int(tag.family.is_discrete and name == "g")
    assert _witness_points(r, tag).size == 1 + qmi._WITNESS_SWEEP + projections
