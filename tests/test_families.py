import dataclasses

import numpy as np
import pytest
from helpers import OVERFLOWING_F, lossless_member, rand_complex, transfer_max_err

from kypcert import (
    BadParams,
    Domain,
    DomainGrid,
    DomainMismatch,
    EtaOutOfRange,
    Family,
    FamilyTag,
    Realization,
    SingularIPlusA,
    SingularIPlusD,
    anti_db_oracle,
    check_lossless,
    bilinear_substitute,
    cayley_function,
    evaluate,
    family_domain,
    fixture,
    hyper_bounded_oracle,
    invert_function,
    lossless_boundary_oracle,
    make_grid,
    membership_oracle,
    random_certified_realization,
)
from kypcert._linalg import frobenius_norms, spectral_norms
from kypcert.families import ORACLE_TOL, _lossless_bounded_margin, _passes
from kypcert.realization import _evaluate_points


def with_points(grid: DomainGrid, extra) -> DomainGrid:
    return DomainGrid(
        domain=grid.domain,
        boundary_points=grid.boundary_points,
        interior_points=np.append(grid.interior_points, np.asarray(extra, dtype=complex)),
        seed=grid.seed,
    )


# -- grids --------------------------------------------------------------------


def test_grid_boundary_contains_origin():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 4, 0, 1)
    assert grid.boundary_points.size == 4
    assert np.abs(grid.boundary_points.real).max() == 0.0
    assert np.any(grid.boundary_points == 0.0)
    assert np.isfinite(grid.boundary_points.imag).all()


def test_grid_exterior_points_outside_disk():
    grid = make_grid(Domain.EXTERIOR_DISK, 4, 2, 1)
    assert np.abs(np.abs(grid.boundary_points) - 1.0).max() < 1e-14
    assert np.abs(grid.interior_points).min() > 1.0


def test_grid_deterministic_for_equal_seed():
    g1 = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 9)
    g2 = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 9)
    assert np.array_equal(g1.boundary_points, g2.boundary_points)
    assert np.array_equal(g1.interior_points, g2.interior_points)
    g3 = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 10)
    assert not np.array_equal(g2.interior_points, g3.interior_points)


def test_grid_validation():
    with pytest.raises(DomainMismatch):
        DomainGrid(domain=Domain.RIGHT_HALF_PLANE, boundary_points=[1.0 + 1j],
                   interior_points=[], seed=0)
    with pytest.raises(DomainMismatch):
        DomainGrid(domain=Domain.EXTERIOR_DISK, boundary_points=[1j],
                   interior_points=[0.5], seed=0)


# -- membership oracle ---------------------------------------------------------


def test_fixture_f_passes_discrete_bounded():
    grid = make_grid(Domain.EXTERIOR_DISK, 64, 64, 2)
    rep = membership_oracle(fixture("f"), Family.DISCRETE_BOUNDED_REAL, grid)
    assert rep.passed
    assert rep.samples_used == 128


def test_fixture_g_fails_discrete_bounded_with_witness():
    grid = with_points(make_grid(Domain.EXTERIOR_DISK, 32, 32, 2), [3.0])
    rep = membership_oracle(fixture("g"), Family.DISCRETE_BOUNDED_REAL, grid)
    assert rep.verdict == "fail"
    assert rep.worst_margin < -1.0  # |g| exceeds 1 by a wide margin somewhere
    val = abs(evaluate(fixture("g"), 3.0)[0, 0])
    assert abs(val - 10.0 / 3.0) < 1e-12


def test_identity_constant_in_all_four_families():
    r = Realization.constant(np.eye(2))
    for fam in Family:
        grid = make_grid(family_domain(fam), 16, 16, 3)
        assert membership_oracle(r, fam, grid).passed


def test_oracle_domain_mismatch():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, 0)
    with pytest.raises(DomainMismatch):
        membership_oracle(fixture("f"), Family.DISCRETE_BOUNDED_REAL, grid)


def test_oracle_skips_poles():
    # g has its pole at 0; F1 has one at 0 too, on the RHP boundary sweep
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 8, 4)
    rep = membership_oracle(fixture("F1"), Family.POSITIVE_REAL, grid)
    assert rep.skipped == 1
    assert rep.samples_used == 23
    assert rep.passed


# -- anti discrete-bounded ------------------------------------------------------


def test_anti_db_pass_for_inverse_of_contraction():
    rng = np.random.default_rng(5)
    while True:
        r = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 2, rng)
        if np.linalg.svd(r.D, compute_uv=False)[-1] > 0.1:
            break
    shrunk = Realization(n=r.n, m=r.m, A=r.A, B=r.B, C=0.5 * r.C, D=0.5 * r.D)
    anti = invert_function(shrunk)
    grid = make_grid(Domain.EXTERIOR_DISK, 32, 32, 5)
    rep = anti_db_oracle(anti, grid)
    assert rep.passed
    assert rep.worst_margin > 0.5  # sigma_min(F^-1) = 1/||F|| >= 2


def test_anti_db_fail_for_g():
    grid = with_points(make_grid(Domain.EXTERIOR_DISK, 32, 32, 6), [-2.0])
    rep = anti_db_oracle(fixture("g"), grid)
    assert rep.verdict == "fail"
    assert rep.worst_margin <= -1.0 + 1e-12  # witness g(-2) = 0


def test_anti_db_constant():
    grid = make_grid(Domain.EXTERIOR_DISK, 8, 8, 7)
    assert anti_db_oracle(Realization.constant(3.0 * np.eye(2)), grid).passed
    with pytest.raises(DomainMismatch):
        anti_db_oracle(Realization.constant(3.0 * np.eye(2)),
                       make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, 7))


# -- hyper bounded --------------------------------------------------------------


def test_hyper_bounded_zero_function_passes_any_eta():
    r = Realization.constant(np.zeros((2, 2)))
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 8)
    for eta in (1.01, 3.0, 100.0, np.inf):
        assert hyper_bounded_oracle(r, eta, grid).passed


def test_hyper_bounded_identity_fails_at_eta_3():
    r = Realization.constant(np.eye(2))
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 8)
    rep = hyper_bounded_oracle(r, 3.0, grid)
    assert rep.verdict == "fail"
    assert abs(rep.worst_margin - (np.sqrt(0.5) - 1.0)) < 1e-12


def test_hyper_bounded_nesting():
    rng = np.random.default_rng(9)
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 9)
    for _ in range(5):
        eta_small = float(rng.uniform(1.5, 5.0))
        eta_big = eta_small * float(rng.uniform(1.5, 4.0))
        bound = np.sqrt((eta_small - 1.0) / (eta_small + 1.0))
        r = random_certified_realization(Family.BOUNDED_REAL, 2, 2, rng)
        scaled = Realization(n=r.n, m=r.m, A=r.A, B=r.B, C=0.9 * bound * r.C, D=0.9 * bound * r.D)
        assert hyper_bounded_oracle(scaled, eta_small, grid).passed
        assert hyper_bounded_oracle(scaled, eta_big, grid).passed


def test_hyper_bounded_eta_validation_and_infinite_case():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, 10)
    r = Realization.constant(0.5 * np.eye(1))
    with pytest.raises(EtaOutOfRange):
        hyper_bounded_oracle(r, 1.0, grid)
    rep_inf = hyper_bounded_oracle(r, np.inf, grid)
    rep_member = membership_oracle(r, Family.BOUNDED_REAL, grid)
    assert rep_inf.passed and abs(rep_inf.worst_margin - rep_member.worst_margin) < 1e-14


@pytest.mark.parametrize("eta", [1.05, 3.0, np.inf])
def test_membership_oracle_honours_the_eta_of_its_tag(eta):
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 12)
    members = [Realization.constant(0.9 * np.eye(1)),
               random_certified_realization(Family.BOUNDED_REAL, 2, 2, np.random.default_rng(12))]
    for r in members:
        via_tag = membership_oracle(r, FamilyTag(Family.BOUNDED_REAL, eta), grid)
        direct = hyper_bounded_oracle(r, eta, grid)
        for field in dataclasses.fields(direct):
            if field.name != "family":
                assert getattr(via_tag, field.name) == getattr(direct, field.name), field.name
        assert via_tag.family == ("bounded-real" if np.isinf(eta) else direct.family)


def test_membership_oracle_refutes_a_constant_above_the_eta_bound():
    # sqrt((3-1)/(3+1)) = 0.707... < 0.9 < 1
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 12)
    r = Realization.constant(0.9 * np.eye(1))
    assert membership_oracle(r, Family.BOUNDED_REAL, grid).passed
    rep = membership_oracle(r, FamilyTag(Family.BOUNDED_REAL, 3.0), grid)
    assert rep.verdict == "fail"
    assert rep.family == "hyper-bounded(eta=3)"
    assert abs(rep.worst_margin - (np.sqrt(0.5) - 0.9)) < 1e-12


def test_hyper_discrete_bounded_uses_exterior_grid():
    grid = make_grid(Domain.EXTERIOR_DISK, 16, 16, 11)
    rep = hyper_bounded_oracle(fixture("f"), 1e6, grid)
    assert rep.family.startswith("hyper-discrete-bounded")
    assert rep.passed  # sup |f| over the exterior is 1/2 at z = -1 side


# -- lossless boundary ----------------------------------------------------------


_RHP = make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, 0)

#: each library oracle as a function of its tolerance alone
ORACLES_BY_TOL = {
    "membership": lambda tol: membership_oracle(fixture("F2"), Family.POSITIVE_REAL, _RHP, tol),
    "hyper-bounded": lambda tol: hyper_bounded_oracle(fixture("f"), 3.0, _RHP, tol),
    "lossless-boundary": lambda tol: lossless_boundary_oracle(fixture("F2"), "LP", _RHP, tol),
    "anti-db": lambda tol: anti_db_oracle(fixture("g"), make_grid(Domain.EXTERIOR_DISK, 8, 8, 0), tol),
    "check-lossless": lambda tol: check_lossless(fixture("F2"), np.eye(2), Family.POSITIVE_REAL, tol),
}


@pytest.mark.parametrize("tol", [-2.0, np.nan, np.inf])
@pytest.mark.parametrize("oracle", ORACLES_BY_TOL)
def test_a_negative_or_non_finite_oracle_tolerance_raises(oracle, tol):
    with pytest.raises(BadParams, match="tol must be finite and non-negative"):
        ORACLES_BY_TOL[oracle](tol)


def test_lossless_boundary_f1_passes():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 12)
    rep = lossless_boundary_oracle(fixture("F1"), "LP", grid)
    assert rep.passed
    assert rep.samples_used >= 15


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_lossless_boundary_fixtures_pass(name):
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 12)
    assert lossless_boundary_oracle(fixture(name), "LP", grid).passed


def skew_lossless(n, m, seed, delta=0.0) -> Realization:
    """B*(sI - A + delta I)^-1 B + D with A and D skew-Hermitian: lossless
    positive-real at delta = 0, damped (not lossless) for delta > 0."""
    rng = np.random.default_rng(seed)
    a, b, d = rand_complex(rng, (n, n)), rand_complex(rng, (n, m)), rand_complex(rng, (m, m))
    return Realization(n=n, m=m, A=(a - a.conj().T) / 2 - delta * np.eye(n), B=b, C=b.conj().T,
                       D=(d - d.conj().T) / 2)


@pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-4], ids=["lossless", "damped-1e-6", "damped-1e-4"])
@pytest.mark.parametrize("n, m", [(8, 1), (8, 2), (32, 1), (32, 2)])
def test_lossless_boundary_tolerance_scales_with_f(n, m, delta):
    # next to an axis pole ||F + F*|| rounds to far above 1e-8 while ||F||
    # is large: each boundary point is judged against tol (1 + ||F v||), v
    # the eigenvector of F + F* of largest modulus
    for seed in range(20):
        r = skew_lossless(n, m, seed, delta)
        grid = make_grid(Domain.RIGHT_HALF_PLANE, 64, 64, seed)
        rep = lossless_boundary_oracle(r, "LP", grid)
        assert rep.passed == (delta == 0.0), seed
        assert check_lossless(r, np.eye(n), Family.POSITIVE_REAL) == (delta == 0.0), seed
        assert membership_oracle(r, Family.POSITIVE_REAL, grid).passed, seed
        if rep.passed:
            # the report keeps the unscaled worst boundary margin and tol
            values, keep = _evaluate_points(r, grid.points)
            f = values[: grid.boundary_points.size][keep[: grid.boundary_points.size]]
            assert rep.worst_margin == -spectral_norms(f + f.conj().transpose(0, 2, 1)).max()
            assert rep.tol == ORACLE_TOL


@pytest.mark.parametrize("delta", [0.0, 1e-4], ids=["lossless", "damped-1e-4"])
def test_lossless_bounded_tolerance_scales_with_f(delta):
    # the Cayley image of the corpus is lossless bounded-real, judged
    # against tol (2 + ||F*F - I||_2)
    for seed in range(20):
        r = cayley_function(skew_lossless(8, 2, seed, delta))
        rep = lossless_boundary_oracle(r, "LB", make_grid(Domain.RIGHT_HALF_PLANE, 64, 64, seed))
        assert rep.passed == (delta == 0.0), seed


@pytest.mark.filterwarnings("error")
def test_a_point_where_f_overflows_is_skipped():
    # 1e400/(s + 1) overflows at every grid point: no margin of NaN, no sample
    rep = membership_oracle(OVERFLOWING_F, Family.POSITIVE_REAL, make_grid(Domain.RIGHT_HALF_PLANE, 4, 4, 0))
    assert rep.passed and (rep.samples_used, rep.skipped) == (0, 8) and rep.worst_point is None


@pytest.mark.filterwarnings("error")
def test_the_scale_of_huge_values_stays_finite():
    # a sum of squares of 1e200 entries overflows; an infinite scale would
    # let any margin pass
    f = np.ones((2, 2, 2), dtype=complex)
    f[0] = 1e200 + 1e200j
    assert frobenius_norms(f) == pytest.approx([np.sqrt(8.0) * 1e200, 2.0])
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, 0)
    rep = membership_oracle(Realization.constant(-1e200 * np.eye(2)), Family.POSITIVE_REAL, grid)
    assert not rep.passed and rep.worst_margin == -2e200
    # the lossless-bounded scale is 2 + ||F*F - I||_2, with no square of a
    # norm to overflow; a margin of -inf or NaN, as an F*F that overflows
    # gives, passes at no scale, also at tol = 0
    margins, scales = _lossless_bounded_margin(np.full((1, 1, 1), 1e150 + 0j))
    assert np.isfinite(scales).all() and not _passes(margins, scales, ORACLE_TOL)
    for tol in (0.0, ORACLE_TOL):
        for margin, scale in ((-np.inf, np.inf), (np.nan, np.nan), (-np.inf, 2.0)):
            assert not _passes(np.array([margin]), np.array([scale]), tol)


@pytest.mark.parametrize("d", [[1e6, -1e-3], [1e10, -0.1], [1e6j, -1e-3]], ids=["1e6", "1e10", "skew-1e6"])
def test_a_large_channel_hides_no_violation_in_another(d):
    # F + F* = 2 diag(Re d) is exact for a constant; its margin is judged at
    # the size of F in the margin's own direction, |d[1]|, where the norm of
    # all of F would allow 1e-2 or more
    r = Realization.constant(np.diag(d))
    for fam in (Family.POSITIVE_REAL, Family.DISCRETE_POSITIVE_REAL):
        rep = membership_oracle(r, fam, make_grid(family_domain(fam), 16, 16, 0))
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(2 * d[1])
    # nor is F + F* = diag(0, -2 d[1]) a lossless boundary beside a skew entry
    lossy = Realization.constant(np.diag([1j * abs(d[0]), -d[1]]))
    rep = lossless_boundary_oracle(lossy, "LP", make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 0))
    assert not rep.passed and rep.worst_margin == pytest.approx(2 * d[1])


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_membership_oracle_passes_exact_lossless_members(fam):
    # an absolute 1e-8 refutes 7 of these 160, among them p at (n, m, seed)
    # = (8, 2, 3) and (32, 2, 1), whose margins next to an axis pole round to
    # -2.0e-7 (where ||F||_2 = 4.2e4) and -3.0e-8
    for n in (4, 8, 16, 32):
        for m in (1, 2):
            for seed in range(5):
                r = lossless_member(np.random.default_rng(seed), fam, n, m)
                assert membership_oracle(r, fam, make_grid(family_domain(fam), 64, 64, seed)).passed, (n, m, seed)


def test_lossless_boundary_f_fails():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 12)
    rep = lossless_boundary_oracle(fixture("f"), "LP", grid)
    assert rep.verdict == "fail"
    # witness at z = 0: f(0) = 1/2, so ||f + conj(f)|| = 1
    assert rep.worst_margin <= -1.0 + 1e-12


def test_lossless_boundary_unitary_constant_lb():
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 16, 16, 13)
    assert lossless_boundary_oracle(Realization.constant(u), "LB", grid).passed
    with pytest.raises(ValueError):
        lossless_boundary_oracle(Realization.constant(u), "XX", grid)


# -- cayley function -------------------------------------------------------------


def test_cayley_function_constant_zero():
    out = cayley_function(Realization.constant(np.zeros((2, 2))))
    assert np.abs(out.D - np.eye(2)).max() == 0.0


def test_cayley_function_involution_on_grid():
    pts = [0.5 + 0.3j, 1.0, 2.0 - 1j, 0.2 + 2j]
    for name in ("f", "g", "F3"):
        r = fixture(name)
        twice = cayley_function(cayley_function(r))
        assert transfer_max_err(twice, r, pts) < 1e-8


def test_cayley_function_sends_positive_to_bounded():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 32, 32, 14)
    for name in ("f", "g", "F1", "F2", "F3"):
        out = cayley_function(fixture(name))
        assert membership_oracle(out, Family.BOUNDED_REAL, grid).passed, name


def test_cayley_function_matches_pointwise_cayley():
    r = fixture("F1", a=2.0, b=-1.0)
    out = cayley_function(r)
    for z in (1.0 + 0.5j, 2.0, 0.3 + 1j):
        fz = evaluate(r, z)
        expected = (np.eye(2) - fz) @ np.linalg.inv(np.eye(2) + fz)
        assert np.abs(evaluate(out, z) - expected).max() < 1e-10


def test_cayley_function_singular_i_plus_d():
    with pytest.raises(SingularIPlusD):
        cayley_function(Realization.constant(-np.eye(2)))


# -- bilinear substitution --------------------------------------------------------


def test_bilinear_constant_unchanged():
    r = Realization.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = bilinear_substitute(r)
    assert out.n == 0 and np.abs(out.D - r.D).max() == 0.0


def test_bilinear_sampled_identity():
    mob = lambda z: (1.0 + z) / (1.0 - z)  # noqa: E731
    for name, closed in (("f", None), ("F1", None)):
        r = fixture(name)
        out = bilinear_substitute(r)
        for z in (0.0, 0.3 + 0.1j, -0.5 + 0.2j, 2.0 + 2j, -3.0 + 1j):
            lhs = evaluate(out, z)
            rhs = evaluate(r, mob(z))
            assert np.abs(lhs - rhs).max() < 1e-9
    # the derived spot check: G(0) = F(1)
    out = bilinear_substitute(fixture("f"))
    assert np.abs(evaluate(out, 0.0) - evaluate(fixture("f"), 1.0)).max() < 1e-9


def test_bilinear_output_positive_on_disk():
    # exterior-domain oracle convention: the substitution lands in the
    # discrete-positive family in the disk sense, i.e. G(1/z) has PSD
    # Hermitian part for |z| > 1. Strictly interior points only: boundary
    # points can coincide with boundary poles of G.
    ext = make_grid(Domain.EXTERIOR_DISK, 32, 64, 15)
    for name in ("f", "g", "F2"):
        out = bilinear_substitute(fixture(name))
        worst = np.inf
        for z in ext.interior_points:
            v = evaluate(out, 1.0 / z)
            worst = min(worst, np.linalg.eigvalsh(v + v.conj().T)[0])
        assert worst >= -1e-8, name


def test_bilinear_singular_i_plus_a():
    r = Realization(n=1, m=1, A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    with pytest.raises(SingularIPlusA):
        bilinear_substitute(r)


# -- family closure properties -----------------------------------------------


def test_positive_family_closed_under_function_inverse():
    grid = make_grid(Domain.RIGHT_HALF_PLANE, 24, 24, 16)
    for name in ("g", "F1", "F3"):  # positive-real fixtures with invertible D
        r = fixture(name)
        assert membership_oracle(r, Family.POSITIVE_REAL, grid).passed
        inv = invert_function(r)
        assert membership_oracle(inv, Family.POSITIVE_REAL, grid).passed, name


def test_discrete_bounded_family_closed_under_products():
    from kypcert import cascade

    rng = np.random.default_rng(17)
    grid = make_grid(Domain.EXTERIOR_DISK, 24, 24, 17)
    f = fixture("f")
    assert membership_oracle(cascade(f, f), Family.DISCRETE_BOUNDED_REAL, grid).passed
    r1 = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 2, rng)
    r2 = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 3, 2, rng)
    for left, right in ((r1, r2), (r2, r1)):
        assert membership_oracle(cascade(left, right), Family.DISCRETE_BOUNDED_REAL, grid).passed


def test_function_level_matrix_convexity():
    from kypcert import PoleAt, matrix_convex_combine, random_isometry_tuple

    rng = np.random.default_rng(18)
    # positive side: pointwise combinations of lossless-positive samples keep
    # a PSD Hermitian part across the grid
    rhp = make_grid(Domain.RIGHT_HALF_PLANE, 12, 12, 18)
    members = [fixture(name) for name in ("F1", "F2", "F3")]
    iso = random_isometry_tuple([2, 2, 2], 2, rng)
    checked = 0
    for z in rhp.points:
        try:
            samples = [evaluate(r, z) for r in members]
        except PoleAt:
            continue
        combo = matrix_convex_combine(samples, iso)
        assert np.linalg.eigvalsh(combo + combo.conj().T)[0] >= -1e-8
        checked += 1
    assert checked >= 20
    # bounded side: combinations of discrete-bounded samples stay in the ball
    ext = make_grid(Domain.EXTERIOR_DISK, 12, 12, 19)
    members = [random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 2, rng)
               for _ in range(3)]
    iso = random_isometry_tuple([2, 2, 2], 2, rng)
    for z in ext.points:
        samples = [evaluate(r, z) for r in members]
        combo = matrix_convex_combine(samples, iso)
        assert np.linalg.norm(combo, 2) <= 1.0 + 1e-9
