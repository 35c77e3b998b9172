"""The affine projector behind solve_p: packed Hermitian coordinates, the
closed-form operator L, and the least-squares projection, each checked
against an independently written route."""

import numpy as np
import pytest
from helpers import rand_complex, rand_realization

from kypcert import (
    BadParams,
    Family,
    FamilyTag,
    NotFound,
    PassivityError,
    assemble_q,
    fixture,
    solve_p,
)
from kypcert._linalg import HermitianCoords
from kypcert.qmi import _AffineProjector, _weight_entries

TAGS = [FamilyTag(fam) for fam in Family] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]
# n = 9 gives 81 coordinates, more than one build block of unit vectors
SHAPES = [(n, m) for n in (1, 3, 5, 9) for m in (1, 2)]


def rand_hermitian(rng, k):
    g = rand_complex(rng, (k, k))
    return (g + g.conj().T) / 2


def reference_basis(k):
    """The orthonormal Hermitian basis, one matrix per coordinate, in the
    packed order: diagonal, then (Re, Im) per upper entry, row-major."""
    basis = []
    for i in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(k):
        for j in range(i + 1, k):
            for unit in (1.0, 1j):
                e = np.zeros((k, k), dtype=complex)
                e[i, j] = unit / np.sqrt(2.0)
                e[j, i] = np.conj(unit) / np.sqrt(2.0)
                basis.append(e)
    return basis


def closed_form_l(r, tag, p):
    """L(P) = Q(P) - Q(0), with E = [I 0] and F = [A B]."""
    e = np.hstack([np.eye(r.n), np.zeros((r.n, r.m))])
    f = np.hstack([r.A, r.B])
    if tag.family.is_discrete:
        return e.T @ p @ e - f.conj().T @ p @ f
    return -(f.conj().T @ p @ e + e.T @ p @ f)


def closed_form_l_adjoint(r, tag, y):
    """L* under Re tr(X* Y): E Y E* - F Y F* or -(E Y F* + F Y E*)."""
    e = np.hstack([np.eye(r.n), np.zeros((r.n, r.m))])
    f = np.hstack([r.A, r.B])
    if tag.family.is_discrete:
        return e @ y @ e.T - f @ y @ f.conj().T
    return -(e @ y @ f.conj().T + f @ y @ e.T)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_packed_coordinates_round_trip_and_inner_product(k):
    rng = np.random.default_rng(40 + k)
    coords = HermitianCoords(k)
    x, y = rand_hermitian(rng, k), rand_hermitian(rng, k)
    vx, vy = coords.vec(x), coords.vec(y)
    assert vx.shape == (k * k,) and vx.dtype == float
    assert np.abs(coords.unvec(vx) - x).max() <= 1e-15 * np.abs(x).max()
    assert abs(vx @ vy - np.real(np.trace(x.conj().T @ y))) <= 1e-13 * np.abs(vx).sum() * np.abs(vy).sum()
    # the same coordinates as projecting on each basis matrix in turn
    ref = np.array([np.real(np.vdot(e, x)) for e in reference_basis(k)])
    assert np.abs(vx - ref).max() <= 1e-15 * np.abs(ref).max()
    # a stack maps entry by entry
    stack = np.stack([x, y, x - y])
    assert np.array_equal(coords.vec(stack), np.stack([vx, vy, coords.vec(x - y)]))
    assert np.array_equal(coords.unvec(coords.vec(stack))[1], coords.unvec(vy))
    # unpacking gives an exactly Hermitian matrix
    back = coords.unvec(vx)
    assert np.array_equal(back, back.conj().T)


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
@pytest.mark.parametrize("n,m", SHAPES)
def test_q_of_matches_assemble_q(tag, n, m):
    rng = np.random.default_rng(7 * n + m)
    r = rand_realization(rng, n, m)
    proj = _AffineProjector(r, tag)
    for _ in range(3):
        p = rand_hermitian(rng, n)  # indefinite: L is linear on all Hermitian P
        expected = assemble_q(r, _weight_entries(tag, p, m))
        got = proj.q_of(p)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
@pytest.mark.parametrize("n,m", SHAPES)
def test_project_is_the_least_squares_projection(tag, n, m):
    rng = np.random.default_rng(11 * n + m)
    r = rand_realization(rng, n, m)
    proj = _AffineProjector(r, tag)
    k = assemble_q(r, _weight_entries(tag, np.zeros((n, n)), m))
    p0, q0 = rand_hermitian(rng, n), rand_hermitian(rng, n + m)
    p, q = proj.project(p0, q0)
    scale = np.abs(p0).max() + np.abs(q0).max() + np.abs(k).max()
    scale *= 1.0 + np.linalg.norm(r.array, 2) ** 2
    # on the graph
    assert np.abs(q - k - closed_form_l(r, tag, p)).max() <= 1e-12 * scale
    # and the normal equations of min |p - p0|^2 + |q - q0|^2 hold
    residual = (p0 - p) + closed_form_l_adjoint(r, tag, q0 - q)
    assert np.abs(residual).max() <= 1e-11 * scale


@pytest.mark.parametrize("name,fam", [("f", Family.POSITIVE_REAL), ("g", Family.DISCRETE_BOUNDED_REAL)])
def test_solve_p_max_iter_zero_returns_warm_start(name, fam):
    r = fixture(name)
    res = solve_p(r, fam, max_iter=0)
    assert isinstance(res, NotFound)
    assert res.iterations == 0
    assert res.best_p.shape == (r.n, r.n)
    assert np.linalg.eigvalsh(res.best_p)[0] > 0
    q = assemble_q(r, _weight_entries(FamilyTag(fam), res.best_p, r.m))
    assert res.min_eig_q == pytest.approx(np.linalg.eigvalsh(q)[0], abs=1e-12)
    assert np.isfinite(res.residual) and res.residual >= max(0.0, -res.min_eig_q)


def test_solve_p_negative_max_iter_is_typed_error():
    for r in (fixture("f"), fixture("g")):
        with pytest.raises(BadParams):
            solve_p(r, Family.POSITIVE_REAL, max_iter=-1)
    with pytest.raises(PassivityError):
        solve_p(fixture("f"), Family.POSITIVE_REAL, max_iter=-5)
