import numpy as np
import pytest
from helpers import rand_complex, rand_hpd

from kypcert import (
    ConeParameter,
    DimensionMismatch,
    IsometryTuple,
    MinusOneInSpectrum,
    NotAnIsometryFamily,
    cayley,
    in_lyapunov,
    in_stein,
    matrix_convex_combine,
    random_in_lyapunov,
    random_isometry_tuple,
)


def test_in_lyapunov_examples():
    strict = ConeParameter(np.eye(2), strict=True)
    assert in_lyapunov(strict, np.eye(2))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert in_lyapunov(np.eye(2), skew)  # closure
    assert not in_lyapunov(strict, skew)  # open cone
    assert not in_lyapunov(np.eye(2), np.diag([1.0, -1.0]))


def test_in_stein_examples():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rand_complex(rng, (3, 3))
        a = a / np.linalg.norm(a, 2) * rng.uniform(0.2, 1.6)
        assert in_stein(np.eye(3), a) == (np.linalg.norm(a, 2) <= 1.0 + 1e-12)
    assert not in_stein(np.eye(2), 2.0 * np.eye(2))
    assert in_stein(ConeParameter(np.eye(2), strict=True), np.zeros((2, 2)))


def test_scalar_arguments_are_one_by_one():
    assert in_lyapunov(2.0, 3.0) and not in_lyapunov(2.0, -3.0)
    assert in_stein(1.0, 0.5) and not in_stein(1.0, 2.0)
    assert np.array_equal(matrix_convex_combine([2.0], [np.eye(1)]), [[2.0]])
    with pytest.raises(DimensionMismatch):
        in_lyapunov(np.eye(2), 3.0)


def test_indefinite_h_is_allowed():
    h = np.diag([1.0, -1.0])
    a = np.diag([1.0, -1.0])
    # HA + A*H = diag(2, 2) >= 0 even though H is indefinite
    assert in_lyapunov(h, a)


def test_cayley_basic_values():
    assert np.abs(cayley(np.zeros((3, 3))) - np.eye(3)).max() == 0.0
    assert np.abs(cayley(np.eye(3))).max() == 0.0


def test_cayley_second_form_and_involution():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rand_complex(rng, (3, 3))
        if np.linalg.svd(np.eye(3) + a, compute_uv=False)[-1] < 1e-3:
            continue
        c = cayley(a)
        second = -np.eye(3) + 2.0 * np.linalg.inv(np.eye(3) + a)
        assert np.abs(c - second).max() < 1e-10
        assert np.abs(cayley(c) - a).max() < 1e-9


def test_cayley_minus_one_in_spectrum():
    with pytest.raises(MinusOneInSpectrum):
        cayley(-np.eye(2))


def test_cayley_exchanges_cones():
    rng = np.random.default_rng(2)
    for trial in range(20):
        h = np.eye(3) if trial % 2 == 0 else rand_hpd(rng, 3)
        a = random_in_lyapunov(h, rng)
        assert in_lyapunov(h, a)
        c = cayley(a)
        assert in_stein(h, c, tol=1e-8)
        # and back again
        assert in_lyapunov(h, cayley(c), tol=1e-8)


def test_combine_scalar_counterexample():
    y1 = np.diag([1.0, 0.0])
    y2 = np.diag([0.0, 1.0])
    out = matrix_convex_combine([2.0 * np.eye(2), 3.0 * np.eye(2)], [y1, y2])
    assert np.abs(out - np.diag([2.0, 3.0])).max() == 0.0
    # the result is not a positive scalar matrix, so that set is not closed
    assert abs(out[0, 0] - out[1, 1]) > 0.5


def test_combine_single_unitary_is_similarity():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rand_complex(rng, (3, 3)))
    a = rand_complex(rng, (3, 3))
    out = matrix_convex_combine([a], IsometryTuple(blocks=(q,)))
    assert np.abs(out - q.conj().T @ a @ q).max() < 1e-12


def test_combine_classical_convex_combination():
    rng = np.random.default_rng(4)
    lam = np.array([0.2, 0.5, 0.3])
    blocks = tuple(np.sqrt(w) * np.eye(2) for w in lam)
    mats = [rand_complex(rng, (2, 2)) for _ in range(3)]
    out = matrix_convex_combine(mats, blocks)
    expected = sum(w * a for w, a in zip(lam, mats))
    assert np.abs(out - expected).max() < 1e-12


def test_combine_rejects_bad_gram_sum():
    with pytest.raises(NotAnIsometryFamily):
        matrix_convex_combine([np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)])


def test_nan_gram_defect_is_rejected():
    # inf * inf has a nan imaginary part, so the defect is nan, not large
    with np.errstate(invalid="ignore"), pytest.raises(NotAnIsometryFamily):
        IsometryTuple(blocks=(np.array([[np.inf]]),))


def test_combine_rejects_mismatched_blocks():
    iso = random_isometry_tuple([2, 2], 2, np.random.default_rng(5))
    with pytest.raises(DimensionMismatch):
        matrix_convex_combine([np.eye(2), np.eye(3)], iso)


def test_random_isometry_tuple_shapes_and_gram():
    rng = np.random.default_rng(6)
    iso = random_isometry_tuple([1, 3, 2], 3, rng)
    assert iso.etas == (1, 3, 2)
    assert iso.nu == 3
    assert iso.defect < 1e-10
    with pytest.raises(DimensionMismatch):
        random_isometry_tuple([1, 1], 3, rng)


def _closure_trial(rng, member_fn, check_fn):
    nu = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    etas = [int(rng.integers(1, nu + 1)) for _ in range(k)]
    while sum(etas) < nu:
        etas[int(rng.integers(0, k))] = nu
    iso = random_isometry_tuple(etas, nu, rng)
    mats = [member_fn(rng, e) for e in etas]
    out = matrix_convex_combine(mats, iso)
    check_fn(out, mats)


def test_closure_hermitian_and_psd():
    rng = np.random.default_rng(7)

    def herm_member(rng, e):
        g = rand_complex(rng, (e, e))
        return g + g.conj().T

    def psd_member(rng, e):
        g = rand_complex(rng, (e, e))
        return g @ g.conj().T

    for _ in range(50):
        _closure_trial(rng, herm_member,
                       lambda out, _: np.testing.assert_allclose(out, out.conj().T, atol=1e-10))
        _closure_trial(rng, psd_member,
                       lambda out, _: np.testing.assert_array_less(-1e-9, np.linalg.eigvalsh(out)))


def test_closure_norm_ball_and_lyapunov():
    rng = np.random.default_rng(8)

    def ball_member(bound):
        def sample(rng, e):
            g = rand_complex(rng, (e, e))
            return g / np.linalg.norm(g, 2) * bound * rng.uniform(0.0, 1.0)
        return sample

    for _ in range(50):
        bound = rng.uniform(0.5, 3.0)
        _closure_trial(
            rng, ball_member(bound),
            lambda out, _: np.testing.assert_array_less(np.linalg.norm(out, 2), bound + 1e-9),
        )
        _closure_trial(
            rng,
            lambda rng, e: random_in_lyapunov(np.eye(e), rng),
            lambda out, _: np.testing.assert_array_less(-1e-9, np.linalg.eigvalsh(out + out.conj().T)),
        )
