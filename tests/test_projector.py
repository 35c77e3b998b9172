"""Q(P) in closed form: the P-free Popov blocks M = [Qx Sx; Sx* Rx] of
`qmi._popov_blocks` plus the linear part L(P), checked against `assemble_q`.
The rung and the deflated rung both read Q(P) this way."""

import numpy as np
import pytest
from helpers import rand_complex, rand_realization

from kypcert import Family, FamilyTag, assemble_q
from kypcert.qmi import _io_weight, _popov_blocks, _weight_entries

TAGS = [FamilyTag(fam) for fam in Family] + [FamilyTag(Family.BOUNDED_REAL, eta=3.0)]
SHAPES = [(n, m) for n in (1, 3, 5, 9) for m in (1, 2)]


def rand_hermitian(rng, k):
    g = rand_complex(rng, (k, k))
    return (g + g.conj().T) / 2


def closed_form_l(r, tag, p):
    """L(P) = Q(P) - Q(0), with E = [I 0] and F = [A B]."""
    e = np.hstack([np.eye(r.n), np.zeros((r.n, r.m))])
    f = np.hstack([r.A, r.B])
    if tag.family.is_discrete:
        return e.T @ p @ e - f.conj().T @ p @ f
    return -(f.conj().T @ p @ e + e.T @ p @ f)


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.label)
@pytest.mark.parametrize("n,m", SHAPES)
def test_q_of_matches_assemble_q(tag, n, m):
    rng = np.random.default_rng(7 * n + m)
    r = rand_realization(rng, n, m)
    qx, sx, rx, norm_m = _popov_blocks(r, _io_weight(tag, m))
    mx = np.block([[qx, sx], [sx.conj().T, rx]])
    assert norm_m == pytest.approx(np.linalg.norm(mx, 2), rel=1e-12)
    assert np.abs(mx - assemble_q(r, _weight_entries(tag, np.zeros((n, n)), m))).max() <= 1e-12 * norm_m
    for _ in range(3):
        p = rand_hermitian(rng, n)  # indefinite: L is linear on all Hermitian P
        expected = assemble_q(r, _weight_entries(tag, p, m))
        got = mx + closed_form_l(r, tag, p)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
