import numpy as np
import pytest
from helpers import rand_complex, rand_realization, transfer_max_err
from hypothesis import given, settings
from hypothesis import strategies as st

from kypcert import (
    DimensionMismatch,
    Family,
    InputNotCertified,
    IsometryFamily,
    IsometryTuple,
    NotAnIsometryFamily,
    Realization,
    assemble_q,
    build_balanced_weight,
    change_coordinates,
    combine_realizations,
    fixture,
    is_minimal,
    random_certified_realization,
    random_isometry_family,
    verify_preservation,
)
from kypcert.cones import ISOMETRY_TOL, _gram_defect


def identity_family(n, m, k=1):
    if k == 1:
        return IsometryFamily(state_blocks=(np.eye(n),), io_blocks=(np.eye(m),))
    s = np.sqrt(1.0 / k)
    return IsometryFamily(
        state_blocks=tuple(s * np.eye(n) for _ in range(k)),
        io_blocks=tuple(s * np.eye(m) for _ in range(k)),
    )


def test_isometry_family_examples():
    # a tier's defect is that of the IsometryTuple it builds
    single, pair = identity_family(2, 3), identity_family(2, 2, k=2)
    assert IsometryTuple(blocks=single.state_blocks).defect == IsometryTuple(blocks=single.io_blocks).defect == 0.0
    assert max(IsometryTuple(blocks=pair.state_blocks).defect, IsometryTuple(blocks=pair.io_blocks).defect) < 1e-12
    state = (np.eye(2), np.eye(2))
    assert abs(_gram_defect(state) - 1.0) < 1e-12
    with pytest.raises(NotAnIsometryFamily, match=r"^state_blocks: Gram sum deviates from identity by 1\.000e\+00$"):
        IsometryFamily(state_blocks=state, io_blocks=(np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)))


@pytest.mark.parametrize("state, io", [
    ((np.eye(2), np.eye(2)), (np.eye(2),)),
    ((), ()),
    # an isometry tuple, but not of square blocks
    ((np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])), (np.eye(1), np.zeros((1, 1)))),
    ((np.ones(2),), (np.eye(1),)),
    ((np.eye(2),), (np.array(1.0),)),
], ids=["k-mismatch", "empty", "rectangular", "1-d", "0-d"])
def test_isometry_family_shapes(state, io):
    with pytest.raises(DimensionMismatch):
        IsometryFamily(state_blocks=state, io_blocks=io)


def test_combine_single_unitary_is_congruence():
    rng = np.random.default_rng(0)
    r = rand_realization(rng, 2, 2)
    qn, _ = np.linalg.qr(rand_complex(rng, (2, 2)))
    qm, _ = np.linalg.qr(rand_complex(rng, (2, 2)))
    fam = IsometryFamily(state_blocks=(qn,), io_blocks=(qm,))
    out = combine_realizations([r], fam)
    y = np.zeros((4, 4), dtype=complex)
    y[:2, :2] = qn
    y[2:, 2:] = qm
    assert np.abs(out.array - y.conj().T @ r.array @ y).max() < 1e-12


def test_combine_averaging_caution():
    rng = np.random.default_rng(1)
    a, b = rand_complex(rng, (2, 2)), rand_complex(rng, (2, 2))
    c, d = rand_complex(rng, (2, 2)), rand_complex(rng, (2, 2))
    r1 = Realization(n=2, m=2, A=a, B=b, C=c, D=d)
    r2 = Realization(n=2, m=2, A=a, B=-b, C=-c, D=d)
    out = combine_realizations([r1, r2], identity_family(2, 2, k=2))
    assert np.abs(out.B).max() < 1e-15
    assert np.abs(out.C).max() < 1e-15
    assert np.abs(out.A - a).max() < 1e-12
    assert np.abs(out.D - d).max() < 1e-12
    assert is_minimal(out)[0] is False


def test_combine_lossless_trio_keeps_flatness():
    rng = np.random.default_rng(2)
    trio = [fixture(name) for name in ("F1", "F2", "F3")]
    fam = random_isometry_family(3, 2, 2, rng)
    out = combine_realizations(trio, fam)
    j = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    k = out.array
    assert np.abs(j @ k + k.conj().T @ j).max() < 1e-12


def test_combine_validates_inputs():
    rng = np.random.default_rng(3)
    fam = identity_family(2, 2, k=2)
    with pytest.raises(DimensionMismatch):
        combine_realizations([rand_realization(rng, 2, 2)], fam)
    with pytest.raises(DimensionMismatch):
        combine_realizations([rand_realization(rng, 2, 2), rand_realization(rng, 1, 2)], fam)
    with pytest.raises(NotAnIsometryFamily):
        IsometryFamily(state_blocks=(np.eye(2), np.eye(2)),
                       io_blocks=(np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)))


@pytest.mark.parametrize("tier", ["state", "io"])
def test_each_tier_defect_is_caught(tier):
    # only one tier is off by 1e-6; the family is refused, naming that tier
    rng = np.random.default_rng(6)
    fam = random_isometry_family(2, 3, 2, rng)
    state, io = fam.state_blocks, fam.io_blocks
    scale = np.sqrt(1.0 + 1e-6)
    if tier == "state":
        state = (scale * state[0], state[1])
    else:
        io = (scale * io[0], io[1])
    dn, dm = _gram_defect(state), _gram_defect(io)
    off, on = (dn, dm) if tier == "state" else (dm, dn)
    assert off > 1e-7 and on < 1e-12
    with pytest.raises(NotAnIsometryFamily, match=f"^{tier}_blocks: Gram sum deviates"):
        IsometryFamily(state_blocks=state, io_blocks=io)
    combine_realizations([rand_realization(rng, 3, 2) for _ in range(2)], fam)


def test_zero_tier_drops_input():
    rng = np.random.default_rng(4)
    r1, r2 = rand_realization(rng, 2, 2), rand_realization(rng, 2, 2)
    fam = IsometryFamily(state_blocks=(np.zeros((2, 2)), np.eye(2)),
                         io_blocks=(np.zeros((2, 2)), np.eye(2)))
    out = combine_realizations([r1, r2], fam)
    assert np.abs(out.array - r2.array).max() < 1e-14


def test_preservation_single_identity_passthrough():
    rng = np.random.default_rng(5)
    r = random_certified_realization(Family.POSITIVE_REAL, 2, 2, rng)
    res = verify_preservation([r], identity_family(2, 2), Family.POSITIVE_REAL)
    assert res.certificate.verified
    assert np.abs(res.combined.array - r.array).max() < 1e-14
    assert np.abs(res.certificate.q - res.per_input[0].q).max() < 1e-12


def test_preservation_lossless_trio():
    rng = np.random.default_rng(6)
    trio = [fixture(name) for name in ("F1", "F2", "F3")]
    fam = random_isometry_family(3, 2, 2, rng)
    res = verify_preservation(trio, fam, Family.POSITIVE_REAL)
    assert res.certificate.verified
    assert np.linalg.norm(res.certificate.q, 2) <= 1e-8


def test_preservation_random_certified_pairs():
    rng = np.random.default_rng(7)
    for fam_kind in Family:
        rs = [random_certified_realization(fam_kind, 2, 2, rng) for _ in range(2)]
        fam = random_isometry_family(2, 2, 2, rng)
        res = verify_preservation(rs, fam, fam_kind)
        assert res.certificate.min_eig_q >= -1e-8, fam_kind


def test_preservation_dominates_congruence_sum():
    # Q(combined) is bounded below by the congruence sum of the input forms
    rng = np.random.default_rng(8)
    for fam_kind in Family:
        k = 3
        rs = [random_certified_realization(fam_kind, 2, 2, rng) for _ in range(k)]
        fam = random_isometry_family(k, 2, 2, rng)
        res = verify_preservation(rs, fam, fam_kind)
        w = build_balanced_weight(fam_kind, 2, 2)
        congr = np.zeros((4, 4), dtype=complex)
        for r, y in zip(rs, fam.full_blocks()):
            congr += y.conj().T @ assemble_q(r, w) @ y
        gap = res.certificate.q - congr
        assert np.linalg.eigvalsh(gap + gap.conj().T)[0] / 2 >= -1e-9


def test_preservation_auto_balances_unbalanced_input():
    rng = np.random.default_rng(9)
    r = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 2, 2, rng)
    t = np.array([[1.0, 0.3], [0.0, 0.8]])
    moved = change_coordinates(r, t)  # certified, but not with P = I
    res = verify_preservation([moved, r], random_isometry_family(2, 2, 2, rng),
                              Family.DISCRETE_BOUNDED_REAL)
    assert res.certificate.verified
    # the balanced stand-in realizes the same transfer function
    pts = [2.0, 3.0 + 1j, -2.5 + 0.5j]
    assert transfer_max_err(res.inputs_used[0], moved, pts) < 1e-8


def test_preservation_of_constants():
    # n = 0 realizations flow through the same code paths
    rng = np.random.default_rng(11)
    rs = [kc_constant(rng) for _ in range(2)]
    fam = random_isometry_family(2, 0, 2, rng)
    res = verify_preservation(rs, fam, Family.POSITIVE_REAL)
    assert res.certificate.verified
    assert res.combined.n == 0


def kc_constant(rng):
    g = rand_complex(rng, (2, 2))
    k = rand_complex(rng, (2, 2))
    return Realization.constant(g @ g.conj().T + np.eye(2) + (k - k.conj().T) / 2)


def test_preservation_rejects_uncertifiable_input():
    rng = np.random.default_rng(10)
    good = random_certified_realization(Family.DISCRETE_BOUNDED_REAL, 1, 1, rng)
    with pytest.raises(InputNotCertified) as info:
        verify_preservation([good, fixture("g")], identity_family(1, 1, k=2),
                            Family.DISCRETE_BOUNDED_REAL)
    assert info.value.index == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_isometry_blocks_are_invalid(bad):
    state = (np.array([[bad]]),)
    assert _gram_defect(state) == np.inf and _gram_defect((np.eye(1),)) == 0.0
    with pytest.raises(NotAnIsometryFamily, match="^state_blocks: Gram sum deviates from identity by inf$"):
        IsometryFamily(state_blocks=state, io_blocks=(np.eye(1),))
    with pytest.raises(NotAnIsometryFamily):
        IsometryTuple(blocks=state)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tier=st.sampled_from(["state", "io"]),
    block=st.integers(0, 2),
    log_eps=st.floats(-14.0, -2.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_a_family_is_built_exactly_when_both_tiers_pass_the_gram_rule(seed, tier, block, log_eps, sign):
    # one Gram rule: a family exists iff both tier defects are at most
    # ISOMETRY_TOL, and a family that exists always combines
    rng = np.random.default_rng(seed)
    good = random_isometry_family(3, 2, 1, rng)
    tiers = {"state": list(good.state_blocks), "io": list(good.io_blocks)}
    tiers[tier][block] = (1.0 + sign * 10.0**log_eps) * tiers[tier][block]
    valid = _gram_defect(tiers["state"]) <= ISOMETRY_TOL and _gram_defect(tiers["io"]) <= ISOMETRY_TOL
    try:
        fam = IsometryFamily(state_blocks=tiers["state"], io_blocks=tiers["io"])
    except NotAnIsometryFamily as exc:
        assert not valid
        assert str(exc).startswith(f"{tier}_blocks: ")
        return
    assert valid
    combine_realizations([rand_realization(rng, 2, 1) for _ in range(3)], fam)
