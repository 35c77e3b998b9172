import numpy as np
import pytest
from helpers import rand_complex, rand_realization, transfer_max_err

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
    validate_isometry,
    verify_preservation,
)


def identity_family(n, m, k=1):
    if k == 1:
        return IsometryFamily(state_blocks=(np.eye(n),), io_blocks=(np.eye(m),))
    s = np.sqrt(1.0 / k)
    return IsometryFamily(
        state_blocks=tuple(s * np.eye(n) for _ in range(k)),
        io_blocks=tuple(s * np.eye(m) for _ in range(k)),
    )


def test_validate_isometry_examples():
    ok, dn, dm = validate_isometry(identity_family(2, 3))
    assert ok and dn == 0.0 and dm == 0.0
    ok, dn, dm = validate_isometry(identity_family(2, 2, k=2))
    assert ok and dn < 1e-12 and dm < 1e-12
    doubled = IsometryFamily(
        state_blocks=(np.eye(2), np.eye(2)),
        io_blocks=(np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)),
    )
    ok, dn, dm = validate_isometry(doubled)
    assert not ok and abs(dn - 1.0) < 1e-12


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
    bad = IsometryFamily(state_blocks=(np.eye(2), np.eye(2)),
                         io_blocks=(np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)))
    with pytest.raises(NotAnIsometryFamily):
        combine_realizations([rand_realization(rng, 2, 2), rand_realization(rng, 2, 2)], bad)


@pytest.mark.parametrize("tier", ["state", "io"])
def test_each_tier_defect_is_caught(tier):
    # only one tier is off by 1e-6; the combination's block-diagonal Gram sum
    # must still miss I by that much
    rng = np.random.default_rng(6)
    fam = random_isometry_family(2, 3, 2, rng)
    state, io = fam.state_blocks, fam.io_blocks
    scale = np.sqrt(1.0 + 1e-6)
    if tier == "state":
        state = (scale * state[0], state[1])
    else:
        io = (scale * io[0], io[1])
    bad = IsometryFamily(state_blocks=state, io_blocks=io)
    ok, dn, dm = validate_isometry(bad)
    off, on = (dn, dm) if tier == "state" else (dm, dn)
    assert not ok and off > 1e-7 and on < 1e-12
    rs = [rand_realization(rng, 3, 2) for _ in range(2)]
    with pytest.raises(NotAnIsometryFamily):
        combine_realizations(rs, bad)
    combine_realizations(rs, fam)


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
    fam = IsometryFamily(state_blocks=(np.array([[bad]]),), io_blocks=(np.eye(1),))
    valid, defect_n, defect_m = validate_isometry(fam)
    assert not valid and defect_n == np.inf and defect_m == 0.0
    with pytest.raises(NotAnIsometryFamily):
        IsometryTuple(blocks=fam.state_blocks)
    with pytest.raises(NotAnIsometryFamily):
        combine_realizations([fixture("f")], fam)
