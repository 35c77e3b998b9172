import numpy as np
import pytest
from helpers import (
    OVERFLOWING_F,
    f3_closed,
    f_closed,
    g_closed,
    rand_coordinates,
    rand_realization,
    sampled_max_err,
    transfer_max_err,
)

from kypcert import (
    BadParams,
    ConeParameter,
    DimensionMismatch,
    Domain,
    Family,
    FamilyTag,
    NumericalFailure,
    PassivityError,
    PoleAt,
    Realization,
    WMatrix,
    SingularArray,
    SingularD,
    SingularT,
    anti_db_oracle,
    cascade,
    cayley,
    change_coordinates,
    check,
    evaluate,
    fixture,
    hyper_bounded_oracle,
    in_lyapunov,
    invert_array,
    invert_function,
    is_minimal,
    lossless_boundary_oracle,
    make_grid,
    matrix_convex_combine,
    membership_oracle,
    random_certified_realization,
    random_in_lyapunov,
    random_isometry_tuple,
    verify_kyp,
)

GRID = [1.0 + 0.5j, 2.0, -2.0, 3.0 - 1.0j, 0.5 + 2.0j, -1.0 + 3.0j, 4.0, 1j * 2.5, -3.0 - 1j, 6.0 + 0.25j]


def test_evaluate_fixture_f_at_one():
    value = evaluate(fixture("f"), 1.0)
    assert value.shape == (1, 1)
    assert abs(value[0, 0] - 1.0 / 6.0) < 1e-14
    assert sampled_max_err(fixture("f"), f_closed, GRID) < 1e-12


def test_evaluate_zero_input_map_returns_d():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((2, 2))
    r = Realization(n=2, m=2, A=rng.standard_normal((2, 2)), B=np.zeros((2, 2)),
                    C=rng.standard_normal((2, 2)), D=d)
    assert np.abs(evaluate(r, 5.0) - d).max() == 0.0


def test_evaluate_fixture_g():
    assert abs(evaluate(fixture("g"), -2.0)[0, 0]) < 1e-14
    assert sampled_max_err(fixture("g"), g_closed, GRID) < 1e-12


def test_evaluate_constant_realization():
    r = Realization.constant(np.diag([2.0, 3.0]))
    assert r.n == 0
    for z in GRID:
        assert np.abs(evaluate(r, z) - np.diag([2.0, 3.0])).max() == 0.0


def test_evaluate_pole_raises():
    with pytest.raises(PoleAt):
        evaluate(fixture("f"), -0.5)
    with pytest.raises(PoleAt):
        evaluate(fixture("g"), 0.0)


@pytest.mark.filterwarnings("error")
def test_evaluate_raises_where_f_overflows():
    with pytest.raises(NumericalFailure, match="overflows"):
        evaluate(OVERFLOWING_F, 1.0)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex("-inf"), complex(0, float("inf"))],
                         ids=["nan", "inf", "-inf", "i-inf"])
@pytest.mark.parametrize("name", ["f", "constant"])
def test_evaluate_at_a_non_finite_point_is_bad_params(z, name):
    # also for n = 0, where F(inf) = D would be defined
    r = fixture("f") if name == "f" else Realization.constant(2.0)
    with pytest.raises(BadParams, match="non-finite point"):
        evaluate(r, z)


def test_is_minimal_examples():
    assert is_minimal(fixture("f")) == (True, 1, 1)
    rng = np.random.default_rng(1)
    r3 = Realization(n=2, m=2, A=rng.standard_normal((2, 2)), B=np.zeros((2, 2)),
                     C=np.zeros((2, 2)), D=rng.standard_normal((2, 2)))
    assert is_minimal(r3) == (False, 0, 0)
    assert is_minimal(Realization.constant(np.eye(2))) == (True, 0, 0)


def test_constant_has_no_poles():
    poles = Realization.constant(np.eye(2)).poles()
    assert poles.shape == (0,) and poles.dtype == complex


def test_change_coordinates_identity_and_scalar():
    f = fixture("f")
    same = change_coordinates(f, np.eye(1))
    assert np.abs(same.array - f.array).max() == 0.0
    moved = change_coordinates(f, [[2.0]])
    assert abs(moved.A[0, 0] + 0.5) < 1e-15
    assert abs(moved.B[0, 0] - 0.25) < 1e-15
    assert abs(moved.C[0, 0] - 1.0) < 1e-15
    assert moved.D[0, 0] == 0.0
    assert abs(evaluate(moved, 1.0)[0, 0] - 1.0 / 6.0) < 1e-14


def test_change_coordinates_permutation_preserves_transfer():
    rng = np.random.default_rng(2)
    r = rand_realization(rng, 2, 2)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    moved = change_coordinates(r, perm)
    assert np.abs(moved.A - perm @ r.A @ perm).max() < 1e-14
    assert transfer_max_err(moved, r, GRID) < 1e-10


def test_change_coordinates_singular_t():
    with pytest.raises(SingularT):
        change_coordinates(rand_realization(np.random.default_rng(3), 2, 1), np.zeros((2, 2)))


def test_transfer_invariance_random_coordinates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        r = rand_realization(rng, n, m)
        t = rand_coordinates(rng, n, cond_max=1e3)
        moved = change_coordinates(r, t)
        for z in GRID[:5]:
            lhs = evaluate(moved, z)
            rhs = evaluate(r, z)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * (1.0 + np.linalg.norm(rhs, 2))


def test_invert_array_fixture_pair():
    g = invert_array(fixture("f"))
    assert np.abs(g.array - fixture("g").array).max() < 1e-14
    f1, f2 = fixture("F1"), fixture("F2")
    assert np.abs(invert_array(f1).array - f2.array).max() < 1e-12


def test_invert_array_involution():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rand_realization(rng, 3, 2)
        if np.linalg.cond(r.array) > 1e3:
            continue
        back = invert_array(invert_array(r))
        assert np.abs(back.array - r.array).max() < 1e-10


def test_invert_array_singular():
    r = Realization(n=1, m=1, A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]])
    with pytest.raises(SingularArray):
        invert_array(r)


def test_invert_function_f1_gives_f3():
    for a, b in [(1.0, 1.0), (2.0, -1.0)]:
        inv = invert_function(fixture("F1", a=a, b=b))
        assert sampled_max_err(inv, lambda z: f3_closed(z, a, b), GRID) < 1e-10
        for z in GRID[:6]:
            prod = evaluate(inv, z) @ evaluate(fixture("F1", a=a, b=b), z)
            assert np.linalg.norm(prod - np.eye(2), 2) < 1e-8


def test_invert_function_constant():
    inv = invert_function(Realization.constant(2.0 * np.eye(3)))
    assert inv.n == 0
    assert np.abs(inv.D - 0.5 * np.eye(3)).max() == 0.0


def test_invert_function_requires_nonsingular_d():
    with pytest.raises(SingularD):
        invert_function(fixture("f"))


def test_cascade_identity_factor():
    f1 = fixture("F1")
    ident = Realization.constant(np.eye(2))
    assert transfer_max_err(cascade(f1, ident), f1, GRID) < 1e-12
    assert transfer_max_err(cascade(ident, f1), f1, GRID) < 1e-12


def test_cascade_with_function_inverse_is_identity():
    f1 = fixture("F1")
    chain = cascade(f1, invert_function(f1))
    for z in GRID:
        assert np.linalg.norm(evaluate(chain, z) - np.eye(2), 2) < 1e-8


def test_cascade_constants_and_pointwise_product():
    d1, d2 = np.diag([2.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.5]])
    both = cascade(Realization.constant(d1), Realization.constant(d2))
    assert both.n == 0
    assert np.abs(both.D - d1 @ d2).max() == 0.0
    rng = np.random.default_rng(6)
    r1, r2 = rand_realization(rng, 2, 2), rand_realization(rng, 3, 2)
    prod = cascade(r1, r2)
    assert prod.n == 5
    for z in GRID[:5]:
        lhs = evaluate(prod, z)
        rhs = evaluate(r1, z) @ evaluate(r2, z)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_cascade_dimension_mismatch():
    rng = np.random.default_rng(7)
    with pytest.raises(DimensionMismatch):
        cascade(rand_realization(rng, 1, 1), rand_realization(rng, 1, 2))


def test_minimality_invariant_under_coordinates():
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = rand_realization(rng, 3, 2)
        t = rand_coordinates(rng, 3)
        assert is_minimal(change_coordinates(r, t))[0] == is_minimal(r)[0]


BAD_INPUTS = {
    "non-finite block": lambda: Realization(n=1, m=1, A=[[np.nan]], B=[[1.0]], C=[[1.0]], D=[[0.0]]),
    "non-Hermitian H": lambda: ConeParameter(h=[[1.0, 2.0], [0.0, 1.0]]),
    "singular H": lambda: ConeParameter(h=np.zeros((2, 2))),
    "non-Hermitian weight": lambda: WMatrix(family=FamilyTag(Family.POSITIVE_REAL), n=1, m=1,
                                            entries=np.triu(np.ones((4, 4))), p_used=np.eye(1)),
    "grid size": lambda: make_grid(Domain.RIGHT_HALF_PLANE, 0, 4),
    "lossless kind": lambda: lossless_boundary_oracle(
        Realization.constant(np.eye(1)), "XX", make_grid(Domain.RIGHT_HALF_PLANE, 4, 4)),
    "cayley of a non-square A": lambda: cayley(np.ones((2, 3))),
    "cayley of a vector": lambda: cayley(np.ones(3)),
    "cayley of nan": lambda: cayley(np.nan),
    "non-finite T": lambda: change_coordinates(fixture("f"), np.nan),
    "non-finite P": lambda: verify_kyp(fixture("f"), np.nan, Family.POSITIVE_REAL),
    "non-finite cone argument": lambda: in_lyapunov([[1.0]], [[np.nan]]),
    "non-finite combined matrix": lambda: matrix_convex_combine([[[np.nan]]], [np.eye(1)]),
    "negative isometry seed": lambda: random_isometry_tuple([2, 2], 2, -1),
    "negative cone seed": lambda: random_in_lyapunov(np.eye(2), -1),
    "negative realization seed": lambda: random_certified_realization(Family.POSITIVE_REAL, 2, 1, -1),
    "membership oracle without a grid": lambda: membership_oracle(fixture("f"), Family.POSITIVE_REAL, None),
    "lossless oracle without a grid": lambda: lossless_boundary_oracle(fixture("f"), "LP", None),
    "anti-db oracle without a grid": lambda: anti_db_oracle(fixture("f"), None),
    "hyper-bounded oracle without a grid": lambda: hyper_bounded_oracle(fixture("f"), 3.0, None),
    "check without a grid": lambda: check(fixture("f"), Family.POSITIVE_REAL, None, solve=True),
}

#: the type each input rule raises, for the sites that `_linalg.square` and
#: `_linalg.seeded` judge
BAD_INPUT_TYPES = {
    "cayley of a non-square A": DimensionMismatch,
    "cayley of a vector": DimensionMismatch,
    "cayley of nan": BadParams,
    "non-finite T": BadParams,
    "non-finite P": BadParams,
    "non-finite cone argument": BadParams,
    "non-finite combined matrix": BadParams,
    "negative isometry seed": BadParams,
    "negative cone seed": BadParams,
    "negative realization seed": BadParams,
    "membership oracle without a grid": BadParams,
    "lossless oracle without a grid": BadParams,
    "anti-db oracle without a grid": BadParams,
    "hyper-bounded oracle without a grid": BadParams,
    "check without a grid": BadParams,
}


@pytest.mark.parametrize("site", list(BAD_INPUTS))
def test_bad_inputs_raise_a_typed_error(site):
    with pytest.raises(PassivityError):
        BAD_INPUTS[site]()


@pytest.mark.parametrize("site", list(BAD_INPUT_TYPES))
def test_bad_inputs_raise_the_rule_type(site):
    with pytest.raises(BAD_INPUT_TYPES[site]):
        BAD_INPUTS[site]()


def test_realization_validation():
    with pytest.raises(DimensionMismatch):
        Realization(n=2, m=1, A=np.zeros((1, 1)), B=np.zeros((2, 1)),
                    C=np.zeros((1, 2)), D=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        Realization(n=1, m=1, A=[[np.nan]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    r = fixture("f")
    with pytest.raises(ValueError):
        r.A[0, 0] = 5.0  # blocks are read-only
