import numpy as np
import pytest
from helpers import (
    f1_closed,
    f2_closed,
    f3_closed,
    f_closed,
    g_closed,
    sampled_max_err,
)

from kypcert import BadParams, FixtureId, evaluate, fixture, invert_array

GRID = [1.0 + 0.5j, 2.0, -2.0, 3.0 - 1.0j, 0.5 + 2.0j, -1.0 + 3.0j, 4.0, 2.5j, -3.0 - 1j, 6.0 + 0.25j]

PARAM_PAIRS = [(1.0, 1.0), (2.0, -1.0), (0.5, 3.0)]


def test_fixture_f_closed_form():
    r = fixture("f")
    assert abs(evaluate(r, 1.0).value[0, 0] - 1.0 / 6.0) < 1e-14
    assert sampled_max_err(r, f_closed, GRID) < 1e-9


def test_fixture_g_closed_form_and_array_inverse():
    assert sampled_max_err(fixture("g"), g_closed, GRID) < 1e-9
    assert np.abs(fixture("g").array - invert_array(fixture("f")).array).max() < 1e-14


def test_fixture_arrays_match_print():
    f = fixture("f")
    assert np.abs(f.array - 0.5 * np.array([[-1.0, 1.0], [1.0, 0.0]])).max() == 0.0
    g = fixture("g")
    assert np.abs(g.array - 2.0 * np.array([[0.0, 1.0], [1.0, 1.0]])).max() == 0.0


@pytest.mark.parametrize("a,b", PARAM_PAIRS)
def test_fixture_family_closed_forms(a, b):
    assert sampled_max_err(fixture("F1", a=a, b=b), lambda z: f1_closed(z, a, b), GRID) < 1e-9
    assert sampled_max_err(fixture("F2", a=a, b=b), lambda z: f2_closed(z, a, b), GRID) < 1e-9
    assert sampled_max_err(fixture("F3", a=a, b=b), lambda z: f3_closed(z, a, b), GRID) < 1e-9


@pytest.mark.parametrize("a,b", PARAM_PAIRS)
def test_fixture_f2_is_array_inverse_of_f1(a, b):
    lhs = fixture("F2", a=a, b=b).array
    rhs = invert_array(fixture("F1", a=a, b=b)).array
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("a,b", PARAM_PAIRS)
def test_fixture_f3_times_f1_is_identity(a, b):
    f1 = fixture("F1", a=a, b=b)
    f3 = fixture("F3", a=a, b=b)
    for z in GRID:
        prod = evaluate(f3, z).value @ evaluate(f1, z).value
        assert np.abs(prod - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("a,b", PARAM_PAIRS)
def test_fixture_balanced_lossless_identity_exact(a, b):
    j = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    for name in ("F1", "F2", "F3"):
        arr = fixture(name, a=a, b=b).array
        assert np.abs(j @ arr + arr.conj().T @ j).max() == 0.0


def test_fixture_default_params():
    assert np.abs(fixture("F1").array - fixture("F1", a=1.0, b=1.0).array).max() == 0.0


def test_fixture_id_and_bad_params():
    r = fixture(FixtureId(name="F2", a=2.0, b=-1.0))
    assert np.abs(r.array - fixture("F2", a=2.0, b=-1.0).array).max() == 0.0
    with pytest.raises(BadParams):
        fixture("F1", a=0.0)
    with pytest.raises(BadParams):
        fixture("nope")


@pytest.mark.parametrize("name", ["f", "g"])
@pytest.mark.parametrize("params", [{"a": 2.0}, {"b": 1.0}, {"a": 1.0, "b": 1.0}])
def test_parameters_given_to_f_or_g_are_refused(name, params):
    with pytest.raises(BadParams, match="takes no parameters"):
        fixture(name, **params)


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
@pytest.mark.parametrize("params", [{"a": np.inf}, {"a": -np.inf}, {"b": np.nan}, {"a": np.nan, "b": 2.0}])
def test_non_finite_parameters_are_refused(name, params):
    with pytest.raises(BadParams, match="must be finite"):
        fixture(name, **params)
    with pytest.raises(BadParams, match="must be finite"):
        FixtureId(name=name, **params)


@pytest.mark.parametrize("name", ["f", "g", "F1", "F2", "F3"])
def test_no_parameters_is_valid_for_every_name(name):
    assert fixture(name, a=None, b=None).array.tobytes() == fixture(name).array.tobytes()
