from pathlib import Path

import numpy as np
import pytest
from helpers import DOUBLED_STATE_TIER, rand_complex, rand_realization, write_isometry_family

from kypcert import (
    NotAnIsometryFamily,
    ParseError,
    Realization,
    ShapeError,
    evaluate,
    fixture,
    load,
    load_isometry_family,
    load_matrix,
    load_realization,
    random_isometry_family,
    save,
    save_isometry_family,
    save_matrix,
    save_realization,
)


def test_round_trip_fixture_f(tmp_path):
    path = tmp_path / "f.json"
    save_realization(path, fixture("f"), metadata={"name": "f"})
    back = load_realization(path)
    assert np.abs(back.array - fixture("f").array).max() == 0.0
    assert abs(evaluate(back, 1.0)[0, 0] - 1.0 / 6.0) < 1e-14


def test_round_trip_is_bit_faithful_and_canonical(tmp_path):
    rng = np.random.default_rng(0)
    r = rand_realization(rng, 3, 2)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_realization(p1, r)
    back = load_realization(p1)
    assert np.array_equal(back.array, r.array)  # bit-faithful
    save_realization(p2, back)
    assert p1.read_bytes() == p2.read_bytes()  # canonical form is stable


def test_round_trip_constant_realization(tmp_path):
    r = Realization.constant(np.array([[1.5, -2.0], [0.25, 3.0]]))
    path = tmp_path / "const.json"
    save_realization(path, r)
    back = load_realization(path)
    assert back.n == 0 and back.m == 2
    assert np.array_equal(back.D, r.D)


def test_shape_error_on_inconsistent_blocks(tmp_path):
    path = tmp_path / "bad.json"
    doc = """{"type": "realization", "n": 1, "m": 1,
               "A": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
               "B": [[[1.0, 0.0]]], "C": [[[1.0, 0.0]]], "D": [[[0.0, 0.0]]]}"""
    path.write_text(doc)
    with pytest.raises(ShapeError):
        load_realization(path)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "realization", "n": 1\n  "m": 1}')
    with pytest.raises(ParseError) as info:
        load_realization(path)
    assert "line" in str(info.value)


#: files json cannot read: bytes that are not UTF-8, and nesting past the recursion limit
UNREADABLE = {
    "not-utf8": (b"\xff\xfe{}", "not UTF-8 text"),
    "too-deep": (b"[" * 200000 + b"]" * 200000, "nested too deeply"),
}


@pytest.mark.parametrize("loader", [load, load_realization, load_matrix, load_isometry_family])
@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_file_is_a_parse_error_naming_the_path(tmp_path, name, loader):
    content, message = UNREADABLE[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=message) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")


def test_parse_error_on_nonfinite(tmp_path):
    path = tmp_path / "naughty.json"
    path.write_text('{"type": "realization", "n": 0, "m": 1, "A": [], "B": [],'
                    ' "C": [[]], "D": [[[NaN, 0.0]]]}')
    with pytest.raises(ParseError):
        load_realization(path)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rand_complex(rng, (3, 3))
    path = tmp_path / "p.json"
    save_matrix(path, mat)
    assert np.array_equal(load_matrix(path), mat)


def test_isometry_family_round_trip(tmp_path):
    fam = random_isometry_family(3, 2, 2, 7)
    path = tmp_path / "iso.json"
    save_isometry_family(path, fam)
    back = load_isometry_family(path)
    assert back.k == 3
    for lhs, rhs in zip(back.state_blocks, fam.state_blocks):
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("loader", [load, load_isometry_family])
def test_non_isometric_family_is_refused_at_load(tmp_path, loader):
    path = tmp_path / "bad.json"
    write_isometry_family(path, *DOUBLED_STATE_TIER)
    with pytest.raises(NotAnIsometryFamily) as info:
        loader(path)
    assert str(info.value) == f"{path}: state_blocks: Gram sum deviates from identity by 1.000e+00"
    # a shape error stays a ShapeError: the blocks of a family are square
    write_isometry_family(path, (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])), (np.eye(1), np.zeros((1, 1))))
    with pytest.raises(ShapeError, match="state_blocks must all be 2 x 2"):
        loader(path)


def test_generic_load_save_dispatch(tmp_path):
    p1, p2, p3 = (tmp_path / name for name in ("r.json", "m.json", "i.json"))
    save(p1, fixture("F1"))
    save(p2, np.eye(2))
    save(p3, random_isometry_family(2, 1, 1, 3))
    assert isinstance(load(p1), Realization)
    assert np.array_equal(load(p2), np.eye(2))
    assert load(p3).k == 2
    bad = tmp_path / "unknown.json"
    bad.write_text('{"type": "mystery"}')
    with pytest.raises(ParseError):
        load(bad)


def test_load_reads_and_parses_each_document_once(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in ("r.json", "m.json", "i.json")]
    for path, value in zip(paths, (fixture("F1"), np.eye(2), random_isometry_family(2, 1, 1, 3))):
        save(path, value)
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    for path in paths:
        reads.clear()
        load(path)
        assert reads == [path]
