"""The JSON codec: the writer's bytes are json.dumps(indent=2, sort_keys=True)
of the [re, im] list form, and the reader keeps its errors and accepted leaves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kypcert import ParseError, Realization, ShapeError, fixture, load_realization, save_realization
from kypcert.cli import main
from kypcert.serialization import _dumps, _realization_arrays, decode_matrix, realization_document

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
TEXT = st.text(max_size=6) | st.sampled_from(["", "é", "名前", '"\\\n', "\U0001f600"])


def listed(obj):
    """The [re, im] list form, written out entry by entry."""
    if isinstance(obj, np.ndarray):
        return [[[float(v.real), float(v.imag)] for v in row] for row in obj]
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(x) for x in obj]
    return obj


def reference(doc) -> str:
    return json.dumps(listed(doc), indent=2, sort_keys=True) + "\n"


@st.composite
def matrices(draw, rows=st.integers(0, 3), cols=st.integers(0, 3)):
    shape = (draw(rows), draw(cols))
    parts = draw(st.lists(FLOATS, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]))
    return np.array(parts, dtype=float).reshape(*shape, 2).view(complex)[..., 0]


SCALARS = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | FLOATS | TEXT


def nested(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
                        max_leaves=12)


DOCUMENTS = nested(SCALARS | matrices())
REPORTS = st.fixed_dictionaries({
    "command": st.lists(TEXT, max_size=3),
    "inputs": st.dictionaries(TEXT, TEXT, max_size=2),
    "seed": st.none() | st.integers(0, 2**32),
    "oracle": st.fixed_dictionaries({"worst_margin": FLOATS, "samples_used": st.integers(0, 512),
                                     "worst_point": st.lists(FLOATS, min_size=2, max_size=2)}),
    "certificate": st.fixed_dictionaries({"min_eig_p": st.none() | FLOATS, "p": matrices(),
                                          "verified": st.booleans()}),
    "minimal": st.fixed_dictionaries({"minimal": st.booleans(), "rank_ctrb": st.integers(0, 64)}),
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS | REPORTS)
def test_writer_matches_json_dumps(doc):
    assert _dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.integers(1, 2), st.data())
def test_realization_documents_match_json_dumps(n, m, data):
    blocks = {k: data.draw(matrices(st.just(rows), st.just(cols)))
              for k, (rows, cols) in {"A": (n, n), "B": (n, m), "C": (m, n), "D": (m, m)}.items()}
    r = Realization(n=n, m=m, A=np.nan_to_num(blocks["A"]), B=np.nan_to_num(blocks["B"]),
                    C=np.nan_to_num(blocks["C"]), D=np.nan_to_num(blocks["D"]))
    meta = data.draw(st.none() | st.dictionaries(TEXT, nested(SCALARS), max_size=2))
    assert _dumps(_realization_arrays(r, meta)) == reference(_realization_arrays(r, meta))


def test_empty_blocks_are_written_as_json_does(tmp_path):
    path = tmp_path / "const.json"
    save_realization(path, Realization.constant(np.array([[1.5, -0.0], [5e-324, 1e308]])), metadata={"name": "é"})
    text = path.read_text()
    assert '"B": []' in text and '"C": [\n    [],\n    []\n  ]' in text
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("meta, message", [
    ({"x": np.eye(2)}, "Object of type ndarray is not JSON serializable"),
    ({"x": [1, {"y": np.zeros(3)}]}, "Object of type ndarray is not JSON serializable"),
    ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
])
def test_metadata_keeps_json_rules(tmp_path, meta, message):
    """save_realization rejects the metadata that json.dumps of realization_document
    rejects, with json's message, and writes nothing."""
    r, path = fixture("F1"), tmp_path / "r.json"
    assert realization_document(r, meta)["metadata"] is meta
    for write in (lambda: json.dumps(realization_document(r, meta)), lambda: save_realization(path, r, meta)):
        with pytest.raises(TypeError) as info:
            write()
        assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["check", "--family", "p", "--solve", "--lossless"],
    ["eval", "--at", "0.5,-2"],
    ["wmat", "--family", "db", "--n", "2", "--m", "1", "--balanced"],
])
def test_cli_reports_are_canonical_json(capsys, tmp_path, argv):
    path = tmp_path / "f1.json"
    save_realization(path, fixture("F1"))
    args = argv if argv[0] == "wmat" else [*argv, str(path)]
    main([*args, "--deterministic"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# type and message of each rejected block, as the entry-by-entry decoder gave
# them; a huge integer raised a bare OverflowError there
ERRORS = [
    ({"a": 1}, None, ParseError, "field 'X': expected a list of rows"),
    ([[[1, 0]], 5], None, ParseError, "field 'X', row 1: expected a list"),
    (["ab"], None, ParseError, "field 'X', row 0: expected a list"),
    ([[[1, 0], [1]]], None, ParseError, "field 'X', entry (0,1): expected [re, im]"),
    ([[(1, 0)]], None, ParseError, "field 'X', entry (0,0): expected [re, im]"),
    ([[{"1": 0, "2": 0}]], None, ParseError, "field 'X', entry (0,0): expected [re, im]"),
    ([[[1, 0]], [[1, 0], [2, 0]]], None, ShapeError, "field 'X': ragged rows (2 vs 1)"),
    ([[], [[1, 0]]], None, ShapeError, "field 'X': ragged rows (1 vs 0)"),
    ([[[None, 0]]], None, ParseError, "field 'X', entry (0,0): not numeric"),
    ([[[0, 0], [0, "x"]]], None, ParseError, "field 'X', entry (0,1): not numeric"),
    ([[[10**400, 0]]], None, ParseError, "field 'X', entry (0,0): not numeric"),
    ([[[[1], 0]]], None, ParseError, "field 'X', entry (0,0): not numeric"),
    ([[[math.nan, 0]]], None, ParseError, "field 'X': non-finite entries"),
    ([[["inf", 0]]], None, ParseError, "field 'X': non-finite entries"),
    ([[[0, "x"]], [[0, 0], [0, 0]]], None, ParseError, "field 'X', entry (0,0): not numeric"),
    ([[[0, 0]], [[0, 0], [0, "x"]]], None, ParseError, "field 'X', entry (1,1): not numeric"),
    ([[[None, 0]]], (2, 2), ParseError, "field 'X', entry (0,0): not numeric"),
    ([[[math.nan, 0]]], (2, 2), ShapeError, "field 'X' has shape (1, 1), expected (2, 2)"),
    ([[[math.nan, 0], [None, 0]]], None, ParseError, "field 'X', entry (0,1): not numeric"),
    ([[[1, 0]]], (2, 1), ShapeError, "field 'X' has shape (1, 1), expected (2, 1)"),
]


@pytest.mark.parametrize("obj, shape, error, message", ERRORS)
def test_decode_errors(obj, shape, error, message):
    with pytest.raises(error) as info:
        decode_matrix(obj, *(shape or (None, None)), field="X")
    assert str(info.value) == message


def test_decode_accepts_numeric_leaves():
    out = decode_matrix([[[1, True], ["1.5", " 2 "]], [[False, -0.0], ["1e3", 7]]])
    assert out.tolist() == [[1 + 1j, 1.5 + 2j], [0j, 1000 + 7j]]
    assert math.copysign(1.0, out[1, 0].imag) == -1.0
    assert decode_matrix([], 0, 3).shape == (0, 3) and decode_matrix([[], []], 2, 0).shape == (2, 0)


def test_huge_integers_are_a_parse_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"type": "realization", "n": 0, "m": 1, "A": [], "B": [], "C": [[]],'
                    f' "D": [[[{"9" * 400}, 0]]]}}')
    with pytest.raises(ParseError, match="not numeric"):
        load_realization(path)
    assert main(["check", "--family", "p", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    path.write_text('{"type": "realization", "n": 1e400, "m": 1, "A": [], "B": [], "C": [[]], "D": [[[0, 0]]]}')
    with pytest.raises(ParseError, match="must be integers"):
        load_realization(path)
