"""The sampling grid's scrambled Halton points and seed handling.

`families._halton` reproduces ``scipy.stats.qmc.Halton(d=2, scramble=True)``
in the package, so importing kypcert does not import ``scipy.stats``.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

from kypcert import (
    BadParams,
    Domain,
    Family,
    fixture,
    make_grid,
    random_certified_realization,
    random_in_lyapunov,
    random_isometry_family,
    random_isometry_tuple,
    save_realization,
)
from kypcert.cli import main
from kypcert.families import _halton

SEEDS = [0, 7, 2**31 - 1, 2**62]
SIZES = [1, 2, 64, 309, 310, 1000]

# sha256 of the points scipy's sampler gave for (n, seed) when the grid was
# still drawn with it; the boundary and interior maps are left out because
# np.tan and np.exp may round differently between numpy builds
PINNED = {
    (64, 0): "d39fd3201e85fecc70aed8cf7bf037b0c86063e33888c133584b6907ef2217e9",
    (256, 7): "f57bd1bc7e3f9404cd9ee00dc18f75f375f560d0f2d92909d7c9b31d0fcebbde",
    (1000, 2**31 - 1): "b7c4f48b186a2cbed439d1e0c4bbb10b0abf8a4d74293f20dfda8d1247eaf51c",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_halton_equals_scipy_bit_for_bit(n, seed):
    ours = _halton(n, seed)
    theirs = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
    assert ours.shape == theirs.shape == (n, 2)
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize(("n", "seed"), sorted(PINNED))
def test_halton_points_are_pinned(n, seed):
    assert hashlib.sha256(_halton(n, seed).tobytes()).hexdigest() == PINNED[n, seed]


@pytest.mark.parametrize("module", ["kypcert", "kypcert.cli"])
def test_import_leaves_scipy_stats_out(module):
    # a fresh interpreter: this process has imported scipy.stats itself
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_negative_seed_is_bad_params(seed):
    with pytest.raises(BadParams, match="seed must be >= 0"):
        make_grid(Domain.RIGHT_HALF_PLANE, 8, 8, seed=seed)
    with pytest.raises(BadParams, match="seed must be >= 0"):
        random_isometry_family(2, 2, 2, seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
@pytest.mark.parametrize("call", [
    lambda seed: random_isometry_tuple([2, 2], 2, seed),
    lambda seed: random_in_lyapunov(np.eye(2), seed),
    lambda seed: random_certified_realization(Family.POSITIVE_REAL, 2, 1, seed),
], ids=["random_isometry_tuple", "random_in_lyapunov", "random_certified_realization"])
def test_every_seeded_function_rejects_a_negative_seed(call, seed):
    with pytest.raises(BadParams, match="seed must be >= 0"):
        call(seed)


@pytest.mark.parametrize(("args", "name"), [
    ((8.5, 8), "n_boundary"),
    ((True, 4), "n_boundary"),
    (("8", 8), "n_boundary"),
    ((None, 8), "n_boundary"),
    ((8, 2.5), "n_interior"),
    ((8, 8, "x"), "seed"),
], ids=["float-boundary", "bool-boundary", "str-boundary", "none-boundary", "float-interior", "str-seed"])
def test_grid_sizes_and_seed_must_be_integers(args, name):
    with pytest.raises(BadParams, match=f"^{name} must be an integer, got "):
        make_grid(Domain.RIGHT_HALF_PLANE, *args)


def test_grid_takes_numpy_integers():
    grid = make_grid(Domain.EXTERIOR_DISK, np.int64(8), np.int32(4), np.int64(3))
    assert type(grid.seed) is int and grid.seed == 3
    assert grid.points.tobytes() == make_grid(Domain.EXTERIOR_DISK, 8, 4, 3).points.tobytes()


@pytest.fixture()
def fixture_files(tmp_path):
    paths = []
    for name in ("F1", "F2"):
        path = tmp_path / f"{name}.json"
        save_realization(path, fixture(name))
        paths.append(str(path))
    return paths


def test_cli_negative_seed_is_an_error_line(capsys, fixture_files):
    assert main(["check", "--family", "p", "--seed", "-1", fixture_files[0]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_cli_negative_environment_seed_is_an_error_line(capsys, monkeypatch, fixture_files):
    monkeypatch.setenv("PASSIVITY_SEED", "-3")
    assert main(["check", "--family", "p", fixture_files[0]]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


@pytest.mark.parametrize("text", ["abc", "1.5"])
def test_cli_environment_seed_that_is_no_integer_is_an_error_line(capsys, monkeypatch, fixture_files, text):
    monkeypatch.setenv("PASSIVITY_SEED", text)
    assert main(["check", "--family", "p", fixture_files[0]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: PASSIVITY_SEED must be an integer, got {text!r}\n"


def test_cli_empty_environment_seed_means_zero(capsys, monkeypatch, fixture_files):
    monkeypatch.setenv("PASSIVITY_SEED", "")
    assert main(["check", "--family", "p", "--deterministic", fixture_files[0]]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_cli_combine_negative_seed_is_an_error_line(capsys, tmp_path, fixture_files):
    out = tmp_path / "combined.json"
    argv = ["combine", "--family", "p", "--inputs", ",".join(fixture_files),
            "--random", "2", "--seed", "-2", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"
    assert not out.exists()


@pytest.mark.parametrize(("n", "moved"), [(262144, 1), (1000001, 0)])
def test_make_grid_moves_only_the_point_at_pi(n, moved):
    """theta = pi, the pole of i tan(theta / 2), is the one point moved: one of
    an even count, none of an odd count, however large the grid."""
    unmoved = 1j * np.tan(2.0 * np.pi * np.arange(n) / n / 2.0)
    boundary = make_grid(Domain.RIGHT_HALF_PLANE, n, 0).boundary_points
    assert np.count_nonzero(boundary != unmoved) == moved
