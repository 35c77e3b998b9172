"""Small dense linear-algebra helpers shared across modules, the two
argument rules every public entry point reads its inputs by: `square` for a
square matrix argument and `seeded` for a seed, and the five LAPACK routines
the package calls."""

from __future__ import annotations

import numbers
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .exceptions import BadParams, DimensionMismatch


def _flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    without running ``scipy.linalg/__init__.py``: that init loads scipy's
    array-API layer, which pulls in numpy.f2py, numpy.testing and more, about
    half of the package's import time. The module goes into
    ``sys.modules`` (or is taken from there), so ``scipy.linalg.lapack``
    hands out the same function objects."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = PathFinder.find_spec(name, [str(Path(scipy.__file__).parent / "linalg")])
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_lapack = _flapack()
zgees, zgesv, zpotrf, ztrsen, ztrtri = _lapack.zgees, _lapack.zgesv, _lapack.zpotrf, _lapack.ztrsen, _lapack.ztrtri


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X*)/2, used to kill round-off asymmetry."""
    return (x + x.conj().T) / 2


def is_hermitian(x: np.ndarray, rtol: float = 1e-12) -> bool:
    scale = max(1.0, float(np.abs(x).max())) if x.size else 1.0
    return bool(np.abs(x - x.conj().T).max(initial=0.0) <= rtol * scale)


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; +inf for the empty matrix."""
    return float(min_eigs(x)) if x.size else np.inf


def spectral_norm(x: np.ndarray) -> float:
    return float(spectral_norms(x)) if x.size else 0.0


def sigma_min(x: np.ndarray) -> float:
    """Smallest singular value; +inf for an empty matrix (vacuously invertible)."""
    return float(sigma_mins(x)) if x.size else np.inf


def nearly_singular(x: np.ndarray, rtol: float):
    """sigma_min(x) < rtol * max(||x||_2, 1e-300), with both singular values
    from one SVD. A stack of matrices gives a boolean array; an empty matrix
    is never singular."""
    if x.size == 0:
        return np.zeros(x.shape[:-2], dtype=bool) if x.ndim > 2 else False
    sv = np.linalg.svd(x, compute_uv=False)
    out = sv[..., -1] < rtol * np.maximum(sv[..., 0], 1e-300)
    return out if x.ndim > 2 else bool(out)


def ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def min_eigs(x: np.ndarray) -> np.ndarray:
    """`min_eig` of each matrix in a stack: eigvalsh of its Hermitian part."""
    return np.linalg.eigvalsh((x + ct(x)) / 2)[..., 0]


def spectral_norms(x: np.ndarray) -> np.ndarray:
    """`spectral_norm` of each matrix in a stack."""
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def sigma_mins(x: np.ndarray) -> np.ndarray:
    """`sigma_min` of each matrix in a stack."""
    return np.linalg.svd(x, compute_uv=False)[..., -1]


def frozen(x) -> np.ndarray:
    """A read-only complex copy of `x`."""
    out = np.array(x, dtype=complex)
    out.setflags(write=False)
    return out


def square(x, name: str, n: int | None = None) -> np.ndarray:
    """`x` as a complex n x n array (any square shape when n is None), a
    scalar read as 1 x 1. A wrong shape raises DimensionMismatch, a
    non-finite entry BadParams."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or n is not None and arr.shape[0] != n:
        expected = "a square matrix" if n is None else (n, n)
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.isfinite(arr).all():
        raise BadParams(f"{name} has non-finite entries")
    return arr


def seeded(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a negative integer seed raises BadParams."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)
