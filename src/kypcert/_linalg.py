"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = [
    "herm",
    "is_hermitian",
    "min_eig",
    "spectral_norm",
    "sigma_min",
    "nearly_singular",
    "ct",
    "min_eigs",
    "spectral_norms",
    "sigma_mins",
    "frozen",
]


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X*)/2, used to kill round-off asymmetry."""
    return (x + x.conj().T) / 2


def is_hermitian(x: np.ndarray, rtol: float = 1e-12) -> bool:
    if x.shape[0] != x.shape[1]:
        return False
    scale = max(1.0, float(np.abs(x).max())) if x.size else 1.0
    return bool(np.abs(x - x.conj().T).max(initial=0.0) <= rtol * scale)


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; +inf for the empty matrix."""
    if x.size == 0:
        return np.inf
    return float(np.linalg.eigvalsh(herm(x))[0])


def spectral_norm(x: np.ndarray) -> float:
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def sigma_min(x: np.ndarray) -> float:
    """Smallest singular value; +inf for an empty matrix (vacuously invertible)."""
    if x.size == 0:
        return np.inf
    return float(np.linalg.svd(x, compute_uv=False)[-1])


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
