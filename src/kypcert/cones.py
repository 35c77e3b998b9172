"""Lyapunov/Stein matrix cones, the matrix Cayley transform, and
matrix-convex combinations of square matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import frozen, herm, is_hermitian, min_eig, nearly_singular, seeded, sigma_min, spectral_norm, square
from .exceptions import BadParams, DimensionMismatch, MinusOneInSpectrum, NotAnIsometryFamily

__all__ = [
    "ConeParameter",
    "IsometryTuple",
    "in_lyapunov",
    "in_stein",
    "cayley",
    "matrix_convex_combine",
    "random_isometry_tuple",
    "random_in_lyapunov",
]

#: default slack used when testing cone membership
PSD_TOL = 1e-9

#: maximum allowed deviation of sum(Y_j* Y_j) from the identity
ISOMETRY_TOL = 1e-8


@dataclass(frozen=True)
class ConeParameter:
    """Hermitian nonsingular weight H plus the open/closed cone choice.

    ``strict=False`` selects the closure (>= 0 tests); ``strict=True`` the
    open cone (> 0 tests).
    """

    h: np.ndarray
    strict: bool = False

    def __post_init__(self):
        h = square(self.h, "cone parameter H")
        if not is_hermitian(h):
            raise BadParams("cone parameter H must be Hermitian")
        if sigma_min(h) <= 0.0:
            raise BadParams("cone parameter H must be nonsingular")
        object.__setattr__(self, "h", frozen(h))

    @property
    def n(self) -> int:
        return self.h.shape[0]


def _cone(h) -> ConeParameter:
    return h if isinstance(h, ConeParameter) else ConeParameter(h=h)


def _verdict(smallest: float, strict: bool, tol: float) -> bool:
    return smallest > tol if strict else smallest >= -tol


def in_lyapunov(h, a, tol: float = PSD_TOL) -> bool:
    """Membership in the Lyapunov cone: HA + A*H >= 0 (or > 0 for strict H)."""
    cone = _cone(h)
    a = square(a, "A", cone.n)
    return _verdict(min_eig(cone.h @ a + a.conj().T @ cone.h), cone.strict, tol)


def in_stein(h, a, tol: float = PSD_TOL) -> bool:
    """Membership in the Stein cone: H - A*HA >= 0 (or > 0 for strict H)."""
    cone = _cone(h)
    a = square(a, "A", cone.n)
    return _verdict(min_eig(cone.h - a.conj().T @ cone.h @ a), cone.strict, tol)


def cayley(a) -> np.ndarray:
    """Matrix Cayley transform (I - A)(I + A)^-1.

    Involutive wherever defined; swaps the Lyapunov and Stein cones.

    Raises
    ------
    DimensionMismatch, BadParams
        If A is not a finite square matrix.
    MinusOneInSpectrum
        If I + A is singular to working precision.
    """
    a = square(a, "A")
    n = a.shape[0]
    ipa = np.eye(n) + a
    if nearly_singular(ipa, 1e-12):
        raise MinusOneInSpectrum("-1 is in the spectrum of A to working precision")
    return np.linalg.solve(ipa.conj().T, (np.eye(n) - a).conj().T).conj().T


def _gram_defect(blocks) -> float:
    """||sum_j Y_j* Y_j - I||_2 over blocks of a common column count; inf
    when the Gram sum is not finite."""
    nu = blocks[0].shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        gram = sum(b.conj().T @ b for b in blocks) - np.eye(nu)
    return spectral_norm(gram) if np.isfinite(gram).all() else math.inf


@dataclass(frozen=True)
class IsometryTuple:
    """Blocks Y_j in C^(eta_j x nu) with sum(Y_j* Y_j) = I_nu.

    The blocks may be rectangular with eta_j <= nu; the Gram-sum defect
    ||sum Y_j* Y_j - I||_2 is stored in `defect`.
    """

    blocks: tuple[np.ndarray, ...]
    defect: float = field(init=False)

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=complex) for b in self.blocks)
        if not blocks:
            raise NotAnIsometryFamily("empty isometry tuple")
        if any(b.ndim != 2 for b in blocks):
            raise DimensionMismatch("isometry blocks must be 2-d matrices")
        nu = blocks[0].shape[1]
        for j, b in enumerate(blocks):
            if b.shape[1] != nu:
                raise DimensionMismatch(f"block {j} must have {nu} columns")
            if b.shape[0] > nu:
                raise DimensionMismatch(f"block {j} has eta_j = {b.shape[0]} > nu = {nu}")
        defect = _gram_defect(blocks)
        if not defect <= ISOMETRY_TOL:
            raise NotAnIsometryFamily(f"Gram sum deviates from identity by {defect:.3e}")
        object.__setattr__(self, "blocks", tuple(frozen(b) for b in blocks))
        object.__setattr__(self, "defect", defect)

    @property
    def nu(self) -> int:
        return self.blocks[0].shape[1]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def etas(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)


def matrix_convex_combine(matrices, iso) -> np.ndarray:
    """Matrix-convex combination sum_j Y_j* A_j Y_j.

    Parameters
    ----------
    matrices : sequence of square arrays
        Finite A_j of shape (eta_j, eta_j), matching block j of `iso`; a
        scalar reads as 1 x 1.
    iso : IsometryTuple or sequence of arrays
        Blocks with sum(Y_j* Y_j) = I within 1e-8.
    """
    if not isinstance(iso, IsometryTuple):
        iso = IsometryTuple(blocks=tuple(iso))
    mats = list(matrices)
    if len(mats) != iso.k:
        raise DimensionMismatch(f"{len(mats)} matrices for {iso.k} isometry blocks")
    return _combine(mats, iso.blocks)


def _combine(mats, blocks) -> np.ndarray:
    """sum_j Y_j* A_j Y_j over as many matrices as blocks, with no check of
    the blocks' Gram sum."""
    nu = blocks[0].shape[1]
    out = np.zeros((nu, nu), dtype=complex)
    for j, (a, y) in enumerate(zip(mats, blocks)):
        out += y.conj().T @ square(a, f"matrix {j}", y.shape[0]) @ y
    return out


def random_isometry_tuple(etas, nu: int, rng) -> IsometryTuple:
    """Sample a tuple of blocks with sum(Y_j* Y_j) = I_nu.

    Draws a complex Gaussian (sum eta_j) x nu matrix, orthonormalizes its
    columns and slices the rows into blocks of heights `etas`. Requires
    sum(etas) >= nu.
    """
    rng = seeded(rng)
    etas = [int(e) for e in etas]
    total = sum(etas)
    if total < nu:
        raise DimensionMismatch(f"sum(etas) = {total} < nu = {nu}; no exact isometry exists")
    g = rng.standard_normal((total, nu)) + 1j * rng.standard_normal((total, nu))
    q, _ = np.linalg.qr(g)
    return IsometryTuple(blocks=tuple(np.split(q, np.cumsum(etas)[:-1])))


def random_in_lyapunov(h, rng, scale: float = 1.0) -> np.ndarray:
    """Sample A with HA + A*H >= 0 (H Hermitian nonsingular).

    Writes HA = K + S/2 with K skew-Hermitian and S PSD, so HA + A*H = S.
    """
    cone = _cone(h)
    rng = seeded(rng)
    n = cone.n
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g - g.conj().T) / 2
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = scale * herm(g2 @ g2.conj().T)
    return np.linalg.solve(cone.h, k + s / 2)
