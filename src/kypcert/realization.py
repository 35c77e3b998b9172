"""State-space realization arrays and the elementary operations on them.

A realization of an m x m rational function F with no pole at infinity is the
(n+m) x (n+m) block array ``[A B; C D]`` with ``F(z) = C (zI - A)^-1 B + D``.
``n = 0`` is fully supported and represents the constant function F(z) = D.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._linalg import frozen, nearly_singular, square, zgees, zgesv, ztrtri
from .exceptions import (
    BadParams,
    DimensionMismatch,
    NumericalFailure,
    PoleAt,
    SingularArray,
    SingularD,
    SingularT,
)

__all__ = [
    "Realization",
    "evaluate",
    "is_minimal",
    "change_coordinates",
    "invert_array",
    "invert_function",
    "cascade",
]

#: relative sigma_min threshold below which zI - A (etc.) counts as singular
POLE_RTOL = 1e-12

#: rank tolerance for minimality tests, relative to the largest singular value
RANK_RTOL = 1e-8

#: condition-number cap for coordinate-change matrices
COND_MAX = 1e12

#: entries of the work arrays of one block of `_evaluate_points` (zI - A for
#: the exact rule, the states for the solve), which bounds their memory for
#: any n
_BLOCK_ENTRIES = 2**14

#: the eigenvalue screen clears a point when its lower bound on
#: sigma_min(zI - A) exceeds this multiple of an upper bound on ||zI - A||_2
_SCREEN_RTOL = 1e-9

_log = logging.getLogger(__name__)


def _as_block(x, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        # accept a flat vector only when one target dimension is 1
        if rows == 1:
            arr = arr.reshape(1, -1)
        elif cols == 1:
            arr = arr.reshape(-1, 1)
    if arr.size == 0:
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"block {name} has shape {arr.shape}, expected {(rows, cols)}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise BadParams(f"block {name} contains non-finite entries")
    return frozen(arr)


def _dimensions(n, m) -> tuple[int, int]:
    """(n, m) as ints; DimensionMismatch unless n >= 0 and m >= 1."""
    n, m = int(n), int(m)
    if n < 0:
        raise DimensionMismatch("state dimension n must be nonnegative")
    if m < 1:
        raise DimensionMismatch("input/output dimension m must be positive")
    return n, m


@dataclass(frozen=True, eq=False)
class Realization:
    """Immutable state-space realization array [A B; C D].

    Parameters
    ----------
    n : int
        State dimension (>= 0).
    m : int
        Input/output dimension (>= 1).
    A, B, C, D : array_like
        Complex blocks of shapes (n,n), (n,m), (m,n), (m,m).
    """

    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        n, m = _dimensions(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "A", _as_block(self.A, n, n, "A"))
        object.__setattr__(self, "B", _as_block(self.B, n, m, "B"))
        object.__setattr__(self, "C", _as_block(self.C, m, n, "C"))
        object.__setattr__(self, "D", _as_block(self.D, m, m, "D"))

    @classmethod
    def from_array(cls, array, n: int, m: int) -> "Realization":
        """Split an (n+m) x (n+m) array into blocks."""
        arr = np.asarray(array, dtype=complex)
        if arr.shape != (n + m, n + m):
            raise DimensionMismatch(f"array has shape {arr.shape}, expected {(n + m, n + m)}")
        return cls(n=n, m=m, A=arr[:n, :n], B=arr[:n, n:], C=arr[n:, :n], D=arr[n:, n:])

    @classmethod
    def constant(cls, d) -> "Realization":
        """Realization of the constant function F(z) = D (n = 0)."""
        d = np.atleast_2d(np.asarray(d, dtype=complex))
        m = d.shape[0]
        return cls(n=0, m=m, A=np.zeros((0, 0)), B=np.zeros((0, m)), C=np.zeros((m, 0)), D=d)

    @property
    def array(self) -> np.ndarray:
        """The full (n+m) x (n+m) block array."""
        n, m = self.n, self.m
        out = np.zeros((n + m, n + m), dtype=complex)
        out[:n, :n] = self.A
        out[:n, n:] = self.B
        out[n:, :n] = self.C
        out[n:, n:] = self.D
        return out

    def poles(self) -> np.ndarray:
        """Eigenvalues of A (candidate poles of the transfer function)."""
        return np.linalg.eigvals(self.A)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Realization(n={self.n}, m={self.m})"


def evaluate(r: Realization, z: complex) -> np.ndarray:
    """F(z) = C (zI - A)^-1 B + D, an m x m array.

    This is `_evaluate_points` on the one point z, which it judges by the
    exact rule alone, without the eigenvalue screen. z must be finite;
    F(inf) is ``r.D``.

    Raises
    ------
    BadParams
        If z is not finite.
    PoleAt
        If zI - A is singular to working precision
        (sigma_min < 1e-12 * ||zI - A||_2).
    NumericalFailure
        If the Schur form of A does not converge, or F(z) overflows.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise BadParams(f"cannot evaluate F at the non-finite point {z}")
    values, keep = _evaluate_points(r, np.array([z]))
    if not keep[0]:
        raise PoleAt(z)
    if not np.isfinite(values[0]).all():
        raise NumericalFailure(f"F overflows at z = {z}: the entries of the realization are too large")
    return values[0]


def _schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, U) with A = U T U*, U unitary and T upper triangular: the complex
    Schur form from one LAPACK call."""
    t, _, _, u, _, info = zgees(lambda x: None, a)
    if info:
        raise NumericalFailure(f"the Schur form of A did not converge (zgees info = {info})")
    return t, u


def _transfer(r: Realization, t: np.ndarray, u: np.ndarray, z: np.ndarray):
    """(F, Y) at the points z for the Schur form A = U T U*: Y is the
    (N, n, m) stack solving (zI - T) Y = U* B and F = (C U) Y + D.

    One back substitution runs over all points, a row of T per step:
    Y[i] = ((U* B)[i] + T[i, i+1:] Y[i+1:]) / (z - T[i, i]). The product is
    one matrix product per point, of the same shape at every point, so the
    values at a point do not depend on the other points. An elementwise
    update across points would: numpy's SIMD loops may multiply complex
    arrays with fused multiply-adds and a single element without. Huge
    entries may overflow F to non-finite values, without a warning.
    """
    w = u.conj().T @ r.B
    d = z[:, None] - np.diag(t)
    y = np.empty((z.size, r.n, r.m), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(r.n - 1, -1, -1):
            y[:, i] = (w[i] + t[i, i + 1 :] @ y[:, i + 1 :]) / d[:, i, None]
        return (r.C @ u) @ y + r.D, y


# Pole screen of `_evaluate_points`. With A V = V diag(lam) + E for the
# eigenpairs, zI - A = V (zI - diag(lam)) V^-1 - E V^-1, so
#     sigma_min(zI - A) >= min|z - lam| / kappa(V) - ||E||_F / sigma_min(V).
# (lam, V_T) are LAPACK's eigenpairs of T in A = U T U*, V_T upper triangular
# with unit columns, V = U V_T and W = V_T^-1 (ztrtri): kappa(V) <= ||V_T||_F
# ||W||_F, sigma_min(V) >= 1 / ||W||_F and ||zI - A||_2 <= |z| + ||A||_F. E is
# the residual as computed plus the rounding bound of A V, (n + 1) eps ||A||_F
# ||V||_F. A point whose lower bound exceeds 1e-9 (|z| + ||A||_F) cannot fail
# `evaluate`'s rule sigma_min < 1e-12 ||zI - A||_2: the three decades cover the
# rounding of ztrtri, of the bound and of U, unitary to about n eps, which moves
# V's singular values off V_T's by as much. Points not cleared get the exact
# rule (the kept set is `evaluate`'s), as does z = 0 for A = 0: 0 > 0 is false.
def _pole_screen(a: np.ndarray, t: np.ndarray, u: np.ndarray):
    """(lam, the bound on kappa(V), delta, ||A||_F) for A = U T U*, or None when
    V_T is singular to working precision (a Jordan block) or not triangular."""
    # no convergence guard: zgeev's balancing isolates every eigenvalue of a triangular T, so no QR iteration runs
    lam, vt = np.linalg.eig(t)
    w, info = ztrtri(vt)
    with np.errstate(over="ignore"):  # ||W||_F beyond the largest float: kappa = inf
        kappa = np.linalg.norm(vt) * np.linalg.norm(w)
    if info or np.tril(vt, -1).any() or not 1.0 / kappa >= POLE_RTOL:
        return None
    v = u @ vt
    rounding = (a.shape[0] + 1) * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(v)
    delta = (np.linalg.norm(a @ v - v * lam) + rounding) * np.linalg.norm(w)
    return lam, kappa, delta, np.linalg.norm(a)


def _evaluate_points(r: Realization, points: np.ndarray, *, states: bool = False):
    """F(z) at each point as an (N, m, m) stack, and the mask of points kept.

    A point is kept unless zI - A is singular to working precision by the
    exact rule, sigma_min(zI - A) < 1e-12 ||zI - A||_2; the rows of skipped
    points are zero. One Schur form A = U T U* serves the whole call. The
    pole screen takes its eigenpairs from it, and zI - A is formed only for
    the points the screen does not clear, to apply the exact rule. A single
    point (`evaluate`) skips the screen and goes to the exact rule directly.
    `_transfer` then solves the kept points by one back substitution with
    zI - T, O(n^2 m) per point, so a point's value does not depend on the
    other points. Both passes go in blocks of
    `_BLOCK_ENTRIES` entries. With `states`, a third result is the (N, n, m)
    stack of (zI - A)^-1 B = U (zI - T)^-1 U* B, zero where skipped.
    """
    points = np.asarray(points, dtype=complex).ravel()
    n = r.n
    values = np.zeros((points.size, r.m, r.m), dtype=complex)
    xs = np.zeros((points.size, n, r.m), dtype=complex) if states else None
    cleared = 0
    if n == 0:
        values[:] = r.D
        keep = np.ones(points.size, dtype=bool)
    else:
        t, u = _schur(r.A)
        # one point costs less by the exact rule than by the screen
        screen = _pole_screen(r.A, t, u) if points.size > 1 else None
        if screen is None:
            keep = np.zeros(points.size, dtype=bool)
        else:
            lam, kappa, delta, norm_a = screen
            dist = np.abs(points[:, None] - lam).min(axis=1)
            keep = dist / kappa - delta > _SCREEN_RTOL * (np.abs(points) + norm_a)
        rest = (~keep).nonzero()[0]
        cleared = points.size - rest.size
        eye = np.eye(n)
        step = max(1, _BLOCK_ENTRIES // (n * n))
        for start in range(0, rest.size, step):
            idx = rest[start : start + step]
            keep[idx] = ~nearly_singular(points[idx, None, None] * eye - r.A, POLE_RTOL)
        kept = keep.nonzero()[0]
        step = max(1, _BLOCK_ENTRIES // (n * r.m))
        for start in range(0, kept.size, step):
            idx = kept[start : start + step]
            values[idx], y = _transfer(r, t, u, points[idx])
            if states:
                with np.errstate(invalid="ignore"):  # a Y that overflowed
                    xs[idx] = u @ y
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "evaluated F at %d points: %d cleared by the eigenvalue screen, "
            "%d sent to the exact rule, %d skipped as pole-adjacent",
            points.size, cleared, points.size - cleared if n else 0, int(points.size - keep.sum()),
        )
    return (values, keep, xs) if states else (values, keep)


def is_minimal(r: Realization) -> tuple[bool, int, int]:
    """Test minimality via controllability/observability ranks.

    Returns
    -------
    (minimal, rank_ctrb, rank_obsv)
        Ranks of [B, AB, ..., A^(n-1) B] and its observability dual, computed
        with an SVD cutoff of 1e-8 times the largest singular value. The
        realization is minimal iff both ranks equal n; n = 0 is minimal.
    """
    n = r.n
    blocks = [r.B]
    obs = [r.C]
    for _ in range(n - 1):
        blocks.append(r.A @ blocks[-1])
        obs.append(obs[-1] @ r.A)
    ctrb = np.hstack(blocks)
    obsv = np.vstack(obs)

    def _rank(mat: np.ndarray) -> int:
        sv = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(sv > RANK_RTOL * sv.max(initial=0.0)))

    rc, ro = _rank(ctrb), _rank(obsv)
    return (rc == n and ro == n), rc, ro


def change_coordinates(r: Realization, t) -> Realization:
    """Similarity transform: (T^-1 A T, T^-1 B, C T, D).

    Equivalent to diag(T^-1, I_m) @ [A B; C D] @ diag(T, I_m). The transfer
    function is invariant.

    Raises
    ------
    SingularT
        If T is singular or its condition number exceeds 1e12.
    """
    t = square(t, "T", r.n)
    if r.n == 0:
        return r
    sv = np.linalg.svd(t, compute_uv=False)
    if (sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf) > COND_MAX:
        raise SingularT("coordinate change matrix is singular or too ill conditioned")
    x = zgesv(t, np.hstack([r.A @ t, r.B]))[2]
    return Realization(n=r.n, m=r.m, A=x[:, : r.n], B=x[:, r.n :], C=r.C @ t, D=r.D)


def invert_array(r: Realization) -> Realization:
    """Matrix inverse of the realization array: R_G with R_G @ R_F = I.

    This is inversion of the array viewed as a plain (n+m) x (n+m) matrix; it
    generally realizes a different rational function than the pointwise
    function inverse (see `invert_function`).
    """
    arr = r.array
    if nearly_singular(arr, POLE_RTOL):
        raise SingularArray("realization array is singular to working precision")
    return Realization.from_array(np.linalg.inv(arr), r.n, r.m)


def invert_function(r: Realization) -> Realization:
    """Realization of the pointwise inverse z -> F(z)^-1.

    Requires nonsingular D, so that the inverse has no pole at infinity and
    admits an array of the same shape. Returns
    (A - B D^-1 C, B D^-1, -D^-1 C, D^-1).
    """
    if nearly_singular(r.D, POLE_RTOL):
        raise SingularD("feedthrough D is singular; function inverse is improper")
    dinv = np.linalg.inv(r.D)
    return Realization(
        n=r.n,
        m=r.m,
        A=r.A - r.B @ dinv @ r.C,
        B=r.B @ dinv,
        C=-dinv @ r.C,
        D=dinv,
    )


def cascade(r1: Realization, r2: Realization) -> Realization:
    """Series interconnection realizing the product F1(z) F2(z).

    State dimension is n1 + n2; both systems must share m.
    """
    if r1.m != r2.m:
        raise DimensionMismatch(f"m mismatch: {r1.m} vs {r2.m}")
    n1, n2, m = r1.n, r2.n, r1.m
    a = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    a[:n1, :n1] = r1.A
    a[:n1, n1:] = r1.B @ r2.C
    a[n1:, n1:] = r2.A
    b = np.vstack([r1.B @ r2.D, r2.B])
    c = np.hstack([r1.C, r1.D @ r2.C])
    d = r1.D @ r2.D
    return Realization(n=n1 + n2, m=m, A=a, B=b, C=c, D=d)
