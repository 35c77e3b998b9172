"""Unified KYP quadratic-matrix-inequality engine.

The four passivity families (continuous/discrete x positive/bounded real) are
all certified by one construction: a structured Hermitian weight W(P) of size
2(n+m) and the quadratic form

    Q = [R; I]* W(P) [R; I],

where R is the realization array. A positive-definite P making Q positive
semidefinite is a membership certificate for the family that W encodes.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    ct,
    frobenius_norms,
    frozen,
    herm,
    is_hermitian,
    min_eig,
    min_eigs,
    seeded,
    sigma_min,
    spectral_norm,
    square,
    zpotrf,
    ztrsen,
    ztrtri,
)
from .exceptions import (
    BadFamily,
    BadParams,
    CertificateNotVerified,
    DimensionMismatch,
    EtaOutOfRange,
    NotPositiveDefinite,
    NumericalFailure,
    SingularIPlusA,
)
from .realization import POLE_RTOL, Realization, _dimensions, _evaluate_points, _schur, change_coordinates

__all__ = [
    "Family",
    "FamilyTag",
    "WMatrix",
    "Certificate",
    "CertificateStatus",
    "NotFound",
    "as_tag",
    "build_weight",
    "build_balanced_weight",
    "assemble_q",
    "verify_kyp",
    "solve_p",
    "balance",
    "check_lossless",
    "weight_rotation_delta_to_beta",
    "weight_transfer_delta_to_alpha",
    "weight_transfer_beta_to_gamma",
    "array_swap",
    "random_certified_realization",
]

_log = logging.getLogger(__name__)

#: scale factor for the default PSD tolerance: tol = 1e-9 * (1 + ||Q~||_2)
PSD_TOL_SCALE = 1e-9

#: refuted when min eig(Q) < -1000 * tol
REFUTE_FACTOR = 1e3

#: a P is admissible when Hermitian within this rtol and zpotrf factors herm(P); a weight's entries use it too
_HERMITIAN_RTOL = 1e-10


class Family(enum.Enum):
    """The four passivity families."""

    POSITIVE_REAL = "positive-real"
    BOUNDED_REAL = "bounded-real"
    DISCRETE_POSITIVE_REAL = "discrete-positive-real"
    DISCRETE_BOUNDED_REAL = "discrete-bounded-real"

    @property
    def is_discrete(self) -> bool:
        return self in (Family.DISCRETE_POSITIVE_REAL, Family.DISCRETE_BOUNDED_REAL)

    @property
    def is_bounded(self) -> bool:
        return self in (Family.BOUNDED_REAL, Family.DISCRETE_BOUNDED_REAL)


@dataclass(frozen=True)
class FamilyTag:
    """A family plus the optional hyper-bounded parameter eta in (1, inf].

    Finite eta selects the refined bounded-real weight and is only defined for
    ``Family.BOUNDED_REAL``.
    """

    family: Family
    eta: float = math.inf

    def __post_init__(self):
        eta = float(self.eta)
        if not eta > 1.0:
            raise EtaOutOfRange(f"eta must lie in (1, inf], got {eta}")
        if math.isfinite(eta) and self.family is not Family.BOUNDED_REAL:
            raise EtaOutOfRange("finite eta is only defined for the bounded-real weight")
        object.__setattr__(self, "eta", eta)

    @property
    def label(self) -> str:
        if math.isfinite(self.eta):
            return f"hyper-bounded(eta={self.eta:g})"
        return self.family.value


def as_tag(family) -> FamilyTag:
    """Coerce a Family or FamilyTag to a FamilyTag."""
    if isinstance(family, FamilyTag):
        return family
    if isinstance(family, Family):
        return FamilyTag(family=family)
    raise BadFamily(f"not a passivity family: {family!r}")


class CertificateStatus(enum.Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WMatrix:
    """Structured Hermitian weight of size 2(n+m) encoding one family."""

    family: FamilyTag
    n: int
    m: int
    entries: np.ndarray
    p_used: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (2 * (self.n + self.m),) * 2:
            raise DimensionMismatch("weight entries have the wrong shape")
        if not is_hermitian(entries, _HERMITIAN_RTOL):
            raise BadParams("weight entries must be Hermitian")
        object.__setattr__(self, "entries", frozen(entries))
        object.__setattr__(self, "p_used", frozen(self.p_used))


@dataclass(frozen=True)
class Certificate:
    """Outcome of a KYP check: P, the assembled Q, their extreme eigenvalues,
    and the verdict for this particular P (a refuted certificate refutes only
    the certificate, never membership)."""

    family: FamilyTag
    p: np.ndarray
    q: np.ndarray
    min_eig_q: float
    min_eig_p: float
    status: CertificateStatus

    @property
    def verified(self) -> bool:
        return self.status is CertificateStatus.VERIFIED


@dataclass(frozen=True)
class NotFound:
    """solve_p found no certificate. Not a proof of non-membership.

    `stop` says why: "witness" when a domain point shows that no P >= 0
    can reach the PSD tolerance, else "no-certificate". `witness` is that
    point (complex infinity included) when stop is "witness", else None.
    `iterations` counts every P `verify_kyp` judged (1 at n = 0), `best_p`
    is the judged positive-definite one with the largest min_eig_q, and
    `residual` = max(0, -min_eig_q) for it."""

    family: FamilyTag
    best_p: np.ndarray
    min_eig_q: float
    residual: float
    iterations: int
    stop: str
    witness: complex | None = None


def _eta_coefficient(tag: FamilyTag) -> float:
    # (1+eta)/(1-eta): -1 at eta = inf, decreasing below -1 for finite eta
    if math.isinf(tag.eta):
        return -1.0
    return (1.0 + tag.eta) / (1.0 - tag.eta)


def _tier_form(n: int, m: int, state, io, x=None, dtype=complex) -> np.ndarray:
    """The 2(n+m) matrix of block order n, m, n, m with state[a][b]·X in block
    (a, b) of the state tiers (blocks 1 and 3) and io[a][b]·I_m in that of the
    io tiers (blocks 2 and 4), X = x or I_n. Only nonzero entries are written,
    and ±1 as X or -X, so no product gives a zero a sign."""
    nm = n + m
    u = np.zeros((2 * nm, 2 * nm), dtype=dtype)
    for start, size, pattern, block in ((0, n, state, np.eye(n) if x is None else x), (n, m, io, np.eye(m))):
        first, second = slice(start, start + size), slice(start + nm, start + nm + size)
        (c11, c12), (c21, c22) = pattern
        for c, rows, cols in ((c11, first, first), (c12, first, second), (c21, second, first), (c22, second, second)):
            if c:
                u[rows, cols] = block if c == 1 else -block if c == -1 else c * block
    return u


def _weight_entries(tag: FamilyTag, p: np.ndarray, m: int) -> np.ndarray:
    """Assemble the 2(n+m) weight for family `tag` around an arbitrary
    Hermitian P (no definiteness check; block order n, m, n, m). The state
    tier is diag(-P, P) in discrete time, else -P off the diagonal; the io
    tier is diag(c, 1)·I if bounded (c from eta), else I off the diagonal."""
    state = ((-1, 0), (0, 1)) if tag.family.is_discrete else ((0, -1), (-1, 0))
    io = ((_eta_coefficient(tag), 0), (0, 1)) if tag.family.is_bounded else ((0, 1), (1, 0))
    return _tier_form(p.shape[0], m, state, io, p)


def build_weight(family, p, m: int) -> WMatrix:
    """Build W(P) for a Hermitian positive-definite P.

    Parameters
    ----------
    family : Family or FamilyTag
        Target family; a finite eta on a bounded-real tag selects the refined
        hyper-bounded weight (its (2,2) block is (1+eta)/(1-eta) * I instead
        of -I; eta = inf reproduces the plain bounded-real weight).
    p : array_like
        Hermitian positive-definite n x n matrix.
    m : int
        Input/output dimension.

    Raises
    ------
    DimensionMismatch, BadParams
        If P is not a finite square matrix, or m < 1.
    NotPositiveDefinite
        Unless P is Hermitian within 1e-10 and zpotrf factors herm(P), as `verify_kyp` reads it.
    """
    tag = as_tag(family)
    p = square(p, "P")
    if not is_hermitian(p, _HERMITIAN_RTOL) or _inverse_factor(herm(p)) is None:
        raise NotPositiveDefinite("P must be Hermitian positive definite")
    n, m = _dimensions(p.shape[0], m)
    return WMatrix(family=tag, n=n, m=m, entries=_weight_entries(tag, p, m), p_used=p)


def build_balanced_weight(family, n: int, m: int) -> WMatrix:
    """The balanced weight, i.e. build_weight with P = I_n."""
    n, m = _dimensions(n, m)
    return build_weight(family, np.eye(n), m)


def assemble_q(r: Realization, w) -> np.ndarray:
    """Assemble the quadratic form [R; I]* W [R; I], Hermitian-symmetrized.

    `w` may be a WMatrix or a raw Hermitian 2(n+m) array.
    """
    entries = w.entries if isinstance(w, WMatrix) else np.asarray(w, dtype=complex)
    nm = r.n + r.m
    if entries.shape != (2 * nm, 2 * nm):
        raise DimensionMismatch(
            f"weight has shape {entries.shape}, expected {(2 * nm, 2 * nm)}"
        )
    stack = np.vstack([r.array, np.eye(nm)])
    with np.errstate(over="ignore", invalid="ignore"):
        q = herm(stack.conj().T @ entries @ stack)
    if not np.isfinite(q).all():
        raise NumericalFailure("Q overflows: the entries of the array are too large for the weight")
    return q


def _tolerance(value, name: str = "tol_psd") -> float:
    """A user tolerance as a float; BadParams unless finite and >= 0."""
    tol = float(value)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise BadParams(f"{name} must be finite and non-negative, got {tol}")
    return tol


def _inverse_factor(p: np.ndarray) -> np.ndarray | None:
    """L^-1 for P = L L* (zpotrf, then ztrtri), the one positive-definiteness
    test and the one frame of a Hermitian P; None when zpotrf finds P not
    positive definite."""
    if not p.size:
        return p
    factor, info = zpotrf(p, lower=1)
    return None if info else ztrtri(factor, lower=1)[0]


def _balanced_q(r: Realization, p: np.ndarray, tag: FamilyTag) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(Q(P), Q~, L^-1) for a Hermitian P: Q~ = diag(L^-1, I) Q diag(L^-*, I)
    with `_inverse_factor`'s L, Q where the certificate is the identity; for
    a P that is not positive definite, L^-1 is None and Q~ is Q."""
    q = assemble_q(r, _weight_entries(tag, p, r.m))
    l_inv = _inverse_factor(p)
    q_bal, n = q.copy(), r.n
    if l_inv is not None:
        q_bal[:n] = l_inv @ q[:n]
        q_bal[:, :n] = q_bal[:, :n] @ ct(l_inv)
    return q, q_bal, l_inv


def verify_kyp(r: Realization, p, family, tol_psd: float | None = None) -> Certificate:
    """Check whether P certifies membership of F in the given family.

    Q is judged where the certificate is the identity: with P = L L*,
    min_eig_q is lambda_min of Q~ = diag(L^-1, I) Q diag(L^-*, I), the
    spectrum of the balanced form, so no scale of P or of the coordinates
    moves the status. VERIFIED iff P is Hermitian, zpotrf factors it and
    min_eig_q >= -tol_psd; REFUTED if P fails either of the first two, or
    if min_eig_q < -1000*tol_psd (which refutes only this certificate, not
    membership); INCONCLUSIVE otherwise. min_eig_p (eigvalsh) is only
    reported, and may round to <= 0 on a factored P. The default tol_psd is
    1e-9 * (1 + min(||Q~||_2, |v|^T |Q~| |v|)), v the unit eigenvector of
    lambda_min(Q~) and |.| entrywise; q is the unscaled Q. A P that is not a
    finite n x n matrix, or a tol_psd that is negative or not finite, raises
    DimensionMismatch or BadParams.
    """
    tag = as_tag(family)
    tol = None if tol_psd is None else _tolerance(tol_psd)
    p = square(p, "P", r.n)
    ph = herm(p)
    mp = float(np.linalg.eigvalsh(ph)[0]) if r.n else math.inf  # reported only; +inf for the empty P
    q, q_bal, l_inv = _balanced_q(r, ph, tag)
    lam = np.linalg.eigvalsh(q_bal)  # Q~ is Hermitian, so ||Q~||_2 = max(-lam_min, lam_max)
    mq = float(lam[0])
    if tol is None:
        tol = PSD_TOL_SCALE * (1.0 + max(-mq, float(lam[-1])))
        if mq < 0.0:  # the size of Q~ along the eigenvector of lambda_min, if smaller
            v = np.abs(np.linalg.eigh(q_bal)[1][:, 0])
            tol = min(tol, PSD_TOL_SCALE * (1.0 + float(v @ np.abs(q_bal) @ v)))
    admissible = is_hermitian(p, _HERMITIAN_RTOL) and l_inv is not None
    if not admissible or mq < -REFUTE_FACTOR * tol:
        status = CertificateStatus.REFUTED
    elif mq >= -tol:
        status = CertificateStatus.VERIFIED
    else:
        status = CertificateStatus.INCONCLUSIVE
    return Certificate(family=tag, p=p, q=q, min_eig_q=mq, min_eig_p=mp, status=status)


# Frequency-witness screen: the easy direction of the KYP lemma (Willems
# 1971). Take z in the closed domain, not a pole, and a unit vector u. With
# x = (zI - A)^-1 B u and v = [x; u], [R; I] v = [z x; F(z) u; x; u], so
#     v* Q(P) v = sigma(z) x* P x + u* Phi(F(z)) u,
# where sigma(z) = -2 Re z for the continuous families and 1 - |z|^2 for the
# discrete ones (sigma <= 0 on the closed domain), and
# Phi(F) = [F; I]* W_io [F; I] with W_io the P-free io block of the weight
# (rows and columns i2, i4). With u the eigenvector of lambda_min(Phi(F(z))),
# v* Q(P) v <= lambda_min(Phi(F(z))) |u|^2 for every P >= 0: one point with
# Phi(F(z)) indefinite rules out every certificate. At z = infinity, x = 0
# and F = D. The search stops on the point rule
#     lambda_min(Phi(F(z))) < -REFUTE_FACTOR * tau(z),
#     tau(z) = PSD_TOL_SCALE * (1 + ||Phi|| + ||W_io|| (1 + || |C| |X| || + ||D||)^2),
# with X = (zI - A)^-1 B and |.| taken entrywise: tau grows with the terms
# that cancel in F = C X + D and in Phi, so the rule sits three decades past
# the rounding of lambda_min. With a user tol_psd, tau = tol_psd, as for n = 0.
#
# The points are infinity, a fixed boundary sweep, the boundary projections of
# eig(A) and small circles around its eigenvalues in the open domain, where a
# member is analytic and a pole of F makes Phi unbounded below. When none of
# them meets the rule, the screen adds the zero crossings of the Popov function
# Phi(F(i w)) (Boyd, Balakrishnan & Kabamba 1989; Grivet-Talocia 2004). With
#     M = [C D; 0 I]* W_io [C D; 0 I] = [Qx Sx; Sx* Rx]
# and Rx = Phi(D) invertible, det Phi(F(i w)) = 0 exactly when i w is an
# eigenvalue of
#     H = [A - B Rx^-1 Sx*,         -B Rx^-1 B*           ]
#         [-Qx + Sx Rx^-1 Sx*,      -(A - B Rx^-1 Sx*)*   ].
# Between consecutive crossings and poles the inertia of Phi is constant, so
# the crossings and the midpoints between them (sorted together with the
# projections of eig(A), which include every pole on the axis) test every
# interval; the intervals at both ends meet at infinity, where Phi = Rx. The
# discrete families go through `bilinear_substitute`, G(s) = F((1+s)/(1-s)),
# whose axis maps onto the unit circle; z = -1 stands for s = infinity. A
# singular Rx (lossless inputs, D = 0 in p) adds no crossings. Every
# candidate is judged by evaluating F, so extra points never stop a member.

#: points of the fixed boundary sweep of the witness screen
_WITNESS_SWEEP = 16

#: a point counts as in the closed domain while sigma(z) <= this * (1 + |z|^2),
#: which admits the rounding of points put on the unit circle
_SIGMA_RTOL = 8 * np.finfo(float).eps

#: an eigenvalue of H counts as a crossing while |Re lam| <= this * ||H||_F;
#: an eigenvalue taken in excess only adds a candidate point
_AXIS_RTOL = 1e-6


def _io_weight(tag: FamilyTag, m: int) -> np.ndarray:
    """W_io, the P-free io block of the weight (rows and columns i2, i4)."""
    return _weight_entries(tag, np.zeros((0, 0)), m)


def _witness_points(r: Realization, tag: FamilyTag) -> np.ndarray:
    """Infinity, a boundary sweep at half-step angles, the boundary
    projections of eig(A) (i Im lam, or lam / |lam|), and 8 points around
    each lam with sigma(lam) < -1e-8 (1 + |lam|^2), inside the open domain."""
    theta = 2.0 * np.pi * (np.arange(_WITNESS_SWEEP) + 0.5) / _WITNESS_SWEEP
    lam = r.poles()
    sigma = 1.0 - np.abs(lam) ** 2 if tag.family.is_discrete else -2.0 * lam.real
    inside = lam[sigma < -1e-8 * (1.0 + np.abs(lam) ** 2), None]
    circles = inside + 1e-3 * (1.0 + np.abs(inside)) * np.exp(2j * np.pi * np.arange(8) / 8)
    if tag.family.is_discrete:
        lam = lam[lam != 0]
        boundary = [np.exp(1j * theta), lam / np.abs(lam)]
    else:
        boundary = [1j * np.tan(theta / 2.0), 1j * lam.imag]
    return np.concatenate([[complex(np.inf)], *boundary, circles.ravel()])


# Certificate candidates: the constructive KYP lemma (Willems 1971; Anderson &
# Vongpanitlerd 1973). For p/b, Q(P) = [Qx - P A - A* P, Sx - P B; Sx* - B* P, Rx];
# dp/db use G = `bilinear_substitute` and P = P_G / 2:
# P - A* P A = -V* (A_G* P_G + P_G A_G) V, V = (I + A) / 2.
#
# Riccati rung: with Rx > 0, Q(P) has Schur complement eps s I,
# s = 1 + ||M||_2, exactly when X = -P solves the Riccati equation of H with
# Qx - eps s I for Qx: A* X + X A - (X B + Sx) Rx^-1 (B* X + Sx*) + Qx = eps s I.
# With no axis eigenvalue, the stabilizing X is U2 U1^-1 for the stable subspace
# [U1; U2] of an ordered Schur form. eps > 0 keeps Q(P) inside the PSD cone, so
# P survives `balance` and rounding; with eps = 0, P lies on the boundary of the
# feasible set and often fails either.
#
# On a resonance of damping zeta, eps moves Phi by about eps s / (2 zeta w)^2
# and puts eigenvalues of H on the axis. So when alpha = max Re eig(A) < 0, a
# second pass takes eps = 0 on A - 1e-3 alpha I: its P gives
# Q(P) >= diag(2e-3 |alpha| P, 0) for A (decay-rate LMIs: Boyd, El Ghaoui,
# Feron & Balakrishnan 1994, sec. 5.1), a margin of 2e-3 |alpha| in balance.
#
# Deflated rung: once P B = Sx, Q(P) = diag(Qx - P A - A* P, Rx), so with
# Rx >= 0 the state block decides. With the SVD B = U [S V*; 0] of rank k,
# P B = Sx fixes the first k columns of U* P U; with A~ = U* A U and L the
# state block of U* Q(P) U at P22 = 0, the state block is a KYP form in P22,
# for (A~22, A~21) with Popov blocks (L22, L21, L11). The rung runs on it;
# where it finds no X, the form is deflated again, and at k = n P is fixed:
# the structure algorithm of generalized Riccati theory (Ionescu, Oara &
# Weiss 1999).
_RICCATI_EPS = 1e-6

#: the second pass: A - _DECAY_SHIFT alpha I, and its _AXIS_RTOL
_DECAY_SHIFT, _SHIFTED_AXIS_RTOL = 1e-3, 1e-9


def _continuous(r: Realization, tag: FamilyTag) -> tuple[Realization, float] | None:
    """(G, k): r and 1 for p/b, the bilinear substitute G(s) = F((1+s)/(1-s))
    and 1/2 for dp/db, so that P = k P_G; None when I + A is singular."""
    if not tag.family.is_discrete:
        return r, 1.0
    from .families import bilinear_substitute  # families imports this module

    try:
        return bilinear_substitute(r), 0.5
    except SingularIPlusA:
        return None


def _popov_blocks(r: Realization, w_io: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(Qx, Sx, Rx, ||M||_2) of M = [C D; 0 I]* W_io [C D; 0 I] = [Qx Sx; Sx* Rx]."""
    n, m = r.n, r.m
    cd = np.zeros((2 * m, n + m), dtype=complex)
    cd[:m, :n], cd[:m, n:], cd[m:, n:] = r.C, r.D, np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        mx = ct(cd) @ w_io @ cd
    if not np.isfinite(mx).all():
        raise NumericalFailure("Q overflows: the entries of [C D] are too large for the weight")
    return mx[:n, :n], mx[:n, n:], mx[n:, n:], spectral_norm(mx)


def _hamiltonian(a: np.ndarray, b: np.ndarray, popov: tuple, eps: float = 0.0) -> np.ndarray | None:
    """H for (A, B), popov = (Qx, Sx, Rx, ||M||_2) and Qx - eps s I for Qx,
    s = 1 + ||M||_2; None when Rx is singular or H is not finite."""
    qx, sx, rx, norm_m = popov
    if sigma_min(rx) <= POLE_RTOL * norm_m:
        return None
    n = a.shape[0]
    h = np.empty((2 * n, 2 * n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: H is not finite
        ri_s, ri_b = np.linalg.solve(rx, ct(sx)), np.linalg.solve(rx, ct(b))
        h[:n, :n] = a - b @ ri_s
        h[:n, n:] = -b @ ri_b
        h[n:, :n] = sx @ ri_s - (qx - eps * (1.0 + norm_m) * np.eye(n))
        h[n:, n:] = -ct(h[:n, :n])
    return h if np.all(np.isfinite(h)) else None


def _axis_crossings(r: Realization, w_io: np.ndarray) -> np.ndarray:
    """The real w with i w an eigenvalue of the Hamiltonian H of Phi(F(i w));
    empty when Rx is singular or H has no eigenvalue on the axis."""
    ham = _hamiltonian(r.A, r.B, _popov_blocks(r, w_io))
    if ham is None:
        return np.zeros(0)
    lam = np.linalg.eigvals(ham)
    return lam[np.abs(lam.real) <= _AXIS_RTOL * frobenius_norms(ham[None])[0]].imag


def _ordered_schur(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(T, U, k): the complex Schur form H = U T U* with its k eigenvalues
    of negative real part first, the form scipy's schur gives with
    sort="lhp" (one zgees, then one ztrsen); None when LAPACK fails, as it
    can next to the axis."""
    try:
        t, u = _schur(h)
    except NumericalFailure:
        return None
    t, u, _, k, _, _, info = ztrsen(t.diagonal().real < 0.0, t, u, job="N")
    return None if info else (t, u, k)


def _riccati_x(a: np.ndarray, b: np.ndarray, popov: tuple, eps: float, axis_rtol: float) -> tuple[np.ndarray | None, str]:
    """(X, why): the stabilizing X of the Riccati equation of `_hamiltonian`'s
    arguments, or None and why there is none."""
    if not min_eig(popov[2]) > POLE_RTOL * (1.0 + popov[3]):
        return None, "Rx not positive definite"
    ham = _hamiltonian(a, b, popov, eps)
    if ham is None:  # Rx passed the stricter test above, so H overflowed
        return None, "H not finite"
    ordered = _ordered_schur(ham)
    if ordered is None:
        return None, "Schur reordering failed"
    t, u, sdim = ordered
    n = a.shape[0]
    if sdim != n or np.abs(np.diag(t).real).min() <= axis_rtol * frobenius_norms(ham[None])[0]:
        return None, "axis eigenvalue"
    u1, u2 = u[:n, :n], u[n:, :n]
    if not sigma_min(u1) > POLE_RTOL:  # ||U1||_2 <= 1: U is unitary
        return None, "U1 singular"
    return herm(np.linalg.solve(u1.T, u2.T).T), "verify_kyp rejected P"


def _riccati_certificate(r: Realization, tag: FamilyTag, tol_psd: float | None) -> tuple[list[Certificate], str]:
    """`verify_kyp` on each P of the two passes, the last one verified when
    the rung certified; and why, in the first pass's words."""
    form = _continuous(r, tag)
    if form is None:
        return [], "I + A singular"
    g, scale = form
    popov = _popov_blocks(g, _io_weight(tag, g.m))
    x, why = _riccati_x(g.A, g.B, popov, _RICCATI_EPS, _AXIS_RTOL)
    judged = [] if x is None else [verify_kyp(r, -scale * x, tag, tol_psd)]
    if judged and judged[0].verified:
        return judged, f"certified by the Riccati rung at eps={_RICCATI_EPS:g}"
    alpha = g.poles().real.max()
    if alpha < 0.0:
        x = _riccati_x(g.A - _DECAY_SHIFT * alpha * np.eye(g.n), g.B, popov, 0.0, _SHIFTED_AXIS_RTOL)[0]
        if x is not None:
            judged.append(verify_kyp(r, -scale * x, tag, tol_psd))
            if judged[-1].verified:
                return judged, f"{why}; certified by the shifted rung"
    return judged, why


def _deflate(a: np.ndarray, b: np.ndarray, popov: tuple) -> np.ndarray | None:
    """P with P B = Sx and its free block from the rung or a deflation of the
    reduced form; None for an indefinite Rx, B = 0 or a non-finite form."""
    qx, sx, rx, norm_m = popov
    u, sv, vh = np.linalg.svd(b)
    k = int(np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0)))
    if not k or min_eig(rx) < -PSD_TOL_SCALE * (1.0 + norm_m):
        return None
    x = ct(u) @ sx @ ct(vh[:k]) / sv[:k]
    p = np.zeros_like(u)
    p[:k, :k], p[k:, :k], p[:k, k:] = herm(x[:k]), x[k:], ct(x[k:])
    if k < a.shape[0]:
        at = ct(u) @ a @ u
        lx = herm(ct(u) @ qx @ u - p @ at - ct(at) @ p)
        if not np.isfinite(lx).all():
            return None
        reduced = (at[k:, k:], at[k:, :k], (lx[k:, k:], lx[k:, :k], lx[:k, :k], spectral_norm(lx)))
        y = _riccati_x(*reduced, _RICCATI_EPS, _AXIS_RTOL)[0]
        p22 = _deflate(*reduced) if y is None else -y
        if p22 is None:
            return None
        p[k:, k:] = p22
    return u @ p @ ct(u)


def _deflated_p(r: Realization, tag: FamilyTag) -> np.ndarray | None:
    """The deflated rung's P (comment above `_RICCATI_EPS`); None when it
    forms none."""
    if tag.family.is_discrete:
        # F(conj(u) z), realized by (u A, B, u C, D) with |u| = 1, has the
        # certificates of F; u sends the middle of the widest gap between the
        # angles of the poles to -1, so the bilinear substitute has no huge pole
        ang = np.sort(np.angle(r.poles()))
        gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
        u = -np.exp(-1j * (ang[np.argmax(gaps)] + gaps.max() / 2.0))
        r = Realization(n=r.n, m=r.m, A=u * r.A, B=r.B, C=u * r.C, D=r.D)
    form = _continuous(r, tag)
    if form is None:
        return None
    g, scale = form
    with np.errstate(over="ignore", invalid="ignore"):
        p = _deflate(g.A, g.B, _popov_blocks(g, _io_weight(tag, g.m)))
    return None if p is None or not np.isfinite(p).all() else scale * herm(p)


def _crossing_points(r: Realization, tag: FamilyTag) -> np.ndarray:
    """The boundary points where Phi(F) can change inertia, and the midpoints
    between them; empty when there is no crossing."""
    form = _continuous(r, tag)
    if form is None:
        return np.zeros(0, dtype=complex)
    g = form[0]
    w = _axis_crossings(g, _io_weight(tag, r.m))
    if not w.size:
        return np.zeros(0, dtype=complex)
    breaks = np.sort(np.concatenate([w, g.poles().imag]))
    s = 1j * np.concatenate([w, (breaks[1:] + breaks[:-1]) / 2.0])
    if tag.family.is_discrete:
        return np.concatenate([(1.0 + s) / (1.0 - s), [-1.0]])
    return s


def _witness_scores(r: Realization, tag: FamilyTag, points, tol_psd: float | None = None) -> np.ndarray:
    """lambda_min(Phi(F(z))) / tau(z) at each point (complex infinity
    allowed); +inf at pole-adjacent points, where F overflows, and at points
    outside the closed domain. A user tol_psd is taken as tau, floored at
    the smallest normal float."""
    points = np.asarray(points, dtype=complex).ravel()
    n, m = r.n, r.m
    finite = np.isfinite(points)
    z = points[finite]
    values = np.broadcast_to(r.D, (points.size, m, m)).copy()
    xs = np.zeros((points.size, n, m), dtype=complex)
    keep = np.ones(points.size, dtype=bool)
    values[finite], keep[finite], xs[finite] = _evaluate_points(r, z, states=True)
    sigma = 1.0 - np.abs(z) ** 2 if tag.family.is_discrete else -2.0 * z.real
    keep[finite] &= sigma <= _SIGMA_RTOL * (1.0 + np.abs(z) ** 2)
    w_io = _io_weight(tag, m)
    g = np.concatenate([values, np.broadcast_to(np.eye(m), values.shape)], axis=1)
    # Phi and tau overflow where F is huge: next to a pole or on huge entries;
    # -inf past the floor is still a score
    with np.errstate(over="ignore", invalid="ignore"):
        phi = ct(g) @ w_io @ g
        keep &= np.isfinite(phi).all(axis=(1, 2))
        phi[~keep] = 0.0
        lam = min_eigs(phi)
        if tol_psd is None:
            cx = np.linalg.norm(np.abs(r.C) @ np.abs(xs), axis=(1, 2))
            scale = 1.0 + cx + np.linalg.norm(r.D)
            tau = PSD_TOL_SCALE * (1.0 + np.linalg.norm(phi, axis=(1, 2)) + spectral_norm(w_io) * scale**2)
        else:
            tau = max(float(tol_psd), np.finfo(float).tiny)
        return np.where(keep, lam / tau, np.inf)


def _find_witness(r: Realization, tag: FamilyTag, tol_psd: float | None = None) -> complex | None:
    """The screen point with the most negative lambda_min / tau when some
    point meets the stop rule, else None. The crossings of the Popov
    function are computed only when the fixed points give no witness."""
    points = _witness_points(r, tag)
    scores = _witness_scores(r, tag, points, tol_psd)
    if not scores.min() < -REFUTE_FACTOR:
        extra = _crossing_points(r, tag)
        points = np.concatenate([points, extra])
        scores = np.concatenate([scores, _witness_scores(r, tag, extra, tol_psd)])
    i = int(np.argmin(scores))
    return complex(points[i]) if scores[i] < -REFUTE_FACTOR else None


def solve_p(r: Realization, family, *, tol_psd: float | None = None) -> Certificate | NotFound:
    """Search for a certificate P among a fixed list of candidates.

    The candidates, each judged only by `verify_kyp`, are: the stabilizing
    solution of the tightened KYP Riccati equation (when Rx = Phi(D) > 0,
    Phi(F(-1)) for dp/db), and for a stable A that of A shifted towards the
    axis; when Rx >= 0, the P with P B = Sx that the same rung completes on
    the deflated KYP form; and the identity (comment above `_RICCATI_EPS`). The
    first verified Certificate is returned. Else a witness screen evaluates
    the family's frequency-domain form Phi(F(z)) at infinity, a few boundary
    and interior points and, if those show nothing, at the zero crossings of
    Phi on the boundary and the midpoints between them. If lambda_min(Phi) is
    clearly negative at some point, NotFound has stop = "witness" and that
    point as `witness`: no P >= 0 can then certify F. Otherwise stop =
    "no-certificate", which is NOT a proof of non-membership (the converse
    direction of the KYP lemma needs minimality, and the candidates are not
    exhaustive). A tol_psd that is negative or not finite raises BadParams.
    """
    tag = as_tag(family)
    if tol_psd is not None:
        tol_psd = _tolerance(tol_psd)
    n, m = r.n, r.m
    if n == 0:
        cert = verify_kyp(r, np.zeros((0, 0)), tag, tol_psd)
        _log.debug("solve_p %s n=0 m=%d: Q = Phi(D) is %s", tag.label, m, cert.status.value)
        if cert.verified:
            return cert
        # Q = Phi(D) does not depend on P: a refuted Q is the witness at infinity
        refuted = cert.status is CertificateStatus.REFUTED
        return NotFound(
            family=tag, best_p=np.zeros((0, 0)), min_eig_q=cert.min_eig_q,
            residual=max(0.0, -cert.min_eig_q), iterations=1,
            stop="witness" if refuted else "no-certificate", witness=complex(np.inf) if refuted else None,
        )
    judged, why = _riccati_certificate(r, tag, tol_psd)
    if judged and judged[-1].verified:
        _log.debug("solve_p %s n=%d m=%d: %s", tag.label, n, m, why)
        return judged[-1]
    for name, p in (("the deflated rung", _deflated_p(r, tag)), ("the identity", np.eye(n, dtype=complex))):
        if p is None:
            continue
        judged.append(verify_kyp(r, p, tag, tol_psd))
        if judged[-1].verified:
            _log.debug("solve_p %s n=%d m=%d: %s; certified by %s", tag.label, n, m, why, name)
            return judged[-1]
    _log.debug("solve_p %s n=%d m=%d: %s; no certificate", tag.label, n, m, why)
    best = max(judged, key=lambda c: (c.min_eig_p > 0.0, c.min_eig_q))
    witness = _find_witness(r, tag, tol_psd)
    return NotFound(
        family=tag, best_p=best.p, min_eig_q=best.min_eig_q, residual=max(0.0, -best.min_eig_q),
        iterations=len(judged), stop="no-certificate" if witness is None else "witness", witness=witness,
    )


def balance(r: Realization, cert: Certificate) -> tuple[Realization, Certificate]:
    """Change coordinates with T = L^-*, P = L L*: the certificate becomes P = I.

    Requires a verified certificate whose P factors, of any scale; SingularT
    when cond(T) = cond(L) exceeds COND_MAX. L is `verify_kyp`'s factor, so
    the returned certificate, re-verified against the balanced weight, has
    for Q the Q~ that `verify_kyp` judged: diag(T, I)* Q diag(T, I).
    """
    l_inv = _inverse_factor(herm(cert.p))
    if cert.status is not CertificateStatus.VERIFIED or l_inv is None:
        raise CertificateNotVerified("can only balance a verified certificate")
    if r.n == 0:
        return r, cert
    r_bal = change_coordinates(r, ct(l_inv))
    new_cert = verify_kyp(r_bal, np.eye(r.n), cert.family)
    return r_bal, new_cert


def check_lossless(r: Realization, p, family, tol: float = 1e-8) -> bool:
    """Degenerate-certificate test for the lossless subsets: Q(P) == 0, read
    as ||Q~||_2 <= tol for the Q~ of `verify_kyp`, where P = I; a P that it
    refutes as not Hermitian or not positive definite gives False.

    Only the continuous-time weights admit this reading (positive-real gives
    lossless-positive, bounded-real gives lossless-bounded).
    """
    tag = as_tag(family)
    if tag.family not in (Family.POSITIVE_REAL, Family.BOUNDED_REAL):
        raise BadFamily("lossless check is defined for the positive/bounded-real weights only")
    tol = _tolerance(tol, "tol")
    p = square(p, "P", r.n)
    _, q_bal, l_inv = _balanced_q(r, herm(p), tag)
    return is_hermitian(p, _HERMITIAN_RTOL) and l_inv is not None and spectral_norm(q_bal) <= tol


# ---------------------------------------------------------------------------
# Structure of the weight family: orthogonal transfer matrices
# ---------------------------------------------------------------------------


def weight_rotation_delta_to_beta(n: int, m: int) -> np.ndarray:
    """Symmetric orthogonal U with U* W_dbr(P) U = W_br(P)."""
    s = 1.0 / np.sqrt(2.0)
    return _tier_form(n, m, ((s, s), (s, -s)), ((1, 0), (0, 1)), dtype=float)


def weight_transfer_beta_to_gamma(n: int, m: int) -> np.ndarray:
    """Orthogonal U = [0, -I; I, 0] with W_br(P) U = W_dpr(P)."""
    return _tier_form(n, m, ((0, -1), (1, 0)), ((0, -1), (1, 0)), dtype=float)


def weight_transfer_delta_to_alpha(n: int, m: int) -> np.ndarray:
    """Signed permutation U with W_dbr(P) U = W_pr(P).

    The sign pattern differs between the state tier (n) and the io tier (m);
    a plain [0, -I; I, 0] block swap flips the P block the wrong way.
    """
    return _tier_form(n, m, ((0, 1), (-1, 0)), ((0, -1), (1, 0)), dtype=float)


def array_swap(n: int, m: int) -> np.ndarray:
    """The swap U = [0, I; I, 0] of the two (n+m) halves.

    Satisfies U* W_pr U = W_pr and U* W_dbr U = -W_dbr, which is what makes
    array inversion preserve positive-real certificates and flip
    discrete-bounded ones.
    """
    return _tier_form(n, m, ((0, 1), (1, 0)), ((0, 1), (1, 0)), dtype=float)


# ---------------------------------------------------------------------------
# Random certified instances (balanced, P = I) via the linear-fractional
# parametrization of the feasible set.
# ---------------------------------------------------------------------------


def random_certified_realization(
    family,
    n: int,
    m: int,
    rng,
    *,
    contraction: float = 0.7,
) -> Realization:
    """Sample a realization whose balanced QMI is strictly feasible (P = I).

    Splits the balanced weight as W = V+ L+ V+* - V- L- V-* and parametrizes
    the strictly feasible set by arbitrary strict contractions M:
    [R; I] = (V+ L+^(-1/2) + V- L-^(-1/2) M) Y with Y fixed by the identity
    block, giving Q = Y* (I - M*M) Y > 0. Resamples ill-conditioned or
    uncertified draws, up to 100 draws. BadParams unless 0 <= contraction < 1.
    """
    tag = as_tag(family)
    n, m = _dimensions(n, m)
    if not 0.0 <= contraction < 1.0:
        raise BadParams(f"contraction must lie in [0, 1), got {contraction}")
    rng = seeded(rng)
    nm = n + m
    w = _weight_entries(tag, np.eye(n), m)
    vals, vecs = np.linalg.eigh(w.real)
    neg, pos = vals < 0, vals > 0
    if int(neg.sum()) != nm or int(pos.sum()) != nm:  # pragma: no cover
        raise ValueError("weight does not have a balanced +/- eigenspace split")
    t_plus = vecs[:, pos] / np.sqrt(vals[pos])
    t_minus = vecs[:, neg] / np.sqrt(-vals[neg])
    for _ in range(100):
        g = rng.standard_normal((nm, nm)) + 1j * rng.standard_normal((nm, nm))
        mmat = g * (contraction / spectral_norm(g))
        phi = t_plus + t_minus @ mmat
        bottom = phi[nm:, :]
        sv = np.linalg.svd(bottom, compute_uv=False)
        if sv[-1] < 1e-6 * sv[0]:
            continue
        arr = phi[:nm, :] @ np.linalg.inv(bottom)
        r = Realization.from_array(arr, n, m)
        if verify_kyp(r, np.eye(n), tag).verified:
            return r
    raise NumericalFailure("failed to sample a certified realization")  # pragma: no cover
