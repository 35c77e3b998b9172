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
import scipy.linalg

from ._linalg import ct, herm, is_hermitian, min_eig, min_eigs, sigma_min, spectral_norm
from .exceptions import (
    BadFamily,
    CertificateNotVerified,
    DimensionMismatch,
    EtaOutOfRange,
    NotPositiveDefinite,
    NumericalFailure,
    SingularIPlusA,
)
from .realization import POLE_RTOL, Realization, _evaluate_points, change_coordinates

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

#: scale factor for the default PSD tolerance: tol = 1e-9 * (1 + ||Q||_2)
PSD_TOL_SCALE = 1e-9

#: refuted when min eig(Q) < -1000 * tol
REFUTE_FACTOR = 1e3


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
        if not is_hermitian(entries):
            raise ValueError("weight entries must be Hermitian")
        entries = entries.copy()
        entries.setflags(write=False)
        p = np.asarray(self.p_used, dtype=complex).copy()
        p.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "p_used", p)


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
    `iterations` counts the candidates `verify_kyp` judged (1 at n = 0),
    `best_p` is the judged positive-definite candidate with the largest
    lambda_min(Q), and `residual` = max(0, -min_eig_q) for it."""

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


def _weight_entries(tag: FamilyTag, p: np.ndarray, m: int) -> np.ndarray:
    """Assemble the 2(n+m) weight for family `tag` around an arbitrary
    Hermitian P (no definiteness check; block order n, m, n, m)."""
    n = p.shape[0]
    w = np.zeros((2 * (n + m), 2 * (n + m)), dtype=complex)
    i1 = slice(0, n)
    i2 = slice(n, n + m)
    i3 = slice(n + m, 2 * n + m)
    i4 = slice(2 * n + m, 2 * (n + m))
    im = np.eye(m)
    fam = tag.family
    if fam is Family.DISCRETE_BOUNDED_REAL:
        w[i1, i1] = -p
        w[i2, i2] = -im
        w[i3, i3] = p
        w[i4, i4] = im
    elif fam is Family.BOUNDED_REAL:
        w[i1, i3] = -p
        w[i3, i1] = -p
        w[i2, i2] = _eta_coefficient(tag) * im
        w[i4, i4] = im
    elif fam is Family.POSITIVE_REAL:
        w[i1, i3] = -p
        w[i3, i1] = -p
        w[i2, i4] = im
        w[i4, i2] = im
    elif fam is Family.DISCRETE_POSITIVE_REAL:
        w[i1, i1] = -p
        w[i3, i3] = p
        w[i2, i4] = im
        w[i4, i2] = im
    else:  # pragma: no cover
        raise BadFamily(f"unknown family {fam}")
    return w


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
    NotPositiveDefinite
        If P is not Hermitian positive definite.
    """
    tag = as_tag(family)
    p = np.asarray(p, dtype=complex)
    if p.ndim == 0:
        p = p.reshape(1, 1)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch("P must be square")
    if not is_hermitian(p):
        raise NotPositiveDefinite("P must be Hermitian")
    if p.size and min_eig(p) <= 0.0:
        raise NotPositiveDefinite("P must be positive definite")
    return WMatrix(family=tag, n=p.shape[0], m=int(m), entries=_weight_entries(tag, p, int(m)), p_used=p)


def build_balanced_weight(family, n: int, m: int) -> WMatrix:
    """The balanced weight, i.e. build_weight with P = I_n."""
    return build_weight(family, np.eye(int(n)), m)


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


def default_psd_tol(q: np.ndarray) -> float:
    """Default PSD slack: 1e-9 * (1 + ||Q||_2)."""
    return PSD_TOL_SCALE * (1.0 + spectral_norm(q))


def verify_kyp(r: Realization, p, family, tol_psd: float | None = None) -> Certificate:
    """Check whether P certifies membership of F in the given family.

    status is VERIFIED iff min eig(P) > 0 and min eig(Q) >= -tol_psd;
    REFUTED if P is not positive definite or min eig(Q) < -1000*tol_psd
    (which refutes only this certificate, not membership); INCONCLUSIVE
    otherwise.
    """
    tag = as_tag(family)
    p = np.asarray(p, dtype=complex)
    if p.ndim == 0:
        p = p.reshape(1, 1)
    if p.shape != (r.n, r.n):
        raise DimensionMismatch(f"P has shape {p.shape}, expected {(r.n, r.n)}")
    p_hermitian = p.size == 0 or is_hermitian(p, rtol=1e-10)
    ph = herm(p) if p.size else p
    q = assemble_q(r, _weight_entries(tag, ph, r.m))
    mq = min_eig(q)
    mp = min_eig(ph)  # +inf when n = 0 (empty P is vacuously admissible)
    tol = default_psd_tol(q) if tol_psd is None else float(tol_psd)
    admissible = p_hermitian and (r.n == 0 or mp > 0.0)
    if admissible and mq >= -tol:
        status = CertificateStatus.VERIFIED
    elif not admissible:
        status = CertificateStatus.REFUTED
    elif mq < -REFUTE_FACTOR * tol:
        status = CertificateStatus.REFUTED
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
# The points are infinity, a fixed boundary sweep and the boundary
# projections of eig(A). When none of them meets the rule, the screen adds
# the zero crossings of the Popov function Phi(F(i w)) (Boyd, Balakrishnan &
# Kabamba 1989; Grivet-Talocia 2004). With
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
    """Infinity, a boundary sweep at half-step angles, and the boundary
    projections of eig(A) (i Im lam, or lam / |lam|)."""
    theta = 2.0 * np.pi * (np.arange(_WITNESS_SWEEP) + 0.5) / _WITNESS_SWEEP
    lam = r.poles()
    if tag.family.is_discrete:
        lam = lam[lam != 0]
        boundary = [np.exp(1j * theta), lam / np.abs(lam)]
    else:
        boundary = [1j * np.tan(theta / 2.0), 1j * lam.imag]
    return np.concatenate([[complex(np.inf)], *boundary])


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
# KYP equalities: Q(P) = diag(0, Rx) asks P B = Sx and P A = Qx - A* P, so
# P A^(k+1) B = Qx A^k B - A* (P A^k B) and P K = W on the Krylov matrix
# K = [B, A B, ..., A^(n-1) B]: P = W K^+. This is exact for lossless members
# (Q = 0) and for the P B = C* that a singular D + D* forces in p, where Rx is
# singular and the rung cannot run.
_RICCATI_EPS = 1e-6

#: scales of the observability Gramian tried as candidates
_GRAMIAN_SCALES = (0.5, 1.0, 2.0)


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


def _hamiltonian(r: Realization, w_io: np.ndarray, eps: float = 0.0) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(H, Rx, s) for the Popov function of r with Qx - eps s I in place of
    Qx, s = 1 + ||M||_2; H is None when Rx is singular or H is not finite."""
    qx, sx, rx, norm_m = _popov_blocks(r, w_io)
    if sigma_min(rx) <= POLE_RTOL * norm_m:
        return None, rx, 1.0 + norm_m
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: H is not finite
        ri_s, ri_b = np.linalg.solve(rx, ct(sx)), np.linalg.solve(rx, ct(r.B))
        a_h = r.A - r.B @ ri_s
        qx = qx - eps * (1.0 + norm_m) * np.eye(r.n)
        h = np.block([[a_h, -r.B @ ri_b], [-qx + sx @ ri_s, -ct(a_h)]])
    return (h if np.all(np.isfinite(h)) else None), rx, 1.0 + norm_m


def _axis_crossings(r: Realization, w_io: np.ndarray) -> np.ndarray:
    """The real w with i w an eigenvalue of the Hamiltonian H of Phi(F(i w));
    empty when Rx is singular or H has no eigenvalue on the axis."""
    ham = _hamiltonian(r, w_io)[0]
    if ham is None:
        return np.zeros(0)
    lam = np.linalg.eigvals(ham)
    return lam[np.abs(lam.real) <= _AXIS_RTOL * np.linalg.norm(ham)].imag


def _riccati_certificate(r: Realization, tag: FamilyTag, tol_psd: float | None) -> tuple[Certificate | None, str]:
    """`verify_kyp` on the Riccati P, verified or not, or None when the rung
    cannot produce a P; and why."""
    form = _continuous(r, tag)
    if form is None:
        return None, "I + A singular"
    g, scale = form
    ham, rx, s = _hamiltonian(g, _io_weight(tag, r.m), _RICCATI_EPS)
    if not min_eig(rx) > POLE_RTOL * s:
        return None, "Rx not positive definite"
    if ham is None:  # Rx passed the stricter test above, so H overflowed
        return None, "H not finite"
    try:
        t, u, sdim = scipy.linalg.schur(ham, output="complex", sort="lhp")
    except np.linalg.LinAlgError:  # LAPACK can fail to reorder next to the axis
        return None, "Schur reordering failed"
    if sdim != r.n or np.abs(np.diag(t).real).min() <= _AXIS_RTOL * np.linalg.norm(ham):
        return None, "axis eigenvalue"
    u1, u2 = u[:r.n, :r.n], u[r.n:, :r.n]
    if not sigma_min(u1) > POLE_RTOL:  # ||U1||_2 <= 1: U is unitary
        return None, "U1 singular"
    cert = verify_kyp(r, -scale * herm(np.linalg.solve(u1.T, u2.T).T), tag, tol_psd)
    if not cert.verified:
        return cert, "verify_kyp rejected P"
    return cert, f"certified by the Riccati rung at eps={_RICCATI_EPS:g}"


def _equality_p(r: Realization, tag: FamilyTag) -> np.ndarray | None:
    """P = W K^+ from the KYP equalities on the Krylov space of (A, B), each
    block column scaled to unit norm; None when the recursion overflows."""
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
    qx, sx = _popov_blocks(g, _io_weight(tag, r.m))[:2]
    k, w = [g.B], [sx]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(r.n - 1):
            ak = g.A @ k[-1]
            c = 1.0 / (np.linalg.norm(ak) or 1.0)
            w.append(c * (qx @ k[-1] - ct(g.A) @ w[-1]))
            k.append(c * ak)
        k, w = np.hstack(k), np.hstack(w)
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(w))):
        return None
    return scale * herm(ct(np.linalg.lstsq(ct(k), ct(w), rcond=None)[0]))


def _gramian(r: Realization, tag: FamilyTag) -> np.ndarray | None:
    """The slack observability Gramian (Lyapunov or Stein solve) of a stable
    r, which sits close to the feasible set; None otherwise."""
    ctc = ct(r.C) @ r.C
    rhs = ctc + 1e-3 * (1.0 + spectral_norm(ctc)) * np.eye(r.n)
    lam = r.poles()
    if tag.family.is_discrete:
        if not np.abs(lam).max() < 1.0 - 1e-9:
            return None
        g = scipy.linalg.solve_discrete_lyapunov(ct(r.A), rhs)
    else:
        if not lam.real.max() < -1e-9:
            return None
        g = scipy.linalg.solve_continuous_lyapunov(ct(r.A), -rhs)
    g = herm(g)
    return g if np.all(np.isfinite(g)) and min_eig(g) > 0.0 else None


def _candidates(r: Realization, tag: FamilyTag):
    """(name, P) for each candidate after the rung, in the order tried."""
    p = _equality_p(r, tag)
    if p is not None:
        yield "the KYP equalities", p
    yield "the identity", np.eye(r.n, dtype=complex)
    g = _gramian(r, tag)
    for scale in _GRAMIAN_SCALES if g is not None else ():
        yield f"the Gramian at scale {scale:g}", scale * g


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
    Phi(F(-1)) for dp/db); the P meeting the KYP equalities
    Q(P) = diag(0, Rx) on the Krylov space of (A, B); the identity; and, for
    a stable A, the observability Gramian at scales 1/2, 1 and 2 (comment
    above `_RICCATI_EPS`). The first verified Certificate is returned. Else
    a witness screen evaluates the family's frequency-domain form
    Phi(F(z)) at infinity, a few boundary points and, if those show
    nothing, at the zero crossings of Phi on the boundary and the midpoints
    between them. If lambda_min(Phi) is clearly negative at some point,
    NotFound has stop = "witness" and that point as `witness`: no P >= 0
    can then certify F. Otherwise stop = "no-certificate", which is NOT a
    proof of non-membership (the converse direction of the KYP lemma needs
    minimality, and the candidates are not exhaustive).
    """
    tag = as_tag(family)
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
    cert, why = _riccati_certificate(r, tag, tol_psd)
    judged = [] if cert is None else [cert]
    if cert is not None and cert.verified:
        _log.debug("solve_p %s n=%d m=%d: %s", tag.label, n, m, why)
        return cert
    for name, p in _candidates(r, tag):
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
    """Change coordinates with T = P^(-1/2) so the certificate becomes P = I.

    Requires a verified certificate with min eig(P) >= 1e-10. The returned
    certificate is re-verified against the balanced weight; its Q is the
    congruence diag(T, I)* Q diag(T, I) of the input Q.
    """
    if cert.status is not CertificateStatus.VERIFIED:
        raise CertificateNotVerified("can only balance a verified certificate")
    if r.n == 0:
        return r, cert
    w, v = np.linalg.eigh(herm(cert.p))
    if w[0] < 1e-10:
        raise NotPositiveDefinite(f"refusing to balance: min eig(P) = {w[0]:.3e} < 1e-10")
    t = herm((v / np.sqrt(w)) @ v.conj().T)  # P^(-1/2)
    r_bal = change_coordinates(r, t)
    new_cert = verify_kyp(r_bal, np.eye(r.n), cert.family)
    return r_bal, new_cert


def check_lossless(r: Realization, p, family, tol: float = 1e-8) -> bool:
    """Degenerate-certificate test for the lossless subsets: Q(P) == 0.

    Only the continuous-time weights admit this reading (positive-real gives
    lossless-positive, bounded-real gives lossless-bounded).
    """
    tag = as_tag(family)
    if tag.family not in (Family.POSITIVE_REAL, Family.BOUNDED_REAL):
        raise BadFamily("lossless check is defined for the positive/bounded-real weights only")
    w = build_weight(tag, p if r.n else np.zeros((0, 0)), r.m)
    return spectral_norm(assemble_q(r, w)) <= tol


# ---------------------------------------------------------------------------
# Structure of the weight family: orthogonal transfer matrices
# ---------------------------------------------------------------------------


def weight_rotation_delta_to_beta(n: int, m: int) -> np.ndarray:
    """Symmetric orthogonal U with U* W_dbr(P) U = W_br(P)."""
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((2 * (n + m), 2 * (n + m)))
    i1 = slice(0, n)
    i2 = slice(n, n + m)
    i3 = slice(n + m, 2 * n + m)
    i4 = slice(2 * n + m, 2 * (n + m))
    u[i1, i1] = s * np.eye(n)
    u[i1, i3] = s * np.eye(n)
    u[i3, i1] = s * np.eye(n)
    u[i3, i3] = -s * np.eye(n)
    u[i2, i2] = np.eye(m)
    u[i4, i4] = np.eye(m)
    return u


def weight_transfer_beta_to_gamma(n: int, m: int) -> np.ndarray:
    """Orthogonal U = [0, -I; I, 0] with W_br(P) U = W_dpr(P)."""
    nm = n + m
    u = np.zeros((2 * nm, 2 * nm))
    u[:nm, nm:] = -np.eye(nm)
    u[nm:, :nm] = np.eye(nm)
    return u


def weight_transfer_delta_to_alpha(n: int, m: int) -> np.ndarray:
    """Signed permutation U with W_dbr(P) U = W_pr(P).

    The sign pattern differs between the state tier (n) and the io tier (m);
    a plain [0, -I; I, 0] block swap flips the P block the wrong way.
    """
    u = np.zeros((2 * (n + m), 2 * (n + m)))
    i1 = slice(0, n)
    i2 = slice(n, n + m)
    i3 = slice(n + m, 2 * n + m)
    i4 = slice(2 * n + m, 2 * (n + m))
    u[i1, i3] = np.eye(n)
    u[i2, i4] = -np.eye(m)
    u[i3, i1] = -np.eye(n)
    u[i4, i2] = np.eye(m)
    return u


def array_swap(n: int, m: int) -> np.ndarray:
    """The swap U = [0, I; I, 0] of the two (n+m) halves.

    Satisfies U* W_pr U = W_pr and U* W_dbr U = -W_dbr, which is what makes
    array inversion preserve positive-real certificates and flip
    discrete-bounded ones.
    """
    nm = n + m
    u = np.zeros((2 * nm, 2 * nm))
    u[:nm, nm:] = np.eye(nm)
    u[nm:, :nm] = np.eye(nm)
    return u


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
    max_tries: int = 100,
) -> Realization:
    """Sample a realization whose balanced QMI is strictly feasible (P = I).

    Splits the balanced weight as W = V+ L+ V+* - V- L- V-* and parametrizes
    the strictly feasible set by arbitrary strict contractions M:
    [R; I] = (V+ L+^(-1/2) + V- L-^(-1/2) M) Y with Y fixed by the identity
    block, giving Q = Y* (I - M*M) Y > 0. Resamples on ill-conditioned draws.
    """
    tag = as_tag(family)
    rng = np.random.default_rng(rng)
    nm = n + m
    w = _weight_entries(tag, np.eye(n), m)
    vals, vecs = np.linalg.eigh(w.real)
    neg, pos = vals < 0, vals > 0
    if int(neg.sum()) != nm or int(pos.sum()) != nm:  # pragma: no cover
        raise ValueError("weight does not have a balanced +/- eigenspace split")
    t_plus = vecs[:, pos] / np.sqrt(vals[pos])
    t_minus = vecs[:, neg] / np.sqrt(-vals[neg])
    for _ in range(max_tries):
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
    raise RuntimeError("failed to sample a certified realization")  # pragma: no cover
