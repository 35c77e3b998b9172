"""Sampled-domain membership oracles for the four passivity families and
their lossless / hyper / anti variants, function-level transforms, and
`check`, which weighs an oracle, a certificate and a witness into a verdict.

Sampling is evidence, not proof: a ``fail`` verdict carries a concrete
counterexample point, while a ``pass`` is a verdict-with-margin only.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import ct, frobenius_norms, frozen, min_eigs, nearly_singular, seeded, sigma_mins, spectral_norms
from .exceptions import (
    BadParams,
    DomainMismatch,
    SingularIPlusA,
    SingularIPlusD,
)
from .qmi import (Certificate, Family, FamilyTag, NotFound, _find_witness, _tolerance, as_tag, check_lossless,
                  solve_p, verify_kyp)
from .realization import _BLOCK_ENTRIES, Realization, _evaluate_points, is_minimal

__all__ = [
    "Domain",
    "DomainGrid",
    "MembershipReport",
    "Verdict",
    "check",
    "family_domain",
    "make_grid",
    "membership_oracle",
    "anti_db_oracle",
    "hyper_bounded_oracle",
    "lossless_boundary_oracle",
    "cayley_function",
    "bilinear_substitute",
]

#: tolerance on oracle margins, per unit of the scale of the terms that cancel
ORACLE_TOL = 1e-8

#: default grid sizes (boundary, interior)
DEFAULT_GRID = 64


class Domain(enum.Enum):
    RIGHT_HALF_PLANE = "right-half-plane"
    EXTERIOR_DISK = "exterior-disk"


def family_domain(family) -> Domain:
    """Sampling domain of a family: the open right half plane for the
    continuous families, the exterior of the closed unit disk for the
    discrete ones."""
    tag = as_tag(family)
    if tag.family.is_discrete:
        return Domain.EXTERIOR_DISK
    return Domain.RIGHT_HALF_PLANE


@dataclass(frozen=True)
class DomainGrid:
    """A seeded sampling grid: points on the domain boundary plus strictly
    interior points."""

    domain: Domain
    boundary_points: np.ndarray
    interior_points: np.ndarray
    seed: int = 0

    def __post_init__(self):
        bnd = np.asarray(self.boundary_points, dtype=complex).ravel()
        inner = np.asarray(self.interior_points, dtype=complex).ravel()
        if self.domain is Domain.RIGHT_HALF_PLANE:
            if bnd.size and np.abs(bnd.real).max() > 1e-12 * (1.0 + np.abs(bnd).max()):
                raise DomainMismatch("boundary points must lie on the imaginary axis")
            if inner.size and inner.real.min(initial=np.inf) <= 0.0:
                raise DomainMismatch("interior points must have positive real part")
        else:
            if bnd.size and np.abs(np.abs(bnd) - 1.0).max() > 1e-12:
                raise DomainMismatch("boundary points must lie on the unit circle")
            if inner.size and np.abs(inner).min(initial=np.inf) <= 1.0:
                raise DomainMismatch("interior points must lie strictly outside the closed disk")
        object.__setattr__(self, "boundary_points", frozen(bnd))
        object.__setattr__(self, "interior_points", frozen(inner))

    @property
    def points(self) -> np.ndarray:
        return np.concatenate([self.boundary_points, self.interior_points])


@dataclass(frozen=True)
class MembershipReport:
    """Sampled-domain evidence: the worst (unscaled) margin over the grid and
    where it occurred. verdict is "pass" iff every kept point clears `_passes`."""

    family: str
    verdict: str
    worst_point: complex | None
    worst_margin: float
    samples_used: int
    skipped: int = 0
    tol: float = ORACLE_TOL

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _halton(n: int, seed) -> np.ndarray:
    """The (n, 2) points of ``scipy.stats.qmc.Halton(d=2, scramble=True,
    seed=seed).random(n)``, bit for bit: one digit permutation per digit
    position, drawn in scipy's order, and each point's terms summed in digit
    order with weights made by repeated division, as scipy's loop does.
    `seed` may also be the Generator that `seeded(seed)` returned."""
    rng = seeded(seed)
    points = np.empty((2, n))
    for acc, base in zip(points, (2, 3)):
        count = math.ceil(54 / math.log2(base)) - 1  # digits j with base**-j > 2**-54
        perms = rng.permuted(np.repeat(np.arange(base)[None], count, 0), axis=1)
        weights = np.divide.accumulate(np.r_[1.0, np.full(count, float(base))])[1:]
        table = (perms * weights[:, None]).ravel()
        powers = base ** np.arange(count, dtype=np.int64)
        offsets = base * np.arange(count)
        step = max(1, _BLOCK_ENTRIES // count)
        for start in range(0, n, step):
            index = np.arange(start, min(n, start + step))[:, None]
            acc[start : start + step] = table[index // powers % base + offsets].cumsum(axis=1)[:, -1]
    return points.T


def make_grid(
    domain: Domain,
    n_boundary: int = DEFAULT_GRID,
    n_interior: int = DEFAULT_GRID,
    seed: int = 0,
) -> DomainGrid:
    """Build a deterministic grid for a domain.

    Boundary points come from a compactified uniform sweep: theta -> i
    tan(theta/2) on the imaginary axis (the theta = pi compactification pole
    is nudged back by half a step), uniform angles on the unit circle.
    Interior points are the first `n_interior` points of Owen's scrambled
    Halton sequence in bases 2 and 3 (A. B. Owen, "A randomized Halton
    algorithm in R", arXiv:1706.02808, 2017), mapped into the open domain.
    They are computed in the package (`_halton`) and equal, bit for bit,
    those of ``scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed)``.
    Sizes and seed must be integers (not bools); else BadParams.
    """
    for name, value in ("n_boundary", n_boundary), ("n_interior", n_interior), ("seed", seed):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise BadParams(f"{name} must be an integer, got {value!r}")
    n_boundary, n_interior, seed = int(n_boundary), int(n_interior), int(seed)
    if n_boundary < 1 or n_interior < 0:
        raise BadParams("need n_boundary >= 1 and n_interior >= 0")
    rng = seeded(seed)
    k = np.arange(n_boundary)
    theta = 2.0 * np.pi * k / n_boundary
    if domain is Domain.RIGHT_HALF_PLANE:
        theta = np.where(2 * k == n_boundary, theta - np.pi / n_boundary, theta)
        boundary = 1j * np.tan(theta / 2.0)
    elif domain is Domain.EXTERIOR_DISK:
        boundary = np.exp(1j * theta)
    else:  # pragma: no cover
        raise DomainMismatch(f"unknown domain {domain}")

    if n_interior:
        u = np.clip(_halton(n_interior, rng), 1e-3, 1.0 - 1e-3)
        if domain is Domain.RIGHT_HALF_PLANE:
            x = u[:, 0] / (1.0 - u[:, 0])
            y = np.tan(np.pi * (u[:, 1] - 0.5))
            interior = x + 1j * y
        else:
            radius = 1.0 / (1.0 - u[:, 0])
            interior = radius * np.exp(2j * np.pi * u[:, 1])
    else:
        interior = np.zeros(0, dtype=complex)
    return DomainGrid(domain=domain, boundary_points=boundary, interior_points=interior, seed=seed)


def _passes(margins, scales, tol: float, strict: bool = False) -> bool:
    """The pass rule of every oracle: each margin >= -tol * scale (> tol * scale
    if strict), a scale being the size of the terms that cancel in its margin.
    A scale is taken no larger than the largest float, so that none lets a
    margin of -inf pass."""
    scales = np.minimum(scales, np.finfo(float).max)
    return bool(np.all(margins > tol * scales if strict else margins >= -tol * scales))


def _along(f, h, margins, largest: bool = False):
    """The scale 1 + ||F v|| of each margin read off the Hermitian h = F + F*:
    v is the unit eigenvector of h for its smallest eigenvalue, or for the
    eigenvalue of largest modulus when `largest`. So the scale is the size of
    F in the margin's own direction, and a large value of F in another
    direction does not excuse it. A margin >= 0 passes at any scale, so only
    negative finite margins get eigenvectors; the rest get 1."""
    scales = np.ones_like(margins)
    need = np.isfinite(margins) & (margins < 0.0)
    if need.any():
        w, v = np.linalg.eigh((h[need] + ct(h[need])) / 2)
        i = np.abs(w).argmax(axis=-1) if largest else np.zeros(len(w), dtype=int)
        scales[need] = 1.0 + frobenius_norms(f[need] @ np.take_along_axis(v, i[:, None, None], axis=-1))
    return scales


def _report(family: str, points, evaluated, margin_fn, tol: float, strict: bool = False) -> MembershipReport:
    """The worst of the (margins, scales) `margin_fn` gives the kept `points`
    of an `_evaluate_points` result, judged by `_passes` (`argmin` takes the
    first of equal minima, as a strict-`<` scan); a point where F overflows
    is skipped too. BadParams unless 0 <= tol < inf."""
    tol = _tolerance(tol, "tol")
    values, keep = evaluated
    keep = keep & np.isfinite(values).all(axis=(-2, -1))
    used = int(keep.sum())
    rep = MembershipReport(family, "pass", None, math.inf, used, points.size - used, tol)
    if not used:
        return rep
    margins, scales = margin_fn(values[keep])
    i = int(np.argmin(margins))
    return replace(rep, verdict="pass" if _passes(margins, scales, tol, strict) else "fail",
                   worst_point=complex(points[keep][i]), worst_margin=float(margins[i]))


def _family_margin(tag: FamilyTag):
    """Pointwise (margin, scale) of a family tag: min eig(F + F*) at scale
    `_along` for the positive-real families; sqrt((eta-1)/(eta+1)) - ||F||_2
    at scale 1 + ||F||_2 for the bounded-real ones (1 - ||F||_2 at eta = inf)."""
    if tag.family.is_bounded:
        bound = 1.0 if math.isinf(tag.eta) else math.sqrt((tag.eta - 1.0) / (tag.eta + 1.0))

        def bounded(f):
            norms = spectral_norms(f)
            return bound - norms, 1.0 + norms

        return bounded

    def positive(f):
        h = f + ct(f)
        margins = min_eigs(h)
        return margins, _along(f, h, margins)

    return positive


def _with_sample(rep: MembershipReport, z: complex, margin: float, scale: float) -> MembershipReport:
    """`rep` with one more sample, the point z of the given margin and scale."""
    worst, point = (margin, z) if margin < rep.worst_margin else (rep.worst_margin, rep.worst_point)
    passed = rep.passed and _passes(margin, scale, rep.tol)
    return replace(rep, verdict="pass" if passed else "fail", worst_point=point, worst_margin=worst,
                   samples_used=rep.samples_used + 1)


def _check_domain(grid: DomainGrid, expected: Domain, what: str):
    if not isinstance(grid, DomainGrid):
        raise BadParams(f"grid must be a DomainGrid, got {type(grid).__name__}")
    if grid.domain is not expected:
        raise DomainMismatch(f"{what} needs a {expected.value} grid, got {grid.domain.value}")


def membership_oracle(r: Realization, family, grid: DomainGrid, tol: float = ORACLE_TOL) -> MembershipReport:
    """Sampled membership test for one of the four families.

    The pointwise margin is min eig(F(z) + F(z)*) for the positive-real
    families and 1 - ||F(z)||_2 for the bounded-real ones; a b or db tag
    with a finite eta gets the hyper-bounded margin sqrt((eta-1)/(eta+1)) -
    ||F(z)||_2. The report carries the tag's label. A point passes when
    its margin is >= -tol (1 + ||F(z) v||), v the unit direction the margin
    is taken in (so ||F(z) v|| = ||F(z)||_2 for the bounded-real margins);
    the report carries the unscaled worst margin. Pole-adjacent points, and
    points where F overflows, are skipped and counted.
    """
    tag = as_tag(family)
    _check_domain(grid, family_domain(tag), f"{tag.family.value} oracle")
    return _report(tag.label, grid.points, _evaluate_points(r, grid.points), _family_margin(tag), tol)


def anti_db_oracle(r: Realization, grid: DomainGrid, tol: float = ORACLE_TOL) -> MembershipReport:
    """Anti-discrete-bounded test: smallest singular value of F exceeds 1
    everywhere outside the closed disk. Margin is sigma_min(F(z)) - 1 and the
    pass rule is strict: > tol (1 + sigma_min(F(z)))."""
    _check_domain(grid, Domain.EXTERIOR_DISK, "anti-discrete-bounded oracle")
    margin = lambda f: ((s := sigma_mins(f)) - 1.0, 1.0 + s)  # noqa: E731
    return _report("anti-discrete-bounded", grid.points, _evaluate_points(r, grid.points), margin, tol, strict=True)


def hyper_bounded_oracle(r: Realization, eta: float, grid: DomainGrid, tol: float = ORACLE_TOL) -> MembershipReport:
    """Hyper-bounded test: `membership_oracle` on the b or db tag of this eta, picked by the grid's domain."""
    disk = isinstance(grid, DomainGrid) and grid.domain is Domain.EXTERIOR_DISK
    family = Family.DISCRETE_BOUNDED_REAL if disk else Family.BOUNDED_REAL
    return membership_oracle(r, FamilyTag(family, eta), grid, tol)


def lossless_boundary_oracle(r: Realization, kind: str, grid: DomainGrid, tol: float = ORACLE_TOL) -> MembershipReport:
    """Boundary degeneracy test for the lossless subsets.

    kind "LP": F + F* vanishes on the imaginary axis (margin -||F+F*||_2,
    scale `_along` its eigenvalue of largest modulus); kind "LB": F*F = I
    there (margin -||F*F - I||_2, scale 2 + ||F*F - I||_2). The verdict also
    requires the parent family oracle (positive- resp. bounded-real) to pass
    on the same grid; the worst margin is the parent's when that fails with a
    lower margin.
    """
    _check_domain(grid, Domain.RIGHT_HALF_PLANE, "lossless boundary oracle")
    return _lossless_report(kind, grid, _evaluate_points(r, grid.points), tol)


def _lossless_positive_margin(f):
    h = f + ct(f)
    margins = -spectral_norms(h)
    return margins, _along(f, h, margins, largest=True)


def _lossless_bounded_margin(f):
    """Along the direction v of ||F*F - I||_2 = d, the terms that cancel are
    ||F v||^2 = 1 +- d and 1, so the scale 2 + d bounds their size. Where
    F*F or d overflows, the margin is the most negative float."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = ct(f) @ f - np.eye(f.shape[-1])
        keep = np.isfinite(g).all(axis=(-2, -1))
        margins = np.full(keep.shape, -np.finfo(float).max)
        margins[keep] = -np.minimum(spectral_norms(g[keep]), np.finfo(float).max)
    return margins, 2.0 - margins


def _lossless_report(kind: str, grid: DomainGrid, evaluated, tol: float) -> MembershipReport:
    """`lossless_boundary_oracle` from `_evaluate_points` over the points of
    a right-half-plane `grid`; one evaluation serves both the boundary margin
    and the parent family's."""
    kinds = {"LP": (_lossless_positive_margin, Family.POSITIVE_REAL, "lossless-positive"),
             "LB": (_lossless_bounded_margin, Family.BOUNDED_REAL, "lossless-bounded")}
    if kind not in kinds:
        raise BadParams(f"kind must be 'LP' or 'LB', got {kind!r}")
    margin, parent, label = kinds[kind]
    nb = grid.boundary_points.size
    rep = _report(label, grid.points[:nb], [x[:nb] for x in evaluated], margin, tol)
    parent_rep = _report(label, grid.points, evaluated, _family_margin(FamilyTag(parent)), tol)
    if parent_rep.passed:
        return rep
    worst = parent_rep if parent_rep.worst_margin < rep.worst_margin else rep
    return replace(rep, verdict="fail", worst_point=worst.worst_point, worst_margin=worst.worst_margin)


@dataclass(frozen=True)
class Verdict:
    """What `check` decided, "pass", "refuted-by-witness", "inconclusive" or
    "tool-error", and its evidence: `certificate` is the Certificate of `p`
    or `solve`, or the NotFound of `solve`; `lossless_qmi` is `check_lossless`
    of a verified P under `lossless`; `minimal` is `is_minimal(r)`; `witness`
    is the witness screen's point, which `oracle` scores too; `note` says why
    a verdict is inconclusive or a tool error."""

    verdict: str
    oracle: MembershipReport
    lossless_oracle: MembershipReport | None
    certificate: Certificate | NotFound | None
    lossless_qmi: bool | None
    minimal: tuple[bool, int, int]
    witness: complex | None
    note: str | None


def check(r: Realization, family, grid: DomainGrid, *, p=None, solve: bool = False, lossless: bool = False,
          tol_psd: float | None = None, tol_oracle: float = ORACLE_TOL) -> Verdict:
    """The verdict of ``kypcert check``, each keyword its option.

    The evidence: the family's oracle on `grid`, and with `lossless` the
    lossless boundary oracle (p or b only), from one evaluation of F; then
    `verify_kyp` of `p`, or else with `solve` `solve_p`. A P verified only
    within the tolerance (min_eig_q < 0) meets the witness screen as well.
    When the oracles pass, a witness point is scored as one more sample,
    with F(inf) = D. The rule: a verified certificate whose oracle fails is
    a "tool-error"; else a failing oracle is "refuted-by-witness"; else,
    with `p` or `solve` but no verified certificate, or with an oracle that
    kept no point, "inconclusive"; else "pass".
    """
    tag = as_tag(family)
    _check_domain(grid, family_domain(tag), f"{tag.family.value} oracle")
    if lossless and tag.family.is_discrete:
        raise BadParams(f"lossless needs a p or b family, got {tag.label}")
    minimal = is_minimal(r)
    evaluated = _evaluate_points(r, grid.points)
    oracle = _report(tag.label, grid.points, evaluated, _family_margin(tag), tol_oracle)
    kind = "LB" if tag.family.is_bounded else "LP"
    boundary = _lossless_report(kind, grid, evaluated, tol_oracle) if lossless else None
    cert = witness = None
    if p is not None:
        cert = verify_kyp(r, p, tag, tol_psd)
        if cert.verified and cert.min_eig_q < 0.0 and oracle.passed:
            witness = _find_witness(r, tag, tol_psd)
    elif solve:
        cert = solve_p(r, tag, tol_psd=tol_psd)
        witness = cert.witness if isinstance(cert, NotFound) else None
    if oracle.passed and witness is not None:
        values = _evaluate_points(r, [witness])[0] if np.isfinite(witness) else r.D[None]
        margin, scale = _family_margin(tag)(values)
        oracle = _with_sample(oracle, witness, float(margin[0]), float(scale[0]))
    verified = isinstance(cert, Certificate) and cert.verified
    lossless_qmi = bool(check_lossless(r, cert.p, tag, tol_oracle)) if lossless and verified else None
    passed = oracle.passed and (boundary is None or boundary.passed)
    unsampled = oracle.samples_used == 0 or boundary is not None and boundary.samples_used == 0
    verdict, note = "pass", None
    if verified and not passed:
        verdict, note = "tool-error", "verified certificate but failing oracle: internal inconsistency"
    elif not passed:
        verdict = "refuted-by-witness"
    elif (solve or p is not None or unsampled) and not verified:
        verdict = "inconclusive"
        if unsampled:
            note = "an oracle kept no grid point, all pole-adjacent or overflowing: no sampling evidence"
        elif not minimal[0]:
            note = "realization is not minimal; only sampling evidence is available"
    return Verdict(verdict, oracle, boundary, cert, lossless_qmi, minimal, witness, note)


def cayley_function(r: Realization) -> Realization:
    """Realization of the function Cayley transform (I - F)(I + F)^-1.

    Swaps the positive-real and bounded-real families (and their discrete
    analogues) while keeping the variable fixed. Requires I + D nonsingular.
    """
    ipd = np.eye(r.m) + r.D
    if nearly_singular(ipd, 1e-12):
        raise SingularIPlusD("I + D is singular; function Cayley transform undefined")
    ipd_inv = np.linalg.inv(ipd)
    return Realization(
        n=r.n,
        m=r.m,
        A=r.A - r.B @ ipd_inv @ r.C,
        B=r.B @ ipd_inv,
        C=-2.0 * ipd_inv @ r.C,
        D=(np.eye(r.m) - r.D) @ ipd_inv,
    )


def bilinear_substitute(r: Realization) -> Realization:
    """Realization of G(z) = F((1+z)/(1-z)).

    The Moebius substitution carries the disk onto the right half plane, so a
    positive-real F yields a G taking positive-real values on the open unit
    disk (the Herglotz-side convention; compose with z -> 1/z for exterior
    sampling). Requires I + A nonsingular. Constants are unchanged.
    """
    ipa = np.eye(r.n) + r.A
    if nearly_singular(ipa, 1e-12):
        raise SingularIPlusA("I + A is singular; bilinear substitution undefined")
    ipa_inv = np.linalg.inv(ipa)
    a_new = -ipa_inv @ (np.eye(r.n) - r.A)
    b_new = ipa_inv @ r.B
    c_new = r.C @ (np.eye(r.n) - a_new)
    d_new = r.D - r.C @ ipa_inv @ r.B
    return Realization(n=r.n, m=r.m, A=a_new, B=b_new, C=c_new, D=d_new)
