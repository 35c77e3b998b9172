"""Matrix-convex combinations of realization arrays.

Combining realizations blockwise through a two-tier isometry family (one tier
acting on the state blocks, one on the io blocks) preserves balanced KYP
certificates: if every input satisfies the balanced QMI, so does the
combination. The combined realization need not be minimal even when every
input is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import seeded
from .cones import IsometryTuple, _combine, random_isometry_tuple
from .exceptions import DimensionMismatch, InputNotCertified, NotAnIsometryFamily
from .qmi import Certificate, NotFound, as_tag, balance, solve_p, verify_kyp
from .realization import Realization

__all__ = [
    "IsometryFamily",
    "PreservationResult",
    "combine_realizations",
    "verify_preservation",
    "random_isometry_family",
]

@dataclass(frozen=True)
class IsometryFamily:
    """Block-diagonal tiers (Y_{j,n}, Y_{j,m}) of square blocks, each built as an
    `IsometryTuple` (Gram sum I within ``cones.ISOMETRY_TOL``): a tier that is
    not raises NotAnIsometryFamily naming it, a wrong shape DimensionMismatch."""

    state_blocks: tuple[np.ndarray, ...]
    io_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        state, io = tuple(self.state_blocks), tuple(self.io_blocks)
        if len(state) != len(io) or not state:
            raise DimensionMismatch("state and io tiers must have the same nonzero length")
        for name, blocks in (("state_blocks", state), ("io_blocks", io)):
            try:
                tier = IsometryTuple(blocks=blocks)
            except NotAnIsometryFamily as exc:
                raise NotAnIsometryFamily(f"{name}: {exc}") from exc
            if tier.etas != (tier.nu,) * tier.k:
                raise DimensionMismatch(f"{name} must all be {tier.nu} x {tier.nu}")
            object.__setattr__(self, name, tier.blocks)

    @property
    def k(self) -> int:
        return len(self.state_blocks)

    @property
    def n(self) -> int:
        return self.state_blocks[0].shape[0]

    @property
    def m(self) -> int:
        return self.io_blocks[0].shape[0]

    def full_blocks(self) -> list[np.ndarray]:
        """The k block-diagonal (n+m) matrices diag(Y_{j,n}, Y_{j,m})."""
        n = self.n
        full = np.zeros((self.k, n + self.m, n + self.m), dtype=complex)
        full[:, :n, :n], full[:, n:, n:] = self.state_blocks, self.io_blocks
        return list(full)


def combine_realizations(rs, fam: IsometryFamily) -> Realization:
    """sum_j Y_j* R_j Y_j over the arrays R_j, with Y_j = diag(Y_{j,n}, Y_{j,m}),
    as `matrix_convex_combine` sums it but without its Gram check: the family
    was checked when it was built, so its Gram sum is I."""
    rs = list(rs)
    if len(rs) != fam.k:
        raise DimensionMismatch(f"{len(rs)} realizations for {fam.k} isometry blocks")
    n, m = fam.n, fam.m
    for j, r in enumerate(rs):
        if (r.n, r.m) != (n, m):
            raise DimensionMismatch(f"realization #{j} has (n, m) = {(r.n, r.m)}, expected {(n, m)}")
    return Realization.from_array(_combine([r.array for r in rs], fam.full_blocks()), n, m)


@dataclass(frozen=True)
class PreservationResult:
    """Certificate of the combination plus the per-input certificates.

    `inputs_used` are the realizations actually combined: inputs that arrived
    with a non-identity certificate are balanced first, so a failure names the
    offending input rather than the combination.
    """

    combined: Realization
    certificate: Certificate
    per_input: tuple[Certificate, ...]
    inputs_used: tuple[Realization, ...]


def verify_preservation(rs, fam: IsometryFamily, family, tol_psd: float | None = None) -> PreservationResult:
    """Combine balanced-certified realizations and certify the result.

    Each input must pass the balanced QMI (P = I); inputs that do not are
    re-certified with solve_p and balanced before combining. The combination
    then satisfies the same balanced QMI (exactly a congruence sum of the
    input forms for the positive-real weight, a dominated sum for the
    others).

    Raises
    ------
    InputNotCertified
        If some input fails the balanced QMI and no certificate is found.
    """
    tag = as_tag(family)
    rs = list(rs)
    used = []
    per_input = []
    for j, r in enumerate(rs):
        cert = verify_kyp(r, np.eye(r.n), tag, tol_psd)
        if not cert.verified:
            found = solve_p(r, tag, tol_psd=tol_psd)
            if isinstance(found, NotFound) or not found.verified:
                raise InputNotCertified(j)
            r, cert = balance(r, found)
            if not cert.verified:
                raise InputNotCertified(j)
        used.append(r)
        per_input.append(cert)
    combined = combine_realizations(used, fam)
    certificate = verify_kyp(combined, np.eye(combined.n), tag, tol_psd)
    return PreservationResult(
        combined=combined,
        certificate=certificate,
        per_input=tuple(per_input),
        inputs_used=tuple(used),
    )


def random_isometry_family(k: int, n: int, m: int, rng) -> IsometryFamily:
    """Sample k square two-tier blocks with exact tier-wise Gram sums."""
    rng = seeded(rng)
    state = random_isometry_tuple([n] * k, n, rng).blocks
    io = random_isometry_tuple([m] * k, m, rng).blocks
    return IsometryFamily(state_blocks=state, io_blocks=io)
