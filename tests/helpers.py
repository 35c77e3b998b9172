"""Shared test utilities: random inputs and independent closed-form oracles.

The closed forms live here (test suite only) so that library results are
always checked against a second, independently coded route.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import kypcert.qmi as qmi
from kypcert import Family, Realization, bilinear_substitute, evaluate
from kypcert.serialization import encode_matrix

# -- random inputs -----------------------------------------------------------


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_realization(rng, n, m, scale=1.0) -> Realization:
    return Realization(
        n=n,
        m=m,
        A=rand_complex(rng, (n, n), scale),
        B=rand_complex(rng, (n, m), scale),
        C=rand_complex(rng, (m, n), scale),
        D=rand_complex(rng, (m, m), scale),
    )


def rand_hpd(rng, n, floor=0.5):
    g = rand_complex(rng, (n, n))
    return g @ g.conj().T + floor * np.eye(n)


def widely_scaled_certificate(seed, spread=1e5):
    """(family, r, T, P) for draw `seed`: a balanced member r of one of the
    four families (seed % 4), n in 2..6, m = 1, and coordinates
    T = P0^(1/2) diag(d), d a permutation of geomspace(1/spread, spread, n),
    so that change_coordinates(r, T) has the certificate P = herm(T* T)."""
    rng = np.random.default_rng(seed)
    n, family = int(rng.integers(2, 7)), list(Family)[seed % 4]
    r = qmi.random_certified_realization(family, n, 1, rng)
    w, v = np.linalg.eigh(rand_hpd(rng, n))
    t = (v * np.sqrt(w)) @ v.conj().T @ np.diag(rng.permutation(np.geomspace(1.0 / spread, spread, n)))
    p = t.conj().T @ t
    return family, r, t, (p + p.conj().T) / 2


def rand_coordinates(rng, n, cond_max=10.0, max_draws=1000):
    """Random invertible T = I + G with a modest condition number; raises
    ValueError when none of `max_draws` draws meets `cond_max`."""
    for _ in range(max_draws):
        t = rand_complex(rng, (n, n)) + np.eye(n)
        sv = np.linalg.svd(t, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= cond_max:
            return t
    raise ValueError(f"no draw of I + G had condition number <= {cond_max} in {max_draws} draws")


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lossless_member(rng, family, n, m) -> Realization:
    """A lossless member of `family` balanced to P = I, so that Q(I) = 0:
    p: A and D skew-Hermitian, C = B*; b: D unitary, B = -C* D,
    A = S - C* C / 2 with S skew-Hermitian; db: [A B; C D] unitary;
    dp: A unitary, C = B* A, D = B* B / 2 + a skew-Hermitian part."""
    def skew(k):
        g = rand_complex(rng, (k, k))
        return (g - g.conj().T) / 2

    if family is Family.DISCRETE_BOUNDED_REAL:
        return Realization.from_array(rand_unitary(rng, n + m), n, m)
    if family is Family.POSITIVE_REAL:
        b = rand_complex(rng, (n, m))
        return Realization(n=n, m=m, A=skew(n), B=b, C=b.conj().T, D=skew(m))
    if family is Family.BOUNDED_REAL:
        c, d = rand_complex(rng, (m, n)), rand_unitary(rng, m)
        return Realization(n=n, m=m, A=skew(n) - c.conj().T @ c / 2, B=-c.conj().T @ d, C=c, D=d)
    a, b = rand_unitary(rng, n), rand_complex(rng, (n, m))
    return Realization(n=n, m=m, A=a, B=b, C=b.conj().T @ a, D=b.conj().T @ b / 2 + skew(m))


def write_isometry_family(path, state, io) -> None:
    """An isometry-family document of the given tiers, written without an
    `IsometryFamily`, so its tiers need not be isometries."""
    doc = {"type": "isometry_family", "k": len(state), "state_blocks": [encode_matrix(b) for b in state],
           "io_blocks": [encode_matrix(b) for b in io]}
    Path(path).write_text(json.dumps(doc))


#: the tiers of a two-block family whose state tier sums to 2 I (n = 2, m = 1)
DOUBLED_STATE_TIER = ((np.eye(2), np.eye(2)), (np.sqrt(0.5) * np.eye(1), np.sqrt(0.5) * np.eye(1)))


def resonance(gain: float = 1.05, zeta: float = 1e-4, w: float = 0.37) -> Realization:
    """gain * 2 zeta w s / (s^2 + 2 zeta w s + w^2), which peaks at |F(i w)| = gain."""
    return Realization(n=2, m=1, A=[[0.0, 1.0], [-w * w, -2 * zeta * w]], B=[[0.0], [1.0]],
                       C=[[0.0, gain * 2 * zeta * w]], D=[[0.0]])


#: (pole, d, c) of a scalar non-member d + c / (z - pole) per family code: its
#: pole lies strictly inside the open domain, where the boundary cannot see it
POLES_INSIDE = {"p": (1.0, 1.0, 0.1), "b": (0.3, 0.5, 0.05), "dp": (1.5, 1.0, 0.1), "db": (1.2j, 0.5, 0.05)}


def pole_inside(code: str) -> tuple[Realization, complex]:
    """(r, pole) for the non-member of POLES_INSIDE[code]."""
    pole, d, c = POLES_INSIDE[code]
    return Realization(n=1, m=1, A=[[pole]], B=[[c]], C=[[1.0]], D=[[d]]), complex(pole)


def discrete(r: Realization) -> Realization:
    """F(z) = G((z - 1) / (z + 1)) for the G that r realizes: three bilinear
    substitutions, since z -> (1 + z) / (1 - z) has order 4. The rung's own
    substitution of F gives back G."""
    return bilinear_substitute(bilinear_substitute(bilinear_substitute(r)))


#: (family, realization) pairs whose Q(P) overflows for every P: |C|^2 in b,
#: |B|^2 in dp and db
OVERFLOWING_Q = [
    (Family.BOUNDED_REAL, Realization(n=1, m=1, A=[[-1.0]], B=[[1.0]], C=[[1e200]], D=[[0.0]])),
    (Family.DISCRETE_POSITIVE_REAL, Realization(n=1, m=1, A=[[-0.5]], B=[[1e200]], C=[[1.0]], D=[[1.0]])),
    (Family.DISCRETE_BOUNDED_REAL, Realization(n=1, m=1, A=[[-0.5]], B=[[1e200]], C=[[1.0]], D=[[0.0]])),
]


#: 1e400/(s + 1), a p member whose F overflows at every point of a grid
OVERFLOWING_F = Realization(n=1, m=1, A=[[-1.0]], B=[[1e200]], C=[[1e200]], D=[[0.0]])


def riccati_off(monkeypatch):
    """Send every certificate search past the Riccati rung of `solve_p`: its
    candidates become a first pass that gives no P, then the last two."""
    candidates = qmi._candidates
    monkeypatch.setattr(qmi, "_candidates", lambda r, tag: [("off", None), *list(candidates(r, tag))[-2:]])


def transfer_max_err(r1: Realization, r2: Realization, points) -> float:
    """Max entrywise deviation between two transfer functions on a point set."""
    return max(
        float(np.abs(evaluate(r1, z) - evaluate(r2, z)).max()) for z in points
    )


def sampled_max_err(r: Realization, fn, points) -> float:
    """Max deviation between a realization and a closed-form matrix function."""
    return max(
        float(np.abs(evaluate(r, z) - np.atleast_2d(fn(z))).max()) for z in points
    )


# -- closed forms for the worked fixtures ------------------------------------


def f_closed(z):
    return np.array([[1.0 / (2.0 * (2.0 * z + 1.0))]])


def g_closed(z):
    return np.array([[2.0 * (2.0 + z) / z]])


def f1_closed(z, a=1.0, b=1.0):
    return (1.0 / (a**2 * z)) * np.array(
        [[b**2 / a**2 + 1.0, z - b / a], [-(z + b / a), 1.0]]
    )


def f2_closed(z, a=1.0, b=1.0):
    return (1.0 / (z**2 + 1.0)) * np.array(
        [[a**2 * z, a * (b * z - a)], [a * (b * z + a), (a**2 + b**2) * z]]
    )


def f3_closed(z, a=1.0, b=1.0):
    # pointwise inverse of f1: carries the a^2 factor so f3 * f1 = I exactly
    return (a**2 * z / (1.0 + z**2)) * np.array(
        [[1.0, b / a - z], [b / a + z, b**2 / a**2 + 1.0]]
    )


# -- independent block-formula oracles for the four quadratic forms ----------


def q_positive_real(r: Realization, p):
    p = np.asarray(p, dtype=complex)
    a, b, c, d = r.A, r.B, r.C, r.D
    return np.block(
        [
            [-p @ a - a.conj().T @ p, c.conj().T - p @ b],
            [c - b.conj().T @ p, d + d.conj().T],
        ]
    )


def q_bounded_real(r: Realization, p):
    p = np.asarray(p, dtype=complex)
    a, b, c, d = r.A, r.B, r.C, r.D
    cd = np.hstack([c, d])
    lin = np.block(
        [[-p @ a - a.conj().T @ p, -p @ b], [-b.conj().T @ p, np.eye(r.m)]]
    )
    return lin - cd.conj().T @ cd


def q_discrete_positive_real(r: Realization, p):
    p = np.asarray(p, dtype=complex)
    a, b, c, d = r.A, r.B, r.C, r.D
    ab = np.hstack([a, b])
    lin = np.block([[p, c.conj().T], [c, d + d.conj().T]])
    return lin - ab.conj().T @ p @ ab


def q_discrete_bounded_real(r: Realization, p):
    p = np.asarray(p, dtype=complex)
    a, b, c, d = r.A, r.B, r.C, r.D
    cd = np.hstack([c, d])
    lin = np.block(
        [
            [p - a.conj().T @ p @ a, -a.conj().T @ p @ b],
            [-b.conj().T @ p @ a, np.eye(r.m) - b.conj().T @ p @ b],
        ]
    )
    return lin - cd.conj().T @ cd
