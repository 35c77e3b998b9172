"""Small library of worked example realizations used throughout the tests
and exposed on the CLI.

``f`` and ``g`` are scalar (n = m = 1); ``F1``, ``F2``, ``F3`` are a family
of 2x2 lossless-positive functions with real parameters (a, b), a != 0:

* ``f``  realizes 1 / (2(2z+1)); its array inverse ``g`` realizes 2(2+z)/z.
* ``F2``'s array is exactly the matrix inverse of ``F1``'s array.
* ``F3`` realizes the pointwise inverse of F1, i.e. F3(z) F1(z) = I2.

All five satisfy their defining identities exactly in floating point.
``a`` and ``b`` must be finite, and ``f`` and ``g`` take neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import BadParams
from .realization import Realization

__all__ = ["FixtureId", "FIXTURE_NAMES", "fixture"]

FIXTURE_NAMES = ("f", "g", "F1", "F2", "F3")


@dataclass(frozen=True)
class FixtureId:
    name: str
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.name not in FIXTURE_NAMES:
            raise BadParams(f"unknown fixture {self.name!r}; choose from {FIXTURE_NAMES}")
        if not np.isfinite([self.a, self.b]).all():
            raise BadParams(f"parameters a and b must be finite, got a = {self.a}, b = {self.b}")
        if self.name in ("F1", "F2", "F3") and self.a == 0.0:
            raise BadParams("parameter a must be nonzero")


def fixture(name, a: float | None = None, b: float | None = None) -> Realization:
    """Construct a fixture by FixtureId or by name with optional (a, b)."""
    if isinstance(name, FixtureId):
        fid = name
    elif name in ("f", "g") and (a is not None or b is not None):
        raise BadParams(f"fixture {name!r} takes no parameters a and b")
    else:
        fid = FixtureId(name=str(name), a=1.0 if a is None else float(a), b=1.0 if b is None else float(b))
    if fid.name == "f":
        return Realization(n=1, m=1, A=[[-0.5]], B=[[0.5]], C=[[0.5]], D=[[0.0]])
    if fid.name == "g":
        return Realization(n=1, m=1, A=[[0.0]], B=[[2.0]], C=[[2.0]], D=[[2.0]])
    a_, b_ = fid.a, fid.b
    if fid.name == "F1":
        return Realization(
            n=2,
            m=2,
            A=np.zeros((2, 2)),
            B=[[1 / a_, 0.0], [b_ / a_**2, -1 / a_]],
            C=[[1 / a_, b_ / a_**2], [0.0, -1 / a_]],
            D=[[0.0, 1 / a_**2], [-1 / a_**2, 0.0]],
        )
    if fid.name == "F2":
        return Realization(
            n=2,
            m=2,
            A=[[0.0, 1.0], [-1.0, 0.0]],
            B=[[a_, b_], [0.0, -a_]],
            C=[[a_, 0.0], [b_, -a_]],
            D=np.zeros((2, 2)),
        )
    # F3: the pointwise inverse of F1. The blocks scale as (A, aB, aC, a^2 D)
    # so that F3(z) F1(z) = I2 holds for every a != 0; at a = 1 this is the
    # plain unscaled array.
    return Realization(
        n=2,
        m=2,
        A=[[0.0, 1.0], [-1.0, 0.0]],
        B=[[a_, b_], [0.0, a_]],
        C=[[a_, 0.0], [b_, a_]],
        D=[[0.0, -(a_**2)], [a_**2, 0.0]],
    )
