"""Origin-centered balls, dyadic rings, and the full space as integration domains.

Everything in this package integrates either over a ball B(0, r), over a
dyadic ring C_k = B(0, 2^k) \\ B(0, 2^(k-1)), or over the whole space.  For
dimension 1 these are honest subsets of the real line; for dimension >= 2
all integrands are radial profiles and the domains carry the dimension so
the radial change of variables can be applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def unit_ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball (2 in dimension 1, pi in dimension 2)."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    if dim == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class Ball:
    """Open ball B(0, radius) centered at the origin.

    Like a dyadic ring it has inner and outer radii, here 0 and radius.
    """

    radius: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")

    @property
    def inner(self) -> float:
        return 0.0

    @property
    def outer(self) -> float:
        return self.radius

    @property
    def measure(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim


@dataclass(frozen=True)
class DyadicRing:
    """Dyadic annulus C_k: the set of points with 2^(k-1) <= |x| < 2^k."""

    k: int
    dim: int = 1

    @property
    def inner(self) -> float:
        return 2.0 ** (self.k - 1)

    @property
    def outer(self) -> float:
        return 2.0 ** self.k

    @property
    def measure(self) -> float:
        v = unit_ball_volume(self.dim)
        return v * (self.outer ** self.dim - self.inner ** self.dim)


@dataclass(frozen=True)
class FullLine:
    """The whole space R^n (the real line when dim == 1): radii 0 to inf."""

    dim: int = 1
    inner = 0.0
    outer = math.inf


FULL_LINE = FullLine()

Domain = Ball | DyadicRing | FullLine
