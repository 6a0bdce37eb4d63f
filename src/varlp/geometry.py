"""Origin-centered balls, dyadic rings, and the whole line as integration domains.

Everything in this package integrates either over a ball B(0, r) = (-r, r),
over a dyadic ring C_k = B(0, 2^k) \\ B(0, 2^(k-1)), two intervals, or over
the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Ball:
    """Open ball B(0, radius) centered at the origin.

    Like a dyadic ring it has inner and outer radii, here 0 and radius.
    """

    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def inner(self) -> float:
        return 0.0

    @property
    def outer(self) -> float:
        return self.radius

    @property
    def measure(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class DyadicRing:
    """Dyadic annulus C_k: the set of points with 2^(k-1) <= |x| < 2^k.

    Both radii are positive finite floats exactly for k in [-1073, 1023].
    """

    k: int

    def __post_init__(self) -> None:
        if not -1073 <= self.k <= 1023:
            raise ValueError(f"dyadic ring radii 2^(k-1) and 2^k must be positive "
                             f"and finite, so k must lie in [-1073, 1023], got k={self.k}")

    @property
    def inner(self) -> float:
        return 2.0 ** (self.k - 1)

    @property
    def outer(self) -> float:
        return 2.0 ** self.k

    @property
    def measure(self) -> float:
        return 2.0 * (self.outer - self.inner)


@dataclass(frozen=True)
class FullLine:
    """The whole real line: radii 0 to inf."""

    inner = 0.0
    outer = math.inf


FULL_LINE = FullLine()

Domain = Ball | DyadicRing | FullLine
