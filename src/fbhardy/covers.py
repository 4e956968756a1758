"""Dyadic interval families on (0, 1) and proportional enlargements.

Two covers are used throughout:

* the one-end family, indexed j >= 0, whose intervals (1 - 2^-j, 1 - 2^-j-1]
  shrink toward the endpoint 1 (natural for the weighted measure);
* the two-end family, indexed by nonzero integers, which reuses the one-end
  intervals for j >= 1 and adds (2^(j-1), 2^j] for j <= -1, shrinking toward
  both endpoints (natural for Lebesgue measure).

The enlargement I* dilates I by the fixed factor (1 + zeta) about its center
and clips to (0, 1); starred powers iterate that operation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_ONE_END = "one_end"
FAMILY_TWO_END = "two_end"
DEFAULT_ZETA = 0.02


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval ({self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = (x > self.a) & (x <= self.b)
        return bool(out) if out.ndim == 0 else out

    def enlarged(self, zeta: float = DEFAULT_ZETA) -> "Interval":
        """(1 + zeta)-dilation about the center, clipped to (0, 1)."""
        half = 0.5 * self.length * (1.0 + zeta)
        return Interval(max(self.center - half, 0.0), min(self.center + half, 1.0))

    def starred(self, k: int, zeta: float = DEFAULT_ZETA) -> "Interval":
        out = self
        for _ in range(k):
            out = out.enlarged(zeta)
        return out


@dataclass(frozen=True)
class DyadicCover:
    """One of the two dyadic families with its enlargement factor."""

    family: str
    zeta: float = DEFAULT_ZETA
    j_max: int = 16

    def __post_init__(self):
        if self.family not in (FAMILY_ONE_END, FAMILY_TWO_END):
            raise ValueError(f"unknown cover family {self.family!r}")
        if not 0 < self.zeta <= 0.25:
            raise ValueError("zeta out of range")

    def indices(self) -> list[int]:
        if self.family == FAMILY_ONE_END:
            return list(range(0, self.j_max + 1))
        neg = list(range(-self.j_max, 0))
        pos = list(range(1, self.j_max + 1))
        return neg + pos

    def interval(self, j: int) -> Interval:
        if self.family == FAMILY_ONE_END:
            if j < 0:
                raise ValueError("one-end family takes j >= 0")
            return Interval(1.0 - 2.0**-j, 1.0 - 2.0 ** -(j + 1))
        if j == 0:
            raise ValueError("two-end family skips j = 0")
        if j >= 1:
            return Interval(1.0 - 2.0**-j, 1.0 - 2.0 ** -(j + 1))
        return Interval(2.0 ** (j - 1), 2.0**j)

    def starred(self, j: int, k: int = 1) -> Interval:
        return self.interval(j).starred(k, self.zeta)

    def index_of(self, x: float) -> int:
        """Index of the cover interval containing x (intervals are (a, b])."""
        if not 0.0 < x < 1.0:
            raise ValueError("x must lie in (0, 1)")
        if self.family == FAMILY_ONE_END or x > 0.5:
            j = 0
            while not self.interval(max(j, self._lowest())).contains(x):
                j += 1
                if j > 60:
                    raise ValueError("index search ran away")
            return max(j, self._lowest())
        # two-end family, x <= 1/2: walk the negative indices
        j = -1
        while not self.interval(j).contains(x):
            j -= 1
            if j < -60:
                raise ValueError("index search ran away")
        return j

    def _lowest(self) -> int:
        return 0 if self.family == FAMILY_ONE_END else 1

