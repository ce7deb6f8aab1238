"""Sampled-function containers: uniform grids and real samples on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D grid: points x0 + k*dx for k = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.dx)):
            raise InputError("grid endpoints must be finite")
        if self.dx <= 0:
            raise InputError(f"grid spacing must be positive, got {self.dx}")
        if self.n < 2:
            raise InputError(f"grid needs at least 2 points, got {self.n}")

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @staticmethod
    def symmetric(half_width: float, pow2: int) -> "GridSpec":
        """Symmetric grid over [-half_width, half_width] with 2**pow2 + 1 points."""
        n = 2 ** pow2 + 1
        return GridSpec(-half_width, 2.0 * half_width / (n - 1), n)


@dataclass
class GridFunction:
    """Real samples on a uniform grid; treat instances as immutable after
    construction."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InputError("grid function contains non-finite samples")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _split(self) -> int:
        """The first index k with x0 + k dx >= 0 (``searchsorted(x(), 0)``):
        x < 0 before it."""
        k = min(max(int(np.ceil(-self.x0 / self.dx)), 0), self.n)
        while k > 0 and self.x0 + self.dx * (k - 1) >= 0.0:
            k -= 1
        while k < self.n and self.x0 + self.dx * k < 0.0:
            k += 1
        return k

    def moment_front(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Pareto front of the points (|x|, |value|): the samples that no
        other sample matches or beats in both coordinates, as (|x|, |value|)
        with |x| ascending (and |value| strictly descending).

        Every function nondecreasing in both coordinates, such as the moment
        |x|^k |value|, takes its sup over the samples on the front.  Each
        half-lattice is ordered by |x| already, so its front is one reverse
        running max; the two half-fronts are merged by sorting the few
        points left.
        """
        av = np.abs(self.values)
        split = self._split()
        idx = np.concatenate([
            split - 1 - np.flatnonzero(_front_mask(av[:split][::-1])),
            split + np.flatnonzero(_front_mask(av[split:])),
        ])
        # x() at the front indices only, by the same arithmetic
        ax, av = np.abs(self.x0 + self.dx * idx), av[idx]
        order = np.lexsort((av, ax))
        ax, av = ax[order], av[order]
        keep = _front_mask(av)
        return ax[keep], av[keep]


def _front_mask(v: np.ndarray) -> np.ndarray:
    """Mask of the entries strictly above every later entry."""
    later = np.empty_like(v)
    later[-1:] = -np.inf
    later[:-1] = np.maximum.accumulate(v[:0:-1])[::-1]
    return v > later
