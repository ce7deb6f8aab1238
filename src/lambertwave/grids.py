"""Sampled-function containers: uniform grids and real samples on them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import InputError

_BLOCK = 64  # samples per block of the moment-front scan
_SCAN = 1024  # blocks per pass of the moment-front scan's |u| scratch


def abs_max(v: np.ndarray, axis=None):
    """max |v| (along ``axis``) as max(max v, -min v): no |v| temporary."""
    return np.maximum(np.max(v, axis=axis), -np.min(v, axis=axis))


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
    construction: the sup is taken once, then."""

    x0: float
    dx: float
    values: np.ndarray
    _sup: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        # finite iff the sup is: a NaN propagates through max and min, and
        # an infinity of either sign is max v or -min v
        self._sup = float(abs_max(self.values)) if self.values.size else 0.0
        if not np.isfinite(self._sup):
            raise InputError("grid function contains non-finite samples")

    @property
    def n(self) -> int:
        return len(self.values)

    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def sup(self) -> float:
        return self._sup

    def _first(self, t: float, strict: bool = False) -> int:
        """The first index k with x0 + k dx >= t, or > t if ``strict``
        (``searchsorted(x(), t, "right" if strict else "left")``): a guess,
        settled by the float test on x0 + k dx, the arithmetic of ``x()``."""
        before = (lambda k: self.x0 + self.dx * k <= t) if strict else (
            lambda k: self.x0 + self.dx * k < t)
        k = min(max(int(np.ceil((t - self.x0) / self.dx)), 0), self.n)
        while k > 0 and not before(k - 1):
            k -= 1
        while k < self.n and before(k):
            k += 1
        return k

    def within(self, xmax: float) -> Tuple[np.ndarray, np.ndarray]:
        """(x, values) of the samples with |x| <= xmax, the same as masking
        ``x()``, but x is formed only over their index range."""
        lo, hi = self._first(-xmax), self._first(xmax, strict=True)
        return self.x0 + self.dx * np.arange(lo, hi), self.values[lo:hi]

    def moment_front(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Pareto front of the points (|x|, |value|): the samples that no
        other sample matches or beats in both coordinates, as (|x|, |value|)
        with |x| ascending (and |value| strictly descending).

        Every function nondecreasing in both coordinates, such as the moment
        |x|^k |value|, takes its sup over the samples on the front.  Each
        half-lattice is ordered by |x| already, so its front is the samples
        above every sample farther out (``_front_indices``, which tests only
        the blocks that can hold one); the two half-fronts are merged by
        sorting the few points left.  A pure selection: the front is the
        same, bit for bit, as the reverse running max over every |value|.
        """
        v = self.values
        split = self._first(0.0)
        idx = np.concatenate([
            split - 1 - _front_indices(v[:split][::-1]),
            split + _front_indices(v[split:]),
        ])
        # x() at the front indices only, by the same arithmetic
        ax, av = np.abs(self.x0 + self.dx * idx), np.abs(v[idx])
        order = np.lexsort((av, ax))
        ax, av = ax[order], av[order]
        keep = _front_mask(av)
        return ax[keep], av[keep]


def _front_mask(v: np.ndarray, floor=-np.inf) -> np.ndarray:
    """Mask of the entries strictly above every later entry along the last
    axis and above ``floor`` (a scalar, or one value per row)."""
    later = np.empty_like(v)
    later[..., :-1] = v[..., 1:]
    later[..., -1] = floor
    return v > np.maximum.accumulate(later[..., ::-1], axis=-1)[..., ::-1]


def _front_indices(u: np.ndarray) -> np.ndarray:
    """Ascending indices of the entries of u whose |u| is strictly above
    every later |u|.

    u is cut into blocks of 64, the last one possibly short.  A front entry
    beats every later block's |u| max, so so does its own block's max; only
    the blocks whose max beats every later block's are tested entry by entry,
    against the later entries of the block and the later blocks' max.  The
    block maxima are max |u|, taken ``_SCAN`` blocks at a time through one
    scratch: one pass over u, and no |u| temporary over the whole array.
    """
    n = len(u)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    full = n - n % _BLOCK
    blocks = u[:full].reshape(-1, _BLOCK)
    bmax = np.empty(-(-n // _BLOCK))
    scratch = np.empty((min(_SCAN, len(blocks)), _BLOCK))
    for b0 in range(0, len(blocks), _SCAN):
        part = np.abs(blocks[b0:b0 + _SCAN], out=scratch[:len(blocks) - b0])
        np.max(part, axis=1, out=bmax[b0:b0 + len(part)])
    if full < n:
        bmax[-1] = abs_max(u[full:])
    later = np.append(np.maximum.accumulate(bmax[:0:-1])[::-1], -np.inf)
    cand = np.flatnonzero(bmax > later)
    # the short last block (if any) is a candidate: nothing comes after it
    tail = cand[-1] == len(blocks)
    b = cand[:-1] if tail else cand
    mask = _front_mask(np.abs(blocks[b]), later[b])
    idx = (b[:, None] * _BLOCK + np.arange(_BLOCK))[mask]
    if tail:
        idx = np.concatenate([idx, full + np.flatnonzero(_front_mask(np.abs(u[full:])))])
    return idx
