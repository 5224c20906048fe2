"""Open intervals of the real line.

All functions in this package live on an open interval (lo, hi) with
finite endpoints, the paper's I, which matches the natural domains of
the built-in generators (log needs 0 excluded, and means of interior
points stay interior).  A caller's point is evaluated exactly where it
is; only points the package picks itself keep the inset from the ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

# Relative inset used when work must stay away from open endpoints.
ENDPOINT_INSET = 1e-9


def seeded_rng(seed: int):
    """A generator of uniform draws seeded by ``seed``, a non-negative
    int: ``pcg.default_rng``, which draws what
    ``numpy.random.default_rng(seed)`` draws, bit for bit, in pure Python.
    Its ``spawn(n)`` gives the children of ``SeedSequence(seed).spawn(n)``.
    The module is imported here, on first use."""
    from .pcg import default_rng

    return default_rng(seed)


class Interval(NamedTuple("Interval", [("lo", float), ("hi", float)])):
    """A non-degenerate open interval (lo, hi) of the real line: a finite
    width and at least one float strictly between the ends."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"interval ({lo}, {hi}) is too wide: hi - lo overflows")
        if not math.nextafter(lo, hi) < hi:
            raise ValueError(f"interval ({lo}, {hi}) holds no float between its ends")
        return super().__new__(cls, lo, hi)

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def check_points(self, pts) -> None:
        """Raise DomainError for the first point outside the interval."""
        for x in pts:
            if not self.contains(x):
                raise DomainError(f"point {x} is outside {self}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def inset(self) -> float:
        """Absolute margin kept from each end by grid() and sample()."""
        return ENDPOINT_INSET * self.width

    def _inset_ends(self) -> tuple:
        """The ends of grid() and sample(): the inset from each end, and at
        least the next float inward where the inset rounds back onto it."""
        lo, hi, inset = self.lo, self.hi, self.inset
        return max(lo + inset, math.nextafter(lo, hi)), min(hi - inset, math.nextafter(hi, lo))

    def grid(self, count: int) -> list:
        """``count`` equally spaced points on the inset interior, endpoints
        included, as a list of floats: i*step + start with the last point
        set to the end, which is ``numpy.linspace`` bit for bit."""
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        start, stop = self._inset_ends()
        step = (stop - start) / (count - 1)
        points = [i * step + start for i in range(count)]
        points[-1] = stop
        return points

    def sample(self, rng, size=None):
        """Uniform draws from the inset interior by ``rng``, anything with
        ``uniform(lo, hi, size)`` (``seeded_rng``'s generator or a
        ``numpy.random.Generator``): a float when ``size`` is None, else
        the draws of shape ``size`` as ``rng`` returns them."""
        return rng.uniform(*self._inset_ends(), size)

    def __str__(self):
        return f"({self.lo}, {self.hi})"
