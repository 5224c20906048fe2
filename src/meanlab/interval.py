"""Open intervals of the real line.

All functions in this package live on an interval with finite endpoints.
Endpoints are open by default, which matches the natural domains of the
built-in generators (log needs 0 excluded, and means of interior points
stay interior).  Closed endpoints are supported for completeness but the
command line only ever builds open intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Relative inset used when work must stay away from open endpoints.
ENDPOINT_INSET = 1e-9


@dataclass(frozen=True, slots=True)
class Interval:
    """A non-degenerate real interval with optionally open endpoints."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: float) -> bool:
        ok_lo = x > self.lo if self.lo_open else x >= self.lo
        ok_hi = x < self.hi if self.hi_open else x <= self.hi
        return ok_lo and ok_hi

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
        """Absolute margin kept from each endpoint by clamp() and grid()."""
        return ENDPOINT_INSET * self.width

    def clamp(self, x: float) -> float:
        """Pull x into the inset interior [lo+eps, hi-eps].

        Evaluation near an open endpoint would otherwise hit singularities
        of generators such as log; the inset is small enough (1e-9 of the
        width) to be invisible at the tolerances used elsewhere.
        """
        return min(max(x, self.lo + self.inset), self.hi - self.inset)

    def grid(self, count: int) -> np.ndarray:
        """Equally spaced points on the inset interior, endpoints included."""
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        return np.linspace(self.lo + self.inset, self.hi - self.inset, count)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Uniform draws from the inset interior."""
        return rng.uniform(self.lo + self.inset, self.hi - self.inset, size)

    def __str__(self):
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"
