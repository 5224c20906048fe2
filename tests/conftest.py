"""Shared test configuration.

The hypothesis profile is registered here so every property test runs
derandomized (CI reproducibility) and without deadlines, which a slow
first call (a lowered body compiled on first use) could trip.
"""

import pytest
from hypothesis import HealthCheck, settings

from meanlab.interval import Interval

settings.register_profile(
    "meanlab",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("meanlab")


@pytest.fixture
def checked_points(monkeypatch):
    """The vectors ``Interval.check_points`` is called on from here on,
    as lists, in call order."""
    checked = []
    check = Interval.check_points

    def spy(self, pts):
        checked.append(list(pts))
        check(self, pts)

    monkeypatch.setattr(Interval, "check_points", spy)
    return checked
