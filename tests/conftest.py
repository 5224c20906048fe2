"""Shared test configuration.

The hypothesis profile is registered here so every property test runs
derandomized (CI reproducibility) and without deadlines, which a slow
first call (a lowered body compiled on first use) could trip.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "meanlab",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("meanlab")
