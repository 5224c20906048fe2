"""The pure-Python seeded sampler against numpy's default_rng, draw for draw.

The package never imports numpy; these tests do, to hold ``seeded_rng``
to ``numpy.random.default_rng`` bit for bit (exact ``==``, no tolerance):
the seed pool, spawn keys, the PCG64 stream and ``uniform``'s scaling.
"""

import numpy as np
import pytest

from meanlab.interval import seeded_rng

SEEDS = [0, 20260816, 2**97 - 3, 2**130 + 5]  # 1, 1, 4 and 5 seed words


def draws(rng):
    """A scalar, a vector and a 3x3 matrix, as plain Python floats."""
    out = [rng.uniform(0.1, 5.0), rng.uniform(-3.0, 1e6, 7), rng.uniform(0.0, 1.0, (3, 3))]
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in out]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_bit_for_bit(seed):
    ours, theirs = seeded_rng(seed), np.random.default_rng(seed)
    assert draws(ours) == draws(theirs)
    for _ in range(2):  # the second spawn(50) continues the first's keys
        for child, twin in zip(ours.spawn(50), theirs.spawn(50), strict=True):
            assert draws(child) == draws(twin)
            for grandchild, grandtwin in zip(child.spawn(3), twin.spawn(3), strict=True):
                assert draws(grandchild) == draws(grandtwin)


def test_draw_shapes_are_plain_python():
    scalar, vector, matrix = (seeded_rng(1).uniform(0.0, 1.0, size) for size in (None, 7, (2, 3)))
    assert type(scalar) is float
    assert len(vector) == 7 and all(type(v) is float for v in vector)
    assert [len(row) for row in matrix] == [3, 3]


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        seeded_rng(-1)


def test_non_integer_seed_is_rejected():
    with pytest.raises(TypeError):
        seeded_rng(1.5)
