"""The seeded generator: bounds of randrange."""

from __future__ import annotations

import pytest

from posetglue.rng import SplitMix64


def test_randrange_bounds():
    rng = SplitMix64(1)
    assert 0 <= rng.randrange(2**64) < 2**64
    # a wider range has no rejection limit in 64 bits and must not loop
    for n in (2**64 + 1, 2**65, 0, -1):
        with pytest.raises(ValueError):
            rng.randrange(n)
