"""Deterministic 64-bit PRNG used for every seeded draw in the package.

The algorithm is SplitMix64 (Steele, Lea & Flood's mix with the golden-gamma
increment), chosen because it is tiny, fast, well studied, and completely
specified by three constants -- so the stream itself is the same on every
platform and Python version:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z := (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output := z XOR (z >> 31)

Sub-streams (per-trial seeds and the like) are derived by feeding the parent
seed and the key through one mixing round each, which keeps trials independent
of evaluation order.

Every draw consumes the stream in an order fixed by its inputs alone, so
certificates reproduce bit-for-bit on any platform and Python version.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _key_words(key):
    """A key as a sequence of 64-bit words: ints pass through, strings are
    length-prefixed UTF-8 chunks (deterministic across platforms)."""
    if isinstance(key, int):
        yield key
        return
    if isinstance(key, str):
        data = key.encode("utf-8")
        yield len(data)
        for i in range(0, len(data), 8):
            yield int.from_bytes(data[i : i + 8], "big")
        return
    raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")


class SplitMix64:
    """Seeded deterministic RNG; every method consumes exactly the words it needs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Uses rejection to avoid modulo bias.

        The loop makes each word of the stream itself: the state advances by
        the golden gamma and _mix (the one place the two mix constants are
        applied) turns it into the output, the recurrence of the module
        docstring.  So each call reads the same words as any other
        implementation of that stream, and a random number costs this call
        and one call of _mix."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        if n > 1 << 64:
            raise ValueError("randrange bound exceeds 2**64")
        # Largest multiple of n that fits in 64 bits.
        limit = ((1 << 64) // n) * n
        while True:
            self._state = state = (self._state + _GAMMA) & _MASK
            u = _mix(state)
            if u < limit:
                return u % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffled(self, seq) -> list:
        """Fisher-Yates; returns a new list, never mutates the argument."""
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.randrange(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def derive_seed(seed: int, *keys) -> int:
    """Stable scalar sub-seed from a base seed and integer or string keys."""
    s = seed & _MASK
    for key in keys:
        for k in _key_words(key):
            s = _mix(((s ^ (k & _MASK)) + _GAMMA) & _MASK)
    return s
