"""Deterministic pseudo-random streams for the experiment harness.

The generator is xoshiro256** with splitmix64 state initialization, run in
64 parallel lanes for vectorization.  The stream of a seed is defined as:
lane j (j = 0..63) takes its four state words from positions 4j..4j+3 of
the splitmix64 sequence of the seed, and outputs are emitted lane-major
(one word from every lane per step).  Everything is pure 64-bit integer
arithmetic, so a given seed yields the same draws on every platform.

A draw computes these words in at most L = ``_JUMP_STEPS`` Python-level
steps.  The state update of xoshiro256** is linear over GF(2): one step
maps the 256 state bits by a fixed 256x256 bit matrix M, so M^L maps state
bit c to the single-bit state c walked L steps.  A draw of ``steps`` steps
starts B = max(1, ceil(steps / L)) sub-lanes per lane, the b-th at the
lane's state after b*L steps, found from the (b-1)-th by one application
of M^L.  All 64*B sub-lanes then step min(steps, L) times together.  A
step updates the state in place, with one preallocated temporary and no
Python call, and records the s1 word of every sub-lane at the position the
stepwise loop gives its output word.  The scrambler rotl(5 s1, 7) 9 is
then applied once, in place, block by block over the recorded words, so
every word is bit for bit the word of the stepwise loop; a draw of at most
L steps is one sub-lane per lane and makes no jump, so it is that loop.
The stream is left exactly ``steps`` steps on: the last sub-lane's state
is kept after its steps - (B-1)*L steps, before it overshoots.  M^L is
tabulated once per process, on the first draw of more than L steps.  See
Blackman & Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 47(4), 2021, and Haramoto et al., "Efficient jump ahead for
F2-linear random number generators", INFORMS J. Comput. 20(3), 2008.

Uniform doubles take the top 53 bits of a word, shifted, converted and
scaled in the draw's own array; normal variates come from the Box-Muller
transform applied to consecutive uniform pairs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .dyadic import _integer

__all__ = ["RandomStream", "derive_seed", "splitmix64"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANES = 64
# Steps per sub-lane of a draw; longer draws start sub-lanes by jump-ahead.
_JUMP_STEPS = 128
# Words scrambled per numpy call (128 KB of uint64).
_SCRAMBLE_BLOCK = 1 << 14
_U5, _U7, _U9, _U11, _U17, _U19, _U45, _U57 = (np.uint64(r) for r in (5, 7, 9, 11, 17, 19, 45, 57))


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 sequence of ``seed``."""
    seed, count = _integer(seed, "seed", None), _integer(count, "count", 0)
    with np.errstate(over="ignore"):
        steps = np.arange(1, count + 1, dtype=np.uint64)
        return _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + steps * _GOLDEN)


def derive_seed(seed: int, *salts: int) -> int:
    """Stable 64-bit sub-stream seed from a base seed and integer salts."""
    seed = _integer(seed, "seed", None)
    salts = [_integer(salt, "salt", None) for salt in salts]
    with np.errstate(over="ignore"):
        x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        for salt in salts:
            x = _mix(x + _GOLDEN + np.uint64(salt & 0xFFFFFFFFFFFFFFFF) * _MIX1)
        return int(x)


def _walk(state: np.ndarray, record: np.ndarray) -> None:
    """Step the (4, ...) xoshiro256** ``state`` in place once per row of
    ``record``, writing to row t the s1 words of every lane before step t.

    The rows hold unscrambled words: :func:`_scramble` turns them into
    output words.  The temporary is allocated once, so a step is nine numpy
    calls and no Python call.
    """
    s0, s1, s2, s3 = state
    low, high = state[0:2], state[2:4]
    t = np.empty_like(s1)
    for row in record:
        np.copyto(row, s1)
        np.left_shift(s1, _U17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        s0 ^= s3
        s1 ^= s2
        s2 ^= t
        np.left_shift(s3, _U45, out=t)  # s3 = rotl(s3, 45)
        s3 >>= _U19
        s3 |= t


def _scramble(words: np.ndarray) -> None:
    """Apply the ** scrambler rotl(s1 * 5, 7) * 9 in place to a contiguous
    array of s1 words, in blocks, so its temporary stays block-sized."""
    flat = words.reshape(-1)
    t = np.empty(min(flat.size, _SCRAMBLE_BLOCK), dtype=np.uint64)
    for a in range(0, flat.size, _SCRAMBLE_BLOCK):
        x = flat[a : a + _SCRAMBLE_BLOCK]
        y = t[: x.size]
        x *= _U5
        np.left_shift(x, _U7, out=y)
        x >>= _U57
        x |= y
        x *= _U9


@lru_cache(maxsize=None)
def _jump_table() -> np.ndarray:
    """M^L as a (32, 256, 4) lookup table: entry [k, v] is the image of a
    state whose little-endian byte k is v and whose other bytes are 0, so a
    jump is 32 lookups and an XOR.  Column c of M^L, the image of state bit
    c (bit c % 8 of byte c // 8), is the state with only bit c set walked L
    steps."""
    unit = np.zeros((4, 256), dtype=np.uint64)
    c = np.arange(256)
    unit[c // 64, c] = np.uint64(1) << (c % 64).astype(np.uint64)
    _walk(unit, np.empty((_JUMP_STEPS, 256), dtype=np.uint64))
    images = unit.T.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for b in range(8):
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ images[:, b, None, :]
    return table


class RandomStream:
    """xoshiro256** stream (64 splitmix64-seeded lanes, lane-major output)."""

    def __init__(self, seed: int):
        self.seed = _integer(seed, "seed", None) & 0xFFFFFFFFFFFFFFFF
        words = splitmix64(self.seed, 4 * _LANES)
        self._state = words.reshape(_LANES, 4).T.copy()

    def random_u64(self, n: int) -> np.ndarray:
        """The next n words of the stream."""
        n = _integer(n, "n", 0)
        steps = -(-n // _LANES)
        nsub = max(1, -(-steps // _JUMP_STEPS))
        # starts[b, j] is lane j's state after b * L steps
        starts = np.empty((nsub, _LANES, 4), dtype="<u8")
        starts[0] = self._state.T
        if nsub > 1:
            table, pos = _jump_table(), np.arange(32)[:, None]
            octets = starts.view(np.uint8)  # octets[b, j, k] is byte k of starts[b, j]
            for b in range(1, nsub):
                np.bitwise_xor.reduce(table[pos, octets[b - 1].T], axis=0, out=starts[b])
        # state[:, b, j] is sub-lane b of lane j; its word at inner step t is
        # stepwise word (b * L + t) * 64 + j, so step t records out[:, t, :]
        state = np.ascontiguousarray(starts.transpose(2, 0, 1), dtype=np.uint64)
        out = np.empty((nsub, min(steps, _JUMP_STEPS), _LANES), dtype=np.uint64)
        record = out.transpose(1, 0, 2)
        last = steps - (nsub - 1) * _JUMP_STEPS
        _walk(state, record[:last])
        self._state = state[:, -1].copy()
        _walk(state, record[last:])
        _scramble(out)
        return out.reshape(-1)[:n]

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n doubles, uniform on [lo, hi)."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"lo and hi must be finite, got lo={lo!r}, hi={hi!r}")
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"need lo < hi and a finite hi - lo, got lo={lo!r}, hi={hi!r}")
        w = self.random_u64(n)
        w >>= _U11
        u = w.view(np.float64)
        u[...] = w  # each word becomes its double in place
        u *= 2.0**-53
        u *= hi - lo
        u += lo
        return u

    def normal(self, n: int) -> np.ndarray:
        """n standard normal variates (Box-Muller on uniform pairs)."""
        half = (_integer(n, "n", 0) + 1) // 2
        u1 = self.uniform(half)
        u2 = self.uniform(half)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        ang = (2.0 * math.pi) * u2
        z = np.empty(2 * half)
        z[0::2] = r * np.cos(ang)
        z[1::2] = r * np.sin(ang)
        return z[:n]
