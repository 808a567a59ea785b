"""Deterministic pseudo-random streams for the experiment harness.

The generator is xoshiro256** with splitmix64 state initialization, run in
64 parallel lanes for vectorization.  The stream of a seed is defined as:
lane j (j = 0..63) takes its four state words from positions 4j..4j+3 of
the splitmix64 sequence of the seed, and outputs are emitted lane-major
(one word from every lane per step).  Everything is pure 64-bit integer
arithmetic, so a given seed yields the same draws on every platform.

A draw computes these words in at most L = ``_JUMP_STEPS`` Python-level
steps.  The state update of xoshiro256** is linear over GF(2): one step
maps the 256 state bits by a fixed 256x256 bit matrix M.  A draw of
``steps`` steps starts B = max(1, ceil(steps / L)) sub-lanes per lane, the
b-th at the lane's state after b*L steps, found by applying M^L, M^{2L},
M^{4L}, ... by doubling.  All 64*B sub-lanes then step min(steps, L) times
together, and each word is written to the position the stepwise loop gives
it.  The scrambler is applied to the same states, so every word is bit for
bit the word of the stepwise loop; a draw of at most L steps is one
sub-lane per lane and makes no jump, so it is that loop.  The stream is
left exactly ``steps`` steps on: the last sub-lane's state is kept after
its steps - (B-1)*L steps, before it overshoots.  The powers of M are built
once per process, on the first draw of more than L steps.  See Blackman &
Vigna, "Scrambled linear pseudorandom number generators", ACM TOMS 47(4),
2021, and Haramoto et al., "Efficient jump ahead for F2-linear random
number generators", INFORMS J. Comput. 20(3), 2008.

Uniform doubles take the top 53 bits of a word; normal variates come from
the Box-Muller transform applied to consecutive uniform pairs.
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
# States jumped per numpy call, which bounds the (32, chunk, 4) gather.
_JUMP_CHUNK = 4096


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


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    r = np.uint64(r)
    return (x << r) | (x >> (np.uint64(64) - r))


def _step(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One xoshiro256** step of every column of a (4, lanes) state.

    Returns the output words and the next state.
    """
    with np.errstate(over="ignore"):
        s0, s1, s2, s3 = state
        out = _rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = _rotl(s3, 45)
        return out, np.stack([s0, s1, s2, s3])


def _as_bytes(states: np.ndarray) -> np.ndarray:
    """(k, 4) states as (k, 32) bytes: state bit 64w + b is bit b % 8 of
    byte 8w + b // 8."""
    return np.ascontiguousarray(states, dtype="<u8").view(np.uint8)


def _square(rows: np.ndarray) -> np.ndarray:
    """Square of a 0/1 bit matrix over GF(2); exact in float64, since every
    sum is at most 256."""
    f = rows.astype(np.float64)
    return ((f @ f) % 2.0).astype(np.uint8)


@lru_cache(maxsize=None)
def _jump_rows(i: int) -> np.ndarray:
    """(M^{2^i L})^T as a 0/1 uint8 matrix: row c is the image of state bit c."""
    if i > 0:
        return _square(_jump_rows(i - 1))
    unit = np.zeros((4, 256), dtype=np.uint64)
    c = np.arange(256)
    unit[c // 64, c] = np.uint64(1) << (c % 64).astype(np.uint64)
    _, image = _step(unit)
    rows = np.unpackbits(_as_bytes(image.T), axis=1, bitorder="little")
    for _ in range(_JUMP_STEPS.bit_length() - 1):
        rows = _square(rows)
    return rows


@lru_cache(maxsize=None)
def _jump_table(i: int) -> np.ndarray:
    """M^{2^i L} as a (32, 256, 4) lookup table: entry [k, v] is the image of
    a state whose byte k is v and whose other bytes are 0, so a jump is 32
    lookups and an XOR."""
    images = np.packbits(_jump_rows(i), axis=1, bitorder="little")
    images = images.view("<u8").astype(np.uint64).reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for b in range(8):
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ images[:, b, None, :]
    return table


def _jump(table: np.ndarray, states: np.ndarray, out: np.ndarray) -> None:
    """Write the jumped (k, 4) ``states`` to ``out``."""
    pos = np.arange(32)[:, None]
    for a in range(0, len(states), _JUMP_CHUNK):
        chunk = _as_bytes(states[a : a + _JUMP_CHUNK])
        looked = table[pos, chunk.T]  # (32, k, 4)
        np.bitwise_xor.reduce(looked, axis=0, out=out[a : a + _JUMP_CHUNK])


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
        starts = np.empty((nsub, _LANES, 4), dtype=np.uint64)
        starts[0] = self._state.T
        have, i = 1, 0
        while have < nsub:
            take = min(have, nsub - have)
            _jump(
                _jump_table(i),
                starts[:take].reshape(-1, 4),
                starts[have : have + take].reshape(-1, 4),
            )
            have += take
            i += 1
        state = starts.reshape(-1, 4).T.copy()
        # word of sub-lane b, lane j at inner step t is stepwise word
        # (b * L + t) * 64 + j
        inner = min(steps, _JUMP_STEPS)
        out = np.empty((nsub, inner, _LANES), dtype=np.uint64)
        last = steps - (nsub - 1) * _JUMP_STEPS
        for t in range(inner):
            words, state = _step(state)
            out[:, t, :] = words.reshape(nsub, _LANES)
            if t + 1 == last:
                self._state = state[:, -_LANES:].copy()
        return out.reshape(-1)[:n]

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n doubles, uniform on [lo, hi)."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"lo and hi must be finite, got lo={lo!r}, hi={hi!r}")
        u = (self.random_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + u * (hi - lo)

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
