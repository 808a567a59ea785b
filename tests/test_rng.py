"""The xoshiro256** stream: reference values, golden digests, and split
draws against the stepwise definition."""

import hashlib

import numpy as np
import pytest

from haar_besov import rng
from haar_besov.rng import _JUMP_STEPS, RandomStream, _scramble, _walk

from helpers import StepwiseStream, jump_table_by_squaring, xoshiro_step

SEEDS = (0, 1, 7, 2**63 + 5)
ONE = _JUMP_STEPS * 64  # largest draw of one sub-lane per lane, which makes no jump
SPLIT = 2 * ONE  # largest draw of two sub-lanes per lane
SIZES = (
    1, 63, 64, 65, 511 * 64, 512 * 64, 512 * 64 + 1, ONE, ONE + 1,
    SPLIT - 64, SPLIT - 1, SPLIT, SPLIT + 1, SPLIT + 64,
    2**16, 2**17, 3 * 2**18 + 5, 2**20,
)


def stepwise(seed):
    """The first words of ``seed``, drawn one step per draw, enough for every
    n in SIZES, and the state after ceil(n / 64) steps for each of them."""
    stream = StepwiseStream(seed)
    keep = {-(-n // 64) for n in SIZES}
    words = np.empty((max(keep), 64), dtype=np.uint64)
    states = {}
    for t in range(max(keep)):
        words[t] = stream.random_u64(64)
        if t + 1 in keep:
            states[t + 1] = stream._state.copy()
    return words.reshape(-1), states


# rand_xoshiro's test vector: ten outputs from the state (1, 2, 3, 4)
REFERENCE_STATE = ((1,), (2,), (3,), (4,))
REFERENCE_OUTPUTS = [
    11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
    607988272756665600, 16172922978634559625, 8476171486693032832,
    10595114339597558777, 2904607092377533576,
]


def test_xoshiro256starstar_reference_vector():
    # the library's step: in place, recording s1, scrambled afterwards
    state = np.array(REFERENCE_STATE, dtype=np.uint64)
    record = np.empty((10, 1), dtype=np.uint64)
    _walk(state, record)
    _scramble(record)
    assert [int(out[0]) for out in record] == REFERENCE_OUTPUTS


def test_oracle_step_reference_vector():
    # the out-of-place step StepwiseStream draws through
    state = np.array(REFERENCE_STATE, dtype=np.uint64)
    outs = []
    for _ in range(10):
        out, state = xoshiro_step(state)
        outs.append(int(out[0]))
    assert outs == REFERENCE_OUTPUTS


def test_jump_table_is_the_squared_step():
    # the walked table against M^L by repeated squaring of one oracle step
    assert np.array_equal(rng._jump_table(), jump_table_by_squaring())


def test_one_jump_table_built_only_for_draws_that_jump():
    rng._jump_table.cache_clear()
    try:
        stream = RandomStream(4)
        stream.random_u64(1)
        stream.random_u64(ONE)
        assert rng._jump_table.cache_info().misses == 0
        stream.random_u64(ONE + 1)
        assert rng._jump_table.cache_info().misses == 1
        stream.random_u64(2**20)
        assert rng._jump_table.cache_info().misses == 1
    finally:
        rng._jump_table.cache_clear()


@pytest.mark.parametrize(
    "seed,n,digest",
    [
        (0, 1000, "6fe3b967b90e9126cb5d53c840f195737bb684d0e2441cc643e7459fcc5795f9"),
        (1, 16383, "e9881981bc0f94531336aa541d5490a660b50e53d24387727ad6ea30fd269d87"),
        (1, 16384, "585dc578b379f64ca741381f874fd1b7332547323677d2ac56ad319f13fd9eef"),
        (7, 65539, "35ba0eed781575ebb30b386ebde50745176c20ae250f3cd89db3c7839cf15753"),
        (2**63 + 5, 2**20, "27b8ebb10254dc9b69dde54579c7b9bab58018efabee09b07cd533e31aa5d4f0"),
    ],
)
def test_golden_digest(seed, n, digest):
    # digests of the stream as drawn stepwise, one Python step per 64 words
    words = RandomStream(seed).random_u64(n).astype("<u8")
    assert hashlib.sha256(words.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_equals_stepwise(seed):
    words, states = stepwise(seed)
    for n in SIZES:
        stream = RandomStream(seed)
        assert np.array_equal(stream.random_u64(n), words[:n]), n
        assert np.array_equal(stream._state, states[-(-n // 64)]), n


@pytest.mark.parametrize("seed", SEEDS)
def test_chained_draws_equal_stepwise(seed):
    split, oracle = RandomStream(seed), StepwiseStream(seed)
    draws = (
        lambda r: r.uniform(SPLIT + 5, -2.0, 3.0),
        lambda r: r.normal(2**17 + 3),
        lambda r: r.normal(7),
        lambda r: r.random_u64(3 * SPLIT - 1),
        lambda r: r.uniform(100),
    )
    for draw in draws:
        assert np.array_equal(draw(split), draw(oracle))
        assert np.array_equal(split._state, oracle._state)


def test_normal_is_two_uniform_draws():
    # normal(n) draws ceil(n/2) uniforms twice, so the stream goes on after
    # 2 * ceil(ceil(n/2) / 64) steps
    n = 2 * SPLIT + 1
    a, b = RandomStream(3), RandomStream(3)
    a.normal(n)
    b.random_u64((n + 1) // 2)
    b.random_u64((n + 1) // 2)
    assert np.array_equal(a._state, b._state)


class TestDrawSizes:
    @pytest.mark.parametrize("n", [-1, -5, -100, 2.5, 3.0, "4", None, True])
    def test_bad_count_rejected(self, n):
        for draw in (
            lambda: RandomStream(1).random_u64(n),
            lambda: RandomStream(1).uniform(n),
            lambda: RandomStream(1).normal(n),
        ):
            with pytest.raises(ValueError, match="n must be an integer >= 0"):
                draw()

    @pytest.mark.parametrize(
        "lo,hi", [(0.0, float("nan")), (float("nan"), 1.0), (float("-inf"), 1.0), (0.0, float("inf"))]
    )
    def test_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo and hi must be finite"):
            RandomStream(1).uniform(4, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (1.0, -1.0), (1.0, 1.0)])
    def test_empty_or_overflowing_range_rejected(self, lo, hi):
        # [lo, hi) must be non-empty and its width a double
        with pytest.raises(ValueError, match=r"need lo < hi and a finite hi - lo, got lo=.*, hi="):
            RandomStream(1).uniform(4, lo, hi)

    def test_numpy_integers_and_zero(self):
        for n in (np.int64(5), np.int32(5), np.uint8(5)):
            assert np.array_equal(RandomStream(2).random_u64(n), RandomStream(2).random_u64(5))
            assert RandomStream(2).normal(n).shape == (5,)
        stream = RandomStream(2)
        before = stream._state.copy()
        assert stream.random_u64(0).shape == (0,)
        assert stream.uniform(0).shape == (0,)
        assert stream.normal(0).shape == (0,)
        assert np.array_equal(stream._state, before)
