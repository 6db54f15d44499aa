"""Counter-stream generator: reference values and vectorization equality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pbrlab import ValidationError
from pbrlab.rng import (
    KEPT_TOP_BITS,
    least_word,
    mix_head,
    mix_tail,
    run_uniforms,
    splitmix64,
    state,
    state_steps,
    uniform,
    validate_seed,
)

MASK = (1 << 64) - 1


def reference_splitmix64_stream(seed: int, count: int) -> list[int]:
    """Straight transcription of the stateful reference generator."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestSplitmix64:
    def test_matches_stateful_reference(self):
        for seed in (0, 1, 42, 2**63 + 11):
            expected = reference_splitmix64_stream(seed, 10)
            got = [splitmix64(seed, i) for i in range(10)]
            assert got == expected

    def test_known_first_output_for_seed_zero(self):
        # First output of the widely used reference implementation.
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF


def word_uniform(z: int) -> float:
    """The uniform of a 64-bit word, as :func:`uniform` makes it."""
    return (z >> 11) * 2.0**-53


class TestLeastWord:
    def test_ends_of_the_unit_interval(self):
        assert least_word(0.0) == 0
        assert least_word(1.0) == 2**64

    @seed(20120229)
    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0))
    @example(5e-324)
    @example(2.0**-53)
    @example(0.5)
    @example(math.nextafter(1.0, 0.0))
    def test_is_the_least_word_whose_uniform_reaches_u(self, u):
        z = least_word(u)
        assert z % 2**11 == 0
        assert word_uniform(z) >= u
        if u > 0.0:
            assert word_uniform(z - 2**11) < u


class TestSplitMix:
    """The pieces the tally kernel composes: Weyl states, the mix's head and its tail."""

    SEED, START, STEP = 2**64 - 5, 2**64 - 3, 5  # counters START + STEP * k wrap past 2^64 at k = 1

    def heads(self):
        z = state_steps(self.STEP, 6)
        z += np.uint64(state(self.SEED, self.START))
        return mix_head(z, np.empty_like(z))

    def test_head_then_tail_is_splitmix64_at_wrapping_counters(self):
        z = self.heads()
        assert mix_tail(z, np.empty_like(z)).tolist() == [
            splitmix64(self.SEED, (self.START + self.STEP * k) % 2**64) for k in range(6)
        ]

    def test_word_before_the_tail_has_the_outputs_top_bits(self):
        head = self.heads()
        out = mix_tail(head.copy(), np.empty_like(head))
        low = np.uint64(64 - KEPT_TOP_BITS)
        assert np.array_equal(head >> low, out >> low)
        assert not np.array_equal(head, out)  # the tail does change the low bits


class TestUniformStreams:
    def test_vectorized_equals_scalar(self):
        seed = 987654321
        block = run_uniforms(seed, 13, 29, 4)
        for i, run in enumerate(range(13, 29)):
            for j in range(4):
                assert block[i, j] == uniform(seed, run, j, 4)

    def test_counters_wrapping_past_2_64_equal_scalar(self):
        # Runs 2^62 - 2 .. 2^62 + 1 at 4 draws a run read counters 2^64 - 8 .. 2^64 + 7.
        runs = range(2**62 - 2, 2**62 + 2)
        for seed in (0, 2**64 - 5):
            block = run_uniforms(seed, runs.start, runs.stop, 4)
            assert block.tolist() == [[uniform(seed, run, j, 4) for j in range(4)] for run in runs]

    def test_values_lie_in_unit_interval(self):
        block = run_uniforms(7, 0, 10_000, 2)
        assert np.all(block >= 0.0) and np.all(block < 1.0)

    def test_rough_uniformity(self):
        block = run_uniforms(123, 0, 50_000, 1).ravel()
        assert abs(block.mean() - 0.5) < 0.01
        counts, _ = np.histogram(block, bins=10, range=(0, 1))
        assert np.all(np.abs(counts - 5000) < 5 * np.sqrt(5000))

    def test_disjoint_runs_disjoint_draws(self):
        a = run_uniforms(5, 0, 100, 3)
        b = run_uniforms(5, 100, 200, 3)
        assert not np.intersect1d(a.ravel(), b.ravel()).size

    def test_depends_on_seed(self):
        assert not np.array_equal(run_uniforms(1, 0, 50, 2), run_uniforms(2, 0, 50, 2))

    def test_deterministic(self):
        assert np.array_equal(run_uniforms(11, 0, 64, 4), run_uniforms(11, 0, 64, 4))


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "42", True])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValidationError):
            validate_seed(seed)

    def test_full_64_bit_range_accepted(self):
        validate_seed(0)
        validate_seed(2**64 - 1)

    def test_bad_run_range_rejected(self):
        with pytest.raises(ValidationError, match="run range"):
            run_uniforms(1, 10, 5, 2)
