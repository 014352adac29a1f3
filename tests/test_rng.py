"""Seed derivation and inverse-CDF sampling.

The derived-seed values pinned here are load-bearing: every seeded
artifact (codebooks, trial outcomes, CSV files) depends on this exact
chain, so a change that shifts any of these constants silently breaks
reproducibility of previously published runs.
"""

import numpy as np
import pytest

from asymcap.rng import (
    MASK64,
    TAG_CHANNEL,
    TAG_CODEBOOK,
    TAG_MESSAGE,
    TAG_PERTURB,
    TAG_SWEEP,
    StreamSeries,
    avalanche64,
    capped_cdf,
    derive_seed,
    derive_seeds,
    rows_from_uniforms,
    sample_pmf,
    sample_rows,
    stream,
)

from gates import TRAILING_ZERO_PMF, TopDraws, check_top_draw_skips_zero_mass


def _scalar_mix(z: int) -> int:
    """Independent restatement of the 64-bit finalizer used by derive_seed."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class TestDeriveSeed:
    def test_matches_scalar_chain(self):
        for master, index, tag in [(0, 0, 0), (1, 2, 3), (2**63, 17, TAG_SWEEP)]:
            h = _scalar_mix(master & MASK64)
            h = _scalar_mix(h ^ index)
            h = _scalar_mix(h ^ tag)
            assert derive_seed(master, index, tag) == h

    def test_in_64_bit_range(self):
        for m in (0, 1, 2**64 - 1, -1 & MASK64):
            s = derive_seed(m, 123456789, TAG_CHANNEL)
            assert 0 <= s <= MASK64

    def test_distinct_across_tags(self):
        tags = (TAG_CODEBOOK, TAG_PERTURB, TAG_MESSAGE, TAG_CHANNEL, TAG_SWEEP)
        seeds = {derive_seed(42, 7, t) for t in tags}
        assert len(seeds) == len(tags)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(42, i, TAG_CODEBOOK) for i in range(1000)}
        assert len(seeds) == 1000

    def test_avalanche_changes_roughly_half_the_bits(self):
        flips = bin(avalanche64(1000) ^ avalanche64(1001)).count("1")
        assert 10 <= flips <= 54


class TestDeriveSeeds:
    def test_matches_scalar_over_indices(self):
        idx = np.array([0, 1, 7, 2**40, 2**63 - 1], dtype=np.int64)
        tags = (TAG_MESSAGE, TAG_CHANNEL)
        got = derive_seeds(2**64 - 5, idx, tags)
        assert got.dtype == np.uint64
        assert got.tolist() == [[derive_seed(2**64 - 5, int(i), t) for i in idx] for t in tags]

    def test_matches_scalar_over_master_seeds(self):
        masters = np.array([0, 1, 2**63, MASK64], dtype=np.uint64)
        got = derive_seeds(masters, 0, (TAG_PERTURB,))
        assert got.tolist() == [[derive_seed(int(m), 0, TAG_PERTURB) for m in masters]]

    def test_negative_master_seed_wraps_like_derive_seed(self):
        assert derive_seeds(-3, np.arange(3), (TAG_CODEBOOK,)).tolist() == [
            [derive_seed(-3, i, TAG_CODEBOOK) for i in range(3)]
        ]


def _native(key):
    return np.random.Generator(np.random.Philox(key=key))


# Random 64-bit stream keys, including both ends of the range.
PHILOX_KEYS = np.concatenate([
    np.random.Generator(np.random.PCG64(2024)).integers(0, MASK64, 40, dtype=np.uint64,
                                                         endpoint=True),
    np.array([0, 1, MASK64], dtype=np.uint64),
])


class TestPhiloxDraws:
    """Per-trial draws as the trial kernel makes them: one StreamSeries
    opened key after key, against a new native Philox generator per key."""

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 37, 200])
    def test_uniforms_match_native_random(self, n):
        u = np.empty((PHILOX_KEYS.size, n))
        StreamSeries().fill_random(PHILOX_KEYS, u)
        want = np.stack([_native(int(k)).random(n) for k in PHILOX_KEYS])
        np.testing.assert_array_equal(u, want)

    @pytest.mark.parametrize("M", [1, 2, 3, 1000, 2**26 - 1, 3 * 2**30])
    def test_indices_match_native_integers(self, M):
        # With M = 3 * 2^30 about a quarter of the first 32-bit draws are
        # rejected, so a draw may use further words; the next open must not
        # see any of them.
        keys = np.concatenate([PHILOX_KEYS] * (3 if M == 3 * 2**30 else 1))
        keys = derive_seeds(keys, np.arange(keys.size) % 3, (TAG_MESSAGE,))[0]
        series = StreamSeries()
        got = [int(series.open(k).integers(M)) for k in keys.tolist()]
        assert got == [int(_native(k).integers(M)) for k in keys.tolist()]

    def test_messages_and_channel_in_one_pass(self):
        series = StreamSeries()
        msg_keys, chan_keys = PHILOX_KEYS[:5].tolist(), PHILOX_KEYS[5:8]
        w = [int(series.open(k).integers(16)) for k in msg_keys]
        u = np.empty((3, 37))
        series.fill_random(chan_keys, u)
        assert w == [int(_native(k).integers(16)) for k in msg_keys]
        np.testing.assert_array_equal(u, [_native(int(k)).random(37) for k in chan_keys])


class TestStreamSeries:
    def test_each_open_starts_like_a_new_stream(self):
        series = StreamSeries()
        for k in PHILOX_KEYS[:10].tolist():
            # random() leaves a partial block, an odd float32 count half a word
            np.testing.assert_array_equal(
                series.open(k).random(3, dtype=np.float32), _native(k).random(3, dtype=np.float32)
            )
            assert series.open(k).integers(3) == _native(k).integers(3)
            np.testing.assert_array_equal(series.open(k).random(7), _native(k).random(7))
            out = np.empty((2, 3))
            series.open(k).random(out=out)
            np.testing.assert_array_equal(out, _native(k).random((2, 3)))
        out = np.empty((4, 2, 5))
        series.fill_random(PHILOX_KEYS[:4], out)
        np.testing.assert_array_equal(out, [_native(int(k)).random((2, 5)) for k in PHILOX_KEYS[:4]])


class TestStream:
    def test_deterministic(self):
        a = stream(99).random(16)
        b = stream(99).random(16)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        assert not np.array_equal(stream(1).random(8), stream(2).random(8))


class TestSamplePmf:
    def test_counting_rule_against_scalar(self):
        probs = np.array([0.25, 0.25, 0.5])
        got = sample_pmf(stream(7), probs, (200,))
        cdf = np.cumsum(probs)
        u = stream(7).random((200,))
        expected = [min(sum(1 for c in cdf if c <= ui), 2) for ui in u.ravel()]
        np.testing.assert_array_equal(got, expected)

    def test_zero_mass_symbols_never_drawn(self):
        vals = sample_pmf(stream(3), np.array([0.0, 1.0, 0.0]), (500,))
        assert set(np.unique(vals)) == {1}

    def test_shape_and_dtype(self):
        vals = sample_pmf(stream(1), np.array([0.5, 0.5]), (4, 5))
        assert vals.shape == (4, 5) and vals.dtype == np.int64

    def test_frequencies_concentrate(self):
        probs = np.array([0.2, 0.3, 0.5])
        n = 40000
        vals = sample_pmf(stream(12), probs, (n,))
        freq = np.bincount(vals, minlength=3) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3.5 * sigma)


class TestRowsFromUniforms:
    def test_vector_cdf_counts_like_searchsorted(self):
        probs = np.array([0.1, 0.0, 0.6, 0.3])
        cdf = capped_cdf(probs)
        u = stream(4).random((50, 3))
        want = np.searchsorted(cdf, u, side="right")
        np.testing.assert_array_equal(rows_from_uniforms(cdf, None, u), want)
        np.testing.assert_array_equal(sample_pmf(stream(4), probs, (50, 3)), want)

    @staticmethod
    def brute(cdfs, given, u):
        """sum_k [cdf[given, k] <= u], one draw at a time."""
        rows = cdfs[None] if given is None else cdfs
        idx = np.zeros(u.shape, dtype=np.int64) if given is None else np.asarray(given)
        out = np.zeros(u.shape, dtype=np.int64)
        for pos in np.ndindex(u.shape):
            out[pos] = sum(int(c <= u[pos]) for c in rows[idx[pos]])
        return out

    def check(self, cdfs, given, u):
        got = rows_from_uniforms(cdfs, given, u)
        assert got.dtype == np.int64 and got.shape == u.shape
        np.testing.assert_array_equal(got, self.brute(cdfs, given, u))

    def test_one_output_symbol_gives_int64_zeros(self):
        u = stream(1).random((4, 3))
        for cdfs, given in ((capped_cdf([1.0]), None),
                            (capped_cdf([[1.0], [1.0]]), np.array([[0, 1, 1]] * 4))):
            got = rows_from_uniforms(cdfs, given, u)
            assert got.dtype == np.int64 and got.shape == u.shape
            assert not got.any()

    def test_zero_size_uniforms(self):
        u = np.empty((0, 2))
        self.check(capped_cdf([0.2, 0.8]), None, u)
        self.check(capped_cdf([[0.2, 0.8], [0.5, 0.5]]), np.empty((0, 2), dtype=np.int64), u)

    @pytest.mark.parametrize("probs", [[0.3, 0.0, 0.2, 0.5], [0.0, 0.25, 0.25, 0.0, 0.5],
                                       [0.1, 0.2, 0.3, 0.4]])
    def test_vector_with_zero_mass_symbols(self, probs):
        u = stream(5).random((7, 9))
        u[0, :3] = [0.0, 0.3, 1.0 - 2.0**-53]  # the bottom, a cdf step and the top draw
        self.check(capped_cdf(probs), None, u)

    def test_rows_with_zero_mass_symbols(self):
        matrix = np.array([[0.3, 0.0, 0.2, 0.5], [0.0, 0.0, 1.0, 0.0],
                           [0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]])
        u = stream(6).random((6, 11))
        given = stream(7).integers(4, size=u.shape)
        self.check(capped_cdf(matrix), given, u)

    def test_rows_of_three_symbols_keep_the_shape_of_u(self):
        matrix = np.array([[0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])
        u = stream(8).random((3, 4, 5))
        given = stream(9).integers(2, size=u.shape)
        self.check(capped_cdf(matrix), given, u)

    def test_out_of_range_given_raises(self):
        cdfs = capped_cdf(np.array([[0.5, 0.5], [0.1, 0.9]]))
        with pytest.raises(IndexError):
            rows_from_uniforms(cdfs, np.array([0, 2]), np.array([0.1, 0.2]))


class TestSampleRows:
    def test_matches_per_row_scalar_rule(self):
        matrix = np.array([[0.7, 0.3], [0.1, 0.9]])
        given = np.array([[0, 1, 1], [1, 0, 0]])
        got = sample_rows(stream(21), matrix, given)
        u = stream(21).random(given.shape)
        cdfs = np.cumsum(matrix, axis=1)
        expected = np.zeros_like(given)
        for i in range(given.shape[0]):
            for j in range(given.shape[1]):
                cdf = cdfs[given[i, j]]
                expected[i, j] = min(sum(1 for c in cdf if c <= u[i, j]), 1)
        np.testing.assert_array_equal(got, expected)

    def test_identity_matrix_copies_input(self):
        given = np.array([0, 1, 0, 1, 1])
        out = sample_rows(stream(5), np.eye(2), given)
        np.testing.assert_array_equal(out, given)

    def test_binomial_concentration(self):
        # disagreement frequency of a symmetric flip concentrates at p
        p = 0.2
        matrix = np.array([[1 - p, p], [p, 1 - p]])
        given = sample_pmf(stream(8), np.array([0.5, 0.5]), (64, 32))
        out = sample_rows(stream(9), matrix, given)
        frac = float((out != given).mean())
        sigma = np.sqrt(p * (1 - p) / given.size)
        assert abs(frac - p) < 3 * sigma


class TestTopDrawNeverHitsZeroMass:
    def test_cumulative_sum_ends_below_one(self):
        assert np.cumsum(TRAILING_ZERO_PMF)[-1] <= 1.0 - 2.0**-53

    def test_sample_pmf(self):
        check_top_draw_skips_zero_mass()

    def test_sample_rows(self):
        matrix = np.array([TRAILING_ZERO_PMF, [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.5, 0.0]])
        vals = sample_rows(TopDraws(), matrix, np.array([0, 1, 2, 0]))
        np.testing.assert_array_equal(vals, [2, 3, 2, 2])
