"""Deterministic stream derivation and inverse-CDF sampling.

Every random draw comes from a numpy Philox generator (counter-based,
64-bit key).  Stream keys are derived by chaining the splitmix64 finalizer
over (master_seed, index, tag), so any trial's streams can be recreated in
isolation and results never depend on execution order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "TAG_CODEBOOK",
    "TAG_PERTURB",
    "TAG_MESSAGE",
    "TAG_CHANNEL",
    "TAG_SWEEP",
    "avalanche64",
    "derive_seed",
    "derive_seeds",
    "stream",
    "StreamSeries",
    "capped_cdf",
    "sample_pmf",
    "sample_rows",
    "rows_from_uniforms",
]

MASK64 = (1 << 64) - 1

# Stream tags keep draws for different purposes statistically separate.
TAG_CODEBOOK = 1  # encoder codebook entries
TAG_PERTURB = 2   # decoder codebook perturbation
TAG_MESSAGE = 3   # message index draw
TAG_CHANNEL = 4   # channel noise
TAG_SWEEP = 5     # per-row seeds inside sweeps


def avalanche64(z):
    """splitmix64 finalizer: a bijective 64-bit avalanche.

    Takes a Python int or a uint64 array; the arithmetic wraps modulo 2^64
    alike in both.
    """
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master_seed: int, index: int = 0, tag: int = 0) -> int:
    """Mix (master_seed, index, tag) into a single 64-bit stream key."""
    h = avalanche64(master_seed & MASK64)
    h = avalanche64(h ^ (index & MASK64))
    return avalanche64(h ^ (tag & MASK64))


def derive_seeds(master_seed, indices, tags) -> np.ndarray:
    """derive_seed for every tag in tags and every index, or every master
    seed (a uint64 array), at once: row i holds tag tags[i], as uint64."""
    h = avalanche64(master_seed & MASK64)
    h = avalanche64(np.asarray(indices).astype(np.uint64) ^ h)
    return avalanche64(h ^ np.array(tags, dtype=np.uint64).reshape(-1, 1))


def stream(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


class StreamSeries:
    """Philox streams opened one after another on one bit generator.

    open(seed) rewinds the shared generator to the state stream(seed)
    starts from and returns it, at about a twentieth of the cost of
    building a new one.  Each opened stream is valid until the next open.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        # A new stream: zero counter, empty buffers.  Plain ints set faster
        # than uint64 arrays; only the key changes from one open to the next.
        self._key = [0, 0]
        self._state = self._bits.state
        self._state.update(state={"counter": [0] * 4, "key": self._key}, buffer=[0] * 4,
                           buffer_pos=4, has_uint32=0, uinteger=0)

    def open(self, seed: int) -> np.random.Generator:
        self._key[0] = seed & MASK64
        self._bits.state = self._state
        return self._gen

    def fill_random(self, keys: np.ndarray, out: np.ndarray) -> None:
        """out[i] = stream(keys[i]).random(out[i].shape) for every uint64 key."""
        for row, key in zip(out, keys.tolist()):
            self.open(key).random(out=row)


def capped_cdf(probs) -> np.ndarray:
    """Cumulative sums along the last axis, with every entry that already
    equals the row total set to +inf.

    The first such entry belongs to the last symbol whose mass the sum
    registers, and that symbol has positive mass.  Counting the entries
    <= u then never goes past it, even where the total ends just below 1
    and u lies above it; for u below the total the count is unchanged.
    """
    cdf = np.cumsum(np.asarray(probs, dtype=float), axis=-1)
    cdf[cdf == cdf[..., -1:]] = np.inf
    return cdf


def sample_pmf(rng: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """i.i.d. draws from one pmf by inverse CDF.

    Each value is #{k : cdf[k] <= u} for u ~ U[0, 1) over the cumulative
    vector in symbol order, capped as in capped_cdf; zero-mass symbols are
    never hit.
    """
    return rows_from_uniforms(capped_cdf(probs), None, rng.random(shape))


def sample_rows(
    rng: np.random.Generator, matrix: np.ndarray, given: np.ndarray
) -> np.ndarray:
    """Element-wise inverse-CDF draws from matrix[given[...]] rows.

    Uses the same counting rule as sample_pmf: value = #{k : cdf[k] <= u}
    over the row's capped cumulative vector.
    """
    given = np.asarray(given, dtype=np.int64)
    return rows_from_uniforms(capped_cdf(matrix), given, rng.random(given.shape))


def rows_from_uniforms(cdfs: np.ndarray, given, u: np.ndarray) -> np.ndarray:
    """The draws of sample_rows for given uniforms u and capped cumulative
    rows cdfs (from capped_cdf), counted one output symbol at a time.

    With given None, cdfs is the one capped cumulative vector of
    sample_pmf.  u is only read, so a caller may draw every chunk of a
    long sample into one reused buffer (Generator.random(out=...)).
    """
    if cdfs.shape[-1] == 1:  # one output symbol: every draw is 0
        return np.zeros(u.shape, dtype=np.int64)
    for k in range(cdfs.shape[-1] - 1):  # the last entry is always +inf
        col = cdfs[..., k]
        hit = (col if given is None else col.take(given)) <= u
        if k:
            out += hit
        else:
            out = hit.astype(np.int64)
    return out
