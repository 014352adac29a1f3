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
    "stream",
    "sample_pmf",
    "sample_rows",
]

MASK64 = (1 << 64) - 1

# Stream tags keep draws for different purposes statistically separate.
TAG_CODEBOOK = 1  # encoder codebook entries
TAG_PERTURB = 2   # decoder codebook perturbation
TAG_MESSAGE = 3   # message index draw
TAG_CHANNEL = 4   # channel noise
TAG_SWEEP = 5     # per-row seeds inside sweeps


def avalanche64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master_seed: int, index: int = 0, tag: int = 0) -> int:
    """Mix (master_seed, index, tag) into a single 64-bit stream key."""
    h = avalanche64(master_seed & MASK64)
    h = avalanche64(h ^ (index & MASK64))
    return avalanche64(h ^ (tag & MASK64))


def stream(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def _capped_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with every entry that already
    equals the row total set to +inf.

    The first such entry belongs to the last symbol whose mass the sum
    registers, and that symbol has positive mass.  Counting the entries
    <= u then never goes past it, even where the total ends just below 1
    and u lies above it; for u below the total the count is unchanged.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf[cdf == cdf[..., -1:]] = np.inf
    return cdf


def sample_pmf(rng: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """i.i.d. draws from one pmf by inverse CDF.

    Each value is #{k : cdf[k] <= u} for u ~ U[0, 1), i.e. searchsorted on
    the cumulative vector in symbol order, capped as in _capped_cdf;
    zero-mass symbols are never hit.
    """
    cdf = _capped_cdf(np.asarray(probs, dtype=float))
    u = rng.random(shape)
    return np.searchsorted(cdf, u.ravel(), side="right").reshape(shape).astype(np.int64)


def sample_rows(
    rng: np.random.Generator, matrix: np.ndarray, given: np.ndarray
) -> np.ndarray:
    """Element-wise inverse-CDF draws from matrix[given[...]] rows.

    Uses the same counting rule as sample_pmf: value = #{k : cdf[k] <= u}
    over the row's capped cumulative vector.
    """
    cdfs = _capped_cdf(np.asarray(matrix, dtype=float))
    given = np.asarray(given, dtype=np.int64)
    u = rng.random(given.shape)
    return (cdfs[given] <= u[..., None]).sum(axis=-1).astype(np.int64)
