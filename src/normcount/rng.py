"""Deterministic sampling streams built on the counter-based Philox generator.

Every sampler in the package draws from ``philox_stream(seed)``.  The stream
is a pure function of the seed: candidate j always consumes the same block of
the underlying bit stream, so chunk sizes, worker counts and evaluation order
cannot change the values produced.  Rejection samplers define sample i as the
i-th accepted candidate of the stream, which keeps them deterministic as well.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

CHUNK = 8192


def philox_generator(seed: int) -> np.random.Generator:
    """Fresh Generator keyed by ``seed`` (Philox is counter based)."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def uniform_chunks(seed: int, dim: int) -> Iterator[np.ndarray]:
    """Yield (CHUNK, dim) arrays of U[0,1) draws, a fixed function of seed."""
    gen = philox_generator(seed)
    while True:
        yield gen.random((CHUNK, dim))


def box_candidates(seed: int, lo: np.ndarray, hi: np.ndarray) -> Iterator[np.ndarray]:
    """Yield chunks of uniform candidates in the axis box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    for u in uniform_chunks(seed, lo.size):
        yield lo + span * u


def rejection_sample(seed: int, lo, hi, inside, n: int) -> np.ndarray:
    """The first n candidates of ``box_candidates(seed, lo, hi)`` that
    ``inside`` accepts, in stream order; ``inside`` maps a chunk to a mask."""
    if n <= 0:
        return np.zeros((0, np.size(lo)))
    out = []
    have = 0
    for cand in box_candidates(seed, lo, hi):
        out.append(cand[inside(cand)])
        have += len(out[-1])
        if have >= n:
            break
    return np.concatenate(out)[:n]
