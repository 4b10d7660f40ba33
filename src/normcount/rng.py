"""Deterministic sampling streams built on the counter-based Philox generator.

Every sampler in the package draws from ``philox_generator(seed)``.  The stream
is a pure function of the seed: candidate j always consumes the same block of
the underlying bit stream, so chunk sizes, worker counts and evaluation order
cannot change the values produced.

Every rejection sampler goes through one accept loop, ``accept_prefix``: it
returns the candidates of the stream up to the n-th one accepted, with the
accept mask, so sample i is the i-th accepted candidate and is deterministic
as well.  ``rejection_sample`` keeps the accepted ones; the coupled flow pool
keeps the whole prefix and tests it against several bodies.
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


def accept_prefix(seed: int, lo, hi, inside, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of ``box_candidates(seed, lo, hi)`` up to and including
    the n-th that ``inside`` accepts, and the accept mask over them;
    ``inside`` maps a chunk to a mask and sees each chunk once, in order."""
    if n <= 0:
        return np.zeros((0, np.size(lo))), np.zeros(0, dtype=bool)
    chunks, masks = [], []
    have = 0
    for cand in box_candidates(seed, lo, hi):
        ok = inside(cand)
        hits = np.flatnonzero(ok)
        if have + len(hits) >= n:
            stop = hits[n - have - 1] + 1
            chunks.append(cand[:stop])
            masks.append(ok[:stop])
            break
        have += len(hits)
        chunks.append(cand)
        masks.append(ok)
    return np.concatenate(chunks), np.concatenate(masks)


def rejection_sample(seed: int, lo, hi, inside, n: int) -> np.ndarray:
    """The first n candidates of ``box_candidates(seed, lo, hi)`` that
    ``inside`` accepts, in stream order."""
    cand, ok = accept_prefix(seed, lo, hi, inside, n)
    return cand[ok]
