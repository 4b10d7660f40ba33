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

from numbers import Integral

import numpy as np

from .errors import DomainError

CHUNK = 8192


def require_count(n, least: int = 0) -> None:
    """The one rule for sample counts: an integer of at least ``least``."""
    if not isinstance(n, Integral) or n < least:
        raise DomainError(f"sample count must be an integer >= {least}, got {n!r}")


def philox_generator(seed: int) -> np.random.Generator:
    """Fresh Generator keyed by ``seed`` (Philox is counter based)."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def accept_prefix(seed: int, lo, hi, inside, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates lo + (hi - lo) * u, uniform in the axis box [lo, hi],
    for the rows u of ``philox_generator(seed)``'s U[0,1) stream, up to and
    including the n-th that ``inside`` accepts, and the accept mask over
    them.  ``inside`` maps a chunk to a mask and sees each candidate once,
    in order.  A chunk holds min(CHUNK, 2*(n - have)/rate + 64) rows, with
    have the number accepted so far and rate the fraction of the rows drawn
    so far that were accepted (1 for the first chunk, 0 until one is), so
    few candidates past the n-th are drawn and a thin body takes few
    chunks."""
    require_count(n)
    lo = np.asarray(lo, dtype=float)
    if n == 0:
        return np.zeros((0, lo.size)), np.zeros(0, dtype=bool)
    span = np.asarray(hi, dtype=float) - lo
    gen = philox_generator(seed)
    chunks, masks = [], []
    drawn = have = 0
    while have < n:
        per_hit = drawn / have if have else (CHUNK if drawn else 1)  # 1/rate
        cand = lo + span * gen.random((min(CHUNK, int(2 * (n - have) * per_hit) + 64),
                                       lo.size))
        drawn += len(cand)
        ok = inside(cand)
        hits = np.flatnonzero(ok)
        if have + len(hits) >= n:
            stop = hits[n - have - 1] + 1
            cand, ok = cand[:stop], ok[:stop]
        have += len(hits)
        chunks.append(cand)
        masks.append(ok)
    return np.concatenate(chunks), np.concatenate(masks)


def rejection_sample(seed: int, lo, hi, inside, n: int) -> np.ndarray:
    """The candidates of ``accept_prefix`` that ``inside`` accepts: the
    first n of the stream, in stream order."""
    cand, ok = accept_prefix(seed, lo, hi, inside, n)
    return cand[ok]
