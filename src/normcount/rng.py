"""Deterministic sampling streams built on the counter-based Philox generator.

Every sampler in the package draws from ``philox_generator(seed)``.  The stream
is a pure function of the seed: candidate j always consumes the same block of
the underlying bit stream, so chunk sizes, worker counts and evaluation order
cannot change the values produced.

Every rejection sampler goes through one accept loop, ``rejection_sample``:
it returns the first n candidates of the stream that a body accepts, so
sample i is the i-th accepted candidate and is deterministic as well.
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


def rejection_sample(seed: int, lo, hi, inside, n: int) -> np.ndarray:
    """The first n candidates lo + (hi - lo) * u, uniform in the axis box
    [lo, hi], that ``inside`` accepts, in stream order, for the rows u of
    ``philox_generator(seed)``'s U[0,1) stream.  ``inside`` maps a chunk to
    a mask and sees each candidate once, in order.  A chunk holds
    min(CHUNK, 2*(n - have)/rate + 64) rows, with have the number accepted
    so far and rate the fraction of the rows drawn so far that were
    accepted (1 for the first chunk, 0 until one is), so few candidates
    past the n-th are drawn and a thin body takes few chunks."""
    require_count(n)
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    gen = philox_generator(seed)
    kept = [np.zeros((0, lo.size))]
    drawn = have = 0
    while have < n:
        per_hit = drawn / have if have else (CHUNK if drawn else 1)  # 1/rate
        cand = lo + span * gen.random((min(CHUNK, int(2 * (n - have) * per_hit) + 64),
                                       lo.size))
        drawn += len(cand)
        kept.append(cand[inside(cand)][:n - have])
        have += len(kept[-1])
    return np.concatenate(kept)
