"""Target subsampling and the square-root-frequency negative sampler.

Frequent words are demoted from targethood with keep probability
``min(1, sqrt(t/f) + t/f)``; negatives are drawn from a pre-computed flat
table whose per-word multiplicities are proportional to sqrt(f_w), giving
O(1) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary

__all__ = [
    "NegativeTable",
    "discard_keep_prob",
    "negative_prob",
    "build_negative_table",
    "sample_negatives",
]

DEFAULT_TABLE_SIZE = 10_000_000


def discard_keep_prob(f_w: float, t: float) -> float:
    """Probability of keeping a word as a prediction target.

    ``f_w`` is the word's normalized corpus frequency in (0, 1] and ``t``
    the subsampling hyperparameter.  Words with f_w <= t are always kept.
    """
    if not 0.0 < f_w <= 1.0:
        raise ValueError(f"normalized frequency must be in (0, 1], got {f_w}")
    if t <= 0.0:
        raise ValueError(f"subsampling parameter must be > 0, got {t}")
    ratio = t / f_w
    return min(1.0, math.sqrt(ratio) + ratio)


def negative_prob(counts) -> np.ndarray:
    """Negative-sampling distribution: probability proportional to sqrt(count).

    Returns a float64 vector summing to 1; strictly monotone in counts.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        raise ValueError("empty vocabulary")
    if np.any(counts <= 0):
        raise ValueError("all counts must be > 0")
    weights = np.sqrt(counts)
    return weights / weights.sum()


@dataclass
class NegativeTable:
    """Flat array of word ids with multiplicities realizing the negative distribution."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return len(self.entries)


def build_negative_table(
    vocab: Vocabulary,
    table_size: int = DEFAULT_TABLE_SIZE,
    min_target_count: int | None = None,
) -> NegativeTable:
    """Pre-compute the flat sampling table over target-eligible words.

    Only words with count >= ``min_target_count`` (defaulting to the
    vocabulary's threshold) participate; each receives
    ``max(1, round(p * table_size))`` slots with ``p`` renormalized over
    the eligible set.  Entries are grouped by word; draws pick uniform
    indices, so their order does not change the law.  Construction is
    deterministic given (vocab, table_size).
    """
    if min_target_count is None:
        min_target_count = vocab.min_target_count
    counts = vocab.counts()
    eligible = np.nonzero(counts >= min_target_count)[0]
    if eligible.size == 0:
        raise ValueError(
            f"no words with count >= min_target_count={min_target_count}"
        )
    if table_size < eligible.size:
        raise ValueError(
            f"table_size={table_size} smaller than {eligible.size} eligible words"
        )
    probs = negative_prob(counts[eligible])
    # round half up; every eligible word keeps at least one slot
    slots = np.maximum(1, np.floor(probs * table_size + 0.5).astype(np.int64))
    return NegativeTable(entries=np.repeat(eligible.astype(np.int32), slots))


def sample_negatives(
    table: NegativeTable,
    target: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` negative word ids uniformly from the table, excluding the target.

    Collisions with the target are rejected and redrawn; duplicates among
    the negatives are permitted.  Raises ``ValueError`` if the table holds
    nothing but the target.
    """
    entries = table.entries
    out = entries[rng.integers(0, len(entries), size=count)]
    retry = out == target
    attempts = 0
    while retry.any():
        out[retry] = entries[rng.integers(0, len(entries), size=int(retry.sum()))]
        retry = out == target
        attempts += 1
        if attempts >= 64 and not (entries != target).any():
            raise ValueError("negative table contains only the target word")
    return out
