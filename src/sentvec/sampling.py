"""Target subsampling and the square-root-frequency negative sampler.

Frequent words are demoted from targethood with keep probability
``min(1, sqrt(t/f) + t/f)``.  Negatives are drawn from the exact
sqrt(f_w) law over the target-eligible words with Walker's alias method,
in the table Vose's algorithm builds: n columns, each holding its own word
up to an integer threshold and an alias word above it.  A draw is one
uniform column plus one 53-bit coin; the table takes O(n) memory, and the
native kernel reads the same three arrays.  The numpy draws, the kernel's
oracle, are the numpy reference engine's ``sample_negatives``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary

__all__ = [
    "AliasTable",
    "discard_keep_prob",
    "negative_prob",
    "build_negative_table",
]

# a column's coin is uniform in [0, COIN_SCALE); COIN_BITS must equal ALIAS_COIN_BITS in _kernel.c
COIN_BITS = 53
COIN_SCALE = 1 << COIN_BITS


def discard_keep_prob(f_w, t: float):
    """Probability of keeping a word as a prediction target.

    ``f_w`` is a word's normalized corpus frequency in (0, 1], or an array
    of them, and ``t`` the subsampling hyperparameter.  Words with
    f_w <= t are always kept.  Returns a float for a scalar ``f_w``, else
    a float64 array of the same shape.
    """
    freqs = np.asarray(f_w, dtype=np.float64)
    bad = np.flatnonzero(~((freqs > 0.0) & (freqs <= 1.0)))
    if bad.size:
        raise ValueError(
            f"normalized frequency must be in (0, 1], got {freqs.flat[bad[0]]}"
        )
    if t <= 0.0:
        raise ValueError(f"subsampling parameter must be > 0, got {t}")
    ratio = t / freqs
    keep = np.minimum(1.0, np.sqrt(ratio) + ratio)
    return float(keep) if keep.ndim == 0 else keep


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


@dataclass(frozen=True)
class AliasTable:
    """Walker alias table over the target-eligible words.

    A draw picks a uniform column ``k`` and yields ``entries[k]`` when its
    coin is below ``threshold[k]`` (out of ``COIN_SCALE``), else
    ``alias[k]``.  Every column holds a distinct word with a positive
    threshold, so every eligible word has non-zero probability.
    """

    entries: np.ndarray  # int32 word id of each column
    threshold: np.ndarray  # int64 in [1, COIN_SCALE]
    alias: np.ndarray  # int32 word drawn above the threshold

    @property
    def size(self) -> int:
        return len(self.entries)


def build_negative_table(vocab: Vocabulary) -> AliasTable:
    """The alias table of the sqrt-frequency law over target-eligible words.

    Only words with count >= ``vocab.min_target_count`` participate, with
    ``negative_prob`` renormalized over them.  The table is the one Vose's
    algorithm builds: each column whose scaled mass is below 1 is filled
    from one word whose mass is at least 1, and a large column that gives
    away more than its excess is filled from the next large one.
    Cumulative sums of deficits and surpluses, matched by binary search,
    find every donor at once, in O(n log n) time without a Python loop;
    the result is deterministic given the vocabulary.
    """
    counts = vocab.counts()
    eligible = np.nonzero(vocab.target_eligible())[0]
    if eligible.size == 0:
        raise ValueError(
            f"no words with count >= min_target_count={vocab.min_target_count}"
        )
    n = eligible.size
    # column masses in fixed point, ``unit`` to a column, so that every sum
    # below is exact in int64; thresholds shift them up to COIN_SCALE.  The
    # masses' rounding residue, at most n/2 units, lands on the last large
    # column, which moves its word's probability by at most 2^-(bits + 1).
    bits = min(COIN_BITS, 62 - n.bit_length())
    unit, shift = 1 << bits, COIN_BITS - bits
    mass = np.rint(negative_prob(counts[eligible]) * n * unit).astype(np.int64)
    threshold = np.full(n, COIN_SCALE, dtype=np.int64)
    alias = np.arange(n)
    # Vose's order: the last small column first, filled by the last large one
    small = np.nonzero(mass < unit)[0][::-1]
    large = np.nonzero(mass >= unit)[0][::-1]
    deficit = np.cumsum(unit - mass[small])
    surplus = np.cumsum(mass[large] - unit)
    # a small column's donor is the first large one whose cumulative surplus
    # covers the deficits before it; past the last one, rounding residue is left
    donor = np.searchsorted(surplus, np.concatenate([[0], deficit])[:-1])
    filled = donor < large.size
    threshold[small[filled]] = mass[small[filled]] << shift
    alias[small[filled]] = large[donor[filled]]
    # a large column is overdrawn by the first small one whose cumulative
    # deficit passes its cumulative surplus; it keeps what is left of its
    # mass, and the next large column fills the rest
    over = np.searchsorted(deficit, surplus[:-1], side="right")
    spent = np.nonzero(over < small.size)[0]
    threshold[large[spent]] = (unit + surplus[spent] - deficit[over[spent]]) << shift
    alias[large[spent]] = large[spent + 1]
    # columns with no donor keep mass 1 up to that residue; a mass rounded
    # to 0 gets threshold 1, so every column stays drawable
    np.maximum(threshold, 1, out=threshold)
    entries = eligible.astype(np.int32)
    return AliasTable(entries=entries, threshold=threshold, alias=entries[alias])
