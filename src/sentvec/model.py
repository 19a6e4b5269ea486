"""Parameter matrices, the masked context, and the per-target SGD step.

A sentence vector is the arithmetic mean of the source rows of its
feature list (unigrams plus hashed n-grams, duplicates counted).  One
training step scores the held-out target word and a handful of sampled
negatives against the masked sentence vector under the binary logistic
loss, then applies plain SGD updates to the touched rows, optionally
followed by an L1 proximal (soft-thresholding) step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmbeddingMatrices",
    "StepOutcome",
    "logistic_loss",
    "sigmoid",
    "masked_context",
    "train_step",
    "ngram_dropout",
    "lr_schedule",
    "l1_prox",
    "apply_l1_after_step",
]

# float64 draws per block when initializing source rows (2 MiB of temporaries)
INIT_BLOCK_VALUES = 1 << 18

# relative learning-rate floor; keeps late updates alive when the shared
# progress counter overshoots in parallel runs
LR_FLOOR_FRACTION = 1e-5


def logistic_loss(x):
    """Binary logistic loss log(1 + exp(-x)), numerically stable for any x.

    Evaluates log1p(exp(-|x|)) + max(-x, 0), which equals log1p(exp(-x))
    for x >= 0 and -x + log1p(exp(x)) otherwise, without overflow.
    Accepts scalars or arrays.
    """
    x = np.asarray(x)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(-x, 0.0)


def sigmoid(x):
    """Logistic function, overflow-safe on both tails."""
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


@dataclass
class EmbeddingMatrices:
    """Source rows (vocab then buckets) and target rows for scoring.

    ``source`` has shape (vocab_size + buckets, dim): unigram rows first,
    bucket rows after.  ``target`` has shape (vocab_size, dim).  Shapes
    are fixed at construction; training mutates entries in place.
    """

    source: np.ndarray
    target: np.ndarray
    dim: int

    @classmethod
    def initialize(
        cls,
        vocab_size: int,
        buckets: int,
        dim: int,
        rng: np.random.Generator,
        workers: int = 1,
    ) -> "EmbeddingMatrices":
        """Source rows uniform in [-1/(2*dim), 1/(2*dim)], target rows zero.

        The values equal one ``rng.uniform`` draw of the whole matrix cast
        to float32, and ``rng`` ends in the state that draw leaves.  With a
        PCG64 generator (``np.random.default_rng``'s), the rows are split
        into ``workers`` contiguous slabs, drawn on as many threads when
        there are several.  Each slab draws from a copy of ``rng`` advanced
        past the values before it: a double draw takes exactly one 64-bit
        output, so the matrix is the same for any worker count.  The
        engine's ``fill_uniform`` fills a slab: the kernel steps PCG64 and
        rounds as numpy does, and the numpy reference draws it in blocks of
        float64 temporaries.  Other generators draw with numpy on one thread.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        bound = 1.0 / (2.0 * dim)
        rows = vocab_size + buckets
        source = np.empty((rows, dim), dtype=np.float32)
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            _fill_rows(source, -bound, bound, rng)
        else:
            from . import _native

            fill = _native.engine().fill_uniform
            state = bits.state
            slabs = [rows * w // workers for w in range(workers + 1)]

            def fill_slab(w: int) -> None:
                copy = np.random.PCG64()
                copy.state = state
                copy.advance(slabs[w] * dim)
                fill(source[slabs[w] : slabs[w + 1]], copy.state, -bound, bound)

            if workers == 1:
                # inline for the reason ``trainer.train`` runs one thread inline: the
                # import of concurrent.futures (3.5-8.7 ms) would cost a short train
                # several percent
                fill_slab(0)
            else:
                from concurrent.futures import ThreadPoolExecutor

                # the kernel, and numpy's ``uniform`` and float32 cast, release the GIL
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    list(pool.map(fill_slab, range(workers)))
            bits.advance(rows * dim)
            # advance() drops a buffered 32-bit half, which double draws keep
            bits.state = {
                **bits.state,
                "has_uint32": state["has_uint32"],
                "uinteger": state["uinteger"],
            }
        return cls(
            source=source,
            target=np.zeros((vocab_size, dim), dtype=np.float32),
            dim=dim,
        )


def _fill_rows(rows: np.ndarray, low: float, high: float, rng: np.random.Generator) -> None:
    """Draws ``rows`` uniform in [low, high) in place, in blocks of float64 temporaries."""
    n_rows, dim = rows.shape
    block = max(1, INIT_BLOCK_VALUES // dim)
    for first in range(0, n_rows, block):
        last = min(n_rows, first + block)
        rows[first:last] = rng.uniform(low, high, size=(last - first, dim))


@dataclass
class StepOutcome:
    """Instrumentation of one SGD step.

    The touched-row lists are duplicate-free; the touch counts include
    multiplicity (one per feature occurrence / scored term) and therefore
    measure the per-step floating-point work.
    """

    loss: float
    touched_source_rows: list[int]
    touched_target_rows: list[int]
    source_touch_count: int
    target_touch_count: int


def masked_context(ids, grams, spans, pos: int, dropped=None) -> np.ndarray:
    """Source rows of a sentence with the target at ``pos`` held out.

    ``grams`` and ``spans`` are the sentence's n-grams as
    ``corpus.sentence_ngrams`` returns them.  Drops the unigram occurrence
    at ``pos`` (other occurrences of the same word stay), every n-gram
    whose span covers ``pos`` and every n-gram flagged in ``dropped``.
    """
    ids = np.asarray(ids)
    keep = (spans[:, 0] > pos) | (spans[:, 1] < pos)
    if dropped is not None:
        keep &= dropped == 0
    return np.concatenate([ids[:pos], ids[pos + 1 :], grams[keep]])


def train_step(
    ids,
    grams,
    spans,
    pos: int,
    negatives,
    lr: float,
    matrices: EmbeddingMatrices,
    dropped=None,
) -> StepOutcome | None:
    """One SGD step on a single (sentence, target) pair.

    The sentence is given as in ``masked_context``.  Scores the target
    and each negative against the masked sentence vector v.  With
    g = sigmoid(score) - label, each scored target row receives
    ``u -= lr * g * v`` and every source row in the masked context
    receives ``v_row -= lr * grad_v / context_size`` where ``grad_v``
    accumulates g-weighted pre-update target rows.

    Returns None when the masked context is empty (a skipped step, as for
    one-token sentences), otherwise the loss and touched rows.  The loss
    is accumulated in 64-bit regardless of the parameter dtype.
    """
    context = masked_context(ids, grams, spans, pos, dropped)
    if len(context) == 0:
        return None
    source, target_mat = matrices.source, matrices.target

    ctx_rows = source[context]
    v = ctx_rows.mean(axis=0)

    scored = np.empty(1 + len(negatives), dtype=np.int64)
    scored[0] = ids[pos]
    scored[1:] = negatives
    u_rows = target_mat[scored]
    scores = u_rows @ v

    coeff = sigmoid(scores)
    coeff[0] -= 1.0

    signed = -scores.astype(np.float64)
    signed[0] = -signed[0]
    loss = math.fsum(logistic_loss(signed))

    grad_v = coeff @ u_rows  # pre-update target rows

    uniq_scored = np.unique(scored)
    step = (lr * coeff)[:, np.newaxis] * v
    if len(uniq_scored) == len(scored):
        target_mat[scored] -= step
    else:
        # duplicate negatives each contribute their own gradient term
        np.subtract.at(target_mat, scored, step)

    uniq_context = np.unique(context)
    delta = (lr / len(context)) * grad_v
    if len(uniq_context) == len(context):
        source[context] -= delta
    else:
        # repeated words in the context are updated once per occurrence
        np.subtract.at(source, context, delta[np.newaxis, :])

    return StepOutcome(
        loss=loss,
        touched_source_rows=uniq_context.tolist(),
        touched_target_rows=uniq_scored.tolist(),
        source_touch_count=len(context),
        target_touch_count=len(scored),
    )


def ngram_dropout(n_grams: int, k: int, rng: np.random.Generator) -> np.ndarray | None:
    """Flags dropping min(k, ``n_grams``) n-grams uniformly without replacement.

    Returns a uint8 mask over the n-grams (1 = dropped), as the kernel
    takes it, or None when there is nothing to drop.
    """
    if k < 0:
        raise ValueError(f"dropout count must be >= 0, got {k}")
    if k == 0 or n_grams == 0:
        return None
    dropped = np.zeros(n_grams, dtype=np.uint8)
    dropped[rng.choice(n_grams, size=min(k, n_grams), replace=False)] = 1
    return dropped


def lr_schedule(base_lr: float, progress: float) -> float:
    """Linearly decaying learning rate with a small floor.

    ``progress`` is the fraction of expected target updates already
    processed, clamped into [0, 1]; the rate never drops below
    ``1e-5 * base_lr``.
    """
    progress = min(1.0, max(0.0, progress))
    return max(base_lr * (1.0 - progress), LR_FLOOR_FRACTION * base_lr)


def l1_prox(x, threshold: float):
    """Elementwise soft-thresholding sign(x) * max(|x| - threshold, 0)."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def apply_l1_after_step(
    outcome: StepOutcome,
    tau: float,
    lr: float,
    context_size: int,
    matrices: EmbeddingMatrices,
) -> None:
    """Proximal L1 step on the rows touched by one SGD step, in place.

    Source rows are thresholded with ``tau * lr / context_size`` and
    target rows with ``tau * lr``.  A ``tau`` of zero is a no-op.
    """
    if tau == 0.0:
        return
    src = outcome.touched_source_rows
    tgt = outcome.touched_target_rows
    source, target = matrices.source, matrices.target
    source[src] = l1_prox(source[src], tau * lr / context_size)
    target[tgt] = l1_prox(target[tgt], tau * lr)
