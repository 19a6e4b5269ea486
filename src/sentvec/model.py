"""Parameter matrices, the masked context, and the per-target SGD step.

A sentence vector is the arithmetic mean of the source rows of its
feature list (unigrams plus hashed n-grams, duplicates counted).  One
training step scores the held-out target word and a handful of sampled
negatives against the masked sentence vector under the binary logistic
loss, then applies plain SGD updates to the touched rows, optionally
followed by an L1 proximal (soft-thresholding) step.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
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

logger = logging.getLogger(__name__)

# values per piece of the initial source rows that one worker fills at a time
# (4 MiB of float32): a paper-shaped matrix of 1.4G values has 1,335 pieces
INIT_PIECE_VALUES = 1 << 20

# float64 draws per block of the numpy draw (2 MiB of temporaries)
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
        cls, vocab_size: int, buckets: int, dim: int, rng: np.random.Generator
    ) -> "EmbeddingMatrices":
        """Source rows uniform in [-1/(2*dim), 1/(2*dim)], target rows zero.

        The values equal one ``rng.uniform`` draw of the whole matrix cast
        to float32, and ``rng`` ends in the state that draw leaves.  With a
        PCG64 generator (``np.random.default_rng``'s), the matrix is filled
        in pieces of ``INIT_PIECE_VALUES`` values, which one worker per CPU
        of the process's affinity mask, at most one per piece, takes from a
        shared iterator; each worker pins itself to its CPU.  Each piece
        draws from a copy of ``rng`` advanced past the values before it: a
        double draw takes exactly one 64-bit output, so the matrix is the
        same for any CPU count.  The engine's ``fill_uniform`` fills a
        piece: the kernel steps PCG64 and rounds as numpy does, and the
        numpy reference draws it in blocks of float64 temporaries.  Other
        generators draw with numpy on the calling thread.  Logs the time,
        the workers, the pieces and how many workers were pinned.
        """
        started = time.perf_counter()
        bound = 1.0 / (2.0 * dim)
        rows = vocab_size + buckets
        source = np.empty((rows, dim), dtype=np.float32)
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            _fill_rows(source, -bound, bound, rng)
            label, pieces, workers, pinned = "numpy", 1, 1, 0
        else:
            from . import _native

            engine = _native.engine()
            label, state, flat = engine.label, bits.state, source.reshape(-1)
            firsts = range(0, flat.size, INIT_PIECE_VALUES)
            shared = iter(firsts)
            cpus = _cpus()
            pieces, workers = len(firsts), max(1, min(len(cpus), len(firsts)))

            def fill_pieces(w: int) -> None:
                copy = np.random.PCG64()
                for first in shared:  # next() of a range iterator holds the GIL
                    copy.state = state
                    copy.advance(first)
                    piece = flat[first : first + INIT_PIECE_VALUES]
                    engine.fill_uniform(piece, copy.state, -bound, bound)

            pinned = run_workers(fill_pieces, workers, cpus)
            bits.advance(rows * dim)
            # advance() drops a buffered 32-bit half, which double draws keep
            bits.state = {
                **bits.state,
                "has_uint32": state["has_uint32"],
                "uinteger": state["uinteger"],
            }
        logger.info(
            "initialized %d x %d source rows in %.0f ms (%s, %s on %s, %d pinned)",
            rows, dim, 1e3 * (time.perf_counter() - started), label,
            _count(pieces, "piece"), _count(workers, "worker"), pinned,
        )
        return cls(
            source=source,
            target=np.zeros((vocab_size, dim), dtype=np.float32),
            dim=dim,
        )


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}{'' if n == 1 else 's'}"


def _cpus() -> list[int]:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def run_workers(work, workers: int, cpus: list[int] | None = None) -> int:
    """Run ``work(w)`` for each worker ``w`` below ``workers`` and re-raise the first error.

    One worker runs on the calling thread; more run on as many new threads,
    and with ``cpus`` worker w first pins its thread to ``cpus[w]``, running
    unpinned where the OS refuses or has no pinning.  The caller's own
    affinity never changes.  Returns how many workers were pinned.  Plain
    threads, not ``concurrent.futures``, whose import takes 3.5-8.7 ms
    (``python -X importtime``, 2-vCPU x86-64): a whole ``train`` of the
    benchmark's ``train-uni-1t`` takes 40-60 ms.
    """
    if workers == 1:
        work(0)
        return 0
    pinned = [False] * workers
    errors: list[BaseException | None] = [None] * workers

    def run(w: int) -> None:
        try:
            if cpus is not None:
                try:
                    os.sched_setaffinity(threading.get_native_id(), {cpus[w]})
                    pinned[w] = True
                except (AttributeError, OSError):
                    pass
            work(w)
        except BaseException as err:  # re-raised on the calling thread
            errors[w] = err

    threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
    finally:
        for thread in started:
            thread.join()
    for err in errors:
        if err is not None:
            raise err
    return sum(pinned)


def _fill_rows(rows: np.ndarray, low: float, high: float, rng: np.random.Generator) -> None:
    """Draws the C-contiguous ``rows`` uniform in [low, high) in place, in blocks of
    ``INIT_BLOCK_VALUES`` float64 temporaries."""
    flat = rows.reshape(-1)
    for first in range(0, flat.size, INIT_BLOCK_VALUES):
        block = flat[first : first + INIT_BLOCK_VALUES]
        block[:] = rng.uniform(low, high, size=len(block))


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
