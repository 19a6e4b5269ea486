"""Parameter matrices, their initial draw, and the worker-thread helper.

Source rows hold the unigram vectors, then the hashed n-gram buckets;
target rows score the held-out word and its negatives.  The engine's
``train_chunk`` trains them in place; the numpy per-step oracle it
mirrors lives in the numpy reference engine.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["EmbeddingMatrices"]

logger = logging.getLogger(__name__)

# values per piece of the initial source rows that one worker fills at a time
# (4 MiB of float32): a paper-shaped matrix of 1.4G values has 1,335 pieces
INIT_PIECE_VALUES = 1 << 20


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

        ``rng`` must be a PCG64 generator (``np.random.default_rng``'s); any
        other bit generator raises ``ValueError`` before the matrix is
        allocated, and its caller builds ``EmbeddingMatrices(source=...,
        target=..., dim=...)`` from its own draw.  The values equal one
        ``rng.uniform`` draw of the whole matrix cast to float32, and ``rng``
        ends in the state that draw leaves.  The matrix is filled in pieces
        of ``INIT_PIECE_VALUES`` values, which one worker per CPU of the
        process's affinity mask, at most one per piece, takes from a shared
        iterator; each worker pins itself to its CPU.  Each piece draws from
        a copy of ``rng`` advanced past the values before it: a double draw
        takes exactly one 64-bit output, so the matrix is the same for any
        CPU count.  The engine's ``fill_uniform`` fills a piece: the kernel
        steps PCG64 and rounds as numpy does, and the numpy reference draws
        it in blocks of float64 temporaries.  Logs the time, the workers,
        the pieces and how many workers were pinned.
        """
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise ValueError(
                f"initialize draws with PCG64, not {type(bits).__name__}; build"
                " EmbeddingMatrices(source=..., target=..., dim=...) from your own draw"
            )
        started = time.perf_counter()
        from . import _native

        bound = 1.0 / (2.0 * dim)
        rows = vocab_size + buckets
        source = np.empty((rows, dim), dtype=np.float32)
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
