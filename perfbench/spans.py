"""Span tracing for the traced benchmark run, and the per-layer summary of its spans.

The tracer replaces public sentvec functions with timing wrappers at the
place their callers look them up (``sentvec.trainer.train_step``,
``sentvec.cli.embed_sentence``, ...), so no program file changes.  A span
records its id, parent id, name, start and end (``perf_counter_ns``),
thread id and thread CPU time; the parent is the innermost open span of
the same thread.  Spans stay in memory until the session writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

# (module, attribute, span name): each layer is wrapped where its caller
# looks it up.  Missing attributes are skipped so the tracer survives
# refactors that remove a function; its metrics then read 0.
WRAPPED = [
    ("cli", "train", "trainer.train"),
    ("cli", "save_model", "trainer.save_model"),
    ("cli", "load_model", "trainer.load_model"),
    ("cli", "embed_sentence", "evaluation.embed_sentence"),
    ("cli", "evaluate_similarity", "evaluation.evaluate_similarity"),
    ("evaluation", "embed_sentence", "evaluation.embed_sentence"),
    ("evaluation", "extract_ngrams", "corpus.extract_ngrams"),
    ("trainer", "build_vocab", "corpus.build_vocab"),
    ("trainer", "extract_ngrams", "corpus.extract_ngrams"),
    ("trainer", "discard_keep_prob", "sampling.keep_prob"),
    ("trainer", "build_negative_table", "sampling.build_negative_table"),
    ("trainer", "sample_negatives", "sampling.sample_negatives"),
    ("trainer", "ngram_dropout", "model.ngram_dropout"),
    ("trainer", "train_step", "model.train_step"),
    ("trainer", "_run_shard", "trainer.run_shard"),
]


def _count_step(tracer, result) -> None:
    if result is None:
        tracer.count("model.skipped_steps")
    else:
        tracer.count("model.context_rows", getattr(result, "source_touch_count", 0))


# counters read from a wrapped call's result, outside its span
HOOKS = {
    "model.train_step": _count_step,
    "corpus.extract_ngrams": lambda tracer, result: tracer.count(
        "corpus.ngram_windows", len(getattr(result, "ngram_ids", ()))
    ),
    "sampling.build_negative_table": lambda tracer, result: tracer.count(
        "sampling.table_entries", len(getattr(result, "entries", ()))
    ),
    "trainer.train": lambda tracer, result: tracer.count(
        "trainer.targets", getattr(getattr(result, "stats", None), "targets_processed", 0)
    ),
}


class Tracer:
    """In-memory span and counter store shared by all threads of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        local, spans, ids = self._local, self.spans, self._ids
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            # the CPU interval sits inside the wall interval, so cpu <= wall
            start = clock()
            cpu0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), cpu)
                )
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every entry of ``WRAPPED`` and ``EmbeddingMatrices.initialize``."""
        for module_name, attr, span_name in WRAPPED:
            module = getattr(package, module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(span_name, getattr(module, attr)))
        matrices = getattr(package.model, "EmbeddingMatrices", None)
        if matrices is not None and hasattr(matrices, "initialize"):
            initialize = self.wrap("model.initialize", matrices.initialize)
            matrices.initialize = classmethod(lambda cls, *a, **k: initialize(*a, **k))

    def dump(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[s[0], s[1], code[s[2]], *s[3:]] for s in self.spans],
            "counters": self.counters,
        }


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per-span duration minus the durations of its direct children (ns).

    Children run on their parent's thread and nest inside it, so their
    intervals do not overlap and their durations add up.
    """
    ids, parents = spans[:, 0], spans[:, 1]
    duration = spans[:, 4] - spans[:, 3]
    position = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    position[ids] = np.arange(len(ids))
    child = parents >= 0
    covered = np.zeros(len(ids), dtype=np.int64)
    np.add.at(covered, position[parents[child]], duration[child])
    return duration - covered


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced session (see ``perfbench/README.md``)."""
    spans = np.asarray(trace["spans"], dtype=np.int64).reshape(-1, 7)
    names = np.asarray(trace["names"])[spans[:, 2]] if len(spans) else np.array([])
    duration = spans[:, 4] - spans[:, 3]
    own = self_times(spans) if len(spans) else duration
    counters = trace["counters"]

    def pick(name):
        return names == name

    def total_s(name):
        return float(duration[pick(name)].sum()) / 1e9

    def calls(name):
        return int(pick(name).sum())

    def percentile_us(name, q):
        values = duration[pick(name)]
        return float(np.percentile(values, q)) / 1e3 if len(values) else 0.0

    step = pick("model.train_step")
    step_wall = duration[step].sum()
    train_s = total_s("trainer.train")
    targets = counters.get("trainer.targets", 0)
    step_calls = calls("model.train_step")
    skipped = counters.get("model.skipped_steps", 0)
    return {
        "corpus.build_vocab_s": total_s("corpus.build_vocab"),
        "corpus.extract_ngrams_s": total_s("corpus.extract_ngrams"),
        "corpus.extract_ngrams_calls": calls("corpus.extract_ngrams"),
        "corpus.ngram_windows": counters.get("corpus.ngram_windows", 0),
        "sampling.build_negative_table_s": total_s("sampling.build_negative_table"),
        "sampling.table_entries": counters.get("sampling.table_entries", 0),
        "sampling.sample_negatives_us.p50": percentile_us("sampling.sample_negatives", 50),
        "sampling.sample_negatives_us.p99": percentile_us("sampling.sample_negatives", 99),
        "sampling.sample_negatives_calls": calls("sampling.sample_negatives"),
        "sampling.keep_prob_s": total_s("sampling.keep_prob"),
        "model.train_step_us.p50": percentile_us("model.train_step", 50),
        "model.train_step_us.p99": percentile_us("model.train_step", 99),
        "model.train_step_calls": step_calls,
        "model.skipped_steps": skipped,
        "model.context_rows_mean": (
            counters.get("model.context_rows", 0) / (step_calls - skipped)
            if step_calls > skipped else 0.0
        ),
        "model.train_step_wait_share": (
            1.0 - float(spans[step, 6].sum()) / float(step_wall) if step_wall else 0.0
        ),
        "model.ngram_dropout_us": percentile_us("model.ngram_dropout", 50),
        "model.initialize_s": total_s("model.initialize"),
        "trainer.train_s": train_s,
        "trainer.self_s": float(own[pick("trainer.run_shard")].sum()) / 1e9,
        "trainer.targets": targets,
        "trainer.targets_per_s": targets / train_s if train_s else 0.0,
        "trainer.save_model_s": total_s("trainer.save_model"),
        "trainer.load_model_s": total_s("trainer.load_model"),
        "evaluation.embed_sentence_us.p50": percentile_us("evaluation.embed_sentence", 50),
        "evaluation.embed_sentence_us.p99": percentile_us("evaluation.embed_sentence", 99),
        "evaluation.embed_sentence_calls": calls("evaluation.embed_sentence"),
        "evaluation.evaluate_similarity_s": total_s("evaluation.evaluate_similarity"),
        "cli.embed_output_s": float(own[pick("cli.embed")].sum()) / 1e9,
    }
