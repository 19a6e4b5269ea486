"""Training orchestration: epochs, worker threads, progress, and model files.

Workers share the parameter matrices without locks; element-level write
races are tolerated by design, and a single-threaded run is bit-exactly
reproducible from its seed.  The trained model serializes to a fixed
little-endian binary layout (magic "S2VM") plus a text vector export for
interop with word-vector tooling.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import itertools
import logging
import math
import mmap
import os
import re
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary, _bad_word, encode_corpus, iter_corpus
from .model import EmbeddingMatrices, run_workers
from .sampling import build_negative_table, discard_keep_prob

__all__ = [
    "TrainConfig",
    "TrainingStats",
    "TrainedModel",
    "ModelFormatError",
    "PRESETS",
    "train",
    "save_model",
    "load_model",
    "export_text_vectors",
]

logger = logging.getLogger(__name__)

MAGIC = b"S2VM"
FORMAT_VERSION = 1
INT32_MAX = 2**31 - 1
# most training threads a run takes, well above any CPU count this code
# targets: each worker is one OS thread, so a mistyped count would otherwise
# start thousands of threads
MAX_THREADS = 1024
# most tokens ``train`` steps through as one sentence: fastText and sent2vec cut
# their unsupervised lines at this many (``MAX_LINE_SIZE``), and a sentence's
# steps cost its length squared in source-row passes
LONG_SENTENCE_TOKENS = 1024
_HEADER = struct.Struct("<4sIIQQIdQ")  # magic, version, dim, |V|, buckets, order, t, tokens


class ModelFormatError(Exception):
    """Raised for model files with bad magic, version, or truncation."""


@dataclass
class TrainConfig:
    """All training hyperparameters plus engine knobs."""

    dim: int = 100
    min_count: int = 5
    min_target_count: int = 5
    lr: float = 0.2
    epochs: int = 5
    subsample_t: float = 1e-5
    word_ngrams: int = 1
    bucket_count: int = 2_000_000
    dropout_k: int = 0
    negatives: int = 10
    l1_tau: float = 0.0
    threads: int = 1
    seed: int = 42
    lowercase: bool = False
    checkpoint_path: str | None = None
    report_every: int = 1_000_000

    def validate(self) -> None:
        # ``_native.Model`` holds these in int32 fields, which ctypes fills
        # with larger values silently truncated
        for name in ("dim", "word_ngrams", "negatives", "dropout_k"):
            if getattr(self, name) > INT32_MAX:
                raise ValueError(f"{name} must be <= {INT32_MAX}, got {getattr(self, name)}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.word_ngrams < 1:
            raise ValueError(f"word_ngrams must be >= 1, got {self.word_ngrams}")
        if self.word_ngrams >= 2 and self.bucket_count < 1:
            raise ValueError("bucket_count must be >= 1 for n-gram models")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        # NaN passes the sign checks below: every comparison with it is false
        for name in ("lr", "l1_tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.subsample_t):  # inf is valid: no subsampling
            raise ValueError(f"subsample_t must not be NaN, got {self.subsample_t}")
        if self.l1_tau < 0:
            raise ValueError(f"l1_tau must be >= 0, got {self.l1_tau}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.subsample_t <= 0:
            raise ValueError(f"subsample_t must be > 0, got {self.subsample_t}")
        if self.min_count < 1 or self.min_target_count < 1:
            raise ValueError("min_count and min_target_count must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.threads > MAX_THREADS:
            raise ValueError(f"threads must be <= {MAX_THREADS}, got {self.threads}")
        if self.dropout_k < 0:
            raise ValueError(f"dropout_k must be >= 0, got {self.dropout_k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.report_every < 1:
            raise ValueError("report_every must be >= 1")
        if self.checkpoint_path:
            check_model_path(self.checkpoint_path, "checkpoint_path")


def check_model_path(path: str, name: str) -> None:
    """Raise ``ValueError`` unless ``save_model`` can create ``path``.

    A model is first written after an epoch, so a path in a missing
    directory, or naming a directory, would lose that epoch; ``name`` is
    the setting the path came from.
    """
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{name} {path}: {parent} is not a directory")
    if os.path.isdir(path):
        raise ValueError(f"{name} {path} is a directory")


# Shipped default hyperparameter presets, one per corpus/feature pairing.
PRESETS: dict[str, dict] = {
    "books-uni": dict(
        dim=700, min_count=5, min_target_count=8, lr=0.2, epochs=13,
        subsample_t=1e-5, word_ngrams=1, dropout_k=0, negatives=10,
    ),
    "books-bi": dict(
        dim=700, min_count=5, min_target_count=5, lr=0.2, epochs=12,
        subsample_t=5e-6, word_ngrams=2, dropout_k=7, negatives=10,
    ),
    "wiki-uni": dict(
        dim=600, min_count=8, min_target_count=20, lr=0.2, epochs=9,
        subsample_t=1e-5, word_ngrams=1, dropout_k=0, negatives=10,
    ),
    "wiki-bi": dict(
        dim=700, min_count=8, min_target_count=20, lr=0.2, epochs=9,
        subsample_t=5e-6, word_ngrams=2, dropout_k=4, negatives=10,
    ),
    "twitter-uni": dict(
        dim=700, min_count=20, min_target_count=20, lr=0.2, epochs=3,
        subsample_t=1e-6, word_ngrams=1, dropout_k=0, negatives=10,
    ),
    "twitter-bi": dict(
        dim=700, min_count=20, min_target_count=20, lr=0.2, epochs=3,
        subsample_t=1e-6, word_ngrams=2, dropout_k=3, negatives=10,
    ),
}


@dataclass
class TrainingStats:
    """Post-run accounting; not part of the serialized model."""

    loss_windows: list[float]
    targets_processed: int
    elapsed_seconds: float


@dataclass
class TrainedModel:
    """A trained (or loaded) model: vocabulary, matrices, and composition settings."""

    vocab: Vocabulary
    matrices: EmbeddingMatrices
    word_ngrams: int
    buckets: int
    subsample_t: float
    stats: TrainingStats | None = field(default=None, compare=False)


class _LossReporter:
    """Aggregates step losses into fixed-size reporting windows."""

    def __init__(self, report_every: int) -> None:
        self.report_every = report_every
        self.window_means: list[float] = []
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def add(self, loss_sums: np.ndarray, steps: np.ndarray) -> None:
        """Fold in the loss sums and step counts of consecutive sentences.

        A window closes at the first sentence that brings its step count
        to ``report_every``, and the next one starts after it.  Losses add
        up in sentence order (``cumsum``, not the pairwise ``sum``), so the
        means equal those of adding one sentence at a time.  A diverging
        run's sums overflow to inf without numpy's warning: ``check`` names it.
        """
        with self._lock:
            while len(steps):
                counts = self._count + np.cumsum(steps)
                close = int(np.searchsorted(counts, self.report_every))
                taken = slice(0, close + 1)
                with np.errstate(over="ignore"):
                    sums = np.cumsum(np.concatenate([[self._sum], loss_sums[taken]]))
                self._sum, self._count = float(sums[-1]), int(counts[taken][-1])
                if close == len(steps):
                    return
                mean = self._sum / self._count
                self.window_means.append(mean)
                logger.info(
                    "window %d: mean loss %.6f over %d targets",
                    len(self.window_means), mean, self._count,
                )
                self._sum = 0.0
                self._count = 0
                loss_sums, steps = loss_sums[close + 1 :], steps[close + 1 :]

    def check(self, lr: float) -> None:
        """Raise ``ValueError`` if a window so far, the open one too, has a non-finite loss."""
        with self._lock:
            means = self.window_means + ([self._sum / self._count] if self._count else [])
        for window, mean in enumerate(means, start=1):
            if not math.isfinite(mean):
                raise ValueError(f"training diverged: loss window {window} has mean loss "
                                 f"{mean} at lr {lr:g}; try a lower learning rate")

    def finalize(self) -> list[float]:
        with self._lock:
            if self._count:
                self.window_means.append(self._sum / self._count)
                self._sum = 0.0
                self._count = 0
            return self.window_means


# sentences per native call: long enough to amortize the call, short
# enough that loss windows and worker threads interleave finely
_CHUNK_SENTENCES = 1024


def train(corpus_path: str, config: TrainConfig) -> TrainedModel:
    """Train a model over ``config.epochs`` shuffled passes of the corpus.

    Per epoch the shuffled sentence order is split into one contiguous
    shard per worker.  Each kept token position (Bernoulli gate with its
    word's keep probability, restricted to target-eligible words) yields
    one SGD step with freshly sampled n-gram dropout and negatives.  The
    steps run in the engine's ``train_chunk``.  With ``threads=1`` the run
    is bit-deterministic in the seed.  A non-finite loss window stops the
    run with a ``ValueError`` at the end of its epoch, before its checkpoint.
    """
    config.validate()
    started = time.perf_counter()

    vocab, tokens, offsets = encode_corpus(
        iter_corpus(corpus_path, lowercase=config.lowercase),
        config.min_count,
        config.min_target_count,
    )
    buckets = config.bucket_count if config.word_ngrams >= 2 else 0
    n_sentences = len(offsets) - 1
    if not n_sentences:
        raise ValueError("corpus has no trainable sentences after vocabulary thresholds")
    logger.info(
        "vocabulary %d words, %d tokens, %d trainable sentences",
        len(vocab), vocab.total_tokens, n_sentences,
    )
    lengths = np.diff(offsets)
    n_long = np.count_nonzero(lengths > LONG_SENTENCE_TOKENS)
    logger.info(
        "longest sentence %d tokens, %d longer than %d",
        lengths.max(), n_long, LONG_SENTENCE_TOKENS,
    )
    if n_long:
        tokens, offsets = _cut_sentences(tokens, offsets)
        logger.info(
            "cut %d sentences into %d pieces of at most %d tokens",
            n_long, len(offsets) - 1 - (n_sentences - n_long), LONG_SENTENCE_TOKENS,
        )
        n_sentences = len(offsets) - 1
    _check_memory(len(vocab), buckets, config.dim)

    keep_prob = discard_keep_prob(vocab.frequencies(), config.subsample_t)
    eligible = vocab.target_eligible()
    expected_per_epoch = float((vocab.counts() * keep_prob * eligible).sum())
    total_expected = max(1.0, config.epochs * expected_per_epoch)

    table = build_negative_table(vocab)
    from . import _native  # imported on first use: ``import sentvec`` stays light

    engine = _native.engine()
    # distinct, stable RNG streams: [seed, 0] init, [seed, 1, w] workers, [seed, 2, e] shuffles;
    # the init draws on every CPU of the affinity mask, whatever ``threads`` is
    init_rng = np.random.default_rng([config.seed, 0])
    matrices = EmbeddingMatrices.initialize(len(vocab), buckets, config.dim, init_rng)
    model = TrainedModel(
        vocab=vocab,
        matrices=matrices,
        word_ngrams=config.word_ngrams,
        buckets=buckets,
        subsample_t=config.subsample_t,
    )

    # processed targets, shared by the workers; the engine adds to it
    progress = np.zeros(1, dtype=np.int64)
    reporter = _LossReporter(config.report_every)
    run = engine.model(
        matrices.source, matrices.target, config.word_ngrams, buckets, config.negatives,
        l1_tau=config.l1_tau, dropout_k=config.dropout_k if config.word_ngrams >= 2 else 0,
        base_lr=config.lr, total_expected=total_expected, tokens=tokens, offsets=offsets,
        gate_prob=keep_prob * eligible, table=table, progress=progress,
    )
    worker_states = [
        engine.rng_state(np.random.default_rng([config.seed, 1, w]))
        for w in range(config.threads)
    ]

    def run_shard(w: int) -> None:
        # worker w's contiguous shard of this epoch's order
        shard = perm[bounds[w] : bounds[w + 1]]
        for start in range(0, len(shard), _CHUNK_SENTENCES):
            chunk = shard[start : start + _CHUNK_SENTENCES]
            reporter.add(*engine.train_chunk(run, chunk, worker_states[w]))

    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 2, epoch]).permutation(n_sentences)
        bounds = np.linspace(0, n_sentences, config.threads + 1).astype(np.int64)
        # unpinned, unlike the init's workers: on the 2-vCPU x86-64 host one set of
        # runs timed the train-bi-2t epoch slower with pinned workers (a median 22.8
        # against 18.9 ms) and two later sets faster (22.7 against 25.7, 23.7 against 28.6)
        run_workers(run_shard, config.threads)
        logger.info("epoch %d/%d done, %d targets", epoch + 1, config.epochs, progress[0])
        reporter.check(config.lr)
        if config.checkpoint_path:
            save_model(model, config.checkpoint_path)

    model.stats = TrainingStats(
        loss_windows=reporter.finalize(),
        targets_processed=int(progress[0]),
        elapsed_seconds=time.perf_counter() - started,
    )
    return model


def _cut_sentences(tokens: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR corpus with each sentence cut into consecutive pieces of at most
    ``LONG_SENTENCE_TOKENS`` tokens, so that steps cost linear time in a line's length.

    A last piece of one token is dropped, as ``encode_corpus`` drops a sentence
    of fewer than 2 known tokens.
    """
    lengths = np.diff(offsets)
    pieces = -(-lengths // LONG_SENTENCE_TOKENS)
    sizes = np.full(int(pieces.sum()), LONG_SENTENCE_TOKENS, dtype=np.int64)
    sizes[np.cumsum(pieces) - 1] = lengths - (pieces - 1) * LONG_SENTENCE_TOKENS
    starts = np.cumsum(sizes) - sizes
    return np.delete(tokens, starts[sizes < 2]), np.concatenate([[0], np.cumsum(sizes[sizes >= 2])])


def _read_text(path: str) -> str | None:
    """The text of the file at ``path``, or None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _free_memory() -> int | None:
    """Bytes the process can still take: the smallest of ``MemAvailable`` in
    ``/proc/meminfo`` and, for its cgroup v2 and each ancestor that sets ``memory.max``,
    that limit less ``memory.current``, where the group's page cache (``active_file``
    and ``inactive_file`` in ``memory.stat``, such as the corpus just read) counts as
    free, as ``MemAvailable`` counts it.  None where none of them can be read."""
    free = []
    meminfo = re.search(r"^MemAvailable:\s+(\d+) kB$", _read_text("/proc/meminfo") or "", re.M)
    if meminfo:
        free.append(int(meminfo[1]) << 10)
    group = re.search(r"^0::(/.*)$", _read_text("/proc/self/cgroup") or "", re.M)
    path = group[1].rstrip("/") if group else None  # "" for the root group
    while path is not None:  # the group itself, then each ancestor
        folder = "/sys/fs/cgroup" + path
        path = path.rpartition("/")[0] if path else None
        limit = (_read_text(folder + "/memory.max") or "").strip()
        used = (_read_text(folder + "/memory.current") or "").strip()
        if limit.isdigit() and used.isdigit():  # "max" where no limit is set
            stat = _read_text(folder + "/memory.stat") or ""
            cache = sum(map(int, re.findall(r"^(?:in)?active_file (\d+)$", stat, re.M)))
            free.append(max(0, int(limit) - int(used) + cache))
    return min(free, default=None)


def _check_memory(vocab_size: int, buckets: int, dim: int) -> None:
    """Raise ``ValueError`` if the source and target matrices of ``dim`` float32 values
    a row, ``vocab_size + buckets`` and ``vocab_size`` rows, need more bytes than
    ``_free_memory`` finds; no check where it finds nothing."""
    need = ((vocab_size + buckets) + vocab_size) * dim * 4
    free = _free_memory()
    if free is not None and need > free:
        raise ValueError(
            f"the source and target matrices need {need:,} bytes, ({vocab_size:,} + "
            f"{buckets:,} + {vocab_size:,}) rows of {dim:,} float32 values, set by "
            f"--buckets {buckets} and --dim {dim}; {free:,} bytes are available"
        )


def save_model(model: TrainedModel, path: str) -> None:
    """Write the binary model file atomically (temp file + rename)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        fh = open(tmp, "wb")
    except OSError as err:  # name the path given, not the temporary file
        raise type(err)(err.errno, err.strerror, path) from err
    try:
        with fh:
            fh.write(
                _HEADER.pack(
                    MAGIC,
                    FORMAT_VERSION,
                    model.matrices.dim,
                    len(model.vocab),
                    model.buckets,
                    model.word_ngrams,
                    model.subsample_t,
                    model.vocab.total_tokens,
                )
            )
            fh.write(_vocabulary_section(model.vocab))
            # the array's own buffer: no bytes copy of the matrix
            fh.write(np.ascontiguousarray(model.matrices.source, dtype="<f4"))
            fh.write(np.ascontiguousarray(model.matrices.target, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _vocabulary_section(vocab: Vocabulary) -> np.ndarray:
    """The vocabulary records of a model file, in one buffer: each word's byte
    length as uint32, its UTF-8 bytes and its count as uint64, little-endian."""
    words, ends = vocab.word_bytes()
    if not words.isascii():
        words.decode("utf-8")  # a lone surrogate has no UTF-8: raise, as encoding it would
    n = len(ends)
    fields = np.empty(n, dtype=[("length", "<u4"), ("count", "<u8")])  # packed: 12 bytes
    fields["length"] = np.diff(ends, prepend=-1) - 1
    fields["count"] = vocab.counts()
    # each record is 4 length bytes, the word and 8 count bytes
    pieces = np.column_stack([np.full(n, 4), fields["length"], np.full(n, 8)])
    in_word = np.repeat(np.tile([False, True, False], n), pieces.ravel())
    raw = np.frombuffer(words, dtype=np.uint8)
    separator = np.zeros(len(raw), dtype=bool)
    separator[ends] = True
    section = np.empty(len(in_word), dtype=np.uint8)
    section[in_word] = raw[~separator]
    section[~in_word] = fields.view(np.uint8)
    return section


def _check_remaining(n: int, section: str, limit: int) -> None:
    # ``limit`` bounds the bytes left in the file, so a size claimed by a
    # corrupt header is rejected before it is allocated
    if n > limit:
        raise ModelFormatError(
            f"truncated model file in {section} section: "
            f"expected {n} bytes, at most {limit} remain"
        )


def _short_read(n: int, got: int, section: str) -> ModelFormatError:
    return ModelFormatError(
        f"truncated model file in {section} section: expected {n} bytes, got {got}"
    )


def _read_exact(fh, n: int, section: str, limit: int) -> bytes:
    _check_remaining(n, section, limit)
    data = fh.read(n)
    if len(data) != n:
        raise _short_read(n, len(data), section)
    return data


def _map_matrix(mapped, offset: int, rows: int, dim: int, section: str) -> np.ndarray:
    """A (rows, dim) little-endian float32 view of ``mapped`` at byte ``offset``."""
    n = 4 * rows * dim
    if n == 0:
        return np.zeros((rows, dim), dtype="<f4")
    got = min(n, max(0, len(mapped) - offset))
    if got != n:
        # the file shrank after its size was checked
        raise _short_read(n, got, section)
    return np.frombuffer(mapped, dtype="<f4", count=rows * dim, offset=offset).reshape(rows, dim)


def _read_vocabulary(fh, vocab_size: int, total_tokens: int, size: int) -> Vocabulary:
    """The vocabulary section at ``fh``'s position, record by record.

    The reference reader, and the numpy reference engine's: the first
    record that fails a check is named in the ``ModelFormatError``.
    ``size`` is the file's size.
    """
    words: list[tuple[str, int]] = []
    word_index: dict[str, int] = {}
    for wid in range(vocab_size):
        (length,) = struct.unpack("<I", _read_exact(fh, 4, "vocabulary", size))
        raw = _read_exact(fh, length, "vocabulary", size)
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "vocabulary", size))
        try:
            surface = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ModelFormatError(
                f"vocabulary section: word {wid} is not UTF-8 ({err.reason})"
            ) from None
        if word_index.setdefault(surface, wid) != wid:
            raise ModelFormatError(
                f"vocabulary section: word {wid} repeats word {word_index[surface]} "
                f"({surface!r})"
            )
        if not 1 <= count < 2**63:
            raise ModelFormatError(
                f"vocabulary section: word {wid} has count {count}, outside [1, 2^63)"
            )
        words.append((surface, count))
    surfaces = [surface for surface, _ in words]
    if (wid := _bad_word(surfaces)) >= 0:
        raise ModelFormatError(
            f"vocabulary section: word {wid} ({surfaces[wid]!r}) is empty or holds whitespace"
        )
    counted = sum(count for _, count in words)
    if total_tokens != counted:
        raise ModelFormatError(
            f"inconsistent model header: total_tokens={total_tokens}, but the "
            f"vocabulary counts sum to {counted}"
        )
    # wire format carries no thresholds; loaded models use the weakest ones
    return Vocabulary(
        words=words, word_index=word_index, total_tokens=total_tokens, min_count=1,
        min_target_count=1,
    )


def _read_vocabulary_in_bulk(
    engine, mapped, vocab_size: int, total_tokens: int
) -> tuple[Vocabulary, int] | None:
    """The vocabulary section of the mapped file, through the engine, and where it ends.

    Every check of ``_read_vocabulary`` is made on whole buffers: the kernel
    walks the records and rejects an empty word or one with ASCII
    whitespace, one decode checks the UTF-8 of the words (each followed by
    ``\\n``, so no sequence spans two), a search finds other whitespace,
    numpy checks the counts and their exact sum, and the kernel's lookup
    table, kept by the vocabulary, finds a repeated word.  Returns None when
    a check fails, or on the numpy reference engine, for ``_read_vocabulary``
    to name the first bad record.
    """
    if vocab_size > INT32_MAX:  # the table's ids are int32
        return None
    data = np.frombuffer(mapped, dtype=np.uint8)[_HEADER.size :]
    records = engine.vocabulary_records(data, vocab_size)
    if records is None:
        return None
    words, ends, counts, span = records
    if not words.isascii():
        try:
            text = words.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if re.search(r"[^\S\x00-\x7f]", text):
            return None
    # each count is below 2^63, so the sums of its 32-bit halves are exact below 2^31 words
    counted = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
    if counts.min(initial=1) < 1 or counted != total_tokens:
        return None
    try:
        table = engine.lookup_table(words, ends)
    except ValueError:  # a repeated word
        return None
    vocab = Vocabulary.from_bytes(words, ends, counts, total_tokens, 1, 1, (engine, table))
    return vocab, _HEADER.size + span


def load_model(path: str) -> TrainedModel:
    """Read a model file back; matrices round-trip bit-exactly.

    After the header checks the file is mapped copy-on-write.  The native
    kernel reads the vocabulary from the mapping in bulk; when a check
    fails there, or on the numpy reference engine, the records are read
    one by one, which names the first bad record.  The matrices are views of the
    mapping: a page is read when first touched.  They stay writable, and
    writes never reach the file.  Replacing the file (as ``save_model``
    does) leaves a loaded model intact, but rewriting or truncating it in
    place while it is mapped can kill the process with ``SIGBUS``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = _read_exact(fh, _HEADER.size, "header", size)
        magic, version, dim, vocab_size, buckets, order, t, total_tokens = (
            _HEADER.unpack(header)
        )
        if magic != MAGIC:
            raise ModelFormatError(
                f"bad magic {magic!r}: not an {MAGIC.decode()} model file"
            )
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {version}, expected {FORMAT_VERSION}"
            )
        if dim < 1 or order < 1 or (buckets > 0) != (order >= 2):
            raise ModelFormatError(
                f"inconsistent model header: dim={dim}, order={order}, buckets={buckets} "
                "(need dim >= 1, order >= 1, and buckets > 0 exactly when order >= 2)"
            )
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        from . import _native

        read = _read_vocabulary_in_bulk(_native.engine(), mapped, vocab_size, total_tokens)
        if read is None:
            read = _read_vocabulary(fh, vocab_size, total_tokens, size), fh.tell()
        vocab, source_at = read
        source_rows = vocab_size + buckets
        target_at = source_at + 4 * source_rows * dim
        end = target_at + 4 * vocab_size * dim
        _check_remaining(target_at - source_at, "source matrix", size - source_at)
        _check_remaining(end - target_at, "target matrix", size - target_at)
        if end != size:
            raise ModelFormatError(f"{size - end} trailing bytes after the target matrix")
        source = _map_matrix(mapped, source_at, source_rows, dim, "source matrix")
        target = _map_matrix(mapped, target_at, vocab_size, dim, "target matrix")
    return TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices(source=source, target=target, dim=dim),
        word_ngrams=order,
        buckets=buckets,
        subsample_t=t,
    )


@contextlib.contextmanager
def _byte_output(destination):
    """A ``write`` of UTF-8 bytes to ``destination``: that path opened ``"wb"`` and closed
    on exit, an open binary file (``io.RawIOBase`` or ``io.BufferedIOBase``, such as
    ``open(path, "wb")`` or ``io.BytesIO``) as they are, or an open UTF-8 text file's binary
    layer after a flush of the text before; any other text file, such as ``io.StringIO``
    or a Latin-1 file, takes their text.  Through the binary layer a line ends in
    ``\\n`` whatever the file's ``newline``."""
    if not hasattr(destination, "write"):
        with open(destination, "wb") as fh:
            yield fh.write
        return
    if isinstance(destination, (io.RawIOBase, io.BufferedIOBase)):

        def write(data):
            view = memoryview(data)
            while view:  # a raw file may take fewer bytes than a write hands it
                view = view[destination.write(view) :]

        yield write
        return
    binary, encoding = getattr(destination, "buffer", None), getattr(destination, "encoding", None)
    if binary is not None and encoding and codecs.lookup(encoding).name == "utf-8":
        destination.flush()
        yield binary.write
    else:
        yield lambda data: destination.write(str(data, "utf-8"))


def _row_fills(rows: np.ndarray, sep: str, out: np.ndarray):
    """The engine's ``format_rows`` text of the float32 ``rows``, joined by ``sep``, as many
    rows as the text buffer ``out`` holds at a time: yields each fill's rows and a view of
    its text in ``out``."""
    from . import _native

    engine, step = _native.engine(), len(out) // _native.check_room(out, 1, rows.shape[1])
    for start in range(0, len(rows), step):
        fill = slice(start, start + step)
        # an aligned copy of rows a mapped model file left misaligned
        yield fill, engine.format_rows(np.require(rows[fill], requirements="CA"), sep, None, out)


def export_text_vectors(model: TrainedModel, destination) -> None:
    """Write unigram source vectors as text: "<count> <dim>" header, then one word per line.

    ``destination`` is a path, an open text file or an open binary file; lines
    end in ``\\n``, and floats carry 6 significant digits.  The rows print
    through one text buffer, and each fill's lines go out behind their words
    in one write of bytes, to a binary file as they are and to a UTF-8 text
    file's binary layer.
    """
    from . import _native

    n, source, dim = len(model.vocab), model.matrices.source, model.matrices.dim
    _native.check_source(source)
    with _byte_output(destination) as write:
        write(b"%d %d\n" % (n, dim))
        if n:  # a model without words allocates no text buffer
            names = model.vocab.word_bytes()[0]
            if not names.isascii():
                names.decode("utf-8")  # a lone surrogate has no UTF-8: raise, as encoding it would
            prefixes = [word + b" " for word in names.split(b"\n")[:-1]]
            for fill, text in _row_fills(source[:n], " ", _native.text_buffer(dim)):
                lines = bytes(text).splitlines(True)
                write(b"".join(itertools.chain.from_iterable(zip(prefixes[fill], lines))))
