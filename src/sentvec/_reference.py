"""The numpy reference engine: ``_native.engine()`` where the kernel cannot be built, the
engine of token lists, and the kernel's test oracle.  Each engine function takes the
parameters of the ``Kernel`` method of its name.  The per-step oracle that ``train_chunk``
runs, from the negative draw to the L1 step, is here too, and nowhere else."""

from __future__ import annotations

import itertools
import logging
import math
import re
import threading
from array import array
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._native import check_room, check_rows
from .corpus import _bad_word, _word_bytes, ngram_bucket_ids, sentence_ngrams
from .model import EmbeddingMatrices
from .sampling import COIN_SCALE, AliasTable

logger = logging.getLogger(__name__)

label = "numpy"  # how the init log line names this engine
unavailable = None  # why the kernel is not loaded; ``_native.engine()`` sets it

# float64 draws per block of ``fill_uniform`` (2 MiB of temporaries)
INIT_BLOCK_VALUES = 1 << 18


def fill_uniform(out, pcg64_state, low, high) -> None:
    """Fill the C-contiguous ``out`` as a PCG64 in ``pcg64_state`` draws ``uniform(low, high)``,
    in blocks of ``INIT_BLOCK_VALUES`` float64 temporaries."""
    bits = np.random.PCG64()
    bits.state = pcg64_state
    rng, flat = np.random.Generator(bits), out.reshape(-1)
    for first in range(0, flat.size, INIT_BLOCK_VALUES):
        block = flat[first : first + INIT_BLOCK_VALUES]
        block[:] = rng.uniform(low, high, size=len(block))


def format_rows(rows, sep, flags, out) -> memoryview:
    """The kernel's text of ``rows``, by Python's ``%`` operator, written into ``out``."""
    check_rows(rows, sep, flags, out)
    line = sep.join(["%.6g"] * rows.shape[1]) + ("\n" if flags is None else " %d\n")
    # a float32 column of flags: exactly 0.0 or 1.0, which "%d" prints as 0 or 1
    values = (rows if flags is None else np.column_stack([rows, flags])).tolist()
    text = "".join([line % tuple(row) for row in values]).encode("ascii")
    out[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    return memoryview(out)[: len(text)]


def lookup_table(words, ends) -> dict[str, int]:
    """The id of each word of ``Vocabulary.word_bytes``' form (distinct words)."""
    words = words.decode("utf-8", "surrogatepass").split("\n")[:-1]
    return dict(zip(words, range(len(words))))


def _python_ids(index: dict[str, int], lines) -> tuple[np.ndarray, np.ndarray, int]:
    """The ids of the tokens of ``lines`` found in ``index``, verbatim or else lowercased,
    each line's count of them and the count of all tokens.  Lines split on whitespace."""
    get = index.get
    line_tokens = [
        (text.decode("utf-8", "surrogatepass") if isinstance(text, bytes) else text).split()
        for text in lines
    ]
    flat = list(itertools.chain.from_iterable(line_tokens))
    found = list(map(get, flat))
    for i in [i for i, wid in enumerate(found) if wid is None]:
        found[i] = get(flat[i].lower(), -1)
    ids = np.array(found, dtype=np.int64)
    line_of_token = np.repeat(np.arange(len(line_tokens)), list(map(len, line_tokens)))
    known = np.bincount(line_of_token[ids >= 0], minlength=len(line_tokens))
    return ids[ids >= 0], known, len(ids)


def _compose(source, buckets: int, order: int, unigrams, known) -> np.ndarray:
    """Mean of each line's unigram and n-gram ``source`` rows, whose ids are the next
    ``known[i]`` of ``unigrams``, added in order to a zero sum as the kernel does."""
    offsets = np.concatenate([[0], np.cumsum(known)])
    lines = np.arange(len(known))
    parts, owners = [unigrams], [np.repeat(lines, known)]
    # no line has a window longer than itself, whatever order the header claims
    for k in range(2, min(order, int(known.max(initial=0))) + 1):
        parts.append(ngram_bucket_ids(unigrams, offsets, k, len(source) - buckets, buckets))
        owners.append(np.repeat(lines, np.maximum(known - (k - 1), 0)))
    # a stable sort by line puts each line's rows together, in ``sentence_ngrams``' order
    owners = np.concatenate(owners)
    rows = np.concatenate(parts)[np.argsort(owners, kind="stable")]
    ends = np.cumsum(np.bincount(owners, minlength=len(known))).tolist()
    vectors = np.zeros((len(known), source.shape[1]), dtype=source.dtype)
    for line, (a, b) in enumerate(zip([0, *ends], ends)):
        if b > a:
            # ``accumulate`` adds in row order (``sum`` adds a single column
            # pairwise); ``+ 0.0`` is the kernel's zero start, which makes -0 +0
            vectors[line] = (np.add.accumulate(source[rows[a:b]], axis=0)[-1] + 0.0) / (b - a)
    return vectors


def embed_text(table, source, buckets, order, data, starts, ends):
    """``_compose`` of the ``_python_ids`` of the lines ``data[starts[i]:ends[i]]``."""
    lines = [data[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    unigrams, known, tokens = _python_ids(table, lines)
    return _compose(source, buckets, order, unigrams, known), known, tokens


def embed_rows(table, source, buckets, order, data, starts, ends, oov_flag, out):
    """The kernel's ``embed_rows``: for each fill of ``out``, ``format_rows`` of the
    ``embed_text`` means of the lines that fit, with each line's all-OOV flag when
    ``oov_flag`` is set.

    Each pass of a fill takes the lines whose text fits whatever its length,
    and the text of the ones before may leave room for more, so a fill ends
    where the kernel's call does: before the first line with fewer than
    ``_VALUE_BYTES * dim + 3`` bytes left.
    """
    worst = check_room(out, min(len(ends), 1), source.shape[1])
    known, done = np.empty(len(ends), dtype=np.int64), 0
    while done < len(ends):
        first, size, tokens = done, 0, 0
        while (fit := min((len(out) - size) // worst, len(ends) - done)) > 0:
            lines = slice(done, done + fit)
            vectors, known[lines], count = embed_text(
                table, source, buckets, order, data, starts[lines], ends[lines]
            )
            flags = known[lines] == 0 if oov_flag else None
            size += len(format_rows(vectors, " ", flags, out[size:]))
            done, tokens = done + fit, tokens + count
        yield size, known[first:done], tokens


# pairs composed per ``embed_text`` call in ``pair_dots``; one block's vectors are the
# vectors live at once
_PAIR_BLOCK = 1024


def pair_dots(table, source, buckets, order, data, starts, ends):
    """The kernel's dots of pairs k (sides: lines k and n + k), from ``embed_text`` of
    ``_PAIR_BLOCK`` pairs at a time."""
    n = len(ends) // 2
    dots, known, tokens = np.empty((3, n)), np.empty(2 * n, dtype=np.int64), 0
    for a in range(0, n, _PAIR_BLOCK):
        b = min(a + _PAIR_BLOCK, n)
        lines = np.r_[a:b, n + a : n + b]
        vectors, known[lines], count = embed_text(
            table, source, buckets, order, data, starts[lines], ends[lines]
        )
        dots[:, a:b] = _row_dots(vectors[: b - a], vectors[b - a :])
        tokens += count
    return dots, known, tokens


def _row_dots(va, vb) -> np.ndarray:
    """The (3, n) a·a, b·b and a·b of the float32 rows ``va`` and ``vb`` as the kernel sums
    them: exact float64 products, eight partial sums by element index mod 8 added in order
    from +0 (zero padding adds nothing), then ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7))."""
    n, dim = va.shape
    x, y = np.zeros((2, n, -(-dim // 8), 8))
    x.reshape(n, -1)[:, :dim], y.reshape(n, -1)[:, :dim] = va, vb
    lanes = np.zeros((3, n, 8))
    for j in range(x.shape[1]):
        lanes[0] += x[:, j] * x[:, j]
        lanes[1] += y[:, j] * y[:, j]
        lanes[2] += x[:, j] * y[:, j]
    s = [lanes[..., k] for k in range(8)]
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))


# bytes of a similarity file compared per numpy call when ``pair_fields`` scans it
_SCAN_BLOCK = 1 << 16

# a score the kernel reads itself; ``pair_fields`` also counts its digits
_PLAIN_DECIMAL = re.compile(rb"[+-]?[0-9]+(?:\.[0-9]+)?")


def pair_fields(data):
    """The kernel's records of the similarity file ``data``, from one numpy scan of its tabs
    and line ends; each plain-decimal score is parsed by ``float()``."""
    buf = np.frombuffer(data, dtype=np.uint8)
    # the tabs and line ends, and any other byte below them, in one pass over
    # blocks whose temporaries the heap reuses; the range has a block even for no bytes
    marks = np.concatenate([
        np.flatnonzero(buf[a : a + _SCAN_BLOCK] <= ord("\n")) + a
        for a in range(0, len(buf) + 1, _SCAN_BLOCK)
    ])
    kinds = buf[marks]
    line_ends, tabs = marks[kinds == ord("\n")], marks[kinds == ord("\t")]
    if data and data[-1] != ord("\n"):
        line_ends = np.append(line_ends, len(data))
    starts = np.concatenate([[0], line_ends + 1])[: len(line_ends)]
    tab_counts = np.diff(np.searchsorted(tabs, line_ends), prepend=0)
    filled = line_ends > starts
    bad = np.flatnonzero(filled & (tab_counts != 2))
    first_bad = int(bad[0]) if len(bad) else len(line_ends)
    # every line before the first bad one is empty or a record with two tabs
    lines = np.flatnonzero(filled[:first_bad])
    tabs = tabs[: 2 * len(lines)].reshape(-1, 2)
    scores = [data[a:b] for a, b in zip(starts[lines].tolist(), tabs[:, 0].tolist())]
    plain = [
        _PLAIN_DECIMAL.fullmatch(text) is not None
        and len(text) - text.startswith((b"+", b"-")) - (b"." in text) <= 15
        for text in scores
    ]
    gold = np.array([float(t) if p else 0.0 for t, p in zip(scores, plain)], dtype=np.float64)
    ends = np.column_stack([tabs, line_ends[lines]]).ravel()
    bad_line, bad_start = (first_bad, int(starts[first_bad])) if len(bad) else (-1, -1)
    return ends, lines, gold, ~np.array(plain, dtype=np.bool_), bad_line, bad_start


def vocabulary_records(data, n) -> None:
    """None: ``load_model`` reads the records one by one on this engine."""
    return None


class Encoder:
    """The tokens of a corpus, interned in a dict: a token's first occurrence gives its id."""

    def __init__(self) -> None:
        self._index: defaultdict[str, int] = defaultdict(itertools.count().__next__)
        self._ids, self._lengths = array("i"), array("q")

    def __enter__(self) -> "Encoder":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def encode_lines(self, data, stop: int) -> None:
        """Intern the lines of ``data[:stop]``: each is ASCII, or its tokens joined by spaces."""
        lines = data[:stop].decode("utf-8").split("\n")
        if not lines[-1]:  # the end of the last line, or no line at all
            lines.pop()
        self.encode_tokens(line.split() for line in lines)

    def encode_tokens(self, sentences) -> None:
        """Intern the tokens of each token list of ``sentences``, one line each."""
        for tokens in sentences:
            self._ids.extend(map(self._index.__getitem__, tokens))
            self._lengths.append(len(tokens))

    def result(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Views of the int32 ids and int64 line token counts, and the distinct token count."""
        ids = np.frombuffer(self._ids, dtype=np.int32)
        return ids, np.frombuffer(self._lengths, dtype=np.int64), len(self._index)

    def words(self, which) -> tuple[bytes, np.ndarray]:
        """The distinct tokens of ids ``which``, in order, in ``Vocabulary.word_bytes`` form.

        Raises ``ValueError`` for one that is empty or holds whitespace, which
        only token lists can hold and ``load_model`` rejects.
        """
        kept = list(map(list(self._index).__getitem__, which.tolist()))
        if (bad := _bad_word(kept)) >= 0:
            raise ValueError(f"word {kept[bad]!r} is empty or holds whitespace, "
                             "which a model file cannot hold")
        return _word_bytes(kept)


encoder = Encoder


# the per-step oracle: one SGD step per (sentence, target) pair, its negative draws,
# n-gram dropout, learning rate and L1 step, which ``train_chunk`` runs and the kernel mirrors

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


def _draw(table: AliasTable, count: int, rng: np.random.Generator) -> np.ndarray:
    columns = rng.integers(0, table.size, size=count)
    coins = rng.integers(0, COIN_SCALE, size=count)
    return np.where(
        coins < table.threshold[columns], table.entries[columns], table.alias[columns]
    )


def sample_negatives(
    table: AliasTable,
    target: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` negative word ids from the alias table, excluding the target.

    Collisions with the target are rejected and redrawn; duplicates among
    the negatives are permitted.  Raises ``ValueError`` if the table holds
    nothing but the target.
    """
    if table.size == 1 and table.entries[0] == target:
        raise ValueError("negative table contains only the target word")
    out = _draw(table, count, rng)
    retry = np.nonzero(out == target)[0]
    while retry.size:
        out[retry] = _draw(table, retry.size, rng)
        retry = retry[out[retry] == target]
    return out


def rng_state(rng: np.random.Generator) -> np.random.Generator:
    """A worker's state for ``train_chunk``: the generator itself, stepped in place."""
    return rng


def model(source, target, order, buckets, negatives, l1_tau=0.0, dropout_k=0, base_lr=0.0,
          total_expected=1.0, tokens=None, offsets=None, gate_prob=None, table=None,
          progress=None) -> SimpleNamespace:
    """The matrices, settings and corpus of one run; warns that training runs in numpy, and why."""
    logger.warning("native kernel unavailable, training with numpy: %s", unavailable)
    matrices, lock = EmbeddingMatrices(source, target, target.shape[1]), threading.Lock()
    return SimpleNamespace(**locals())


def train_chunk(model, sentences, rng_state) -> tuple[np.ndarray, np.ndarray]:
    """Train on the given sentence indices, one ``train_step`` per position the gate keeps;
    returns per-sentence loss sums and steps, which join ``progress`` sentence by sentence.

    A diverging run overflows to inf and nan without numpy's warnings, as on
    the kernel: the trainer names it by its loss."""
    m, rng = model, rng_state
    loss_sums, steps = np.zeros(len(sentences)), np.zeros(len(sentences), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, si in enumerate(sentences):
            ids = m.tokens[m.offsets[si] : m.offsets[si + 1]]
            grams, spans = sentence_ngrams(ids, m.order, len(m.target), m.buckets)
            loss_sum, done = 0.0, 0
            for pos in np.flatnonzero(rng.random(len(ids)) < m.gate_prob[ids]):
                dropped = ngram_dropout(len(grams), m.dropout_k, rng)
                negatives = sample_negatives(m.table, int(ids[pos]), m.negatives, rng)
                lr = lr_schedule(m.base_lr, int(m.progress[0]) / m.total_expected)
                outcome = train_step(
                    ids, grams, spans, int(pos), negatives, lr, m.matrices, dropped
                )
                if outcome is None:
                    continue
                if m.l1_tau:
                    apply_l1_after_step(
                        outcome, m.l1_tau, lr, outcome.source_touch_count, m.matrices
                    )
                loss_sum += outcome.loss
                done += 1
            with m.lock:
                m.progress[0] += done
            loss_sums[i], steps[i] = loss_sum, done
    return loss_sums, steps
