"""Inference-time composition, similarity scoring, and diagnostics.

Sentence embedding at inference uses the full feature list (no dropout,
no masking, no subsampling) and always runs in batches through
``embed_batch``.  Similarity datasets are tab-separated
``score<TAB>sentence_a<TAB>sentence_b`` lines; predicted cosine
similarities are correlated against the gold scores with Pearson's r and
Spearman's rho.  ``SimilarityPairs.read`` is the one reader of such a
file: it splits the whole file's bytes and parses its plain-decimal
scores in one engine call, and ``evaluate_similarity`` scores its pairs
from those bytes in one more, with no per-record Python objects on an
ASCII file of plain-decimal scores.  ``write_pair_features`` composes
the same sides' spans into |u−v| and u·v classifier features.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Vocabulary, _check_utf8, _rewrite_lines
from .trainer import TrainedModel, _byte_output, _row_fills

__all__ = [
    "SimilarityPairs",
    "OovStats",
    "embed_batch",
    "embed_sentence",
    "cosine",
    "pearson",
    "spearman",
    "evaluate_similarity",
    "pair_features",
    "write_pair_features",
    "norm_profile",
    "arora_weight",
]


class SimilarityPairs:
    """The labelled pairs of a similarity dataset, as the bytes of its file.

    ``data`` holds three spans per record, back to back: span ``i`` is
    ``data[ends[i - 1]:ends[i]]`` (from 0 for ``i = 0``).  Span ``3k``
    holds record k's score, span ``3k + 1`` its sentence a and span
    ``3k + 2`` its sentence b, each sentence after the tab before it; a
    score span also holds the line ends before it.  To the kernel those
    are whitespace.  ``gold`` holds the scores as float64.
    """

    __slots__ = ("data", "ends", "gold")

    def __init__(self, data: bytes, ends: np.ndarray, gold: np.ndarray) -> None:
        self.data, self.ends, self.gold = data, ends, gold

    def __len__(self) -> int:
        return len(self.gold)

    @classmethod
    def read(cls, path) -> "SimilarityPairs":
        """Parse the ``score<TAB>sentence_a<TAB>sentence_b`` lines of file ``path``.

        Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as ``bytes.splitlines``
        splits them; empty lines are skipped but counted.  Every other line
        must hold exactly two tabs and a finite score, and the file must be
        UTF-8.  One engine call (``pair_fields``) finds the tabs and line ends
        of the whole file and parses each plain-decimal score, ``float()``
        parses each other score, and ``corpus._check_utf8`` checks the UTF-8
        of the lines up to the first bad one.  The first line that fails a
        check raises a ``ValueError`` citing ``path`` and the line number,
        with the text a line-by-line reader gives.
        """
        from . import _native

        with open(path, "rb") as fh:
            data = fh.read()
        # no multi-byte character holds \r or \n
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        ends, lines, gold, flags, bad_line, bad_start = _native.engine().pair_fields(data)
        for k in np.flatnonzero(flags).tolist():
            tab = int(ends[3 * k])
            try:
                gold[k] = _score(data[_line_start(data, tab) : tab], path, int(lines[k]) + 1)
            except ValueError:
                # an invalid UTF-8 line up to record k's goes first
                _check_utf8(data[: ends[3 * k + 2]], path, 0)
                raise
        # the UTF-8 of the records and of the first bad line; what follows it is not read
        line_end = data.find(b"\n", bad_start) if bad_line >= 0 else -1
        stop = len(data) if line_end < 0 else line_end
        _check_utf8(data[:stop], path, 0)
        if bad_line >= 0:
            fields = data.count(b"\t", bad_start, stop) + 1
            raise ValueError(
                f"{path}: line {bad_line + 1}: expected 3 tab-separated fields, got {fields}"
            )
        return cls(data, ends, gold)

    def side_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """The (starts, ends) of the 2n sides: record k's side a is span k, its side b
        span n + k, each from the tab before its text."""
        bounds = self.ends
        return (np.concatenate([bounds[0::3], bounds[1::3]]),
                np.concatenate([bounds[1::3], bounds[2::3]]))


def _line_start(data: bytes, at) -> int:
    """The offset at which the line of ``data`` holding offset ``at`` starts."""
    return data.rfind(b"\n", 0, int(at)) + 1


def _score(text: bytes, path, lineno: int) -> float:
    """The score field ``text`` of line ``lineno``, as ``float()`` parses its ``str``."""
    text = text.decode("utf-8")
    try:
        gold = float(text)
    except ValueError as err:
        raise ValueError(f"{path}: line {lineno}: bad score {text!r}") from err
    if not math.isfinite(gold):
        raise ValueError(f"{path}: line {lineno}: non-finite score {text!r}")
    return gold


class OovStats:
    """Running out-of-vocabulary counts of the lines ``embed_batch`` composed."""

    # a plain class: a dataclass generates and compiles methods at import
    __slots__ = ("lines", "all_oov_lines", "tokens", "oov_tokens")

    def __init__(self) -> None:
        self.lines = 0
        self.all_oov_lines = 0
        self.tokens = 0
        self.oov_tokens = 0

    @property
    def oov_token_rate(self) -> float:
        return self.oov_tokens / self.tokens if self.tokens else 0.0


def _table(vocab: Vocabulary, engine):
    """``engine``'s lookup table of ``vocab``'s words, cached beside the engine that built it."""
    if vocab._lookup is None or vocab._lookup[0] is not engine:
        vocab._lookup = engine, engine.lookup_table(*vocab.word_bytes())
    return vocab._lookup[1]


def _engine_text(model: TrainedModel, data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """The engine that composes the lines ``data[starts[i]:ends[i]]``, its lookup table, and
    those lines as bytes it splits: ``(engine, table, data, starts, ends)``.

    ``corpus._rewrite_lines`` rewrites each line with a byte >= 0x80 as its
    ``str.split`` tokens, each non-ASCII one that the vocabulary lacks
    ``str.lower()``ed, which leaves no ASCII capital for the kernel's own
    case fold.  An ASCII token stays as it is: the kernel folds it as
    ``str.lower()`` would.  Source rows that are not C-contiguous float32
    raise ``_native.check_source``'s ``ValueError``, on either engine.
    """
    from . import _native

    _native.check_source(model.matrices.source)
    engine = _native.engine()

    def token(t: str) -> str:
        if t.isascii():
            return t
        lower = t.lower()
        # only a token that lowering changes needs the vocabulary's dict
        return t if lower == t or t in model.vocab.word_index else lower

    def tokens(text: str) -> list[str]:
        return list(map(token, text.split()))

    data, starts, ends = _rewrite_lines(data, starts, ends, tokens)
    return engine, _table(model.vocab, engine), data, starts, ends


def _all_oov(known: np.ndarray, tokens: int, stats: OovStats | None) -> np.ndarray:
    """Each line's all-OOV flag from its known-token count; ``stats``, when given,
    accumulates the lines' counts, ``tokens`` the number of all their tokens."""
    flags = known == 0
    if stats is not None:
        stats.lines += len(known)
        stats.all_oov_lines += int(flags.sum())
        stats.tokens += tokens
        stats.oov_tokens += tokens - int(known.sum())
    return flags


def embed_batch(
    model: TrainedModel, lines, stats: OovStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Compose the embeddings of many lines; returns (vectors, all_oov flags).

    Each line, a ``str`` or UTF-8 ``bytes``, is split on whitespace; a
    ``str`` line is encoded as UTF-8 first, a lone surrogate passed through.
    Tokens are looked up verbatim, then lowercased as a fallback, and
    skipped when still unknown.  A line's vector is the mean of its
    unigram rows and of the bucket rows of its n-grams of order
    2..``word_ngrams`` (duplicates count per occurrence).  A line with no
    in-vocabulary token gets the zero vector and its flag set.  ``stats``,
    when given, accumulates the batch's line and token counts.
    """
    lines = [
        text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
        for text in lines
    ]
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    ends = np.cumsum(lengths)
    engine, table, data, starts, ends = _engine_text(model, b"".join(lines), ends - lengths, ends)
    vectors, known, tokens = engine.embed_text(
        table, model.matrices.source, model.buckets, model.word_ngrams, data, starts, ends
    )
    return vectors, _all_oov(known, tokens, stats)


def embed_sentence(model: TrainedModel, text: str) -> tuple[np.ndarray, bool]:
    """Compose the embedding of one sentence; returns (vector, all_oov flag).

    A batch of one line through ``embed_batch``.
    """
    vectors, flags = embed_batch(model, [text])
    return vectors[0], bool(flags[0])


def cosine(u, v) -> float:
    """Cosine similarity; zero by convention when either norm vanishes."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def _validated(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise ValueError("need at least 2 observations")
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        raise ValueError("zero variance: correlation undefined")
    return xs, ys


def pearson(xs, ys) -> float:
    """Product-moment correlation with 64-bit accumulation."""
    xs, ys = _validated(xs, ys)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    return float((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties receive the mean of their rank range."""
    # a tie's rank is the same in any order, so any sort gives the stable sort's ranks;
    # but NaN, which sorts last, never ties, so its indices go back into their order
    order = np.argsort(values)
    sorted_vals = values[order]
    if len(values) and np.isnan(sorted_vals[-1]):
        nans = int(np.isnan(sorted_vals).sum())
        order[-nans:] = np.sort(order[-nans:])
    # first sorted position of every run of equal values, then the end
    bounds = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1], [True]]))
    first, stop = bounds[:-1], bounds[1:]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((first + stop - 1) / 2.0 + 1.0, stop - first)
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson on fractional midranks."""
    xs, ys = _validated(xs, ys)
    return pearson(_midranks(xs), _midranks(ys))


def evaluate_similarity(
    model: TrainedModel, pairs: SimilarityPairs, stats: OovStats | None = None
) -> tuple[float, float, int]:
    """Correlate predicted pair cosines against gold scores.

    Each side's line is composed as ``embed_batch`` composes it, straight
    from its span of the ``pairs``' bytes (``side_spans``), and one engine
    call returns the float64 a·a, b·b and a·b of every pair
    (``pair_dots``): the kernel holds no vector but the pair's own two.
    Records where either side has no in-vocabulary token are excluded (a
    constant zero prediction would poison the correlation); the number of
    used records is returned alongside (pearson, spearman).  A side whose
    vector has zero norm scores cosine 0, as in ``cosine``.  A
    ``ValueError`` names the gold scores or the predicted cosines when
    all of the used pairs' are equal.  ``stats``, when given, accumulates
    the OOV counts of both sides.
    """
    n = len(pairs)
    engine, table, data, starts, ends = _engine_text(model, pairs.data, *pairs.side_spans())
    dots, known, tokens = engine.pair_dots(
        table, model.matrices.source, model.buckets, model.word_ngrams, data, starts, ends
    )
    oov = _all_oov(known, tokens, stats).reshape(2, n)
    used = ~(oov[0] | oov[1])
    n_used = int(used.sum())
    if n_used < 2:
        raise ValueError(
            f"need >=2 usable record pairs, got {n_used} "
            f"({n - n_used} excluded as out-of-vocabulary)"
        )
    golds = pairs.gold[used]
    aa, bb, ab = dots[:, used]
    norm_a, norm_b = np.sqrt(aa), np.sqrt(bb)
    preds = np.zeros(n_used)
    np.divide(ab, norm_a * norm_b, out=preds, where=(norm_a != 0.0) & (norm_b != 0.0))
    for name, values in (("gold score", golds), ("predicted cosine", preds)):
        if np.ptp(values) == 0.0:
            raise ValueError(
                f"zero variance: all {n_used} used pairs have the same {name} "
                f"({values[0]:.6g}); correlation undefined"
            )
    return pearson(golds, preds), spearman(golds, preds), n_used


def pair_features(v1, v2) -> np.ndarray:
    """Classifier features for a sentence pair: |v1 - v2| then v1 * v2.

    Also takes two (n, dim) batches and returns (n, 2*dim) rows.
    """
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    if v1.shape != v2.shape:
        raise ValueError(f"dimension mismatch: {v1.shape} vs {v2.shape}")
    return np.concatenate([np.abs(v1 - v2), v1 * v2], axis=-1)


def write_pair_features(model: TrainedModel, pairs: SimilarityPairs, destination) -> int:
    """Write one TSV row of 2*dim floats per record, for external classifiers.

    Both sides of every pair are composed as ``embed_batch`` composes
    them, from their spans of the ``pairs``' bytes (``side_spans``), as many
    pairs per engine call as have float32 features of the text buffer's
    size (65,536 values), and printed through that one buffer, whose bytes
    each fill writes out as they are, so the memory held does not grow with
    the pairs.  Every record produces a row (an all-OOV side contributes the
    zero vector); returns the number of rows written.  ``destination`` is a
    path or an open text file; lines end in ``\\n``, written to a UTF-8 text
    file's binary layer.
    """
    from . import _native

    n, source = len(pairs), model.matrices.source
    engine, table, data, starts, ends = _engine_text(model, pairs.data, *pairs.side_spans())
    step = max(1, _native._TEXT_BYTES // (8 * source.shape[1]))
    out = _native.text_buffer(2 * source.shape[1]) if n else None
    with _byte_output(destination) as write:
        for a in range(0, n, step):
            b = min(a + step, n)
            sides = np.r_[a:b, n + a : n + b]
            vectors = engine.embed_text(
                table, source, model.buckets, model.word_ngrams, data, starts[sides], ends[sides]
            )[0]
            features = pair_features(vectors[: b - a], vectors[b - a :])
            for _, text in _row_fills(features, "\t", out):
                write(text)
    return n


def norm_profile(model: TrainedModel) -> np.ndarray:
    """Per-word (log natural frequency, source-vector L2 norm) pairs, shape (|V|, 2)."""
    freqs = model.vocab.frequencies()
    norms = np.linalg.norm(
        model.matrices.source[: len(model.vocab)].astype(np.float64), axis=1
    )
    return np.column_stack([np.log(freqs), norms])


def arora_weight(f_w: float, a: float) -> float:
    """Static frequency down-weighting a / (a + f_w), for diagnostic comparison."""
    if not 0 < f_w < math.inf:
        raise ValueError(f"frequency must be finite and > 0, got {f_w}")
    if not 0 < a < math.inf:
        raise ValueError(f"weighting parameter must be finite and > 0, got {a}")
    return a / (a + f_w)
