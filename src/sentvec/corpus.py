"""Tokenization, one-pass corpus encoding, and n-gram hashing.

A corpus is newline-delimited UTF-8 text, one sentence per line (gzip
accepted when the filename ends in ".gz").  Sentences are tokenized by
splitting on Unicode whitespace; there is no internal sentence splitting.
One pass gives both the vocabulary, whose frequent words get dense ids by
descending count, and the corpus as CSR ids.  A corpus file is read in
blocks of whole lines, and the native kernel splits and interns every line;
Python first rewrites a line with a byte >= 0x80, and every line when
lowercasing, as its ``str.split`` tokens joined by spaces.  ``embed``'s stdin
takes the same block reader, UTF-8 check and rewrite; similarity files and
``embed_batch`` lines take the check or the rewrite too.  Word n-grams are
mapped to a fixed number of bucket rows through a deterministic 32-bit hash
so that models remain portable across implementations.
"""

from __future__ import annotations

import contextlib
import gzip
import zlib
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "CorpusFile",
    "Vocabulary",
    "tokenize",
    "build_vocab",
    "encode_corpus",
    "ngram_hash",
    "ngram_bucket_ids",
    "sentence_ngrams",
    "iter_corpus",
]

# 32-bit FNV-1a seeds the accumulator over the first id's little-endian
# bytes; subsequent ids are chained with the FastText n-gram multiplier.
FNV_OFFSET_BASIS = 2166136261
FNV_PRIME = 16777619
NGRAM_CHAIN_MULTIPLIER = 116049371
_U32 = 0xFFFFFFFF

# bytes read at a time from a corpus file or embed's stdin, and decoded at a time by
# the UTF-8 check: blocks below glibc's default mmap threshold (128 KiB) come from
# the heap, so freeing them does not raise the threshold and leave later large
# temporaries resident in the heap
_BLOCK_BYTES = 1 << 16


def tokenize(text: str | bytes, lowercase: bool = False) -> list[str]:
    """Split one sentence into tokens on runs of Unicode whitespace.

    Empty tokens are never emitted.  ``bytes`` input is decoded as UTF-8
    first; invalid byte sequences raise ``UnicodeDecodeError``, whose
    message names the offending byte offset.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if lowercase:
        text = text.lower()
    return text.split()


class Vocabulary:
    """Word inventory with corpus counts and dense ids.

    Ids run 0..len-1 in descending count order (ties broken by first
    occurrence in the corpus), every kept word has count >= ``min_count``,
    and ``total_tokens`` is the number of kept token occurrences.

    The words are held as one buffer (``word_bytes``) with an int64 count
    array; ``encode_corpus`` and ``load_model`` build that form, and
    ``save_model`` and the kernel's lookup table read it.  The list
    ``words`` of (word, count) and the dict ``word_index`` are built from
    it when first asked for.  The constructor takes those two instead.
    """

    # a plain class: a dataclass generates and compiles methods at import
    __slots__ = (
        "total_tokens", "min_count", "min_target_count",
        "_words", "_index", "_bytes", "_ends", "_counts", "_lookup",
    )

    def __init__(
        self,
        words: list[tuple[str, int]],
        word_index: dict[str, int],
        total_tokens: int,
        min_count: int,
        min_target_count: int,
    ) -> None:
        self.total_tokens = total_tokens
        self.min_count = min_count
        self.min_target_count = min_target_count
        self._words, self._index = words, word_index
        self._bytes = self._ends = self._counts = None
        # (engine, its lookup table of every word), from load_model or the first embed_batch
        self._lookup = None

    @classmethod
    def from_bytes(
        cls, words: bytes, ends: np.ndarray, counts: np.ndarray, total_tokens: int,
        min_count: int, min_target_count: int, lookup=None,
    ) -> "Vocabulary":
        """The vocabulary of ``word_bytes``' form ``(words, ends)`` and its int64 ``counts``.

        ``lookup`` is an engine and its lookup table of the same words, when there is one.
        """
        vocab = cls(None, None, total_tokens, min_count, min_target_count)
        vocab._bytes, vocab._ends, vocab._counts, vocab._lookup = words, ends, counts, lookup
        return vocab

    def __len__(self) -> int:
        return len(self._ends) if self._words is None else len(self._words)

    def _fields(self) -> tuple:
        return (self.words, self.word_index, self.total_tokens, self.min_count,
                self.min_target_count)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"Vocabulary({len(self)} words, total_tokens={self.total_tokens}, "
                f"min_count={self.min_count}, min_target_count={self.min_target_count})")

    @property
    def words(self) -> list[tuple[str, int]]:
        """(word, count) of each id."""
        if self._words is None:
            # no word holds the separator: encode_corpus and load_model see to it
            text = self._bytes.decode("utf-8", "surrogatepass")
            self._words = list(zip(text.split("\n")[:-1], self._counts.tolist()))
        return self._words

    @property
    def word_index(self) -> dict[str, int]:
        """The id of each word."""
        if self._index is None:
            self._index = {w: i for i, (w, _) in enumerate(self.words)}
        return self._index

    def word_bytes(self) -> tuple[bytes, np.ndarray]:
        """Every word's UTF-8 bytes followed by ``\\n``, back to back, and the int64 end of each.

        Word i is ``words[ends[i - 1] + 1:ends[i]]`` (from 0 for i = 0).
        A lone surrogate passes through.
        """
        if self._bytes is None:
            self._bytes, self._ends = _word_bytes([w for w, _ in self._words])
        return self._bytes, self._ends

    def counts(self) -> np.ndarray:
        """Per-id occurrence counts as an int64 vector."""
        if self._counts is None:
            self._counts = np.array([c for _, c in self._words], dtype=np.int64)
        return self._counts

    def frequencies(self) -> np.ndarray:
        """Normalized frequencies f_w = count(w) / total kept tokens; sums to 1."""
        return self.counts() / float(self.total_tokens)

    def target_eligible(self) -> np.ndarray:
        """Boolean mask of words usable as prediction targets."""
        return self.counts() >= self.min_target_count


def _word_bytes(words: list[str]) -> tuple[bytes, np.ndarray]:
    """``words`` in ``Vocabulary.word_bytes`` form."""
    encoded = [w.encode("utf-8", "surrogatepass") for w in words]
    ends = np.cumsum([len(w) + 1 for w in encoded], dtype=np.int64) - 1
    return b"".join([w + b"\n" for w in encoded]), ends


def _bad_word(words: list[str]) -> int:
    """The index of the first of ``words`` that is empty or holds whitespace, or -1.

    No tokenizer yields such a word, and the text formats (export-vec) would
    misread one; the joined words split back into themselves exactly when
    there is none.
    """
    if " ".join(words).split() == words:
        return -1
    return next(i for i, w in enumerate(words) if w.split() != [w])


def encode_corpus(
    sentences: Iterable[list[str]],
    min_count: int,
    min_target_count: int,
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The vocabulary and the corpus as CSR ids, from one pass over ``sentences``.

    Words with fewer than ``min_count`` occurrences are dropped.  Ids are
    assigned in descending count order, ties broken by first occurrence.
    Sentence ``s`` of the result spans ``tokens[offsets[s]:offsets[s + 1]]``
    (int32 ids, int64 offsets); out-of-vocabulary tokens are skipped, and
    sentences left with fewer than 2 known tokens are dropped.  The engine's
    encoder reads a ``CorpusFile`` (``iter_corpus``) in raw blocks, the numpy
    reference engine's interns token lists, and both give the same result.

    Raises ``ValueError`` for an empty corpus, invalid thresholds, or a kept
    word of token lists that is empty or holds whitespace.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if min_target_count < 1:
        raise ValueError(f"min_target_count must be >= 1, got {min_target_count}")

    from . import _native  # imported on first use: ``import sentvec`` stays light

    with contextlib.ExitStack() as stack:
        if isinstance(sentences, CorpusFile):
            encoder = stack.enter_context(_native.engine().encoder())
            _encode_file(encoder, sentences)
        else:  # only the reference engine takes token lists
            encoder = _native.reference().encoder()
            encoder.encode_tokens(sentences)
        ids, lengths, n_words = encoder.result()

        if not n_words:
            raise ValueError("no tokens in corpus")
        counts = np.bincount(ids, minlength=n_words)
        # the sort is stable, so count ties stay in first-occurrence order
        order = np.argsort(-counts, kind="stable")
        order = order[counts[order] >= min_count]
        if not order.size:
            raise ValueError(f"no words survive min_count={min_count}; corpus too small")
        remap = np.full(n_words, -1, dtype=np.int32)
        remap[order] = np.arange(order.size, dtype=np.int32)
        ids = remap[ids]
        words, ends = encoder.words(order)
    # the provisional ids are freed here, before the per-token masks below

    kept = counts[order].astype(np.int64, copy=False)
    vocab = Vocabulary.from_bytes(
        words, ends, kept, int(kept.sum()), min_count, min_target_count
    )
    # only the dropped tokens are mapped to their sentences: no per-token sentence index
    oov_sentence = np.searchsorted(np.cumsum(lengths), np.flatnonzero(ids < 0), side="right")
    known = lengths - np.bincount(oov_sentence, minlength=len(lengths))
    trainable = known >= 2
    tokens = ids[(ids >= 0) & np.repeat(trainable, lengths)]
    offsets = np.concatenate([[0], np.cumsum(known[trainable])])
    return vocab, tokens, offsets


def _encode_file(encoder, corpus: CorpusFile) -> None:
    """Read ``corpus`` into an engine's ``Encoder``, a block of whole lines at a time."""
    tokens = (lambda text: text.lower().split()) if corpus.lowercase else str.split
    lines = 0
    with corpus.open() as handle, _gzip_errors(corpus.path):
        for block in _line_blocks(handle):
            # the message of a line with its end, as iterating the file reads it
            _check_utf8(block, corpus.path, lines, keep_end=True)
            lines += block.count(b"\n")
            if corpus.lowercase or not block.isascii():
                if not block.endswith(b"\n"):
                    block += b"\n"  # ends the last line: its rewrite may leave it empty
                block = _rewrite_lines(block, *_line_spans(block), tokens, corpus.lowercase)[0]
            encoder.encode_lines(block, len(block))


def _line_blocks(stream) -> Iterator[bytes]:
    """The bytes of ``stream`` in blocks of whole lines: every block but the last ends at ``\\n``.

    A block holds the lines that end within one read of up to
    ``_BLOCK_BYTES`` (``read1`` where the stream has it, so a pipe's lines
    go on as they come), from the start of the first, which earlier reads
    may hold.  A text stream's ``str`` is encoded as UTF-8, a lone
    surrogate passed through.
    """
    read = getattr(stream, "read1", stream.read)
    pending = []  # the reads since the last line end
    while chunk := read(_BLOCK_BYTES):
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]] if cut < len(chunk) else []
        else:
            pending.append(chunk)
    if rest := b"".join(pending):
        yield rest


def _line_spans(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The int64 (starts, ends) of the lines of ``data``, which end at ``\\n`` or at its end."""
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    if data and not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    return np.concatenate([[0], ends + 1])[: len(ends)], ends


def _check_utf8(data: bytes, path, before: int, keep_end: bool = False) -> None:
    """Raise ``_decode_line``'s ``ValueError`` for the first line of ``data`` that is not UTF-8.

    ``data`` holds lines that end at ``\\n`` and follow line ``before`` of
    file ``path``.  It is decoded in pieces of whole lines of about
    ``_BLOCK_BYTES``, whose ``str`` the heap reuses; the line a decode fails
    in is then decoded alone, with its ``\\n`` when ``keep_end`` is set, for
    the byte offset and reason a line-by-line reader gives.
    """
    if data.isascii():
        return
    view, at = memoryview(data), 0
    while at < len(data):
        stop = data.find(b"\n", at + _BLOCK_BYTES) + 1 or len(data)
        try:
            str(view[at:stop], "utf-8")
        except UnicodeDecodeError as err:
            # the line ends are ASCII, so the bad bytes lie inside one line
            bad = at + err.start
            start = data.rfind(b"\n", 0, bad) + 1
            end = data.find(b"\n", bad)
            end = len(data) if end < 0 else end + keep_end
            _decode_line(data[start:end], path, before + data.count(b"\n", 0, start) + 1)
        at = stop


def _rewrite_lines(
    data: bytes, starts: np.ndarray, ends: np.ndarray, tokens, every: bool = False
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The lines ``data[starts[i]:ends[i]]`` as bytes the engines split: ``(data, starts, ends)``.

    The engines split at ASCII whitespace only.  So each line with a byte
    >= 0x80, or every line when ``every`` is set, is decoded (a lone
    surrogate passes) and replaced by the ``tokens`` it gives, joined by
    spaces; one numpy pass finds those lines.  The rewrites are spliced
    into one buffer with the bytes around them, so ``\\n``-separated lines
    stay so.  The spans must not overlap.
    """
    if every:
        chosen = np.arange(len(ends))
    elif data.isascii():
        return data, starts, ends
    else:
        high = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) >= 0x80)
        chosen = np.flatnonzero(np.searchsorted(high, starts) < np.searchsorted(high, ends))
    chosen = chosen[np.argsort(starts[chosen], kind="stable")]  # in the order of data
    # the pieces are views: the join is the one copy of data
    view, pieces, lengths, at = memoryview(data), [], [], 0
    for a, b in zip(starts[chosen].tolist(), ends[chosen].tolist()):
        text = " ".join(tokens(str(view[a:b], "utf-8", "surrogatepass")))
        pieces += (view[at:a], text.encode("utf-8", "surrogatepass"))
        lengths.append(len(pieces[-1]))
        at = b
    pieces.append(view[at:])
    # each span moves by what the rewritten spans before it grew
    lengths = np.array(lengths, dtype=np.int64)
    growth = np.cumsum(lengths - (ends[chosen] - starts[chosen]))
    shift = np.concatenate([[0], growth])[np.searchsorted(ends[chosen], starts, "right")]
    starts, ends = starts + shift, ends + shift
    ends[chosen] = starts[chosen] + lengths
    return b"".join(pieces), starts, ends


def build_vocab(
    sentences: Iterable[list[str]], min_count: int, min_target_count: int
) -> Vocabulary:
    """The vocabulary ``encode_corpus`` builds from ``sentences``, with its errors."""
    return encode_corpus(sentences, min_count, min_target_count)[0]


def ngram_hash(window_ids, vocab_size: int, buckets: int) -> int:
    """Hash a window of unigram ids to a bucket row id in [vocab_size, vocab_size + buckets).

    The 32-bit accumulator is seeded by FNV-1a over the little-endian
    bytes of the first id, then chained as ``h = h * 116049371 + id`` with
    wrapping arithmetic for each subsequent id.  The constants are fixed:
    two implementations hashing the same window must agree.
    """
    if len(window_ids) == 0:
        raise ValueError("empty n-gram window")
    h = FNV_OFFSET_BASIS
    for byte in int(window_ids[0]).to_bytes(4, "little"):
        h = ((h ^ byte) * FNV_PRIME) & _U32
    for wid in window_ids[1:]:
        h = (h * NGRAM_CHAIN_MULTIPLIER + int(wid)) & _U32
    return vocab_size + (h % buckets)


def ngram_bucket_ids(tokens, offsets, k: int, vocab_size: int, buckets: int) -> np.ndarray:
    """Bucket row ids of every length-``k`` window of a CSR batch, as int64.

    ``tokens`` holds the unigram ids of all sentences back to back and
    sentence ``s`` spans ``tokens[offsets[s]:offsets[s + 1]]``.  Windows
    never cross a sentence boundary; they come out by sentence, then by
    start position, and each equals ``ngram_hash`` of its window.
    """
    if k < 2:
        raise ValueError(f"n-gram order must be >= 2, got {k}")
    ids = np.asarray(tokens).astype(np.uint32)
    offsets = np.asarray(offsets, dtype=np.int64)
    windows = np.maximum(np.diff(offsets) - (k - 1), 0)
    first = np.cumsum(windows) - windows
    starts = np.repeat(offsets[:-1] - first, windows) + np.arange(int(windows.sum()))
    # the same chain as ``ngram_hash`` in wrapping uint32 arithmetic; every
    # operand is a uint32 so numpy 1.x and 2.x pick the same loop
    h = np.full(len(starts), FNV_OFFSET_BASIS, dtype=np.uint32)
    head = ids[starts]
    for shift in (0, 8, 16, 24):
        h ^= (head >> np.uint32(shift)) & np.uint32(0xFF)
        h *= np.uint32(FNV_PRIME)
    for j in range(1, k):
        h *= np.uint32(NGRAM_CHAIN_MULTIPLIER)
        h += ids[starts + j]
    return int(vocab_size) + h.astype(np.int64) % int(buckets)


def sentence_ngrams(
    ids, order: int, vocab_size: int, buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket row ids and token spans of one sentence's n-grams of order 2..``order``.

    The numpy twin of the kernel's ``sentence_ngrams``: the int64 row ids
    come out by order, then by window start, and ``spans[k] = (first,
    last)`` (int32, inclusive) are the token positions gram ``k`` covers.
    ``order=1`` yields none.
    """
    if order < 1:
        raise ValueError(f"n-gram order must be >= 1, got {order}")
    if order >= 2 and buckets < 1:
        raise ValueError("buckets must be >= 1 when n-gram order >= 2")
    bounds = [0, len(ids)]
    grams = [np.empty(0, dtype=np.int64)]
    spans = [np.empty((0, 2), dtype=np.int32)]
    for k in range(2, min(order, len(ids)) + 1):
        grams.append(ngram_bucket_ids(ids, bounds, k, vocab_size, buckets))
        first = np.arange(len(ids) - k + 1, dtype=np.int32)
        spans.append(np.column_stack([first, first + (k - 1)]))
    return np.concatenate(grams), np.concatenate(spans)


def _decode_line(raw: bytes, path, lineno: int) -> str:
    """Line ``lineno`` of file ``path`` as text; invalid UTF-8 raises ``ValueError``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(
            f"{path}: line {lineno}: invalid UTF-8 at byte offset {err.start}: {err.reason}"
        ) from err


@contextlib.contextmanager
def _gzip_errors(path):
    """Raise a truncated, corrupt or non-gzip stream's error as a ``ValueError`` naming ``path``."""
    try:
        yield
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise ValueError(f"{path}: invalid gzip data: {err}") from err


class CorpusFile:
    """The lines of a corpus file as token lists; see ``iter_corpus``."""

    __slots__ = ("path", "lowercase")

    def __init__(self, path, lowercase: bool = False) -> None:
        self.path = path
        self.lowercase = lowercase

    def open(self):
        """The file as a binary stream, decompressed when its name ends in ".gz"."""
        opener = gzip.open if str(self.path).endswith(".gz") else open
        return opener(self.path, "rb")

    def __iter__(self) -> Iterator[list[str]]:
        with self.open() as handle, _gzip_errors(self.path):
            for lineno, raw in enumerate(handle, start=1):
                yield tokenize(_decode_line(raw, self.path, lineno), lowercase=self.lowercase)


def iter_corpus(path: str, lowercase: bool = False) -> CorpusFile:
    """One token list per input line, each time it is iterated; transparently reads .gz files.

    Decoding failures are raised as ``ValueError`` with the line number
    and byte offset of the first invalid byte.  ``encode_corpus`` reads
    the returned ``CorpusFile`` in raw blocks through the engine's encoder.
    """
    return CorpusFile(path, lowercase)
