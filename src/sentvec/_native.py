"""The native kernel (``_kernel.c``), built, cached and bound here, and ``engine()``,
the one place that picks it or the numpy reference engine (``_reference``).
Inference hashes n-grams with the training step's own code: ``Kernel.embed_text``
composes each line straight from its text, ``Kernel.pair_dots`` the two sides
of each similarity pair, and ``Kernel.embed_rows`` each line of ``sentvec embed``
straight into its text; ``Kernel.pair_fields`` splits a similarity file's lines.

The first ``load()`` in a process compiles the kernel with the local C
compiler, unless a build of the same source and flags for the same CPU is
already cached under ``${XDG_CACHE_HOME:-~/.cache}/sentvec/``, and opens it with
``ctypes``.  The shared object is written and opened in a temporary
directory and then moved into place with ``os.replace``, so concurrent
builders never expose a half-written file.  Once its own build is open,
``load()`` deletes the cached builds of other sources, flags and CPUs; a
process that has one of them open keeps its mapping.  ``ctypes`` releases the
interpreter lock for every call, which lets worker threads train in
parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import threading
import weakref
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .sampling import COIN_SCALE

__all__ = [
    "Encoder", "Kernel", "KernelUnavailable", "LookupTable", "engine", "library_path", "load",
    "reference", "rng_state",
]

SOURCE = Path(__file__).with_name("_kernel.c")
# no fused multiply-add contraction: the uniform fill must round as numpy does
PORTABLE_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# on x86-64 the build targets the host CPU: AVX widens the step's elementwise
# row loops from four floats to eight and AVX-512F to sixteen, AVX-512F
# with AVX-512DQ draws the uniform fill in eight PCG64 lanes instead of four,
# and AVX-512F, -CD and -BW write the %.6g text eight values per pass; the
# kernel's bits and bytes are the same at every width
HOST_FLAGS = ("-march=native",) if platform.machine().lower() in ("x86_64", "amd64") else ()
COMPILE_FLAGS = PORTABLE_FLAGS + HOST_FLAGS

# status codes of sv_train_chunk and sv_draw_negatives
_OK, _ONLY_TARGET, _NO_MEMORY = 0, 1, 2

# most bytes one %.6g float32 value and its separator take; G6_VALUE_BYTES in _kernel.c
_VALUE_BYTES = 13

# bytes of the one text buffer that float rows print through: embed's fills,
# export-vec's and the pair features'
_TEXT_BYTES = 1 << 18

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


class KernelUnavailable(RuntimeError):
    """The kernel could not be compiled or loaded on this machine."""


class Alias(ctypes.Structure):
    """Mirror of ``sv_alias`` in ``_kernel.c``: the arrays of an ``AliasTable``."""

    _fields_ = [
        ("words", _ptr),
        ("threshold", _ptr),
        ("alias", _ptr),
        ("columns", _i64),
    ]


class Model(ctypes.Structure):
    """Mirror of ``sv_model`` in ``_kernel.c``: the arrays and settings of one run."""

    _fields_ = [
        ("tokens", _ptr),
        ("offsets", _ptr),
        ("gate_prob", _ptr),
        ("sampler", Alias),
        ("source", _ptr),
        ("target", _ptr),
        ("progress", _ptr),
        ("vocab_size", _i64),
        ("buckets", _i64),
        ("base_lr", ctypes.c_double),
        ("total_expected", ctypes.c_double),
        ("l1_tau", ctypes.c_double),
        ("dim", ctypes.c_int32),
        ("order", ctypes.c_int32),
        ("dropout_k", ctypes.c_int32),
        ("negatives", ctypes.c_int32),
    ]


def _pointer(array: np.ndarray, dtype, name: str, byte_addressed: bool = False) -> int:
    """The address of ``array``'s data after checking its dtype and layout.

    The kernel dereferences typed pointers, so the data must be aligned to
    its element size, unless the entry point reads it by bytes
    (``byte_addressed``): a mapped model file can place a matrix at any
    offset.
    """
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array")
    if not (byte_addressed or array.flags.aligned):
        raise ValueError(f"{name} is not aligned to its {array.itemsize}-byte elements")
    return array.ctypes.data


def _alias(table, vocab_size: int) -> Alias:
    """Bind an ``AliasTable`` after checking what the kernel relies on.

    Word ids must lie in [0, vocab_size) and thresholds in [1, COIN_SCALE],
    and columns must hold distinct words: then a draw indexes only valid
    memory, and with two or more columns no target can leave nothing to
    draw, so a redraw loop always ends.
    """
    words, threshold, alias = table.entries, table.threshold, table.alias
    n = len(words)
    if n == 0 or threshold.shape != (n,) or alias.shape != (n,):
        raise ValueError("negative table is empty or its arrays differ in length")
    if min(words.min(), alias.min()) < 0 or max(words.max(), alias.max()) >= vocab_size:
        raise ValueError("negative table word id out of range")
    if threshold.min() < 1 or threshold.max() > COIN_SCALE:
        raise ValueError(f"negative table threshold outside [1, {COIN_SCALE}]")
    ordered = np.sort(words)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("negative table columns repeat a word")
    bound = Alias(
        words=_pointer(words, np.int32, "entries"),
        threshold=_pointer(threshold, np.int64, "threshold"),
        alias=_pointer(alias, np.int32, "alias"),
        columns=n,
    )
    bound.keepalive = (words, threshold, alias)
    return bound


class Kernel:
    """Typed entry points of the loaded kernel.

    Every method checks dtype, contiguity, alignment and sizes of the
    arrays it is given before their pointers reach native code.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.sv_train_chunk.argtypes = [ctypes.POINTER(Model), _ptr, _i64, _ptr, _ptr, _ptr]
        lib.sv_train_chunk.restype = ctypes.c_int
        lib.sv_sentence_ngrams.argtypes = [_ptr, _i64, ctypes.c_int32, _i64, _i64, _ptr, _ptr, _ptr]
        lib.sv_sentence_ngrams.restype = _i64
        lib.sv_step.argtypes = [
            ctypes.POINTER(Model), _ptr, _i64, _i64, _ptr, _ptr, ctypes.c_double,
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.sv_step.restype = ctypes.c_int
        lib.sv_draw_negatives.argtypes = [ctypes.POINTER(Alias), _i64, _i64, _ptr, _ptr]
        lib.sv_draw_negatives.restype = ctypes.c_int
        lib.sv_gate_positions.argtypes = [_ptr, _i64, _ptr, _ptr, _ptr]
        lib.sv_gate_positions.restype = _i64
        lib.sv_format_rows.argtypes = [_ptr, _i64, _i64, ctypes.c_char, _ptr, _ptr, _i64]
        lib.sv_format_rows.restype = _i64
        lib.sv_format_lanes.argtypes = []
        lib.sv_format_lanes.restype = ctypes.c_int
        # the values format_rows writes per pass: 8 on an AVX-512F, -CD and -BW build, else 1
        self.format_lanes: int = lib.sv_format_lanes()
        lib.sv_fill_uniform.argtypes = [_ptr, _i64, _ptr, ctypes.c_double, ctypes.c_double]
        lib.sv_fill_uniform.restype = None
        lib.sv_fill_lanes.argtypes = []
        lib.sv_fill_lanes.restype = ctypes.c_int
        # the PCG64 lanes fill_uniform runs: 8 on an AVX-512F and -DQ build, else 4
        self.fill_lanes: int = lib.sv_fill_lanes()
        lib.sv_encoder_new.argtypes = []
        lib.sv_encoder_new.restype = _ptr
        lib.sv_encoder_free.argtypes = [_ptr]
        lib.sv_encoder_free.restype = None
        lib.sv_encode_lines.argtypes = [_ptr, _ptr, _i64]
        lib.sv_encode_lines.restype = ctypes.c_int
        lib.sv_encoder_sizes.argtypes = [_ptr, _ptr]
        lib.sv_encoder_sizes.restype = None
        lib.sv_encoder_ids.argtypes = [_ptr]
        lib.sv_encoder_ids.restype = ctypes.POINTER(ctypes.c_int32)
        lib.sv_encoder_lengths.argtypes = [_ptr, _ptr]
        lib.sv_encoder_lengths.restype = None
        lib.sv_encoder_words.argtypes = [_ptr, _ptr, _i64, _ptr, _ptr]
        lib.sv_encoder_words.restype = _i64
        lib.sv_table_new.argtypes = [_ptr, _ptr, _i64, ctypes.POINTER(_i64)]
        lib.sv_table_new.restype = _ptr
        lib.sv_table_free.argtypes = [_ptr]
        lib.sv_table_free.restype = None
        lib.sv_embed_text.argtypes = [
            _ptr, _ptr, _i64, _i64, ctypes.c_int32, _ptr, _ptr, _ptr, _i64, _ptr, _ptr
        ]
        lib.sv_embed_text.restype = _i64
        lib.sv_pair_dots.argtypes = lib.sv_embed_text.argtypes
        lib.sv_pair_dots.restype = _i64
        lib.sv_embed_rows.argtypes = [*lib.sv_embed_text.argtypes, _i64, ctypes.c_int32, _ptr]
        lib.sv_embed_rows.restype = _i64
        lib.sv_pair_fields.argtypes = [_ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr]
        lib.sv_pair_fields.restype = _i64
        lib.sv_vocab_span.argtypes = [_ptr, _i64, _i64]
        lib.sv_vocab_span.restype = _i64
        lib.sv_vocab_words.argtypes = [_ptr, _i64, _ptr, _ptr, _ptr]
        lib.sv_vocab_words.restype = ctypes.c_int

    @property
    def label(self) -> str:
        """How the init log line names this engine."""
        return f"kernel, {self.fill_lanes} lanes"

    @staticmethod
    def model(
        source: np.ndarray,
        target: np.ndarray,
        order: int,
        buckets: int,
        negatives: int,
        l1_tau: float = 0.0,
        dropout_k: int = 0,
        base_lr: float = 0.0,
        total_expected: float = 1.0,
        tokens: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        gate_prob: np.ndarray | None = None,
        table=None,
        progress: np.ndarray | None = None,
    ) -> Model:
        """Bind matrices, settings and (for ``train_chunk``) the corpus to a ``Model``.

        ``table`` is the ``AliasTable`` negatives are drawn from.  The
        returned object keeps every array it points to alive.  The corpus
        arrays and the table may be omitted for ``step``.
        """
        vocab_size, dim = target.shape
        if source.shape != (vocab_size + buckets, dim):
            raise ValueError(
                f"source shape {source.shape} does not match target {target.shape} "
                f"plus {buckets} buckets"
            )
        if order < 1 or (order >= 2) != (buckets > 0) or negatives < 1:
            raise ValueError(
                f"invalid order={order}, buckets={buckets}, negatives={negatives}"
            )
        m = Model(
            source=_pointer(source, np.float32, "source"),
            target=_pointer(target, np.float32, "target"),
            vocab_size=vocab_size, buckets=buckets, dim=dim, order=order,
            negatives=negatives, l1_tau=l1_tau, dropout_k=dropout_k,
            base_lr=base_lr, total_expected=total_expected,
        )
        keep = [source, target]
        m.n_sentences = 0
        if tokens is not None:
            if offsets[0] != 0 or offsets[-1] != len(tokens) or np.any(np.diff(offsets) < 0):
                raise ValueError("offsets do not delimit the token array")
            if len(tokens) and (tokens.min() < 0 or tokens.max() >= vocab_size):
                raise ValueError("token id out of range")
            if gate_prob.shape != (vocab_size,) or progress.shape != (1,):
                raise ValueError("gate_prob or progress has the wrong shape")
            sampler = _alias(table, vocab_size)
            m.tokens = _pointer(tokens, np.int32, "tokens")
            m.offsets = _pointer(offsets, np.int64, "offsets")
            m.gate_prob = _pointer(gate_prob, np.float64, "gate_prob")
            m.sampler = sampler
            m.progress = _pointer(progress, np.int64, "progress")
            m.n_sentences = len(offsets) - 1
            keep += [tokens, offsets, gate_prob, sampler, progress]
        m.keepalive = keep
        return m

    def train_chunk(
        self, model: Model, sentences: np.ndarray, rng_state: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Train on the given sentence indices; returns per-sentence loss sums and steps."""
        if len(sentences) and (sentences.min() < 0 or sentences.max() >= model.n_sentences):
            raise ValueError("sentence index out of range")
        loss_sums = np.empty(len(sentences), dtype=np.float64)
        steps = np.empty(len(sentences), dtype=np.int64)
        status = self._lib.sv_train_chunk(
            ctypes.byref(model), _pointer(sentences, np.int64, "sentences"), len(sentences),
            _pointer(rng_state, np.uint64, "rng_state"), loss_sums.ctypes.data,
            steps.ctypes.data,
        )
        _check(status)
        return loss_sums, steps

    def sentence_ngrams(
        self, ids: np.ndarray, order: int, vocab_size: int, buckets: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """N-gram row ids and inclusive (start, end) spans of one sentence."""
        if order >= 2 and buckets < 1:
            raise ValueError("buckets must be >= 1 when n-gram order >= 2")
        length = len(ids)
        capacity = sum(max(0, length - k + 1) for k in range(2, order + 1))
        grams = np.empty(capacity, dtype=np.int64)
        spans = np.empty((2, capacity), dtype=np.int32)
        n = self._lib.sv_sentence_ngrams(
            _pointer(ids, np.int32, "ids"), length, order, vocab_size, buckets,
            grams.ctypes.data, spans[0].ctypes.data, spans[1].ctypes.data,
        )
        return grams[:n], spans[:, :n].T

    def step(
        self,
        model: Model,
        ids: np.ndarray,
        pos: int,
        negatives: np.ndarray,
        lr: float,
        dropped: np.ndarray | None = None,
    ) -> float | None:
        """One SGD step in place; the loss, or None for an empty context."""
        if not 0 <= pos < len(ids) or len(negatives) != model.negatives:
            raise ValueError("position or negative count out of range")
        for name, rows in (("ids", ids), ("negatives", negatives)):
            if rows.min() < 0 or rows.max() >= model.vocab_size:
                raise ValueError(f"{name} out of range")
        grams = sum(max(0, len(ids) - k + 1) for k in range(2, model.order + 1))
        if dropped is not None and len(dropped) != grams:
            raise ValueError(f"dropped mask needs {grams} entries")
        loss = ctypes.c_double()
        stepped = self._lib.sv_step(
            ctypes.byref(model), _pointer(ids, np.int32, "ids"), len(ids), pos,
            None if dropped is None else _pointer(dropped, np.uint8, "dropped"),
            _pointer(negatives, np.int64, "negatives"), lr, ctypes.byref(loss),
        )
        if stepped < 0:
            raise MemoryError("native step could not allocate its scratch space")
        return loss.value if stepped else None

    def draw_negatives(
        self, table, target: int, count: int, rng_state: np.ndarray
    ) -> np.ndarray:
        """``count`` negatives for ``target`` from an ``AliasTable``, drawn as training draws them."""
        sampler = _alias(table, 2**31)
        out = np.empty(count, dtype=np.int64)
        _check(self._lib.sv_draw_negatives(
            ctypes.byref(sampler), target, count,
            _pointer(rng_state, np.uint64, "rng_state"), out.ctypes.data,
        ))
        return out

    def gate_positions(
        self, ids: np.ndarray, gate_prob: np.ndarray, rng_state: np.ndarray
    ) -> np.ndarray:
        """Token positions kept by the subsampling gate, drawn as training draws them."""
        if len(ids) and (ids.min() < 0 or ids.max() >= len(gate_prob)):
            raise ValueError("token id out of range")
        positions = np.empty(len(ids), dtype=np.int64)
        n = self._lib.sv_gate_positions(
            _pointer(ids, np.int32, "ids"), len(ids),
            _pointer(gate_prob, np.float64, "gate_prob"),
            _pointer(rng_state, np.uint64, "rng_state"), positions.ctypes.data,
        )
        return positions[:n]

    def fill_uniform(self, out: np.ndarray, pcg64_state: dict, low: float, high: float) -> None:
        """Fill ``out`` as ``Generator(PCG64).uniform(low, high, out.shape).astype(float32)``.

        ``pcg64_state`` is a ``PCG64.state`` dict; the values are the ones a
        generator in that state draws next, bit for bit, and the state is
        not changed.  ``high - low`` is the range numpy computes.
        """
        if pcg64_state.get("bit_generator") != "PCG64":
            raise ValueError("pcg64_state is not a PCG64 state")
        if not out.flags.writeable:
            raise ValueError("out is read-only")
        pointer = _pointer(out, np.float32, "out")
        if not math.isfinite(high - low):
            raise ValueError(f"range of [{low}, {high}) is not finite")
        halves = []
        for name in ("state", "inc"):
            value = pcg64_state["state"][name]
            if not 0 <= value < 2**128:
                raise ValueError(f"PCG64 {name} outside [0, 2^128)")
            halves += [value >> 64, value & (2**64 - 1)]
        state = np.array(halves, dtype=np.uint64)
        self._lib.sv_fill_uniform(pointer, out.size, state.ctypes.data, low, high - low)

    def embed_text(
        self, table: "LookupTable", source: np.ndarray, buckets: int, order: int,
        data, starts: np.ndarray, ends: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Float32 mean of the unigram and n-gram ``source`` rows of each line of ``data``.

        Line i is ``data[starts[i]:ends[i]]`` of the bytes-like ``data``;
        spans may lie anywhere in it.  Its tokens split as in
        ``Encoder.encode_lines`` and are looked up in ``table``: as they are,
        then ASCII-lowercased when they hold a capital; a token still absent
        is skipped.  The known ids' rows, then the rows of the line's windows
        of order 2..``order`` in ``corpus.sentence_ngrams``' order, are added
        in order to a zero sum and divided by their count, as
        the numpy reference engine does; a line with no known token
        gets zeros.  Returns the means, each line's known-token count and
        the number of tokens of all lines.  ``source`` may sit at any byte
        offset.
        """
        out = np.empty((len(ends), source.shape[1]), dtype=np.float32)
        return self._text_call(
            self._lib.sv_embed_text, table, source, buckets, order, data, starts, ends,
            len(ends), out,
        )

    def pair_dots(
        self, table: "LookupTable", source: np.ndarray, buckets: int, order: int,
        data, starts: np.ndarray, ends: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The similarity dots of ``n = len(ends) // 2`` pairs of lines of ``data``.

        Pair k's sides a and b are lines k and n + k, each composed as
        ``embed_text`` composes it, one pair at a time into scratch, so no
        (n, dim) array is made.  Returns the float64 (3, n) a·a, b·b and a·b
        of each pair, each line's known-token count and the number of tokens
        of all lines.  A dot adds its exact float64 products into eight
        partial sums by element index mod 8, in order from +0, and sums
        those as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)).
        """
        if len(ends) % 2:
            raise ValueError(f"{len(ends)} spans are not pairs of lines")
        out = np.empty((3, len(ends) // 2))
        return self._text_call(
            self._lib.sv_pair_dots, table, source, buckets, order, data, starts, ends,
            len(ends) // 2, out,
        )

    def embed_rows(
        self, table: "LookupTable", source: np.ndarray, buckets: int, order: int,
        data, starts: np.ndarray, ends: np.ndarray, oov_flag: bool, out: np.ndarray,
    ) -> Iterator[tuple[int, np.ndarray, int]]:
        """``sentvec embed``'s text of the lines of ``data``, one filled uint8 array ``out``
        at a time.

        Each line is composed as ``embed_text`` composes it, one line at a
        time into scratch, so no (n, dim) array is made, and its text is
        appended to ``out`` as ``format_rows`` writes its row with separator
        ``" "`` and, when ``oov_flag`` is set, its all-OOV flag.  A kernel
        call stops before the first line whose text might not fit in what is
        left of ``out`` (``_VALUE_BYTES * dim + 3`` bytes), and ``out`` must
        hold one such line.  Yields, for each call, the bytes of text at the
        start of ``out``, which the next call overwrites, the known-token
        counts of its lines and the number of their tokens.  The arguments are
        checked once, before the first call.
        """
        check_room(out, min(len(ends), 1), source.shape[1])
        view, args = self._text_args(table, source, buckets, order, data, starts, ends)
        *head, starts_at, ends_at = args
        known, done = np.empty(len(ends), dtype=np.int64), np.zeros(2, dtype=np.int64)
        # addresses taken once: each ``.ctypes`` costs about a microsecond
        text, known_at = _pointer(out, np.uint8, "out"), known.ctypes.data
        done_at = done.ctypes.data
        first = 0
        while first < len(ends):
            at = 8 * first  # the offset of line first in the int64 arrays
            tokens = self._lib.sv_embed_rows(
                *head, starts_at + at, ends_at + at, len(ends) - first, text, known_at + at,
                len(out), bool(oov_flag), done_at,
            )
            if tokens < 0:
                raise MemoryError("native kernel could not allocate its scratch space")
            lines, size = done.tolist()
            if lines == 0:  # out holds a worst-case line, so a call writes at least one
                raise RuntimeError("native embed text wrote no line")
            yield size, known[first : first + lines], tokens
            first += lines
        del view

    @staticmethod
    def _text_call(entry, table, source, buckets, order, data, starts, ends, count, out):
        """``entry``'s ``out``, known-token counts and token total, after checking its
        arguments: ``embed_text`` and ``pair_dots`` take the same."""
        view, args = Kernel._text_args(table, source, buckets, order, data, starts, ends)
        known = np.empty(len(ends), dtype=np.int64)
        tokens = entry(*args, count, out.ctypes.data, known.ctypes.data)
        del view
        if tokens < 0:
            raise MemoryError("native kernel could not allocate its scratch space")
        return out, known, tokens

    @staticmethod
    def _text_args(table, source, buckets, order, data, starts, ends) -> tuple[np.ndarray, list]:
        """The first eight arguments of ``sv_embed_text``, ``sv_pair_dots`` and
        ``sv_embed_rows`` after checking them, and a view of ``data`` to keep while they
        are used."""
        n_rows, dim = source.shape
        if n_rows != table.size + buckets:
            raise ValueError(f"source has {n_rows} rows, not {table.size} + {buckets} buckets")
        if order < 1 or (order >= 2 and buckets < 1):
            raise ValueError(f"invalid order={order} with buckets={buckets}")
        lengths = ends - starts if ends.ndim == 1 and starts.shape == ends.shape else None
        if lengths is None or len(ends) and (
            starts.min() < 0 or ends.max() > len(data) or lengths.min() < 0
        ):
            raise ValueError("spans do not lie within the data")
        # a token takes a byte and a separator, so no window is longer than
        # this; and ctypes would wrap an order past int32 silently
        order = min(order, max((int(lengths.max(initial=0)) + 1) // 2, 1), 2**31 - 1)
        view, address = _address(data)
        return view, [
            table._handle, _pointer(source, np.float32, "source", byte_addressed=True), dim,
            buckets, order, address, _pointer(starts, np.int64, "starts"),
            _pointer(ends, np.int64, "ends"),
        ]

    def pair_fields(self, data) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
        """The records of the similarity file ``data``, bytes whose lines end at ``\\n``.

        Empty lines are skipped but counted; every other line is a record
        until the first that does not hold exactly two tabs.  Returns the
        int64 ``(3 * n,)`` offsets of each record's two tabs and line end,
        its int64 line index, its float64 score, and a bool flag set where
        the score is not a plain decimal (``[+-]digits[.digits]``, 1 to 15
        digits), which reads 0.0 and is for ``float()`` to parse; then the
        index and start of that first bad line, or -1 and -1.  A plain
        decimal's score is the double ``float()`` gives.  The arrays are
        sized by the file's line count, which one memchr pass counts first.
        """
        view, address = _address(data)
        n_lines = self._lib.sv_pair_fields(address, len(data), None, None, None, None, None)
        ends = np.empty(3 * n_lines, dtype=np.int64)
        lines = np.empty(n_lines, dtype=np.int64)
        gold = np.empty(n_lines, dtype=np.float64)
        flags = np.empty(n_lines, dtype=np.bool_)
        bad = np.empty(2, dtype=np.int64)
        n = self._lib.sv_pair_fields(
            address, len(data), ends.ctypes.data, lines.ctypes.data, gold.ctypes.data,
            flags.ctypes.data, bad.ctypes.data,
        )
        del view
        bad_line, bad_start = bad.tolist()
        return ends[: 3 * n], lines[:n], gold[:n], flags[:n], bad_line, bad_start

    def format_rows(
        self, rows: np.ndarray, sep: str, flags: np.ndarray | None, out: np.ndarray
    ) -> memoryview:
        """The text of ``rows``, written at the start of the uint8 array ``out``; returns the
        text, a view of ``out``.

        Each row is one line of ``%.6g`` values, the text ``format(x, ".6g")``
        gives, joined by ``sep``; with ``flags`` each line then ends in a
        space and the row's flag as 0/1.  ``check_rows`` checks the arguments.
        """
        check_rows(rows, sep, flags, out)
        n = self._lib.sv_format_rows(
            _pointer(rows, np.float32, "rows"), *rows.shape, sep.encode(),
            None if flags is None else _pointer(flags, np.bool_, "flags"),
            _pointer(out, np.uint8, "out"), len(out),
        )
        if n < 0:
            raise RuntimeError("native row text overflowed its buffer")
        return memoryview(out)[:n]

    def encoder(self) -> "Encoder":
        """An empty ``Encoder``; use it as a context manager, which frees it."""
        return Encoder(self._lib)

    def lookup_table(self, words: bytes, ends: np.ndarray) -> "LookupTable":
        """A ``LookupTable`` of the words of ``Vocabulary.word_bytes`` form, word i with id i.

        Raises ``ValueError`` when a word repeats an earlier one.
        """
        return LookupTable(self._lib, words, ends)

    def vocabulary_records(
        self, data: np.ndarray, n: int
    ) -> tuple[bytes, np.ndarray, np.ndarray, int] | None:
        """The ``n`` vocabulary records at the start of the uint8 array ``data``, in bulk.

        A record is a uint32 length, that many bytes of word and a uint64
        count, little-endian.  Returns the words in ``Vocabulary.word_bytes``
        form, the int64 counts (a count of 2^63 or more reads negative) and
        the bytes the records span.  Returns None when the records run past
        the end of ``data`` or a word is empty or holds ASCII whitespace;
        nothing is allocated before every record is known to fit.
        """
        address = _pointer(data, np.uint8, "data")
        span = self._lib.sv_vocab_span(address, len(data), n)
        if span < 0:
            return None
        words = np.empty(span - 11 * n, dtype=np.uint8)
        ends = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        if self._lib.sv_vocab_words(
            address, n, words.ctypes.data, ends.ctypes.data, counts.ctypes.data
        ):
            return None
        return words.tobytes(), ends, counts, span


def check_rows(rows: np.ndarray, sep: str, flags: np.ndarray | None, out: np.ndarray) -> None:
    """Raise ``ValueError`` unless both engines' ``format_rows`` can write ``rows`` into ``out``.

    The rows must be 2-D float32, ``sep`` one ASCII character and
    ``flags`` None or boolean, one per row, and ``out`` must hold every
    row's worst case (``check_room``).
    """
    if not (rows.ndim == 2 and rows.dtype == np.float32 and len(sep) == 1 and sep.isascii()
            and (flags is None or flags.dtype == np.bool_ and flags.shape == rows.shape[:1])):
        got = "no flags" if flags is None else f"{flags.dtype} flags of shape {flags.shape}"
        raise ValueError("row text needs 2-D float32 rows, a one-character ASCII separator and "
                         f"boolean flags, one per row; got {rows.dtype} rows of shape "
                         f"{rows.shape}, {sep!r} and {got}")
    check_room(out, len(rows), rows.shape[1])


def check_room(out: np.ndarray, n_rows: int, dim: int) -> int:
    """The most bytes one row of ``dim`` values takes as text, ``_VALUE_BYTES * dim + 3``,
    after checking that the text buffer ``out`` holds ``n_rows`` such rows."""
    row = _VALUE_BYTES * dim + 3
    if n_rows * row > len(out):
        raise ValueError(f"text buffer of {len(out)} bytes holds no {n_rows} rows of {row} bytes")
    return row


def text_buffer(dim: int) -> np.ndarray:
    """A text buffer for rows of ``dim`` values: ``_TEXT_BYTES``, or one row's worst case
    where that is longer (dim 20,165 and up)."""
    return np.empty(max(_TEXT_BYTES, _VALUE_BYTES * dim + 3), dtype=np.uint8)


def check_source(source: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``source``, rows that inference reads, is C-contiguous
    float32, as ``train`` and ``load_model`` make it; the message names its dtype."""
    if source.dtype != np.float32 or not source.flags.c_contiguous:
        layout = "C-contiguous" if source.flags.c_contiguous else "non-contiguous"
        raise ValueError(f"source rows must be C-contiguous float32, got {layout} {source.dtype}")


def _address(data) -> tuple[np.ndarray, int]:
    """A uint8 view of a bytes-like object and its address; keep the view while it is used."""
    view = np.frombuffer(data, dtype=np.uint8)
    return view, view.ctypes.data


class Encoder:
    """The tokens of a corpus being read (``sv_encoder`` in ``_kernel.c``).

    Each distinct token, compared by its bytes, gets the next id at its
    first occurrence; the encoder keeps every token's id and every line's
    token count.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._handle = lib.sv_encoder_new()
        if not self._handle:
            raise MemoryError("native encoder could not allocate its tables")

    def __enter__(self) -> "Encoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._handle:
            self._lib.sv_encoder_free(self._handle)
            self._handle = None

    def encode_lines(self, data, stop: int) -> None:
        """Intern the tokens of the lines of ``data[:stop]``, in order.

        A line ends at ``\\n`` or at ``stop``, and its tokens are the runs
        between ASCII whitespace bytes (``str.split``'s, ``\\x1c``-``\\x1f``
        included); ``corpus`` hands over a line with other whitespace as its
        ``str.split`` tokens joined by spaces.
        """
        if not 0 <= stop <= len(data):
            raise ValueError(f"bad line range {stop} of {len(data)} bytes")
        view, address = _address(data)
        status = self._lib.sv_encode_lines(self._handle, address, stop)
        del view
        if status != 0:
            raise MemoryError("native encoder ran out of memory or of int32 token ids")

    def result(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The int32 id of every token, the int64 token count of every line,
        and the number of distinct tokens.

        The ids are a view of the encoder's own buffer: they are valid
        until the encoder is closed or encodes more lines.  The counts are a copy.
        """
        sizes = np.empty(3, dtype=np.int64)
        self._lib.sv_encoder_sizes(self._handle, sizes.ctypes.data)
        n_ids, n_lines, n_words = sizes.tolist()
        ids = np.ctypeslib.as_array(self._lib.sv_encoder_ids(self._handle), (n_ids,))
        lengths = np.empty(n_lines, dtype=np.int64)
        self._lib.sv_encoder_lengths(self._handle, lengths.ctypes.data)
        return ids, lengths, n_words

    def words(self, which: np.ndarray) -> tuple[bytes, np.ndarray]:
        """The distinct tokens of ids ``which`` (int64), in that order, in
        ``Vocabulary.word_bytes`` form: each followed by ``\\n``, with the end of each."""
        sizes = np.empty(3, dtype=np.int64)
        self._lib.sv_encoder_sizes(self._handle, sizes.ctypes.data)
        if len(which) and (which.min() < 0 or which.max() >= sizes[2]):
            raise ValueError("token id out of range")
        address = _pointer(which, np.int64, "which")
        words = np.empty(
            self._lib.sv_encoder_words(self._handle, address, len(which), None, None),
            dtype=np.uint8,
        )
        ends = np.empty(len(which), dtype=np.int64)
        self._lib.sv_encoder_words(
            self._handle, address, len(which), words.ctypes.data, ends.ctypes.data
        )
        return words.tobytes(), ends


class LookupTable:
    """The ``size`` words of a vocabulary and their ids (``sv_table``), which
    ``Kernel.embed_text`` looks the tokens of lines up in.

    A token finds a word when their bytes are equal.
    """

    def __init__(self, lib: ctypes.CDLL, words: bytes, ends: np.ndarray) -> None:
        n = len(ends)
        if n and (ends[0] < 0 or ends[-1] + 1 != len(words) or np.any(np.diff(ends) < 1)):
            raise ValueError("ends do not delimit the words")
        repeat = _i64()
        self.size = n
        self._handle = lib.sv_table_new(
            words, _pointer(ends, np.int64, "ends"), n, ctypes.byref(repeat)
        )
        if not self._handle:
            if repeat.value >= 0:
                raise ValueError(f"word {repeat.value} repeats an earlier word")
            raise MemoryError("native lookup table could not be allocated")
        weakref.finalize(self, lib.sv_table_free, self._handle)


def _check(status: int) -> None:
    if status == _ONLY_TARGET:
        raise ValueError("negative table contains only the target word")
    if status == _NO_MEMORY:
        raise MemoryError("native kernel could not allocate its scratch space")


def rng_state(rng: np.random.Generator) -> np.ndarray:
    """A kernel PRNG state drawn from ``rng`` (never all zero)."""
    state = rng.integers(0, 2**64, size=4, dtype=np.uint64)
    if not state.any():
        state[0] = 1
    return state


Kernel.rng_state = staticmethod(rng_state)  # a worker's state for ``train_chunk``


def cpu_identity() -> str:
    """The instruction sets of the host CPU, as text.

    On Linux x86 this is the first ``flags`` line of ``/proc/cpuinfo``;
    elsewhere, the machine and processor names.
    """
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def library_path() -> Path:
    """Where the build of the current source and flags for this CPU is cached.

    ``-march=native`` builds for the CPU that compiles, so a cache shared by
    machines with other CPUs must not hand one of them another's build.
    """
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(COMPILE_FLAGS).encode())
    digest.update(cpu_identity().encode())
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(cache) / "sentvec" / f"kernel-{digest.hexdigest()[:32]}.so"


def _build(path: Path, flags: tuple[str, ...] = COMPILE_FLAGS) -> ctypes.CDLL:
    """Compile the kernel to ``path`` and return the library, opened before it is moved there."""
    # only a build needs these; a cached kernel costs ``import ctypes`` alone
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise KernelUnavailable("no C compiler (gcc or cc) on PATH")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            built = Path(tmp) / path.name
            proc = subprocess.run(
                [compiler, *flags, "-o", str(built), str(SOURCE), "-lm"],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                raise KernelUnavailable(
                    f"{compiler} exited with {proc.returncode}: {proc.stderr.strip()[:500]}"
                )
            # open first: another version's pruning may delete ``path`` at any time
            lib = ctypes.CDLL(str(built))
            os.replace(built, path)
    except OSError as err:
        raise KernelUnavailable(f"cannot build the kernel in {path.parent}: {err}") from err
    return lib


def _open(path: Path) -> ctypes.CDLL:
    """The cached build at ``path``, or a new build when there is none."""
    try:
        return ctypes.CDLL(str(path))
    except OSError as err:
        if path.is_file():
            raise KernelUnavailable(f"cannot load {path}: {err}") from err
    # never built, or removed by another version's pruning since
    return _build(path)


def _prune(keep: Path) -> None:
    """Delete the cached builds of other kernel sources, flags and CPUs."""
    for stale in keep.parent.glob("kernel-*.so"):
        if stale.name != keep.name:
            try:
                stale.unlink()
            except OSError:  # already gone, or not ours to delete
                pass


_lock = threading.Lock()
_loaded: list = []  # the process's one load() outcome: a Kernel or a KernelUnavailable


def load() -> Kernel:
    """The process-wide kernel, built on first use; raises ``KernelUnavailable``."""
    with _lock:
        if not _loaded:
            try:
                path = library_path()
                lib = _open(path)
                try:
                    _loaded.append(Kernel(lib))
                except AttributeError as err:
                    raise KernelUnavailable(f"cannot load {path}: {err}") from err
                _prune(path)
            except KernelUnavailable as err:
                _loaded.append(err)
        outcome = _loaded[0]
    if isinstance(outcome, KernelUnavailable):
        raise outcome
    return outcome


def reference():
    """The numpy reference engine (``_reference``), imported on first use."""
    from . import _reference

    return _reference


def engine():
    """The engine of every call site: the loaded ``Kernel``, or where it cannot be
    built the numpy reference engine, which keeps the reason as ``unavailable``."""
    try:
        return load()
    except KernelUnavailable as err:
        fallback = reference()
        fallback.unavailable = err
        return fallback
