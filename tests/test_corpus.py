"""Tokenization, vocabulary construction, and n-gram hashing."""

import gzip
import re
from collections import Counter

import numpy as np
import pytest

from sentvec.corpus import (
    build_vocab,
    encode_corpus,
    iter_corpus,
    ngram_bucket_ids,
    ngram_hash,
    sentence_ngrams,
    tokenize,
)

from conftest import SPLIT_WHITESPACE, word_path_tokens, word_path_words, zipf_topic_sentences


class TestTokenize:
    def test_whitespace_split_with_lowercasing(self):
        assert tokenize("The cat sat", lowercase=True) == ["the", "cat", "sat"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_runs_collapse(self):
        assert tokenize("a\tb  c") == ["a", "b", "c"]

    def test_unicode_whitespace(self):
        assert tokenize("a b c\nd") == ["a", "b", "c", "d"]

    def test_case_preserved_by_default(self):
        assert tokenize("The Cat") == ["The", "Cat"]

    def test_join_tokenize_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tokens = [f"tok{i}" for i in rng.integers(0, 30, size=rng.integers(1, 12))]
            text = " ".join(tokens)
            assert tokenize(text) == tokens

    def test_invalid_utf8_names_byte_offset(self):
        with pytest.raises(UnicodeDecodeError) as err:
            tokenize(b"ok \xff\xfe bad")
        assert err.value.start == 3
        assert "position 3" in str(err.value)


class TestBuildVocab:
    def test_direct_counts(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=1, min_target_count=1)
        assert vocab.word_index == {"a": 0, "b": 1}
        assert dict(vocab.words) == {"a": 2, "b": 1}
        assert vocab.total_tokens == 3

    def test_min_count_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2, min_target_count=1)
        assert [w for w, _ in vocab.words] == ["a"]
        assert vocab.total_tokens == 2

    def test_ids_descend_by_count_ties_by_first_occurrence(self):
        vocab = build_vocab(
            [["x", "y", "y", "z", "x", "q"]], min_count=1, min_target_count=1
        )
        # x and y both occur twice; x appeared first
        assert vocab.word_index == {"x": 0, "y": 1, "z": 2, "q": 3}

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="no tokens"):
            build_vocab([], min_count=1, min_target_count=1)
        with pytest.raises(ValueError, match="no tokens"):
            build_vocab([[]], min_count=1, min_target_count=1)

    def test_counts_order_insensitive(self):
        rng = np.random.default_rng(3)
        sentences = [
            [f"w{i}" for i in rng.integers(0, 20, size=8)] for _ in range(40)
        ]
        vocab_a = build_vocab(sentences, min_count=1, min_target_count=1)
        shuffled = [sentences[i] for i in rng.permutation(len(sentences))]
        vocab_b = build_vocab(shuffled, min_count=1, min_target_count=1)
        assert sorted(vocab_a.words) == sorted(vocab_b.words)

    def test_frequencies_sum_to_one(self):
        vocab = build_vocab(
            [["a"] * 5, ["b"] * 3, ["c", "c"]], min_count=2, min_target_count=1
        )
        freqs = vocab.frequencies()
        assert np.all(freqs > 0) and np.all(freqs <= 1)
        assert abs(freqs.sum() - 1.0) < 1e-12

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], min_count=0, min_target_count=1)
        with pytest.raises(ValueError):
            build_vocab([["a"]], min_count=1, min_target_count=0)

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    @pytest.mark.parametrize("word", ["a b", "", "x\u3000y", "a\nb"])
    def test_words_a_model_file_cannot_hold(
        self, request, without_kernel, tmp_path, engine, word
    ):
        # load_model's word rule, on the kept words: a dropped one is not checked
        from sentvec.trainer import TrainedModel, load_model, save_model
        from sentvec.model import EmbeddingMatrices

        if engine == "kernel":
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        with pytest.raises(ValueError, match=f"^word {re.escape(repr(word))} is empty or holds "
                                             "whitespace, which a model file cannot hold$"):
            build_vocab([["c", word, "c"]], 1, 1)
        vocab = build_vocab([["c", word, "c"]], 2, 1)
        assert vocab.words == [("c", 2)]
        matrices = EmbeddingMatrices(
            source=np.ones((1, 2), np.float32), target=np.ones((1, 2), np.float32), dim=2
        )
        model = TrainedModel(vocab=vocab, matrices=matrices, word_ngrams=1, buckets=0,
                             subsample_t=1e-5)
        save_model(model, str(tmp_path / "m.bin"))
        assert load_model(str(tmp_path / "m.bin")).vocab.words == [("c", 2)]


def two_pass_oracle(sentences, min_count):
    """The two-pass encoding: a Counter, a stable sort, then a per-sentence encode."""
    counts = Counter()
    for tokens in sentences:
        counts.update(tokens)
    kept = sorted(
        ((w, c) for w, c in counts.items() if c >= min_count), key=lambda item: -item[1]
    )
    index = {w: i for i, (w, _) in enumerate(kept)}
    tokens, offsets = [], [0]
    for sentence in sentences:
        ids = [index[t] for t in sentence if t in index]
        if len(ids) >= 2:
            tokens.extend(ids)
            offsets.append(offsets[-1] + len(ids))
    return kept, np.array(tokens, dtype=np.int32), np.array(offsets, dtype=np.int64)


class TestEncodeCorpus:
    CORPORA = {
        "ties": [["x", "y", "y", "z", "x", "q"], ["q", "z", "p"]],
        "min_count_drops": [["a", "a", "b"], ["c", "a", "b", "d"], ["e", "f"]],
        "blank_lines": [[], ["a", "b"], [], [], ["b", "a", "a"], []],
        "zero_or_one_known": [["a", "r1"], ["r2", "r3"], ["a", "b", "r4"], ["b"], ["a", "a"]],
        "all_dropped": [["a"], ["b", "r1"], ["a", "r2"], ["b"], []],
    }

    def check(self, sentences, min_count, min_target_count=1):
        vocab, tokens, offsets = encode_corpus(iter(sentences), min_count, min_target_count)
        words, want_tokens, want_offsets = two_pass_oracle(sentences, min_count)
        assert vocab.words == words
        assert vocab.word_index == {w: i for i, (w, _) in enumerate(words)}
        assert vocab.total_tokens == sum(c for _, c in words)
        assert (vocab.min_count, vocab.min_target_count) == (min_count, min_target_count)
        assert tokens.dtype == np.int32 and offsets.dtype == np.int64
        np.testing.assert_array_equal(tokens, want_tokens)
        np.testing.assert_array_equal(offsets, want_offsets)
        return tokens, offsets

    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("min_count", [1, 2])
    def test_equals_two_pass_oracle(self, name, min_count):
        self.check(self.CORPORA[name], min_count)

    def test_oov_tokens_skipped_and_short_sentences_dropped(self):
        tokens, offsets = self.check(self.CORPORA["zero_or_one_known"], 2)
        # kept words: a (4), b (2); only ["a", "b", "r4"] and ["a", "a"] survive
        assert tokens.tolist() == [0, 1, 0, 0]
        assert offsets.tolist() == [0, 2, 4]

    def test_every_sentence_dropped(self):
        tokens, offsets = self.check(self.CORPORA["all_dropped"], 2)
        assert tokens.size == 0 and offsets.tolist() == [0]

    @pytest.mark.parametrize("seed,min_count", [(31, 1), (32, 5)])
    def test_zipf_corpora(self, seed, min_count):
        sentences = zipf_topic_sentences(
            600, vocab_size=900, n_function=20, n_topics=6, seed=seed
        )
        # short sentences of rare words exercise the sentence drop
        sentences += [s[:2] for s in sentences[::7]]
        self.check(sentences, min_count, min_target_count=3)

    @pytest.mark.parametrize("min_count", [1, 3])
    def test_build_vocab_is_its_vocabulary(self, min_count):
        sentences = zipf_topic_sentences(300, vocab_size=400, seed=33)
        assert build_vocab(sentences, min_count, 2) == encode_corpus(sentences, min_count, 2)[0]

    def test_errors_match_build_vocab(self):
        for args, message in [
            (([["a"]], 0, 1), "min_count must be >= 1"),
            (([["a"]], 1, 0), "min_target_count must be >= 1"),
            (([[], []], 1, 1), "no tokens in corpus"),
            (([["a", "b"]], 2, 1), "no words survive min_count=2"),
        ]:
            with pytest.raises(ValueError, match=message):
                encode_corpus(*args)
            with pytest.raises(ValueError, match=message):
                build_vocab(*args)


class TestNgramHash:
    # golden values from a standalone arithmetic implementation of the
    # hash chain; they pin the constants so model files stay portable
    def test_golden_single_id(self):
        assert ngram_hash([7], 0, 2**20) == 79842
        assert ngram_hash([7], 3, 2**20) == 79845
        assert ngram_hash([0], 0, 2**20) == 390421

    def test_golden_chained(self):
        assert ngram_hash([1, 2], 0, 2**20) == 510318
        assert ngram_hash([1, 2, 3], 0, 1_000_000) == 822877
        assert ngram_hash([123456, 789], 0, 2_000_000) == 636295

    def test_order_sensitive(self):
        assert ngram_hash([1, 2], 0, 2**20) != ngram_hash([2, 1], 0, 2**20)
        assert ngram_hash([2, 1], 0, 2**20) == 779022

    def test_deterministic(self):
        window = [4, 9, 4]
        assert ngram_hash(window, 10, 64) == ngram_hash(window, 10, 64)

    def test_range_property(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            vocab_size = int(rng.integers(0, 1000))
            buckets = int(rng.integers(1, 5000))
            window = rng.integers(0, 100_000, size=rng.integers(1, 5))
            h = ngram_hash(window, vocab_size, buckets)
            assert vocab_size <= h < vocab_size + buckets

    def test_accepts_numpy_ids(self):
        assert ngram_hash(np.array([7], dtype=np.int32), 0, 2**20) == 79842

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ngram_hash([], 0, 16)


class TestNgramBucketIds:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_scalar_hash_on_every_window(self, k):
        rng = np.random.default_rng(31 + k)
        lengths = rng.integers(0, 16, size=2_000)
        lengths[:50] = 0
        lengths[50:100] = 1
        rng.shuffle(lengths)
        # small ids, ids beyond 2**24 and ids up to 2**31 - 1
        scale = rng.choice([2**12, 2**26, 2**31], size=int(lengths.sum()))
        tokens = (rng.random(len(scale)) * scale).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        vocab_size, buckets = 123_457, 2_000_003
        expected = [
            ngram_hash(tokens[start + i : start + i + k], vocab_size, buckets)
            for start, end in zip(offsets[:-1], offsets[1:])
            for i in range(end - start - k + 1)
        ]
        got = ngram_bucket_ids(tokens, offsets, k, vocab_size, buckets)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_buckets_beyond_32_bits(self):
        tokens = np.array([5, 2**30, 7, 2**31 - 1], dtype=np.int64)
        offsets = np.array([0, 4])
        got = ngram_bucket_ids(tokens, offsets, 2, 10, 2**33)
        assert got.tolist() == [
            ngram_hash(tokens[i : i + 2], 10, 2**33) for i in range(3)
        ]

    def test_no_windows(self):
        assert ngram_bucket_ids([], [0], 2, 10, 16).tolist() == []
        assert ngram_bucket_ids([4, 5], [0, 1, 2], 2, 10, 16).tolist() == []

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            ngram_bucket_ids([1, 2], [0, 2], 1, 10, 16)


class TestSentenceNgrams:
    def test_unigram_order_disables_ngrams(self):
        grams, spans = sentence_ngrams([3, 5], 1, 10, 0)
        assert grams.tolist() == []
        assert spans.shape == (0, 2)

    def test_bigram_windows_and_spans(self):
        grams, spans = sentence_ngrams([3, 5, 9], 2, 10, 16)
        assert grams.dtype == np.int64 and spans.dtype == np.int32
        assert len(grams) == 2
        assert spans.tolist() == [[0, 1], [1, 2]]
        assert all(10 <= g < 26 for g in grams)

    def test_duplicates_retained(self):
        grams, _ = sentence_ngrams([3, 3], 2, 10, 16)
        assert len(grams) == 1

    def test_feature_count_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            length = int(rng.integers(1, 15))
            order = int(rng.integers(1, 4))
            ids = rng.integers(0, 50, size=length).tolist()
            grams, spans = sentence_ngrams(ids, order, 50, 128)
            expected = sum(max(0, length - k + 1) for k in range(2, order + 1))
            assert len(grams) == len(spans) == expected

    def test_trigram_spans_cover_three_positions(self):
        _, spans = sentence_ngrams([1, 2, 3, 4], 3, 10, 32)
        assert spans.tolist() == [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sentence_ngrams([1], 0, 10, 16)
        with pytest.raises(ValueError):
            sentence_ngrams([1, 2], 2, 10, 0)


class TestIterCorpus:
    def test_reads_plain_text(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc\n\nd e f\n", encoding="utf-8")
        assert list(iter_corpus(str(path))) == [["a", "b"], ["c"], [], ["d", "e", "f"]]

    def test_reads_gzip(self, tmp_path):
        path = tmp_path / "c.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("x y\nz\n")
        assert list(iter_corpus(str(path))) == [["x", "y"], ["z"]]

    def test_lowercase_flag(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("The Cat\n", encoding="utf-8")
        assert list(iter_corpus(str(path), lowercase=True)) == [["the", "cat"]]

    def test_invalid_utf8_cites_line_and_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"fine line\nbad \xff here\n")
        with pytest.raises(ValueError, match=r"line 2.*byte offset 4"):
            list(iter_corpus(str(path)))


class TestNativeEncoding:
    """``encode_corpus`` of a corpus file on each engine against its ``tokenize`` lists."""

    @staticmethod
    def outcomes(kernel, without_kernel, path, min_count=1, lowercase=False):
        """``encode_corpus`` of the corpus file on the kernel, then on the numpy reference
        engine, then of its ``tokenize`` lists: each a result or its ValueError.  The
        kernel is back in place when it returns."""
        from sentvec import _native

        def encoded(sentences):
            try:
                return encode_corpus(sentences(), min_count, 1)
            except ValueError as err:
                return err

        def corpus():
            return iter_corpus(str(path), lowercase)

        native, load = encoded(corpus), _native.load
        without_kernel()
        try:
            reference = encoded(corpus)
        finally:
            _native.load = load
        return native, reference, encoded(lambda: list(corpus()))

    def assert_same(self, kernel, without_kernel, path, min_count=1, lowercase=False):
        *engines, python = self.outcomes(kernel, without_kernel, path, min_count, lowercase)
        for got in engines:
            if isinstance(python, ValueError):
                assert isinstance(got, ValueError) and str(got) == str(python)
                continue
            assert got[0] == python[0]
            for array, want in zip(got[1:], python[1:]):
                assert array.dtype == want.dtype
                np.testing.assert_array_equal(array, want)
        return python

    def write(self, tmp_path, data: bytes, name="c.txt"):
        path = tmp_path / name
        if name.endswith(".gz"):
            with gzip.open(path, "wb") as fh:
                fh.write(data)
        else:
            path.write_bytes(data)
        return path

    @pytest.mark.parametrize("fixture", ["tiny_corpus", "small_corpus"])
    @pytest.mark.parametrize("min_count", [1, 5])
    def test_conftest_corpora(self, kernel, without_kernel, request, fixture, min_count):
        path = request.getfixturevalue(fixture)
        vocab, _, _ = self.assert_same(kernel, without_kernel, path, min_count)
        assert len(vocab) > 10

    @pytest.mark.parametrize("space", list(SPLIT_WHITESPACE), ids=hex)
    def test_each_whitespace_byte(self, kernel, without_kernel, tmp_path, space):
        sep = bytes([space])
        data = b"a" + sep + b"b" + sep + sep + b"c\n" + sep + b"b a" + sep + b"\nc c\n"
        vocab, tokens, _ = self.assert_same(kernel, without_kernel, self.write(tmp_path, data))
        assert {w for w, _ in vocab.words} == {"a", "b", "c"}

    @pytest.mark.parametrize("data", [
        b"a b\r\nb c a\r\n\r\nc a\r\n",
        b"a b\n\n\nb a c\n\n",
        b"a b c\nc b",
        b"\n\n",
        b"",
        b"a\x00b a\x00b c\nc a\x00b\n",
        "a b\n\u3000".encode(),
    ], ids=["crlf", "empty-lines", "no-final-newline", "only-newlines", "empty", "nul",
            "blank-last-line"])
    @pytest.mark.parametrize("name", ["c.txt", "c.txt.gz"])
    def test_line_ends(self, kernel, without_kernel, tmp_path, data, name):
        from sentvec import _native
        from sentvec.corpus import _encode_file

        path = self.write(tmp_path, data, name)
        for engine in (kernel, _native.reference()):
            with engine.encoder() as encoder:
                _encode_file(encoder, iter_corpus(str(path)))
                lengths = encoder.result()[1]
            # every line counts, also a last one without its end that rewrites to nothing
            assert lengths.tolist() == [len(tokens) for tokens in iter_corpus(str(path))]
        self.assert_same(kernel, without_kernel, path)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_lines_straddle_blocks(self, kernel, without_kernel, tmp_path, monkeypatch, block):
        from sentvec import corpus

        monkeypatch.setattr(corpus, "_BLOCK_BYTES", block)
        # the U+3000 line's rewrite is shorter than it, and ASCII lines follow it
        data = "aa bbb c\ncafé aa\n\na\u3000\u3000b\nc aa\nbbb a\nbbb  c aa c\r\nÄpfel c\nlast aa"
        data = data.encode()
        self.assert_same(kernel, without_kernel, self.write(tmp_path, data))

    def test_non_ascii_lines_keep_first_occurrence_order(self, kernel, without_kernel, tmp_path):
        # U+00A0 and U+3000 separate tokens for str.split, and are no ASCII bytes
        text = (
            "z y\n" "x y　w z\n" "v x\n" "Äpfel u z\n" "　\n" "u v w t\n"
            "t s\u0085r\n" "s r q\n"
        )
        vocab, _, _ = self.assert_same(
            kernel, without_kernel, self.write(tmp_path, text.encode())
        )
        words = [w for w, c in vocab.words if c == 1]
        assert words == ["Äpfel", "q"]

    @pytest.mark.parametrize("name", ["c.txt", "c.txt.gz"])
    def test_lowercase(self, kernel, without_kernel, tmp_path, name):
        text = "The Cat\nthe CAT sat\nÄpfel ÄPFEL äpfel İ\nSAT the\n"
        vocab, _, _ = self.assert_same(
            kernel, without_kernel, self.write(tmp_path, text.encode(), name), lowercase=True
        )
        assert vocab.word_index.keys() >= {"the", "cat", "äpfel", "i̇"}

    @pytest.mark.parametrize("lowercase", [False, True])
    @pytest.mark.parametrize("data,where", [
        (b"fine line\nbad \xff here\n", r"line 2: invalid UTF-8 at byte offset 4"),
        ("café ok\na b\n".encode() + b"a \xc3\n", r"line 3: invalid UTF-8 at byte offset 2"),
        (b"a b\n" * 5 + b"\xe2\x82", r"line 6: invalid UTF-8 at byte offset 0"),
        (b"a b\n\xe2\x82\nc\n", r"line 2: invalid UTF-8 at byte offset 0: invalid continuation"),
    ])
    def test_invalid_utf8_gives_the_same_message(
        self, kernel, without_kernel, tmp_path, monkeypatch, data, where, lowercase
    ):
        from sentvec import corpus

        monkeypatch.setattr(corpus, "_BLOCK_BYTES", 5)
        path = self.write(tmp_path, data)
        *engines, python = self.outcomes(kernel, without_kernel, path, lowercase=lowercase)
        assert isinstance(python, ValueError)
        assert [str(got) for got in engines] == [str(python)] * 2
        assert str(python).startswith(f"{path}: ") and where in str(python)

    @pytest.mark.parametrize("lowercase", [False, True])
    @pytest.mark.parametrize("block", [7, 16, 1 << 16])
    def test_word_path_boundaries(
        self, kernel, without_kernel, tmp_path, monkeypatch, block, lowercase
    ):
        # tokens of 1 to 17 bytes end lines, blocks and the file, after every whitespace byte
        from sentvec import corpus

        monkeypatch.setattr(corpus, "_BLOCK_BYTES", block)
        tokens = word_path_tokens(word_path_words())
        seps = [bytes([SPLIT_WHITESPACE[i % 10]]) for i in range(len(tokens))]
        lines = [a + sep + b for a, b, sep in zip(tokens, tokens[1:], seps)]
        data = b"\n".join(lines + tokens[::-1])
        vocab, _, _ = self.assert_same(
            kernel, without_kernel, self.write(tmp_path, data), lowercase=lowercase
        )
        assert len(vocab) == len({t.decode().lower() if lowercase else t for t in tokens})

    def test_errors_match(self, kernel, without_kernel, tmp_path):
        self.assert_same(kernel, without_kernel, self.write(tmp_path, b" \n\t\n"))
        self.assert_same(kernel, without_kernel, self.write(tmp_path, b"a b\n"), min_count=2)

    def test_iterating_a_corpus_file_twice_reads_it_twice(self, tmp_path):
        corpus = iter_corpus(str(self.write(tmp_path, b"a b\nc\n")))
        assert list(corpus) == list(corpus) == [["a", "b"], ["c"]]


class TestLineBlocks:
    """``_line_blocks`` cuts a stream into whole lines, ``_rewrite_lines`` rewrites some."""

    # empty lines, a character of two bytes, and one of four, which reads can split
    TEXT = "a b\n\ncafé au lait\nx\n\n\n\U0001f600 smile\nlast one"

    class Reads:
        """A text stream whose reads return at most ``size`` characters."""

        def __init__(self, data, size):
            self.data, self.size, self.at = data, size, 0

        def read(self, n):
            chunk = self.data[self.at : self.at + min(n, self.size)]
            self.at += len(chunk)
            return chunk

    class BinaryReads(Reads):
        """A binary stream with ``read1``, which is the read that must be used."""

        def read1(self, n):
            return super().read(n)

        def read(self, n):
            raise AssertionError("read1 was not used")

    @pytest.mark.parametrize("kind", ["bytes", "str"])
    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 65536])
    def test_reads_give_the_lines(self, size, final_newline, kind):
        from sentvec.corpus import _line_blocks

        text = self.TEXT + "\n" * final_newline
        data = text.encode()
        stream = self.BinaryReads(data, size) if kind == "bytes" else self.Reads(text, size)
        blocks = list(_line_blocks(stream))
        assert all(isinstance(block, bytes) and block for block in blocks)
        assert all(block.endswith(b"\n") for block in blocks[:-1])
        assert b"".join(blocks).split(b"\n") == data.split(b"\n")
        if size == 65536:  # one read: its whole lines, then the unfinished last line
            cut = data.rfind(b"\n") + 1
            assert blocks == [block for block in (data[:cut], data[cut:]) if block]
        elif size == 1:  # a read of one byte ends at most one line
            assert len(blocks) == data.count(b"\n") + (not final_newline)

    def test_a_text_stream_keeps_a_lone_surrogate(self):
        from sentvec.corpus import _line_blocks

        blocks = list(_line_blocks(self.Reads("a \udc80\nb", 2)))
        assert blocks == [b"a \xed\xb2\x80\n", b"b"]

    def test_nothing_to_read_gives_no_block(self):
        from sentvec.corpus import _line_blocks

        assert list(_line_blocks(self.BinaryReads(b"", 7))) == []

    def test_rewrite_splices_only_the_lines_with_high_bytes(self):
        from sentvec.corpus import _line_spans, _rewrite_lines

        data = "ab  c\ncafé　x\n\nd E f\nplain".encode()
        starts, ends = _line_spans(data)
        seen = []

        def tokens(text):
            seen.append(text)
            return text.split()

        got, new_starts, new_ends = _rewrite_lines(data, starts, ends, tokens)
        assert seen == ["café　x", "d E f"]
        assert got == "ab  c\ncafé x\n\nd E f\nplain".encode()
        assert [got[a:b] for a, b in zip(new_starts, new_ends)] == got.split(b"\n")
        # spans in any order, touching as a pair file's sides do
        order = np.array([4, 1, 3, 0, 2])
        again, new_starts, new_ends = _rewrite_lines(data, starts[order], ends[order], str.split)
        assert again == got
        assert [again[a:b] for a, b in zip(new_starts, new_ends)] == [
            got.split(b"\n")[i] for i in order
        ]
        lowered, new_starts, new_ends = _rewrite_lines(
            data, starts, ends, lambda text: text.lower().split(), every=True
        )
        assert lowered == "ab c\ncafé x\n\nd e f\nplain".encode()
        assert [lowered[a:b] for a, b in zip(new_starts, new_ends)] == lowered.split(b"\n")
        ascii_only = b"a b\nc"
        assert _rewrite_lines(ascii_only, *_line_spans(ascii_only), tokens)[0] is ascii_only
