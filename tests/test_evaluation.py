"""Inference embedding, correlation statistics, pair features, diagnostics."""

import dataclasses
import io
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from sentvec import _reference, evaluation
from sentvec.corpus import Vocabulary, ngram_hash, sentence_ngrams
from sentvec.evaluation import (
    OovStats,
    SimilarityPairs,
    arora_weight,
    cosine,
    embed_batch,
    embed_sentence,
    evaluate_similarity,
    norm_profile,
    pair_features,
    pearson,
    spearman,
    write_pair_features,
)
from sentvec.model import EmbeddingMatrices
from sentvec.trainer import TrainedModel

from conftest import row_text as engine_row_text
from conftest import write_pairs


def toy_model(words, source, target=None, word_ngrams=1, buckets=0):
    """Model with hand-picked source rows; one row per word (+ buckets)."""
    source = np.asarray(source, dtype=np.float32)
    vocab = Vocabulary(
        words=[(w, 10) for w in words],
        word_index={w: i for i, w in enumerate(words)},
        total_tokens=10 * len(words),
        min_count=1,
        min_target_count=1,
    )
    if target is None:
        target = np.zeros((len(words), source.shape[1]), dtype=np.float32)
    return TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices(source=source, target=np.asarray(target),
                                   dim=source.shape[1]),
        word_ngrams=word_ngrams,
        buckets=buckets,
        subsample_t=1e-5,
    )


class TestEmbedSentence:
    def test_single_known_word_is_its_row(self):
        model = toy_model(["cat", "dog"], [[1.0, 2.0], [3.0, 4.0]])
        vec, oov = embed_sentence(model, "dog")
        assert not oov
        np.testing.assert_array_equal(vec, [3.0, 4.0])

    def test_all_oov_returns_zero_and_flag(self):
        model = toy_model(["cat"], [[1.0, 2.0]])
        vec, oov = embed_sentence(model, "unknown words only")
        assert oov
        np.testing.assert_array_equal(vec, [0.0, 0.0])

    def test_empty_sentence_flags_oov(self):
        model = toy_model(["cat"], [[1.0, 2.0]])
        _, oov = embed_sentence(model, "")
        assert oov

    def test_oov_tokens_skipped_not_hashed(self):
        model = toy_model(["cat", "dog"], [[2.0, 0.0], [0.0, 2.0]])
        with_oov, _ = embed_sentence(model, "cat zzz dog")
        without, _ = embed_sentence(model, "cat dog")
        np.testing.assert_array_equal(with_oov, without)

    def test_lowercase_fallback_lookup(self):
        model = toy_model(["cat"], [[1.0, 2.0]])
        vec, oov = embed_sentence(model, "Cat")
        assert not oov
        np.testing.assert_array_equal(vec, [1.0, 2.0])

    def test_deterministic(self):
        model = toy_model(["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
        first, _ = embed_sentence(model, "a b c b")
        second, _ = embed_sentence(model, "a b c b")
        np.testing.assert_array_equal(first, second)

    def test_mean_over_duplicates(self):
        model = toy_model(["a", "b"], [[3.0], [0.0]])
        vec, _ = embed_sentence(model, "a a b")
        np.testing.assert_allclose(vec, [2.0])


def known_ids(model, text):
    """Vocabulary ids of a line: verbatim lookup, then lowercase, else skipped."""
    index = model.vocab.word_index
    ids = [index.get(token, index.get(token.lower())) for token in text.split()]
    return [wid for wid in ids if wid is not None]


def reference_mean(model, text):
    """Per-line float64 mean of unigram and hashed n-gram rows, or None if all-OOV."""
    ids = known_ids(model, text)
    if not ids:
        return None
    rows = list(ids)
    for k in range(2, model.word_ngrams + 1):
        rows += [
            ngram_hash(ids[i : i + k], len(model.vocab), model.buckets)
            for i in range(len(ids) - k + 1)
        ]
    return model.matrices.source[rows].astype(np.float64).mean(axis=0)


def seeded_ngram_model(order, seed=61, n_words=300, buckets=997, dim=24):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    source = rng.normal(size=(n_words + buckets, dim))
    return toy_model(words, source, word_ngrams=order, buckets=buckets), words


def seeded_lines(words, n, seed=62):
    """Lines with unknown, capitalised and missing tokens, and empty lines."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        tokens = []
        for _ in range(int(rng.integers(0, 30))):
            roll = rng.random()
            word = words[int(rng.integers(len(words)))]
            if roll < 0.05:
                tokens.append(f"unk{int(rng.integers(1000))}")
            elif roll < 0.1:
                tokens.append(word.upper())
            else:
                tokens.append(word)
        lines.append(" ".join(tokens))
    long_line = " ".join(words[int(i)] for i in rng.integers(len(words), size=150))
    return lines + ["", "zzz qqq", long_line]


def assert_per_line_means(model, lines):
    """``embed_batch`` equals each line's ``source[rows].mean(axis=0)`` bit for bit."""
    vectors, _ = embed_batch(model, lines)
    for text, vector in zip(lines, vectors):
        ids = known_ids(model, text)
        if not ids:
            continue
        grams, _ = sentence_ngrams(ids, model.word_ngrams, len(model.vocab), model.buckets)
        rows = np.concatenate([ids, grams])
        np.testing.assert_array_equal(vector, model.matrices.source[rows].mean(axis=0))


class TestEmbedBatch:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_float64_reference(self, order):
        model, words = seeded_ngram_model(order)
        lines = seeded_lines(words, 400)
        stats = OovStats()
        vectors, flags = embed_batch(model, lines, stats)
        assert vectors.dtype == np.float32
        assert vectors.shape == (len(lines), 24)
        for text, vector, flag in zip(lines, vectors, flags):
            expected = reference_mean(model, text)
            assert flag == (expected is None)
            if expected is None:
                np.testing.assert_array_equal(vector, 0.0)
            else:
                np.testing.assert_allclose(vector, expected, rtol=1e-5, atol=1e-6)
        tokens = [t for text in lines for t in text.split()]
        index = model.vocab.word_index
        oov_tokens = sum(t not in index and t.lower() not in index for t in tokens)
        assert (stats.lines, stats.all_oov_lines, stats.tokens, stats.oov_tokens) == (
            len(lines), int(flags.sum()), len(tokens), oov_tokens
        )
        assert stats.oov_token_rate == oov_tokens / len(tokens)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_per_line_mean_bit_for_bit(self, order, without_kernel):
        model, words = seeded_ngram_model(order)
        lines = seeded_lines(words, 300)
        assert_per_line_means(model, lines)
        without_kernel()
        assert_per_line_means(model, lines)

    # embed cuts its input into batches: a line's vector and flag do not
    # depend on the batch it lands in, through the numpy path or the kernel
    @pytest.mark.parametrize(
        "piece_lines,native", [(7, False), (500, True), (7, True), (500, False)]
    )
    def test_pieces(self, without_kernel, piece_lines, native):
        if not native:
            without_kernel()
        model, words = seeded_ngram_model(3)
        lines = seeded_lines(words, 1200)
        stats = OovStats()
        whole, whole_flags = embed_batch(model, lines, stats)
        piece_stats = OovStats()
        parts = [
            embed_batch(model, lines[i : i + piece_lines], piece_stats)
            for i in range(0, len(lines), piece_lines)
        ]
        np.testing.assert_array_equal(np.concatenate([v for v, _ in parts]), whole)
        np.testing.assert_array_equal(np.concatenate([f for _, f in parts]), whole_flags)
        for name in OovStats.__slots__:
            assert getattr(piece_stats, name) == getattr(stats, name)

    def test_batch_beyond_the_old_gather_budget(self, without_kernel):
        # 200 lines of 70-150 tokens at order 3: every line has over 64 rows,
        # and the batch gathers more than 4 MiB of rows
        model, words = seeded_ngram_model(3, n_words=2000, buckets=50_000)
        rng = np.random.default_rng(63)
        lines = [
            " ".join(words[int(i)] for i in rng.integers(len(words), size=int(n)))
            for n in rng.integers(70, 151, size=200)
        ]
        rows = sum(3 * len(line.split()) - 3 for line in lines)
        assert rows * 24 * 4 > 4 << 20
        assert_per_line_means(model, lines)
        without_kernel()
        assert_per_line_means(model, lines)

    @pytest.mark.parametrize("native", [True, False])
    def test_order_beyond_every_line_is_capped(self, request, without_kernel, native):
        # a header may claim any order; windows longer than a line never exist.
        # An int32 argument would wrap 2^31 to -2^31 and 2^32 - 1 to -1
        if native:
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        model, words = seeded_ngram_model(3)
        lines = seeded_lines(words, 100)
        longest = max(len(known_ids(model, text)) for text in lines)
        capped, _ = embed_batch(dataclasses.replace(model, word_ngrams=longest), lines)
        for order in (2**31, 2**32 - 1):
            huge, _ = embed_batch(dataclasses.replace(model, word_ngrams=order), lines)
            np.testing.assert_array_equal(huge, capped)

    def test_empty_batch(self):
        model = toy_model(["cat"], [[1.0, 2.0]])
        vectors, flags = embed_batch(model, [])
        assert vectors.shape == (0, 2) and flags.shape == (0,)

    def test_embed_sentence_is_a_batch_of_one(self):
        model, words = seeded_ngram_model(2)
        lines = seeded_lines(words, 20)
        vectors, flags = embed_batch(model, lines)
        for text, vector, flag in zip(lines, vectors, flags):
            single, oov = embed_sentence(model, text)
            assert oov == flag
            np.testing.assert_allclose(single, vector, rtol=1e-6, atol=1e-7)


def row_text(rows, sep, flags=None) -> str:
    return engine_row_text(None, rows, sep, flags)


class TestFormatRows:
    def test_matches_format_g6(self):
        values = [0.0, -0.0, 1e-45, np.inf, -np.inf, np.nan, 1e-8, -3.14159265,
                  0.1, 123.456789, 999.9995, 1e3, 2.5e-5, 7.0]
        values += list(np.geomspace(1e-8, 1e3, 50))
        row = np.array([values], dtype=np.float32)
        expected = " ".join(format(x, ".6g") for x in row[0]) + "\n"
        assert row_text(row, " ") == expected

    def test_separator_and_flags(self):
        rows = np.array([[1.5, -2.0], [0.0, 3.25]], dtype=np.float32)
        assert row_text(rows, "\t") == "1.5\t-2\n0\t3.25\n"
        assert row_text(rows, " ", np.array([False, True])) == "1.5 -2 0\n0 3.25 1\n"
        assert row_text(rows[:0], " ") == ""


class TestFormatDispatch:
    """The kernel and the Python paths compose and print the same text."""

    def test_format_rows(self, kernel, without_kernel):
        rng = np.random.default_rng(8)
        rows = (rng.standard_normal((300, 9)) * 10.0 ** rng.integers(-40, 30, size=(300, 9)))
        rows = rows.astype(np.float32)
        rows[0, :4] = [np.nan, -np.inf, -0.0, 1234565.0]
        flags = rng.random(300) < 0.5
        cases = [(" ", None), ("\t", None), (" ", flags)]
        native = [row_text(rows, sep, f) for sep, f in cases]
        without_kernel()
        assert [row_text(rows, sep, f) for sep, f in cases] == native

    @pytest.mark.parametrize("dim", [1, 2])
    def test_compose(self, kernel, without_kernel, dim):
        # the kernel composes lines from their text as numpy's ``_compose``
        # does from their ids; at dim 1 numpy's ``sum(axis=0)`` adds the
        # single column pairwise
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(300)]
        source = rng.standard_normal((350, dim)).astype(np.float32)
        source[:30] = -0.0  # lines of only -0 rows average to +0 in the kernel
        source[300:325] = -0.0
        known = rng.integers(0, 200, size=40)
        known[:4] = [0, 1, 2, 5]  # empty, and shorter than the order
        unigrams = rng.integers(0, 300, size=int(known.sum()))
        unigrams[:8] = rng.integers(0, 30, size=8)
        models = [toy_model(words, source[:300], word_ngrams=1)] + [
            toy_model(words, source, word_ngrams=order, buckets=50) for order in (2, 3)
        ]
        ends = np.cumsum(known)
        lines = [" ".join(words[i] for i in unigrams[a:b]) for a, b in zip(ends - known, ends)]
        native = [embed_batch(model, lines)[0] for model in models]
        without_kernel()
        for model, vectors in zip(models, native):
            fallback = _reference._compose(
                model.matrices.source, model.buckets, model.word_ngrams, unigrams, known
            )
            np.testing.assert_array_equal(vectors.view(np.uint32), fallback.view(np.uint32))
            np.testing.assert_array_equal(embed_batch(model, lines)[0], fallback)

    def test_cli_embed_and_export(self, kernel, without_kernel, tmp_path, capsys, monkeypatch):
        from sentvec.cli import main
        from sentvec.trainer import save_model

        model, words = seeded_ngram_model(2, dim=50)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        stdin = "\n".join(seeded_lines(words, 300)) + "\n"

        def outputs():
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(["embed", "--model", path, "--oov-flag"]) == 0
            assert main(["export-vec", "--model", path]) == 0
            return capsys.readouterr().out

        native = outputs()
        without_kernel()
        assert outputs() == native
        assert native.count(" 1\n") >= 2  # all-OOV lines are flagged

    def test_cli_on_misaligned_matrices(
        self, kernel, without_kernel, tmp_path, capsys, monkeypatch
    ):
        from sentvec.cli import main
        from sentvec.trainer import load_model, save_model

        model, words = seeded_ngram_model(2, dim=30)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        # the matrices follow a 48-byte header and 12 + len(word) bytes per word
        assert (48 + sum(12 + len(w) for w in words)) % 4 == 2
        assert not load_model(path).matrices.source.flags.aligned
        lines = seeded_lines(words, 300)
        dataset = tmp_path / "pairs.tsv"
        dataset.write_text("".join(
            f"{i % 5}\t{a}\t{b}\n" for i, (a, b) in enumerate(zip(lines, lines[1:]))
        ))

        def outputs():
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
            assert main(["embed", "--model", path, "--oov-flag"]) == 0
            assert main(["eval-sim", "--model", path, "--dataset", str(dataset)]) == 0
            assert main(["export-vec", "--model", path]) == 0
            return capsys.readouterr().out

        native = outputs()
        without_kernel()
        assert outputs() == native
        assert "pearson=" in native

    def test_cli_eval_sim_equals_the_library(self, without_kernel, tmp_path, capsys, caplog):
        from sentvec.cli import main
        from sentvec.trainer import load_model, save_model

        model, words = seeded_ngram_model(2, dim=20)
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        lines = seeded_lines(words, 400)
        pairs = enumerate(zip(lines, lines[1:]))
        text = "".join(f"{i % 7 / 2}\t{a}\t{b}\n" for i, (a, b) in pairs)
        plain = tmp_path / "pairs.tsv"
        plain.write_text(text, encoding="utf-8")
        # CRLF line ends, ideographic spaces, capitals that fold and accented unknown tokens
        other = tmp_path / "pairs-crlf.tsv"
        other.write_text(
            text.replace(" w1", "\u3000W1").replace("w2 ", "w2é ").replace("\n", "\r\n"),
            encoding="utf-8", newline="",
        )
        assert not other.read_bytes().isascii()

        def outputs():
            runs = []
            for dataset in (plain, other):
                caplog.clear()
                with caplog.at_level(logging.INFO, logger="sentvec.cli"):
                    assert main(["eval-sim", "--model", path, "--dataset", str(dataset)]) == 0
                out = capsys.readouterr().out
                pairs = SimilarityPairs.read(str(dataset))
                stats = OovStats()
                r, rho, n = evaluate_similarity(load_model(path), pairs, stats)
                assert out == (f"pearson={r:.6f} spearman={rho:.6f} n={n} "
                               f"excluded={len(pairs) - n}\n")
                assert caplog.messages[-1] == (
                    f"embedded {stats.lines} lines, {stats.all_oov_lines} all-OOV, OOV token "
                    f"rate {stats.oov_token_rate:.4f} ({stats.oov_tokens} of {stats.tokens} tokens)"
                )
                runs.append((out, caplog.messages[-1]))
            return runs

        native = outputs()
        without_kernel()
        assert outputs() == native
        assert native[0] != native[1]

    @pytest.mark.parametrize("native", [True, False])
    def test_other_rows_rejected(self, request, without_kernel, native):
        if native:
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        from sentvec import _native

        rows = np.array([[0.1234565, -2.5]], dtype=np.float32)
        out = _native.text_buffer(2)

        def text(rows, sep, flags=None, out=out):
            return _native.engine().format_rows(rows, sep, flags, out)

        with pytest.raises(ValueError, match="float32 rows"):
            text(rows.astype(np.float64), " ")
        with pytest.raises(ValueError, match="2-D float32 rows"):
            text(rows[0], " ")
        with pytest.raises(ValueError, match="one-character ASCII"):
            text(rows, ", ")
        with pytest.raises(ValueError, match="one-character ASCII"):
            text(rows, "\u00a0")
        with pytest.raises(ValueError, match="boolean flags"):
            text(rows, " ", np.array([2]))
        with pytest.raises(ValueError, match="boolean flags, one per row"):
            text(rows, " ", np.array([True, False]))
        # a row of two values takes at most 2 * 13 + 3 bytes
        with pytest.raises(ValueError, match="^text buffer of 28 bytes holds no 1 rows of 29"):
            text(rows, " ", out=out[:28])
        assert bytes(text(rows, " ")) == b"0.123457 -2.5\n"
        assert text(rows, " ", np.array([True]), out[:29]).obj.base is out
        assert bytes(out[:16]) == b"0.123457 -2.5 1\n"  # written in the caller's buffer


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_antiparallel(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, -v) == pytest.approx(-1.0, rel=1e-12)

    def test_zero_norm_convention(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0


def brute_force_pearson(xs, ys):
    """Textbook formula with plain Python floats; independent oracle."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def brute_force_ranks(values):
    """Midranks by explicit enumeration: mean 1-based position among equals."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


class TestPearson:
    def test_affine_invariance(self):
        xs = [0.5, 1.0, 4.0, -2.0]
        ys = [2 * x + 3 for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, rel=1e-12)

    def test_negation(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, rel=1e-12)

    def test_hand_computed(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            assert pearson(xs, ys) == pytest.approx(
                brute_force_pearson(xs.tolist(), ys.tolist()), abs=1e-12
            )

    def test_degenerate_variance_is_error_not_nan(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        xs = [0.1, 2.0, 3.5, 9.0]
        ys = [math.exp(x) for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0, rel=1e-12)

    def test_tied_ranks_hand_computed(self):
        assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(
            0.8944271909999159, rel=1e-12
        )

    def test_reversed_order(self):
        assert spearman([1, 2, 3, 4], [9, 7, 4, 1]) == pytest.approx(-1.0, rel=1e-12)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            xs = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            ys = rng.integers(0, 6, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            expected = brute_force_pearson(
                brute_force_ranks(xs.tolist()), brute_force_ranks(ys.tolist())
            )
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_midranks_equal_the_run_loop(self):
        def loop_midranks(values):
            order = np.argsort(values, kind="stable")
            ranks = np.empty(len(values), dtype=np.float64)
            sorted_vals = values[order]
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(53)
        cases = [
            rng.integers(0, 2, size=4002).astype(float),  # 0/1 golds: two long runs
            rng.integers(0, 6, size=999).astype(float),
            rng.standard_normal(5000),
            np.array([3.0, np.nan, 1.0, np.nan, 3.0, -0.0, 0.0]),
            np.array([7.0]),
            np.array([]),
        ]
        # heavy ties, +-0.0 and NaN, in any order and at lengths past the sorts' small-array paths
        pool = np.array([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0, np.nan, -np.nan])
        cases += [pool[rng.integers(len(pool), size=n)] for n in (2, 17, 65, 300, 4001)]
        for values in cases:
            np.testing.assert_array_equal(
                evaluation._midranks(values).view(np.uint64),
                loop_midranks(values).view(np.uint64),
            )

    def test_spearman_equals_the_stable_sort(self):
        # the benchmark's shapes: 0/1 gold scores against cosines with exact ties
        def stable_spearman(xs, ys):
            def ranks(values):
                order = np.argsort(values, kind="stable")
                sorted_vals = values[order]
                bounds = np.flatnonzero(
                    np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1], [True]])
                )
                first, stop = bounds[:-1], bounds[1:]
                out = np.empty(len(values))
                out[order] = np.repeat((first + stop - 1) / 2.0 + 1.0, stop - first)
                return out

            return pearson(ranks(xs), ranks(ys))

        rng = np.random.default_rng(2604)
        for n in (600, 2000, 4000):
            gold = rng.integers(0, 2, size=n).astype(np.float64)
            preds = rng.uniform(-1.0, 1.0, size=n)
            preds[rng.random(n) < 0.05] = 0.0
            preds[rng.random(n) < 0.05] = 1.0
            got, want = spearman(gold, preds), stable_spearman(gold, preds)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


class TestEvaluateSimilarity:
    def test_identity_task_is_perfect(self, tmp_path):
        model = toy_model(
            ["a", "b", "c", "d"],
            [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-0.6, 0.8]],
        )
        pairs = [("a b", "a"), ("a", "c"), ("b c", "d"), ("a d", "b c"), ("c", "d")]
        records = []
        for left, right in pairs:
            va, _ = embed_sentence(model, left)
            vb, _ = embed_sentence(model, right)
            records.append((left, right, cosine(va, vb)))
        r, rho, n_used = evaluate_similarity(model, write_pairs(tmp_path / "sim.tsv", records))
        assert n_used == len(records)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_oov_records_excluded_and_counted(self, tmp_path):
        model = toy_model(
            ["a", "b", "c"], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
        )
        pairs = write_pairs(tmp_path / "sim.tsv", [
            ("a b", "c", 0.4),
            ("zzz", "a", 0.5),  # left side OOV
            ("b", "a c", 0.9),
            ("c", "qqq", 0.1),  # right side OOV
            ("a", "b", 0.7),
        ])
        _, _, n_used = evaluate_similarity(model, pairs)
        assert n_used == 3

    def test_fewer_than_two_usable_errors(self, tmp_path):
        model = toy_model(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        pairs = write_pairs(tmp_path / "sim.tsv", [
            ("a", "b", 1.0),
            ("zzz", "b", 1.0),
        ])
        with pytest.raises(ValueError, match=">=2"):
            evaluate_similarity(model, pairs)

    def test_shuffled_gold_uncorrelated(self, tmp_path):
        rng = np.random.default_rng(53)
        words = [f"w{i}" for i in range(60)]
        model = toy_model(words, rng.normal(size=(60, 8)))
        records = []
        for _ in range(1000):
            left = " ".join(rng.choice(words, size=4))
            right = " ".join(rng.choice(words, size=4))
            records.append((left, right, float(rng.normal())))
        r, _, _ = evaluate_similarity(model, write_pairs(tmp_path / "sim.tsv", records))
        assert abs(r) < 0.1


    def test_zero_norm_known_vector_scores_zero(self, tmp_path):
        # "z" is in the vocabulary but its row is zero: cosine 0, not nan
        model = toy_model(["a", "b", "z"], [[1.0, 0.0], [0.6, 0.8], [0.0, 0.0]])
        pairs = write_pairs(tmp_path / "sim.tsv", [
            ("a", "b", 0.6),
            ("z", "a", 0.0),
            ("a", "a", 1.0),
            ("b", "z z", 0.0),
        ])
        r, _, n_used = evaluate_similarity(model, pairs)
        assert n_used == 4
        assert r == pytest.approx(1.0, abs=1e-12)


class TestSimilarityBlocks:
    """``eval-sim`` scores every pair in one ``pair_dots`` call; the kernel composes one pair
    at a time and the numpy reference engine ``_PAIR_BLOCK`` pairs per ``embed_text`` call,
    and every block size prints what the kernel prints."""

    @pytest.fixture(scope="class")
    def model_file(self, tmp_path_factory):
        from sentvec.trainer import save_model

        model, words = seeded_ngram_model(2, dim=8)
        path = tmp_path_factory.mktemp("blocks") / "m.bin"
        save_model(model, str(path))
        return str(path), words

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_every_block_size_prints_the_same(
        self, kernel, without_kernel, model_file, tmp_path, capsys, caplog, monkeypatch, n
    ):
        from sentvec import _native
        from sentvec.cli import main

        path, words = model_file
        lines = seeded_lines(words, n, seed=n)[: n + 1]
        # all-OOV sides at the block edges: pair k reads lines k and k + 1
        for k in (0, 1, 2, 3, 1022, 1023, 1024, 1025, 2047, 2048, n - 1, n):
            lines[min(k, n)] = "zzz qqq"
        pairs = enumerate(zip(lines, lines[1:]))
        text = "".join(f"{i % 7 / 2}\t{a}\t{b}\n" for i, (a, b) in pairs)
        plain, other = tmp_path / "pairs.tsv", tmp_path / "pairs-crlf.tsv"
        plain.write_text(text, encoding="utf-8")
        other.write_text(
            text.replace(" w1", "\u3000W1").replace("w2 ", "w2é ").replace("\n", "\r\n"),
            encoding="utf-8", newline="",
        )
        calls = []

        def counting(name, entry):
            def counted(*args):
                calls.append((name, len(args[-1])))  # the span ends
                return entry(*args)
            return counted

        for engine in (_native.Kernel, _reference):
            for name in ("embed_text", "pair_dots"):
                monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))

        def printed(dataset):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="sentvec.cli"):
                assert main(["eval-sim", "--model", path, "--dataset", str(dataset)]) == 0
            return capsys.readouterr().out, caplog.messages[-1]

        runs = [printed(dataset) for dataset in (plain, other)]
        assert calls == [("pair_dots", 2 * n)]
        without_kernel()
        for block in (1, 2, 3, 1024, n):
            monkeypatch.setattr(_reference, "_PAIR_BLOCK", block)
            for dataset, want in zip((plain, other), runs):
                assert printed(dataset) == want, (dataset.name, block)
                composed = [length for name, length in calls[1:]]
                assert calls[0] == ("pair_dots", 2 * n) and sum(composed) == 2 * n
                assert max(composed) == 2 * min(block, n)
        assert runs[0] != runs[1]


class TestPairFeatures:
    def test_hand_computed(self):
        np.testing.assert_array_equal(
            pair_features([1.0, -2.0], [3.0, 1.0]), [2.0, 3.0, 3.0, -2.0]
        )

    def test_identical_inputs(self):
        v = np.array([0.5, -1.0])
        np.testing.assert_array_equal(pair_features(v, v), [0.0, 0.0, 0.25, 1.0])

    def test_symmetric(self):
        rng = np.random.default_rng(54)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        np.testing.assert_array_equal(pair_features(a, b), pair_features(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pair_features([1.0], [1.0, 2.0])


class TestWritePairFeatures:
    def test_row_per_record_with_2h_fields(self, tmp_path):
        model = toy_model(["a", "b", "c"], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        pairs = write_pairs(tmp_path / "sim.tsv", [
            ("a b", "c", 0.4),
            ("zzz", "a", 0.5),  # OOV side becomes the zero vector
            ("b", "a c", 0.9),
        ])
        path = tmp_path / "features.tsv"
        written = write_pair_features(model, pairs, str(path))
        assert written == 3
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_values_match_pair_features(self, tmp_path):
        model = toy_model(["a", "b"], [[1.0, -2.0], [3.0, 1.0]])
        path = tmp_path / "features.tsv"
        write_pair_features(model, write_pairs(tmp_path / "sim.tsv", [("a", "b", 0.0)]), str(path))
        row = [float(x) for x in path.read_text().split("\t")]
        va, _ = embed_sentence(model, "a")
        vb, _ = embed_sentence(model, "b")
        np.testing.assert_allclose(row, pair_features(va, vb), rtol=1e-5)

    def test_dim_700_text_equals_per_value_format(self, tmp_path):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        rng = np.random.default_rng(70)
        words = [f"w{i}" for i in range(40)]
        source = rng.standard_normal((40, 700)) * 10.0 ** rng.integers(-20, 15, size=(40, 700))
        model = toy_model(words, source)
        records = [
            (" ".join(rng.choice(words, 3)), " ".join(rng.choice(words, 2)), 0.0)
            for _ in range(120)
        ] + [("zzz", "w1", 0.0)]
        out = Recorder()
        pairs = write_pairs(tmp_path / "sim.tsv", records)
        assert write_pair_features(model, pairs, out) == len(records)
        va, _ = embed_batch(model, [a for a, _, _ in records])
        vb, _ = embed_batch(model, [b for _, b, _ in records])
        expected = "".join(
            "\t".join(format(float(x), ".6g") for x in row) + "\n"
            for row in pair_features(va, vb)
        )
        assert len(out.writes) > 1
        assert "".join(out.writes) == expected

    def test_chunks_share_one_text_buffer(self, kernel, monkeypatch, tmp_path):
        from sentvec import _native

        rng = np.random.default_rng(71)
        words = [f"w{i}" for i in range(30)]
        source = rng.standard_normal((30, 100)) * 10.0 ** rng.integers(-8, 4, size=(30, 100))
        model = toy_model(words, source)
        records = [
            (" ".join(rng.choice(words, 4)), " ".join(rng.choice(words, 2)), 0.0)
            for _ in range(1_000)
        ]
        pairs = write_pairs(tmp_path / "sim.tsv", records)
        buffers, composed = [], []
        format_rows, embed_text = _native.Kernel.format_rows, _native.Kernel.embed_text

        def recording(self, rows, sep, flags, out):
            text = format_rows(self, rows, sep, flags, out)
            buffers.append((out, text.obj))
            return text

        def composing(self, table, source, buckets, order, data, starts, ends):
            composed.append(len(ends) // 2)
            return embed_text(self, table, source, buckets, order, data, starts, ends)

        monkeypatch.setattr(_native.Kernel, "format_rows", recording)
        monkeypatch.setattr(_native.Kernel, "embed_text", composing)
        out = io.StringIO()
        assert write_pair_features(model, pairs, out) == len(records)
        va, _ = embed_batch(model, [a for a, _, _ in records])
        vb, _ = embed_batch(model, [b for _, b, _ in records])
        expected = "".join(
            "\t".join(format(float(x), ".6g") for x in row) + "\n"
            for row in pair_features(va, vb)
        )
        assert out.getvalue() == expected
        # 200-value rows: 327 pairs to an engine call, printed 100 rows to a fill
        # of the 256 KiB buffer (2,603 bytes a row at most)
        assert composed[:4] == [327, 327, 327, 19]
        assert len(buffers) == 4 + 4 + 4 + 1 and len(buffers[0][0]) == 1 << 18
        assert all(given is buffers[0][0] and made is given for given, made in buffers)

    def test_memory_does_not_grow_with_the_pairs(self, tmp_path, kernel):
        # the sides' int64 spans grow with the pairs, but no (n, dim) vector or feature
        # array (5,600 and 5,600 bytes a pair at dim 700)
        rng = np.random.default_rng(72)
        words = [f"w{i}" for i in range(200)]
        source = rng.standard_normal((200 + 101, 700)).astype(np.float32)
        model = toy_model(words, source, word_ngrams=2, buckets=101)

        def peak(n_pairs):
            pairs = write_pairs(tmp_path / "sim.tsv", [
                (" ".join(rng.choice(words, 3)), " ".join(rng.choice(words, 2)), 0.5)
                for _ in range(n_pairs)
            ])
            with open(tmp_path / "features.tsv", "w", encoding="utf-8") as out:
                tracemalloc.start()
                try:
                    assert write_pair_features(model, pairs, out) == n_pairs
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(16)  # the lookup table's first build
        assert peak(4096) - peak(1024) <= 3072 * 8 * 12

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_sides_composed_from_the_file_as_embed_batch_composes_them(
        self, request, without_kernel, tmp_path, engine, order
    ):
        if engine == "kernel":
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        words = ["cat", "café", "Dog", "äpfel", "the", "a", "été"]
        buckets = 31 if order > 1 else 0
        source = np.random.default_rng(72 + order).normal(size=(len(words) + buckets, 9))
        model = toy_model(words, source, word_ngrams=order, buckets=buckets)
        # ideographic and em spaces, capitals that fold, accented unknown tokens
        rows = [
            ("CAFÉ\u3000the Cat", "ÄPFEL the\u2003dog"),
            ("", "the cat"),  # an empty side
            ("zzé qqq", "Été a"),  # an all-OOV side
            ("İ cat", "a\u3000b c"),
            ("the the cat", "Dog dog DOG"),
        ]
        path = tmp_path / "sim.tsv"
        path.write_bytes("".join(f"0.5\t{a}\t{b}\r\n" for a, b in rows).encode())
        out = io.StringIO()
        assert write_pair_features(model, SimilarityPairs.read(str(path)), out) == len(rows)
        va, flags_a = embed_batch(model, [a for a, _ in rows])
        vb, flags_b = embed_batch(model, [b for _, b in rows])
        assert flags_a.tolist() == [False, True, True, False, False]
        assert not flags_b.any()
        expected = "".join(
            "\t".join(format(float(x), ".6g") for x in row) + "\n"
            for row in pair_features(va, vb)
        )
        assert out.getvalue() == expected


class TestOneTextBuffer:
    """``export-vec`` and the pair features print float rows through ``_native``'s one text
    buffer, and inference takes only C-contiguous float32 source rows, on both engines."""

    @pytest.fixture(params=["kernel", "numpy"])
    def engine(self, request, without_kernel):
        if request.param == "kernel":
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        return request.param

    @pytest.mark.parametrize("dim", [3, 700])
    def test_fills_print_the_same_bytes(self, engine, tmp_path, monkeypatch, capsys, dim):
        from sentvec import _native
        from sentvec.cli import main
        from sentvec.trainer import load_model, save_model

        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(90)]
        source = rng.standard_normal((90, dim)) * 10.0 ** rng.integers(-9, 9, size=(90, dim))
        path = str(tmp_path / "m.bin")
        save_model(toy_model(words, source), path)
        records = [
            (" ".join(rng.choice(words, 3)), " ".join(rng.choice(words, 2)), 0.0)
            for _ in range(70)
        ] + [("zzz", "w1", 0.0)]
        pairs = write_pairs(tmp_path / "sim.tsv", records)

        def printed():
            assert main(["export-vec", "--model", path]) == 0
            features = io.StringIO()
            assert write_pair_features(load_model(path), pairs, features) == len(records)
            return capsys.readouterr().out, features.getvalue()

        vectors, features = printed()
        # a buffer of 1 byte is raised to one worst-case row: a row a fill
        monkeypatch.setattr(_native, "_TEXT_BYTES", 1)
        assert printed() == (vectors, features)
        rows = np.asarray(source, dtype=np.float32)
        assert vectors == f"90 {dim}\n" + "".join(
            f"{word} " + " ".join(format(float(x), ".6g") for x in row) + "\n"
            for word, row in zip(words, rows)
        )
        va, _ = embed_batch(load_model(path), [a for a, _, _ in records])
        vb, _ = embed_batch(load_model(path), [b for _, b, _ in records])
        assert features == "".join(
            "\t".join(format(float(x), ".6g") for x in row) + "\n"
            for row in pair_features(va, vb)
        )

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "utf-16"])
    def test_bytes_land_between_the_texts_of_an_open_file(self, engine, tmp_path, encoding):
        # each fill's bytes go to a UTF-8 file's binary layer after the text written before;
        # a file of another encoding takes their text through its own
        from sentvec.trainer import export_text_vectors

        rng = np.random.default_rng(5)
        words = ["été", "ñx", *(f"w{i}" for i in range(300))]
        model = toy_model(words, rng.standard_normal((len(words), 100)))
        pairs = write_pairs(tmp_path / "sim.tsv", [
            (" ".join(rng.choice(words, 3)), " ".join(rng.choice(words, 2)), 0.0)
            for _ in range(400)
        ])
        for write in (
            lambda out: export_text_vectors(model, out),
            lambda out: write_pair_features(model, pairs, out),
        ):
            write(str(tmp_path / "alone.txt"))
            with open(tmp_path / "open.txt", "w", encoding=encoding) as fh:
                fh.write("before\n")
                write(fh)
                fh.write("after\n")
            alone = (tmp_path / "alone.txt").read_text(encoding="utf-8")
            assert alone.count("\n") > 300
            assert (tmp_path / "open.txt").read_bytes() == (
                "before\n" + alone + "after\n"
            ).encode(encoding)

    def test_a_lone_surrogate_word_is_not_exported(self, engine, tmp_path):
        # it has no UTF-8 bytes: the export raises after the header, as encoding it did
        from sentvec.trainer import export_text_vectors

        path = tmp_path / "vectors.txt"
        with pytest.raises(UnicodeError):
            export_text_vectors(toy_model(["a", "b\udc80"], np.ones((2, 3))), str(path))
        assert path.read_bytes() == b"2 3\n"

    @pytest.mark.parametrize("rows", ["C-contiguous float64", "non-contiguous float32"])
    def test_other_source_rows_rejected(self, engine, tmp_path, rows):
        from sentvec.trainer import export_text_vectors

        source = np.arange(12.0).reshape(3, 4)
        model = toy_model(["a", "b", "c"], source)
        if rows.endswith("float64"):
            model.matrices.source = source
        else:
            model.matrices.source = np.repeat(model.matrices.source, 2, axis=1)[:, ::2]
        message = re.escape(f"source rows must be C-contiguous float32, got {rows}")
        pairs = write_pairs(tmp_path / "sim.tsv", [("a b", "c", 0.0), ("b", "c a", 1.0)])
        calls = [
            lambda: embed_batch(model, ["a b", "c"]),
            lambda: evaluate_similarity(model, pairs),
            lambda: write_pair_features(model, pairs, str(tmp_path / "features.tsv")),
            lambda: export_text_vectors(model, str(tmp_path / "vectors.txt")),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()
        # rejected before the outputs are opened
        assert not (tmp_path / "features.tsv").exists()
        assert not (tmp_path / "vectors.txt").exists()


class TestNormProfile:
    def test_one_record_per_word_with_zero_norms(self):
        model = toy_model(["a", "b", "c"], [[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        profile = norm_profile(model)
        assert profile.shape == (3, 2)
        np.testing.assert_allclose(profile[:, 0], math.log(1 / 3), rtol=1e-12)
        np.testing.assert_allclose(profile[:, 1], [5.0, 0.0, 1.0], rtol=1e-6)


class TestAroraWeight:
    def test_half_at_equal(self):
        assert arora_weight(1e-3, 1e-3) == 0.5

    def test_rare_word_limit(self):
        assert arora_weight(1e-12, 1e-3) == pytest.approx(1.0, abs=1e-8)

    def test_reference_setting(self):
        assert arora_weight(0.01, 0.001) == pytest.approx(1 / 11, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="frequency"):
                arora_weight(bad, 1e-3)
            with pytest.raises(ValueError, match="weighting parameter"):
                arora_weight(1e-3, bad)


SIM_WORDS = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "café"]


def pair_texts(pairs) -> list[tuple[float, str, str]]:
    """Each record's (gold, sentence a, sentence b), its sides cut from ``side_spans``."""
    starts, ends = pairs.side_spans()
    # each side's text follows the tab its span starts with
    sides = [pairs.data[a + 1 : b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist())]
    n = len(pairs)
    return list(zip(pairs.gold.tolist(), sides[:n], sides[n:]))


def read_outcomes(tmp_path, files: list[bytes], without_kernel) -> list:
    """Each file's path and the ``pair_texts`` of ``SimilarityPairs.read`` of it, or its
    error text.

    Each file's pairs are also scored by ``evaluate_similarity`` on a toy
    bigram model, to its correlations and OOV counts or its error.  All of
    it must be the same with the kernel and without.
    """
    source = np.random.default_rng(5).normal(size=(len(SIM_WORDS) + 7, 3))
    model = toy_model(SIM_WORDS, source, word_ngrams=2, buckets=7)

    def outcome(path):
        try:
            pairs = SimilarityPairs.read(str(path))
        except ValueError as err:
            return str(err), None
        stats = OovStats()
        try:
            scored = evaluate_similarity(model, pairs, stats)
        except ValueError as err:
            scored = str(err)
        return pair_texts(pairs), [scored, [getattr(stats, name) for name in OovStats.__slots__]]

    paths = [tmp_path / f"sim{i}.tsv" for i in range(len(files))]
    for path, data in zip(paths, files):
        path.write_bytes(data)
    native = [outcome(path) for path in paths]
    without_kernel()
    assert [outcome(path) for path in paths] == native
    return [(path, records) for path, (records, _) in zip(paths, native)]


class TestReadSimilarityTsv:
    def test_parses_records(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("3.5\tthe cat\ta cat\n1.0\tdog\tcar\n", encoding="utf-8")
        assert pair_texts(SimilarityPairs.read(str(path))) == [
            (3.5, "the cat", "a cat"),
            (1.0, "dog", "car"),
        ]

    def test_malformed_line_cites_number(self, tmp_path, without_kernel):
        path = tmp_path / "sim.tsv"
        path.write_text("3.5\ta\tb\nonly one field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            SimilarityPairs.read(str(path))
        # the first bad line wins; on one line a UTF-8 error, then the fields, then the score
        cases = [
            (b"3.5\ta\tb\nonly one field\n", "line 2: expected 3 tab-separated fields, got 1"),
            (b"1\ta\tb\n  \n", "line 2: expected 3 tab-separated fields, got 1"),
            (b"1\ta\tb\r\x0b\r", "line 2: expected 3 tab-separated fields, got 1"),
            (b"1\ta\n", "line 1: expected 3 tab-separated fields, got 2"),
            (b"\n\r\n1\ta\tb\tc\r\n", "line 3: expected 3 tab-separated fields, got 4"),
            (b"1\ta\tb\n2\tc\td", None),
            (b"x\ta\tb\tc\n", "line 1: expected 3 tab-separated fields, got 4"),
            (b"1\ta\tb\nx\ta\tb\n1\ta\n", "line 2: bad score 'x'"),
            (b"1\ta\tb\ninf\ta\tb\n\xff\n", "line 2: non-finite score 'inf'"),
            (b"1\ta\n\xff\n", "line 1: expected 3 tab-separated fields, got 2"),
            (b"1\ta\tb\n\xff\ta\n", "line 2: invalid UTF-8 at byte offset 0: invalid start byte"),
            ("1\ta\tb\n\n\u00e9\ta\tb\n".encode(), "line 3: bad score '\u00e9'"),
            ("\u30001\ta\tb\n1 e\ta\tb\n".encode(), "line 2: bad score '1 e'"),
        ]
        found = read_outcomes(tmp_path, [data for data, _ in cases], without_kernel)
        for (_, problem), (path, got) in zip(cases, found):
            if problem is None:
                assert [b for _, _, b in got] == ["b", "d"]
            else:
                assert got == f"{path}: {problem}"

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_cites_number(self, tmp_path, score):
        path = tmp_path / "sim.tsv"
        path.write_text(f"0.5\ta\tb\n{score}\ta\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line 2: non-finite"):
            SimilarityPairs.read(str(path))

    def test_universal_newlines(self, tmp_path, without_kernel):
        path = tmp_path / "sim.tsv"
        path.write_bytes(b"1\ta\tb\r\n2\tc\td\r\r3\te\tf\n4\tg\x0bh\ti")
        assert pair_texts(SimilarityPairs.read(str(path))) == [
            (1.0, "a", "b"), (2.0, "c", "d"), (3.0, "e", "f"), (4.0, "g\x0bh", "i"),
        ]
        ab_cd = [(1.0, "a b", "c"), (2.0, "d", "e F")]
        cases = [
            (b"1\ta b\tc\r2\td\te F\r", ab_cd),  # lone \r
            (b"1\ta b\tc\r\n2\td\te F\r\n", ab_cd),
            (b"1\ta b\tc\r\n2\td\te F\n", ab_cd),
            (b"\n1\ta b\tc\n\n\r\n\r2\td\te F\r\r\n\n", ab_cd),  # blank lines
            (b"1\ta b\tc\n2\td\te F", ab_cd),  # no newline at the end
            (b"1\ta\x0bb\tc\x1cd\n2\t\x1c\t\x0b\n3\ta\tb\n",
             [(1.0, "a\x0bb", "c\x1cd"), (2.0, "\x1c", "\x0b"), (3.0, "a", "b")]),
            ("0.5\tcafé\u3000a\tB\u3000é\r\n 1_0 \ta\tCAFÉ\n\u30001\tb\t\u3000\n".encode(),
             [(0.5, "café\u3000a", "B\u3000é"), (10.0, "a", "CAFÉ"), (1.0, "b", "\u3000")]),
            (b"", []),
            (b"\r\n\n", []),
        ]
        found = read_outcomes(tmp_path, [data for data, _ in cases], without_kernel)
        for (data, want), (_, records) in zip(cases, found):
            assert records == want, data

    def test_carriage_returns_read_as_line_feeds(self, tmp_path):
        # a file without \r skips the rewrite; CRLF, lone-CR and mixed files
        # give the records or the error of the same file with \n line ends
        files = [
            b"1\ta b\tc\n\n2\td\te F\n",
            b"1\ta\tb\n2\tc\n3\te\tf\n",
            b"1\ta\tb\n\nx\ta\tb\n",
            b"1\ta\tb\n\n2\tc \xe2\x82\td\n",
            "0.5\tcaf\u00e9\u3000a\tB\n\n1\tb\tc".encode(),
        ]

        def outcome(data):
            path = tmp_path / "sim.tsv"
            path.write_bytes(data)
            try:
                pairs = SimilarityPairs.read(str(path))
            except ValueError as err:
                return str(err)
            return pairs.data, pairs.ends.tolist(), pairs.gold.tolist()

        for data in files:
            want = outcome(data)
            lines = data.split(b"\n")
            mixed = b"".join(
                line + (b"\n", b"\r\n", b"\r")[i % 3] for i, line in enumerate(lines[:-1])
            ) + lines[-1]
            for variant in (data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r"), mixed):
                got = outcome(variant)
                assert got == want, variant

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_cites_line_and_offset(self, tmp_path, newline):
        path = tmp_path / "sim.tsv"
        path.write_bytes(newline.join([b"1\ta\tb", b"", b"2\tc \xe2\x82\td", b""]))
        with pytest.raises(ValueError, match=(
            f"{path}: line 3: invalid UTF-8 at byte offset 4: invalid continuation byte"
        )):
            SimilarityPairs.read(str(path))

    @pytest.mark.parametrize("block", [1, 5, 1 << 16])
    def test_first_failing_line_wins(self, tmp_path, monkeypatch, block):
        # the UTF-8 check decodes pieces of about ``block`` bytes; a bad score, a bad
        # field count and invalid UTF-8 are each raised for the first line they fail
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", block)
        ok, bad_utf8, bad_score, bad_fields = b"1\ta\tb\n", b"2\tc \xff\td\n", b"x\ta\tb\n", b"3\n"
        utf8 = "invalid UTF-8 at byte offset 4: invalid start byte"
        cases = [
            (ok * 3 + bad_utf8 + bad_score, f"line 4: {utf8}"),
            (ok * 3 + bad_score + bad_utf8, "line 4: bad score 'x'"),
            (ok + b"\xff\ta\tb\n" + bad_score, "line 2: invalid UTF-8 at byte offset 0"),
            (ok * 2 + bad_utf8 + bad_fields, f"line 3: {utf8}"),
            (ok * 2 + bad_fields + bad_utf8, "line 3: expected 3 tab-separated fields, got 1"),
            (ok * 2 + b"\xff\n" + ok, "line 3: invalid UTF-8 at byte offset 0"),
        ]
        path = tmp_path / "sim.tsv"
        for data, message in cases:
            path.write_bytes(data)
            with pytest.raises(ValueError) as err:
                SimilarityPairs.read(str(path))
            assert str(err.value).startswith(f"{path}: {message}"), data

    def test_bad_score_cites_number(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("x\ta\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            SimilarityPairs.read(str(path))

    def test_plain_decimals_make_no_object_per_record(self, tmp_path, kernel):
        # the kernel's arrays take 41 bytes a line: three offsets, a line index, a score
        # and a flag; a bytes object per score would take about 40 more
        path = tmp_path / "sim.tsv"
        n = 20_000
        path.write_text("".join(f"{i % 5}.{i % 7}\tw{i} a\tb w{i}\n" for i in range(n)))
        SimilarityPairs.read(str(path))
        tracemalloc.start()
        try:
            pairs = SimilarityPairs.read(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == n
        assert peak - len(pairs.data) < 48 * n

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_every_scan_block_reads_alike(self, tmp_path, monkeypatch, without_kernel, block):
        # tabs, line ends and control bytes at every offset of a block of the
        # reference engine's scan, which reads as the default engine does
        files = [
            b"1\ta b\tc\n\n2\td\te F\n\x01\x08\t\x00\t\x02\n",
            b"1\ta\tb\r\n2\tc\td\r\r3\te\tf\n4\tg\x0bh\ti",
            b"1\ta\tb\n" * 30 + b"2\ta\n",
            b"1\ta\tb\n\n2\tc \xe2\x82\td\n",
            "0.5\tcaf\u00e9\u3000a\tB\n\n 1_0 \tb\tc".encode(),
            b"",
            b"\t\t\n" * 5,
        ]

        def outcome(data):
            path = tmp_path / "sim.tsv"
            path.write_bytes(data)
            try:
                pairs = SimilarityPairs.read(str(path))
            except ValueError as err:
                return str(err)
            return pairs.data, pairs.ends.tolist(), pairs.gold.tolist()

        wants = [outcome(data) for data in files]
        without_kernel()
        monkeypatch.setattr(_reference, "_SCAN_BLOCK", block)
        assert [outcome(data) for data in files] == wants
        assert sum(isinstance(want, str) for want in wants) == 4


class TestNativeLookup:
    """``embed_batch`` with the kernel's lookup against the Python lookup."""

    # "äpfelbäume" and "äpfelbäumen" share their first 8 UTF-8 bytes
    WORDS = [
        "the", "cat", "sat", "on", "mat", "k", "i̇", "äpfel", "Dog", "a b", "x\x1cy",
        "äpfelbäume", "äpfelbäumen", "\udc80",
    ]
    LINES = [
        "The cat SAT on the Mat",
        "unknown words only",
        "",
        "   ",
        "İ cat",  # str.lower() gives "i̇"; ASCII "I" lowers to "i"
        "I cat",
        "K the",  # the Kelvin sign lowers to ASCII "k"
        "K the",
        "Äpfel cat",
        "ÄPFEL cat the",
        "Dog dog DOG",
        "\x1cthe\x1fcat\x0bsat\x0con\rmat\tthe",
        "the cat　sat mat",
        "a b x\x1cy",
        "cAt The MAT mAt the cat sat on",
        "cat \udc80 the",  # a lone surrogate, which only a str line holds
        # two non-ASCII spaces, the Kelvin sign, and "Dog", which str.lower() would lose
        "The\u00a0CAT\u3000\u212a sAt Dog",
        "ÄPFELBÄUME The",
    ]

    def model(self, order):
        rng = np.random.default_rng(order)
        buckets = 31 if order > 1 else 0
        source = rng.normal(size=(len(self.WORDS) + buckets, 7))
        return toy_model(self.WORDS, source, word_ngrams=order, buckets=buckets)

    def embedded(self, model, lines):
        stats = OovStats()
        vectors, flags = embed_batch(model, lines, stats)
        return vectors, flags, [getattr(stats, name) for name in OovStats.__slots__]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_the_python_lookup(self, kernel, without_kernel, order):
        model = self.model(order)
        # a lone surrogate has no UTF-8 bytes: that line stays a str
        as_bytes = [line if "\udc80" in line else line.encode() for line in self.LINES]
        mixed = [b if i % 2 else s for i, (s, b) in enumerate(zip(self.LINES, as_bytes))]
        cases = [self.LINES, as_bytes, mixed, self.LINES[:1], self.LINES[4:5]]
        native = [self.embedded(model, lines) for lines in cases]
        without_kernel()
        for lines, (vectors, flags, stats) in zip(cases, native):
            want_vectors, want_flags, want_stats = self.embedded(model, lines)
            np.testing.assert_array_equal(vectors.view(np.uint32), want_vectors.view(np.uint32))
            np.testing.assert_array_equal(flags, want_flags)
            assert stats == want_stats
        flags = native[0][1]
        assert flags.tolist() == [
            False, True, True, True, False, False, False, False, False, False, False,
            False, False, True, False, False, False, False,
        ]

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_equals_compose_of_the_raw_lines(self, request, without_kernel, engine, order):
        # both engines read ``_kernel_line``'s rewrites; the oracle reads the raw lines
        if engine == "kernel":
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        model = self.model(order)
        unigrams, known, tokens = _reference._python_ids(model.vocab.word_index, self.LINES)
        want = _reference._compose(model.matrices.source, model.buckets, order, unigrams, known)
        vectors, flags, stats = self.embedded(model, self.LINES)
        np.testing.assert_array_equal(vectors.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(flags, known == 0)
        assert stats == [len(self.LINES), int((known == 0).sum()), tokens, tokens - len(unigrams)]
        assert tokens == sum(len(line.split()) for line in self.LINES)

    def test_table_built_once_per_vocabulary(self, kernel):
        model = self.model(1)
        embed_batch(model, ["the cat"])
        table = model.vocab._lookup
        assert table is not None
        embed_batch(model, ["Cat sat"])
        assert model.vocab._lookup is table
