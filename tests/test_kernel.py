"""The native training kernel against its numpy oracle, and the numpy fallback."""

import ast
import inspect
import itertools
import logging
import math
import re
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from sentvec import _native, _reference, evaluation
from sentvec._reference import apply_l1_after_step, train_step
from sentvec.corpus import Vocabulary, ngram_hash, sentence_ngrams
from sentvec.model import EmbeddingMatrices
from sentvec.sampling import (
    COIN_SCALE,
    AliasTable,
    build_negative_table,
    discard_keep_prob,
    negative_prob,
)
from sentvec.trainer import TrainConfig, TrainedModel, save_model, train

from conftest import (
    SPLIT_WHITESPACE,
    row_text,
    word_path_tokens,
    word_path_words,
    write_corpus,
    write_pairs,
    zipf_topic_sentences,
)


def make_vocab(counts):
    items = sorted(counts.items(), key=lambda kv: -kv[1])
    return Vocabulary(
        words=items,
        word_index={w: i for i, (w, _) in enumerate(items)},
        total_tokens=sum(counts.values()),
        min_count=1,
        min_target_count=1,
    )


def state(seed):
    return _native.rng_state(np.random.default_rng(seed))


def oracle_step(ids, order, vocab_size, buckets, pos, negatives, lr, tau, dropped, matrices):
    grams, spans = sentence_ngrams(ids, order, vocab_size, buckets)
    outcome = train_step(ids, grams, spans, pos, negatives, lr, matrices, dropped)
    if outcome is not None and tau:
        apply_l1_after_step(outcome, tau, lr, outcome.source_touch_count, matrices)
    return None if outcome is None else outcome.loss


class TestStepAgreesWithOracle:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 0.01])
    def test_random_steps(self, kernel, order, tau):
        rng = np.random.default_rng(1000 * order + int(tau * 100))
        vocab_size, dim = 40, 13
        buckets = 32 if order >= 2 else 0
        for case in range(150):
            length = int(rng.integers(2, 12))
            # a narrow id range forces repeated context words
            ids = rng.integers(0, 6 if case % 2 else vocab_size, size=length).astype(np.int32)
            pos = int(rng.integers(0, length))
            n_neg = int(rng.integers(1, 8))
            # a narrow range forces duplicate negatives
            negatives = rng.integers(0, 4 if case % 3 == 0 else vocab_size, size=n_neg)
            negatives = np.where(negatives == ids[pos], (negatives + 1) % vocab_size, negatives)
            n_grams = sum(max(0, length - k + 1) for k in range(2, order + 1))
            dropped = None
            if n_grams and case % 4 == 0:
                dropped = (rng.random(n_grams) < 0.3).astype(np.uint8)
            lr = float(rng.uniform(0.01, 0.5))
            source = rng.normal(0.0, 0.5, size=(vocab_size + buckets, dim)).astype(np.float32)
            target = rng.normal(0.0, 0.5, size=(vocab_size, dim)).astype(np.float32)

            expected = EmbeddingMatrices(source.copy(), target.copy(), dim)
            want = oracle_step(ids, order, vocab_size, buckets, pos, negatives, lr, tau,
                               dropped, expected)
            got_source, got_target = source.copy(), target.copy()
            model = kernel.model(got_source, got_target, order, buckets, n_neg, l1_tau=tau)
            got = kernel.step(model, ids, pos, negatives.astype(np.int64), lr, dropped)

            assert got == pytest.approx(want, rel=1e-5)
            np.testing.assert_allclose(got_source, expected.source, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(got_target, expected.target, rtol=1e-5, atol=1e-6)

    def test_zero_parameters_fixed_point(self, kernel):
        ids = np.arange(5, dtype=np.int32)
        for n_neg in (1, 3, 10):
            source = np.zeros((30, 7), dtype=np.float32)
            target = np.zeros((20, 7), dtype=np.float32)
            model = kernel.model(source, target, 2, 10, n_neg, l1_tau=0.1)
            negatives = np.arange(5, 5 + n_neg, dtype=np.int64)
            loss = kernel.step(model, ids, 2, negatives, 0.25)
            assert abs(loss - (1 + n_neg) * math.log(2.0)) < 1e-12
            assert not source.view(np.uint32).any()
            assert not target.view(np.uint32).any()

    def test_loss_of_many_large_and_zero_scores_stays_finite(self, kernel):
        # the kernel takes the log of the product of the factors 1 + exp(-|x|):
        # 1,100 factors of 2 (score 0) overflow a double unless it restarts
        scores = [2.0, 0.0, 0.5, -3.0, 40.0, -40.0, 800.0, -800.0]  # rows 0 and 2 onwards
        vocab_size, dim = len(scores) + 1, 8
        source = np.zeros((vocab_size, dim), dtype=np.float32)
        source[1, 0] = 1.0  # the context row: every score is exact
        target = np.zeros((vocab_size, dim), dtype=np.float32)
        target[[0, *range(2, vocab_size)], 0] = scores
        rng = np.random.default_rng(1500)
        negatives = np.concatenate([np.full(1_100, 2), rng.integers(3, vocab_size, size=400)])
        rng.shuffle(negatives)
        model = kernel.model(source, target, 1, 0, len(negatives))
        loss = kernel.step(model, np.array([0, 1], dtype=np.int32), 0, negatives, 0.01)
        labelled = [scores[0]] + [-scores[n - 1] for n in negatives.tolist()]
        want = math.fsum(math.log1p(math.exp(-abs(x))) + max(-x, 0.0) for x in labelled)
        assert math.isfinite(loss)
        assert loss == pytest.approx(want, rel=1e-12)


class TestNgramHash:
    def test_matches_golden_hash_on_every_window(self, kernel):
        rng = np.random.default_rng(31)
        vocab_size = 2**31 - 1
        windows = 0
        for sentence in range(400):
            length = int(rng.integers(1, 16))
            # half the sentences use ids >= 2**24, whose high bytes enter the FNV seed
            high = 2**31 - 1 if sentence % 2 else 2**24
            ids = rng.integers(0, high, size=length).astype(np.int32)
            for order, buckets in ((2, 2_000_003), (3, 97), (4, 1)):
                grams, spans = kernel.sentence_ngrams(ids, order, vocab_size, buckets)
                want_grams, want_spans = sentence_ngrams(ids, order, vocab_size, buckets)
                np.testing.assert_array_equal(grams, want_grams)
                np.testing.assert_array_equal(spans, want_spans)
                for gram, (start, end) in zip(grams.tolist(), spans.tolist()):
                    assert gram == ngram_hash(ids[start : end + 1], vocab_size, buckets)
                windows += len(grams)
        assert windows > 5_000


class TestDraws:
    def test_negatives_follow_sqrt_law(self, kernel):
        rng = np.random.default_rng(7)
        counts = {f"w{i:02d}": int(c) for i, c in enumerate(rng.integers(1, 2000, size=50))}
        vocab = make_vocab(counts)
        table = build_negative_table(vocab)
        # a sentinel target never collides, so draws realize the raw distribution
        draws = kernel.draw_negatives(table, -1, 1_000_000, state(1))
        observed = np.bincount(draws, minlength=50) / len(draws)
        tv_distance = 0.5 * np.abs(observed - negative_prob(vocab.counts())).sum()
        assert tv_distance < 0.01

    def test_target_rejected_and_law_renormalized(self, kernel):
        rng = np.random.default_rng(11)
        counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(1, 400, size=30))}
        vocab = make_vocab(counts)
        table = build_negative_table(vocab)
        draws = kernel.draw_negatives(table, 0, 200_000, state(2))
        assert not np.any(draws == 0)
        expected = negative_prob(vocab.counts())
        expected[0] = 0.0
        expected /= expected.sum()
        observed = np.bincount(draws, minlength=len(vocab)) / len(draws)
        assert 0.5 * np.abs(observed - expected).sum() < 0.01

    def test_only_target_in_table_errors(self, kernel):
        table = build_negative_table(make_vocab({"a": 3}))
        with pytest.raises(ValueError, match="only the target"):
            kernel.draw_negatives(table, 0, 1, state(3))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("entries", [0, 5], "out of range"),
            ("alias", [0, -1], "out of range"),
            ("threshold", [0, COIN_SCALE], "threshold"),
            ("threshold", [1, COIN_SCALE + 1], "threshold"),
            ("entries", [1, 1], "repeat"),
            ("alias", [0], "length"),
        ],
    )
    def test_malformed_table_rejected(self, kernel, field, value, message):
        arrays = dict(entries=[0, 1], threshold=[COIN_SCALE // 2, COIN_SCALE], alias=[1, 1])
        arrays[field] = value
        table = AliasTable(
            entries=np.array(arrays["entries"], np.int32),
            threshold=np.array(arrays["threshold"], np.int64),
            alias=np.array(arrays["alias"], np.int32),
        )
        with pytest.raises(ValueError, match=message):
            kernel.model(
                np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32), 1, 0, 1,
                tokens=np.zeros(2, np.int32), offsets=np.array([0, 2]),
                gate_prob=np.ones(2), table=table, progress=np.zeros(1, np.int64),
            )

    def test_gate_keep_rates(self, kernel):
        probs = [discard_keep_prob(f, t)
                 for f, t in [(0.5, 1e-3), (0.02, 1e-4), (1e-4, 1e-5), (1e-6, 1e-5)]]
        gate_prob = np.array(probs + [0.0], dtype=np.float64)  # last word ineligible
        n = 200_000
        ids = np.repeat(np.arange(len(gate_prob), dtype=np.int32), n)
        kept = np.bincount(ids[kernel.gate_positions(ids, gate_prob, state(4))],
                           minlength=len(gate_prob)) / n
        np.testing.assert_allclose(kept, gate_prob, atol=0.01)
        assert kept[-1] == 0.0


def numpy_uniform(bits: np.random.PCG64, low: float, high: float, n: int) -> np.ndarray:
    """What ``fill_uniform`` must write: numpy's own draw from a copy of ``bits``."""
    copy = np.random.PCG64()
    copy.state = bits.state
    return np.random.Generator(copy).uniform(low, high, size=n).astype(np.float32)


class TestFillUniform:
    """The kernel's PCG64 fill against ``Generator.uniform(...).astype(np.float32)``."""

    # four or eight lanes: below, at and past one round, and every remainder
    # mod 8 of a long run
    @pytest.mark.parametrize("n", [
        0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
        4_000, 4_001, 4_002, 4_003, 4_004, 4_005, 4_006, 4_007, 100_003,
    ])
    def test_equals_numpy_bit_for_bit(self, kernel, n):
        bits = np.random.PCG64(n)
        before = bits.state
        out = np.empty(n, dtype=np.float32)
        kernel.fill_uniform(out, bits.state, -0.005, 0.005)
        assert out.tobytes() == numpy_uniform(bits, -0.005, 0.005, n).tobytes()
        assert bits.state == before

    @pytest.mark.parametrize("delta", [1, 7, 2**40 + 3, 2**127 + 11])
    def test_state_moved_by_advance(self, kernel, delta):
        bits = np.random.PCG64(99)
        bits.advance(delta)
        out = np.empty((37, 11), dtype=np.float32)
        kernel.fill_uniform(out, bits.state, -0.5, 0.5)
        assert out.tobytes() == numpy_uniform(bits, -0.5, 0.5, out.size).tobytes()

    @pytest.mark.parametrize("low,high", [(0.1, 0.3), (-3.0, 7.25), (2.0, 2.0), (-1e38, 3e38)])
    def test_bounds_round_as_numpy(self, kernel, low, high):
        # high - low is inexact for (0.1, 0.3): the range must be numpy's
        bits = np.random.PCG64(5)
        out = np.empty(1_001, dtype=np.float32)
        kernel.fill_uniform(out, bits.state, low, high)
        assert out.tobytes() == numpy_uniform(bits, low, high, out.size).tobytes()

    def test_rejects_bad_arguments(self, kernel):
        state = np.random.PCG64(1).state
        raw = np.zeros(65, dtype=np.uint8)
        read_only = np.zeros(8, dtype=np.float32)
        read_only.flags.writeable = False
        for out, message in [
            (np.zeros(8), "float32"),
            (np.zeros(16, dtype=np.float32)[::2], "C-contiguous"),
            (raw[1:].view(np.float32), "aligned"),
            (read_only, "read-only"),
        ]:
            with pytest.raises(ValueError, match=message):
                kernel.fill_uniform(out, state, -1.0, 1.0)
        out = np.zeros(8, dtype=np.float32)
        with pytest.raises(ValueError, match="PCG64"):
            kernel.fill_uniform(out, np.random.Philox(1).state, -1.0, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            kernel.fill_uniform(out, state, -1e308, 1e308)
        bad = {**state, "state": {**state["state"], "inc": 2**128}}
        with pytest.raises(ValueError, match="inc"):
            kernel.fill_uniform(out, bad, -1.0, 1.0)
        assert not out.any()


def bound_model(kernel, **overrides):
    """``kernel.model`` of two words, three buckets and two bigram sentences, with
    ``overrides`` in place of its arguments."""
    args = dict(
        source=np.zeros((5, 4), np.float32), target=np.zeros((2, 4), np.float32),
        order=2, buckets=3, negatives=1, tokens=np.array([0, 1, 1], np.int32),
        offsets=np.array([0, 1, 3]), gate_prob=np.ones(2),
        table=build_negative_table(make_vocab({"a": 3, "b": 2})),
        progress=np.zeros(1, np.int64),
    )
    args.update(overrides)
    return kernel.model(**args)


class TestPointerChecks:
    """Each check that stops a bad array before its pointer reaches the kernel."""

    @pytest.mark.parametrize("overrides,message", [
        (dict(source=np.zeros((4, 4), np.float32)),
         r"source shape \(4, 4\) does not match target \(2, 4\) plus 3 buckets"),
        (dict(order=0), "invalid order=0, buckets=3, negatives=1"),
        (dict(order=1), "invalid order=1, buckets=3, negatives=1"),
        (dict(source=np.zeros((2, 4), np.float32), buckets=0),
         "invalid order=2, buckets=0, negatives=1"),
        (dict(negatives=0), "invalid order=2, buckets=3, negatives=0"),
        (dict(offsets=np.array([0, 1, 4])), "offsets do not delimit the token array"),
        (dict(offsets=np.array([1, 1, 3])), "offsets do not delimit the token array"),
        (dict(offsets=np.array([0, 2, 1, 3])), "offsets do not delimit the token array"),
        (dict(tokens=np.array([0, 2, 1], np.int32)), "token id out of range"),
        (dict(tokens=np.array([0, -1, 1], np.int32)), "token id out of range"),
        (dict(gate_prob=np.ones(3)), "gate_prob or progress has the wrong shape"),
        (dict(progress=np.zeros(2, np.int64)), "gate_prob or progress has the wrong shape"),
    ])
    def test_model(self, kernel, overrides, message):
        with pytest.raises(ValueError, match=message):
            bound_model(kernel, **overrides)

    @pytest.mark.parametrize("sentences", [[2], [-1], [0, 1, 2]])
    def test_train_chunk_sentence_index(self, kernel, sentences):
        progress = np.zeros(1, np.int64)
        model = bound_model(kernel, progress=progress)
        with pytest.raises(ValueError, match="sentence index out of range"):
            kernel.train_chunk(model, np.array(sentences, np.int64), state(0))
        assert progress[0] == 0

    def test_sentence_ngrams_without_buckets(self, kernel):
        with pytest.raises(ValueError, match="buckets must be >= 1 when n-gram order >= 2"):
            kernel.sentence_ngrams(np.array([0, 1], np.int32), 2, 2, 0)

    @pytest.mark.parametrize("ids,pos,negatives,dropped,message", [
        ([0, 1, 1], 3, [0], None, "position or negative count out of range"),
        ([0, 1, 1], -1, [0], None, "position or negative count out of range"),
        ([0, 1, 1], 0, [0, 1], None, "position or negative count out of range"),
        ([0, 2, 1], 0, [0], None, "ids out of range"),
        ([0, 1, -1], 0, [0], None, "ids out of range"),
        ([0, 1, 1], 0, [2], None, "negatives out of range"),
        ([0, 1, 1], 0, [-1], None, "negatives out of range"),
        ([0, 1, 1], 0, [1], [0, 0, 0], "dropped mask needs 2 entries"),
        ([0, 1, 1], 0, [1], [0], "dropped mask needs 2 entries"),
    ])
    def test_step(self, kernel, ids, pos, negatives, dropped, message):
        mask = None if dropped is None else np.array(dropped, np.uint8)
        with pytest.raises(ValueError, match=message):
            kernel.step(bound_model(kernel), np.array(ids, np.int32), pos,
                        np.array(negatives, np.int64), 0.1, mask)

    @pytest.mark.parametrize("ids", [[0, 3], [-1, 0]])
    def test_gate_positions_token_id(self, kernel, ids):
        with pytest.raises(ValueError, match="token id out of range"):
            kernel.gate_positions(np.array(ids, np.int32), np.ones(3), state(1))

    @pytest.mark.parametrize("which", [[2], [0, -1]])
    def test_encoder_words_id(self, kernel, which):
        with kernel.encoder() as encoder:
            encoder.encode_lines(b"a b\n", 4)
            with pytest.raises(ValueError, match="token id out of range"):
                encoder.words(np.array(which, np.int64))

    @pytest.mark.parametrize("ends", [[2, 3], [-1, 4], [4, 4]])
    def test_lookup_table_ends(self, kernel, ends):
        with pytest.raises(ValueError, match="ends do not delimit the words"):
            kernel.lookup_table(b"ab\nc\n", np.array(ends, np.int64))


def quick_config(**overrides):
    base = dict(
        dim=16, min_count=1, min_target_count=1, lr=0.2, epochs=2,
        subsample_t=1e-3, word_ngrams=2, bucket_count=256, dropout_k=1,
        negatives=3, threads=1, seed=5, report_every=500,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTraining:
    def test_fallback_warns_and_stays_deterministic(
        self, small_corpus, tmp_path, without_kernel, caplog
    ):
        without_kernel()
        blobs = []
        for run in range(2):
            with caplog.at_level(logging.WARNING, logger="sentvec.trainer"):
                model = train(small_corpus, quick_config(epochs=1))
            path = tmp_path / f"run{run}.bin"
            save_model(model, str(path))
            blobs.append(path.read_bytes())
        warnings = [r for r in caplog.records if "native kernel unavailable" in r.message]
        assert len(warnings) == 2  # one per train call
        assert blobs[0] == blobs[1]

    def test_kernel_and_fallback_learn_alike(self, kernel, small_corpus, without_kernel):
        config = quick_config(epochs=1, report_every=10**9)
        native = train(small_corpus, config)
        without_kernel()
        fallback = train(small_corpus, config)
        # same gate, dropout and negative laws: equal work and loss up to noise
        assert native.stats.targets_processed == pytest.approx(
            fallback.stats.targets_processed, rel=0.02
        )
        assert native.stats.loss_windows[0] == pytest.approx(
            fallback.stats.loss_windows[0], rel=0.02
        )

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_one_token_sentence_takes_no_step(self, request, engine):
        build = request.getfixturevalue("kernel") if engine == "kernel" else _reference
        source = np.random.default_rng(8).uniform(-1, 1, size=(2, 4)).astype(np.float32)
        target = np.random.default_rng(9).uniform(-1, 1, size=(2, 4)).astype(np.float32)
        run = [source.copy(), target.copy()]
        progress = np.zeros(1, dtype=np.int64)
        model = build.model(
            *run, 1, 0, 1, l1_tau=1e-3, base_lr=0.1, tokens=np.array([0], np.int32),
            offsets=np.array([0, 1]), gate_prob=np.ones(2),
            table=build_negative_table(make_vocab({"a": 3, "b": 2})), progress=progress,
        )
        # the gate keeps the token, whose context is empty
        loss_sums, steps = build.train_chunk(
            model, np.array([0], np.int64), build.rng_state(np.random.default_rng(3))
        )
        assert loss_sums.tolist() == [0.0] and steps.tolist() == [0]
        assert progress[0] == 0
        assert run[0].tobytes() == source.tobytes() and run[1].tobytes() == target.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_single_eligible_word_raises(self, tmp_path, threads):
        corpus = write_corpus(tmp_path / "one.txt", [["a", "b"], ["a", "c"], ["a", "d"]] * 5)
        config = quick_config(min_target_count=10, word_ngrams=1, subsample_t=1.0,
                              threads=threads)
        with pytest.raises(ValueError, match="only the target"):
            train(corpus, config)

    def test_shared_progress_loses_no_update(self, kernel, tmp_path, monkeypatch):
        sentences = zipf_topic_sentences(3_000, vocab_size=400, n_function=20,
                                         n_topics=5, seed=61)
        corpus = write_corpus(tmp_path / "stress.txt", sentences)
        reported = []
        lock = threading.Lock()
        train_chunk = _native.Kernel.train_chunk

        def counted(self, *args):
            losses, steps = train_chunk(self, *args)
            with lock:
                reported.append(int(steps.sum()))
            return losses, steps

        monkeypatch.setattr(_native.Kernel, "train_chunk", counted)
        monkeypatch.setattr("sentvec.trainer._CHUNK_SENTENCES", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            model = train(corpus, quick_config(threads=6, epochs=3, subsample_t=1e-2))
            elapsed = time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)
        assert model.stats.targets_processed == sum(reported) > 0
        assert np.all(np.isfinite(model.matrices.source))
        assert elapsed < 60.0


class TestBuild:
    def test_cache_path_honours_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _native.library_path()
        assert path.parent == tmp_path / "sentvec"
        assert path.suffix == ".so"

    def test_build_leaves_only_the_library(self, kernel, tmp_path):
        path = tmp_path / "sentvec" / "kernel-test.so"
        _native._build(path)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert path.stat().st_size > 0

    def test_cache_path_names_the_cpu(self, monkeypatch):
        # a build for one CPU's features must never open on another CPU
        monkeypatch.setattr(_native, "cpu_identity", lambda: "flags\t: fpu sse2 avx")
        path = _native.library_path()
        monkeypatch.setattr(_native, "cpu_identity", lambda: "flags\t: fpu sse2 avx")
        assert _native.library_path() == path
        monkeypatch.setattr(_native, "cpu_identity", lambda: "flags\t: fpu sse2")
        assert _native.library_path() != path

    @pytest.mark.parametrize("flags", ["host", "portable", "avx2", "avx512"])
    def test_kernel_compiles_without_warnings(self, tmp_path, flags):
        compiler = shutil.which("gcc") or shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler (gcc or cc) on PATH")
        if flags in ("avx2", "avx512") and not _native.HOST_FLAGS:
            pytest.skip("the AVX2 and AVX-512 paths compile on x86-64 only")
        # x86-64-v3 and -v4 compile the eight- and sixteen-float paths even on
        # a CPU that cannot run them
        chosen = {
            "host": _native.COMPILE_FLAGS,
            "portable": _native.PORTABLE_FLAGS,
            "avx2": V3_FLAGS,
            "avx512": _native.PORTABLE_FLAGS + ("-march=x86-64-v4",),
        }[flags]
        proc = subprocess.run(
            [compiler, *chosen, "-Wall", "-Wextra", "-Wconversion", "-Werror",
             "-o", str(tmp_path / "kernel.so"), str(_native.SOURCE), "-lm"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_binding_resolves(self, tmp_path):
        # without the ``kernel`` fixture: a binding the library lacks fails
        # here instead of turning every kernel test into a skip
        if shutil.which("gcc") is None and shutil.which("cc") is None:
            pytest.skip("no C compiler (gcc or cc) on PATH")
        for name, flags in (("host", _native.COMPILE_FLAGS), ("portable", _native.PORTABLE_FLAGS)):
            _native.Kernel(_native._build(tmp_path / f"kernel-{name}.so", flags))

    def test_every_binding_matches_its_prototype(self, tmp_path):
        # ctypes calls a function whose argtypes are short with garbage for
        # the arguments it was not told about, and raises nothing
        if shutil.which("gcc") is None and shutil.which("cc") is None:
            pytest.skip("no C compiler (gcc or cc) on PATH")
        definitions = re.findall(
            r"^(?!static\b)[\w *]*?\b(sv_\w+)\(([^)]*)\)\s*\{", _native.SOURCE.read_text(), re.M
        )
        assert len(definitions) >= 20
        lib = _native.Kernel(_native._build(tmp_path / "kernel.so", _native.PORTABLE_FLAGS))._lib
        for name, params in definitions:
            argtypes = getattr(lib, name).argtypes
            assert argtypes is not None, f"{name} has no argtypes"
            arity = 0 if params.strip() == "void" else len(params.split(","))
            assert len(argtypes) == arity, f"{name} takes {arity} arguments"

    def test_fill_lanes_follow_the_cpu(self, kernel, tmp_path):
        # a typo in the fill's guard would quietly run the four-lane loop
        flags = set(_native.cpu_identity().split())
        wide = bool(_native.HOST_FLAGS) and {"avx512f", "avx512dq"} <= flags
        assert kernel.fill_lanes == (8 if wide else 4)
        path = tmp_path / "kernel-portable.so"
        assert _native.Kernel(_native._build(path, _native.PORTABLE_FLAGS)).fill_lanes == 4


# every module of the package but the one that picks the engine
MODULES = [path for path in sorted(_native.SOURCE.parent.glob("*.py")) if path.name != "_native.py"]
# and but the reference engine: the modules that call an engine
CALL_SITES = [path for path in MODULES if path.name != "_reference.py"]
# what only the reference engine takes: token lists
REFERENCE_ONLY = {"encode_tokens"}


def used(pattern: str) -> set[str]:
    """The attribute names the call sites take from what ``pattern`` matches."""
    return {
        name for path in CALL_SITES
        for name in re.findall(pattern + r"\.(\w+)", path.read_text())
    }


def parameters(function) -> list[tuple[str, object]]:
    return [
        (p.name, p.default) for p in inspect.signature(function).parameters.values()
        if p.name != "self"
    ]


class TestEngines:
    """The numpy reference engine has the ``Kernel`` interface the call sites use,
    and only ``_native`` asks which engine loaded."""

    def test_reference_has_the_kernel_signatures(self):
        reference = _native.reference()
        methods = used(r"\bengine\b(?:\(\))?")
        assert methods >= {
            "fill_uniform", "format_rows", "lookup_table", "embed_text", "embed_rows", "encoder",
            "vocabulary_records", "model", "train_chunk", "rng_state", "label",
        }
        for name in methods:
            kernel_side = getattr(_native.Kernel, name)
            if isinstance(kernel_side, property):
                assert not callable(getattr(reference, name)), name
            else:
                assert parameters(getattr(reference, name)) == parameters(kernel_side), name
        encoder = used(r"\bencoder\b")
        assert encoder >= {"encode_lines", "result", "words"} | REFERENCE_ONLY
        for name in encoder:
            assert callable(getattr(reference.Encoder, name)), name
            if name not in REFERENCE_ONLY:
                kernel_side = getattr(_native.Encoder, name)
                assert parameters(getattr(reference.Encoder, name)) == parameters(kernel_side)
        for name in ("__enter__", "__exit__"):
            assert hasattr(reference.Encoder, name)

    def test_embed_rows_takes_the_kernel_arguments(self, kernel):
        # sv_embed_text's arguments, then the buffer's capacity, the flag column
        # and the lines and bytes done
        match = re.search(r"\bsv_embed_rows\(([^)]*)\)\s*\{", _native.SOURCE.read_text())
        assert match is not None
        assert len(match.group(1).split(",")) == len(kernel._lib.sv_embed_rows.argtypes) == 15
        assert parameters(_reference.embed_rows) == parameters(_native.Kernel.embed_rows)

    @pytest.mark.parametrize("pattern", [
        r"_native\.load\b", r"\bimport\b[^\n]*\bload\b", r"KernelUnavailable",
        r"\b(kernel|engine) is (not )?None\b",
    ])
    def test_only_native_picks_the_engine(self, pattern):
        for path in MODULES:
            assert not re.search(pattern, path.read_text()), f"{path.name}: {pattern}"

    def test_only_the_engine_choice_and_token_lists_take_the_reference(self):
        # so no dispatch by the rows' dtype or layout can come back
        callers = set()
        for path in sorted(_native.SOURCE.parent.glob("*.py")):
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and "reference" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)
                    ):
                        callers.add((path.name, function.name))
        assert callers == {("_native.py", "engine"), ("corpus.py", "encode_corpus")}
        # and in encode_corpus only its token-list branch
        source = (_native.SOURCE.parent / "corpus.py").read_text()
        assert source.count("reference()") == 1
        assert "else:  # only the reference engine takes token lists\n" \
            "            encoder = _native.reference().encoder()" in source

    def test_call_sites_take_the_reference_from_native(self):
        # ``_native.reference()`` for the inputs the kernel does not take
        for path in CALL_SITES:
            assert not re.search(r"\b_reference\b", path.read_text()), path.name


class TestCache:
    """``load`` leaves other versions' builds, and survives its own being deleted."""

    def seeded_cache(self, kernel, monkeypatch, tmp_path, names):
        """A cache under ``tmp_path`` holding the current build under ``names``."""
        built = _native.library_path()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "_loaded", [])  # a fresh process's first load
        own = _native.library_path()
        own.parent.mkdir()
        for name in names:
            shutil.copyfile(built, own.with_name(name.format(own=own.name)))
        return own

    def test_load_leaves_other_builds(self, kernel, monkeypatch, tmp_path):
        names = ["{own}", "kernel-0123.so", "kernel-4567.so", "notes.so"]
        own = self.seeded_cache(kernel, monkeypatch, tmp_path, names)
        _native.load()
        assert sorted(p.name for p in own.parent.iterdir()) == sorted(
            name.format(own=own.name) for name in names
        )

    @pytest.mark.parametrize("window", ["cached", "built"])
    def test_load_racing_a_user_emptying_the_cache(self, kernel, monkeypatch, tmp_path, window):
        # a user, in a thread, deletes this version's build just before this
        # load opens it (a cached build) or just after it is moved into place
        # (a new build)
        other = "kernel-0123.so"
        own = self.seeded_cache(
            kernel, monkeypatch, tmp_path, [other, "{own}"] if window == "cached" else [other]
        )

        def user_deletes_the_build():
            worker = threading.Thread(target=own.unlink)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()

        if window == "cached":
            real_cdll = _native.ctypes.CDLL

            def cdll(name, *args, **kwargs):
                if name == str(own):
                    user_deletes_the_build()
                return real_cdll(name, *args, **kwargs)

            monkeypatch.setattr(_native.ctypes, "CDLL", cdll)
        else:
            real_replace = _native.os.replace

            def replace(src, dst):
                real_replace(src, dst)
                user_deletes_the_build()

            monkeypatch.setattr(_native.os, "replace", replace)
        loaded = _native.load()
        monkeypatch.undo()
        rows = np.arange(12, dtype=np.float32).reshape(4, 3)
        table = loaded.lookup_table(b"a\nb\nc\nd\n", np.array([1, 3, 5, 7]))
        means, known, tokens = loaded.embed_text(
            table, rows, 0, 1, b"a d\n\nb", np.array([0, 4, 5]), np.array([3, 4, 6])
        )
        np.testing.assert_array_equal(means, [[4.5, 5.5, 6.5], [0, 0, 0], [3, 4, 5]])
        assert known.tolist() == [2, 0, 1] and tokens == 3
        # the cached build was rebuilt after its deletion; a new one was deleted after its move
        left = [other, own.name] if window == "cached" else [other]
        assert sorted(p.name for p in own.parent.iterdir()) == sorted(left)


def line_sums(source, vocab_size, buckets, order, ids, counts):
    """Each line's unigram then ``sentence_ngrams`` rows, summed by numpy and divided."""
    out = np.zeros((len(counts), source.shape[1]), dtype=np.float32)
    ends = np.cumsum(counts)
    for line, (a, b) in enumerate(zip(ends - counts, ends)):
        if b > a:
            grams, _ = sentence_ngrams(ids[a:b], order, vocab_size, buckets)
            rows = np.concatenate([ids[a:b], grams])
            # numpy adds the rows in order for dim >= 2, and a sum of -0 rows is +0
            out[line] = source[rows].sum(axis=0) / len(rows)
    return out


def vocab_words(n) -> list[bytes]:
    """``n`` lowercase words of 2 to 16 bytes: some fit a table slot's eight-byte head, some not."""
    return [b"w%d" % i + b"x" * (i % 13) for i in range(n)]


def word_table(build, words):
    """``build``'s lookup table of ``words``, word i with id i."""
    ends = np.cumsum([len(word) + 1 for word in words], dtype=np.int64) - 1
    return build.lookup_table(b"".join(word + b"\n" for word in words), ends)


# str.split()'s ASCII whitespace but \n, alone and in runs
SEPARATORS = [b" ", b"\t", b"\x0b", b"\x0c", b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b" \t\x1c "]


def text_spans(rng, words, ids, counts):
    """Text whose line i holds, in order, the ``counts[i]`` next ``words[ids]``.

    Some known words are capitalized, which the lookup folds back; unknown
    tokens, some capitalized, sit between them, and random runs of
    whitespace separate them all.  The lines lie in a shuffled order
    between other known words.  Returns the text, each line's (start, end)
    offsets, in line order, and the number of tokens of all lines.
    """
    lines, tokens, first = [], 0, 0
    for count in counts.tolist():
        line = []
        for i in ids[first : first + count].tolist():
            if rng.random() < 0.1:
                line.append(b"%sq%d" % (b"Z" if rng.random() < 0.5 else b"z", rng.integers(99)))
            line.append(words[i].upper() if rng.random() < 0.2 else words[i])
        first += count
        tokens += len(line)
        seps = [SEPARATORS[k] for k in rng.integers(len(SEPARATORS), size=len(line) + 1)]
        text = b"".join(sep + token for sep, token in zip(seps, line))
        lines.append(text + seps[-1] if rng.random() < 0.3 else text)
    data, starts, ends = words[1] + b" " + words[2], [0] * len(lines), [0] * len(lines)
    for i in rng.permutation(len(lines)).tolist():
        data += b"\n"
        starts[i] = len(data)
        data += lines[i]
        ends[i] = len(data)
        data += words[1] + b" " + words[2]
    return data, np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64), tokens


class TestEmbedLines:
    """``Kernel.embed_text`` composes lines from their text as ``line_sums`` does from their ids."""

    def test_equals_numpy_sums_bit_for_bit(self, kernel):
        rng = np.random.default_rng(71)
        vocab_size = 400
        words = vocab_words(vocab_size)
        table = word_table(kernel, words)
        # 8, 16, 24 and 33 end on a vector block of some build, or one float past it
        for order, dim in itertools.product((1, 2, 3), (2, 3, 4, 7, 8, 16, 24, 33, 101)):
            buckets = 0 if order == 1 else 97
            source = rng.standard_normal((vocab_size + buckets, dim)).astype(np.float32)
            source[:50] = -0.0
            counts = rng.integers(0, 40, size=60)
            # empty, shorter than the order, and 20,000 tokens, which size the call's workspace
            counts[:6] = [0, 1, 2, 3, 30, 20_000]
            ids = rng.integers(0, vocab_size, size=int(counts.sum())).astype(np.int32)
            ids[:33] = rng.integers(0, 50, size=33)  # lines of -0 unigram rows
            data, starts, ends, tokens = text_spans(rng, words, ids, counts)
            for zero_buckets in (False, True):
                if zero_buckets:
                    source[vocab_size:] = -0.0  # and of -0 n-gram rows
                got, known, n_tokens = kernel.embed_text(
                    table, source, buckets, order, data, starts, ends
                )
                assert_same_bits(got, line_sums(source, vocab_size, buckets, order, ids, counts))
                assert known.tolist() == counts.tolist() and n_tokens == tokens

    def test_empty_and_blank_spans(self, kernel):
        words = vocab_words(5)
        table = word_table(kernel, words)
        source = np.arange(20, dtype=np.float32).reshape(5, 4) + 1
        blank = b" \t\x1c\x1d\x1e\x1f\x0b\x0c\r "
        data = blank + words[3] + b" zq"
        word = len(blank) + len(words[3])
        # empty, blank, all the blanks, the blank after the word, an unknown word, the word
        starts = np.array([0, 3, 0, word, word + 1, len(blank)])
        ends = np.array([0, 3, len(blank), word + 1, len(data), word])
        vectors, known, tokens = kernel.embed_text(table, source, 0, 1, data, starts, ends)
        assert known.tolist() == [0, 0, 0, 0, 0, 1] and tokens == 2
        np.testing.assert_array_equal(vectors[:5], np.zeros((5, 4)))
        np.testing.assert_array_equal(vectors[5], source[3])

    def test_byte_addressed_source(self, kernel):
        rng = np.random.default_rng(72)
        words = vocab_words(30)
        table = word_table(kernel, words)
        aligned = rng.standard_normal((40, 9)).astype(np.float32)
        ids, counts = rng.integers(0, 30, size=100).astype(np.int32), np.array([30, 0, 70])
        data, starts, ends, _ = text_spans(rng, words, ids, counts)
        want = line_sums(aligned, 30, 10, 3, ids, counts)
        for shift in (1, 2, 3):
            raw = np.zeros(aligned.nbytes + 4, dtype=np.uint8)
            raw[shift : shift + aligned.nbytes] = aligned.view(np.uint8).ravel()
            moved = np.frombuffer(raw, "<f4", count=aligned.size, offset=shift).reshape(40, 9)
            assert not moved.flags.aligned
            got, _, _ = kernel.embed_text(table, moved, 10, 3, data, starts, ends)
            assert_same_bits(got, want)

    def test_order_past_int32_neither_wraps_nor_loops(self, kernel):
        # a header may claim any order; an int32 argument would wrap 2^31 to
        # -2^31 and 2^32 - 1 to -1, which would drop every n-gram, and a
        # window loop run to the order for every line would take minutes here
        rng = np.random.default_rng(74)
        words = vocab_words(50)
        table = word_table(kernel, words)
        source = rng.standard_normal((50 + 13, 6)).astype(np.float32)
        counts = np.array([0, 1, 5, 12, 2])
        ids = rng.integers(0, 50, size=int(counts.sum())).astype(np.int32)
        data, starts, ends, _ = text_spans(rng, words, ids, counts)
        want = line_sums(source, 50, 13, 12, ids, counts)
        # one span of 400,000 blanks and a word, and 50,000 spans of the word
        data += b" " * 400_000 + words[7]
        word = len(data) - len(words[7])
        starts = np.concatenate([starts, [word - 400_000], np.full(50_000, word)])
        ends = np.concatenate([ends, np.full(50_001, len(data))])
        for order in (12, 13, 2**31, 2**32 - 1, 2**63 - 1):
            started = time.perf_counter()
            got, known, _ = kernel.embed_text(table, source, 13, order, data, starts, ends)
            assert time.perf_counter() - started < 2.0
            assert_same_bits(got[: len(counts)], want)
            np.testing.assert_array_equal(got[len(counts) :], np.tile(source[7], (50_001, 1)))
            assert known[len(counts) :].min() == 1

    def test_bad_arguments_rejected(self, kernel):
        source = np.ones((5, 4), dtype=np.float32)
        table = word_table(kernel, [b"a", b"b", b"c"])

        def embed(starts, ends, buckets=2, order=2, matrix=source, data=b"a b c"):
            spans = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
            return kernel.embed_text(table, matrix, buckets, order, data, *spans)

        for starts, ends in [([0], [6]), ([-1], [1]), ([3], [2]), ([0, 1], [2]), ([[0]], [[1]])]:
            with pytest.raises(ValueError, match="do not lie within the data"):
                embed(starts, ends)
        with pytest.raises(ValueError, match="5 rows"):
            embed([0], [1], buckets=1)
        with pytest.raises(ValueError, match="invalid order"):
            embed([0], [1], buckets=0, matrix=source[:3])
        with pytest.raises(ValueError, match="invalid order"):
            embed([0], [1], order=0)
        with pytest.raises(ValueError, match="C-contiguous float32"):
            embed([0], [1], matrix=np.ones((5, 8), dtype=np.float32)[:, ::2])
        with pytest.raises(ValueError, match="C-contiguous int64"):
            kernel.embed_text(table, source, 2, 2, b"a", np.array([0]).astype(np.int32),
                              np.array([1]).astype(np.int32))
        with pytest.raises(ValueError, match="C-contiguous int64"):
            kernel.embed_text(table, source, 2, 2, b"a b", np.array([0, 0, 0])[::2],
                              np.array([1, 1, 3])[::2])
        vectors, known, tokens = embed([], [])
        assert vectors.shape == (0, 4) and known.shape == (0,) and tokens == 0
        vectors, known, tokens = embed([0, 5, 1], [0, 5, 2])
        np.testing.assert_array_equal(vectors, np.zeros((3, 4)))
        assert known.tolist() == [0, 0, 0] and tokens == 0

    def test_misaligned_float_pointers_rejected(self, kernel):
        raw = np.zeros(4 * 12 + 2, dtype=np.uint8)
        rows = np.frombuffer(raw, "<f4", count=12, offset=2).reshape(3, 4)
        with pytest.raises(ValueError, match="not aligned"):
            kernel.format_rows(rows, " ", None, _native.text_buffer(4))
        target = np.frombuffer(raw, "<f4", count=8, offset=2).reshape(2, 4)
        with pytest.raises(ValueError, match="not aligned"):
            kernel.model(rows, target, order=2, buckets=1, negatives=1)


def edge_lines(words) -> list[bytes]:
    """An empty line, an all-unknown one, lines of 1, 2 and 3 known words (n-grams shorter
    than the order), and a line of 20,000 known words."""
    long_line = np.random.default_rng(79).integers(len(words), size=20_000).tolist()
    return [
        b"", b" zq1\tZQ2 ", words[0], words[1] + b" zq3 " + words[2].upper(),
        b" ".join(words[3:6]), b" ".join(words[i] for i in long_line),
    ]


def pair_lines(rng, words, n_pairs):
    """The text of ``n_pairs`` pairs' sides, pair k's side a at line k and its side b at line
    ``n_pairs + k``, with each line's (start, end) offsets.

    Lines hold ``words``, some capitalized, and unknown tokens, split by
    runs of whitespace; some lines are empty, blank or all unknown, and the
    first sides are ``edge_lines``.
    """
    lines = edge_lines(words)
    for _ in range(2 * n_pairs - len(lines)):
        kind, tokens = rng.random(), []
        for _ in range(0 if kind < 0.1 else int(rng.integers(1, 25))):
            roll, word = rng.random(), words[int(rng.integers(len(words)))]
            if kind < 0.2 or roll < 0.1:
                tokens.append(b"zq%d" % rng.integers(99))
            else:
                tokens.append(word.upper() if roll < 0.3 else word)
        seps = [SEPARATORS[k] for k in rng.integers(len(SEPARATORS), size=len(tokens) + 1)]
        lines.append(b"".join(sep + token for sep, token in zip(seps, tokens)) + seps[-1])
    lengths = np.array([len(line) for line in lines], dtype=np.int64)
    ends = np.cumsum(lengths + 1) - 1
    return b"\n".join(lines), ends - lengths, ends


def exact_dots(vectors: np.ndarray) -> np.ndarray:
    """The (3, n) a·a, b·b and a·b of the halves of ``vectors``, each summed exactly."""
    va, vb = np.split(vectors.astype(np.float64), 2)
    pairs = (va, va), (vb, vb), (va, vb)
    return np.array([[math.fsum(row) for row in x * y] for x, y in pairs])


class TestPairDots:
    """``Kernel.pair_dots`` gives the numpy reference engine's dots, known-token counts and
    token total bit for bit, and holds no vector of every pair."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_the_reference_bit_for_bit(self, kernel, order):
        rng = np.random.default_rng(80 + order)
        words = vocab_words(300)
        tables = word_table(kernel, words), word_table(_reference, words)
        data, starts, ends = pair_lines(rng, words, 40)
        buckets = 0 if order == 1 else 97
        # every tail of the lanes and of each build's vector width, and the presets' dims
        for dim in [*range(1, 21), 100, 700]:
            source = rng.standard_normal((300 + buckets, dim)).astype(np.float32)
            got, want = (
                build.pair_dots(table, source, buckets, order, data, starts, ends)
                for build, table in zip((kernel, _reference), tables)
            )
            assert_same_bits(got[0], want[0])
            assert got[1].tolist() == want[1].tolist() and got[2] == want[2]
            vectors, known, tokens = kernel.embed_text(
                tables[0], source, buckets, order, data, starts, ends
            )
            assert got[1].tolist() == known.tolist() and got[2] == tokens
            # a sum of 8 lanes of dim / 8 exact products each, rounded at every add
            bound = 1e-15 * dim * exact_dots(np.abs(vectors))
            assert (np.abs(got[0] - exact_dots(vectors)) <= bound).all()
        assert (known == 0).sum() > 8 and (known > 0).sum() > 50

    def test_non_ascii_pairs_rewritten_for_the_engines(self, kernel, tmp_path):
        words = ["cat", "café", "Dog", "äpfel", "the", "i̇", "a", "été"]
        vocab = Vocabulary(
            words=[(w, 5) for w in words], word_index={w: i for i, w in enumerate(words)},
            total_tokens=5 * len(words), min_count=1, min_target_count=1,
        )
        source = np.random.default_rng(84).standard_normal((len(words) + 31, 11))
        model = TrainedModel(
            vocab=vocab, word_ngrams=2, buckets=31, subsample_t=1e-5,
            matrices=EmbeddingMatrices(source=source.astype(np.float32),
                                       target=np.zeros((len(words), 11), np.float32), dim=11),
        )
        sides = ["CAFÉ\u3000the Cat", "İ cat", "ÄPFEL the\u2003dog", "Été a", "zzé", "", "the"]
        pairs = write_pairs(
            tmp_path / "sim.tsv", [(a, b, 0.5) for a in sides for b in reversed(sides)]
        )
        _, _, data, starts, ends = evaluation._engine_text(model, pairs.data, *pairs.side_spans())
        got, want = (
            build.pair_dots(evaluation._table(vocab, build), model.matrices.source, 31, 2,
                            data, starts, ends)
            for build in (kernel, _reference)
        )
        assert_same_bits(got[0], want[0])
        assert got[1].tolist() == want[1].tolist() and got[2] == want[2]
        assert 0 < (got[1] == 0).sum() < len(got[1])

    def test_reference_blocks_give_the_same_bits(self, kernel, monkeypatch):
        rng = np.random.default_rng(85)
        words = vocab_words(100)
        tables = word_table(kernel, words), word_table(_reference, words)
        data, starts, ends = pair_lines(rng, words, 1100)
        source = rng.standard_normal((100 + 53, 13)).astype(np.float32)
        want = kernel.pair_dots(tables[0], source, 53, 2, data, starts, ends)
        for block in (1, 2, 3, 1024):
            monkeypatch.setattr(_reference, "_PAIR_BLOCK", block)
            got = _reference.pair_dots(tables[1], source, 53, 2, data, starts, ends)
            assert_same_bits(got[0], want[0])
            assert got[1].tolist() == want[1].tolist() and got[2] == want[2]

    def test_bad_arguments_rejected(self, kernel):
        source = np.ones((5, 4), dtype=np.float32)
        table = word_table(kernel, [b"a", b"b", b"c"])
        spans = np.array([0, 2, 4], dtype=np.int64), np.array([1, 3, 5], dtype=np.int64)
        with pytest.raises(ValueError, match="3 spans are not pairs of lines"):
            kernel.pair_dots(table, source, 2, 2, b"a b c", *spans)
        with pytest.raises(ValueError, match="do not lie within the data"):
            kernel.pair_dots(table, source, 2, 2, b"a b", spans[0][:2], spans[1][:2] + 3)
        pairs = (s[:2] for s in spans)
        dots, known, tokens = kernel.pair_dots(table, source, 2, 2, b"a b c", *pairs)
        assert dots.tolist() == [[4.0], [4.0], [4.0]] and known.tolist() == [1, 1] and tokens == 2

    def test_no_vector_of_every_pair(self, kernel, tmp_path):
        # the kernel path's arrays grow with the pairs, not with their dim: at
        # dim 700 a vector of each pair's side would take 350 eight-byte
        # values, and two sides' of every pair 700 per pair
        import tracemalloc

        rng = np.random.default_rng(86)
        words = [f"w{i}" for i in range(200)]

        def peak(n_pairs, dim):
            vocab = Vocabulary(
                words=[(w, 5) for w in words], word_index={w: i for i, w in enumerate(words)},
                total_tokens=5 * len(words), min_count=1, min_target_count=1,
            )
            source = rng.standard_normal((200 + 101, dim)).astype(np.float32)
            model = TrainedModel(
                vocab=vocab, word_ngrams=2, buckets=101, subsample_t=1e-5,
                matrices=EmbeddingMatrices(
                    source=source, target=np.zeros((200, dim), np.float32), dim=dim),
            )
            sides = [" ".join(rng.choice(words, 12)) for _ in range(2 * n_pairs)]
            path = tmp_path / "pairs.tsv"
            path.write_text("".join(
                f"{rng.random():.3f}\t{a}\t{b}\n"
                for a, b in zip(sides[:n_pairs], sides[n_pairs:])
            ))
            pairs = evaluation.SimilarityPairs.read(path)
            evaluation.evaluate_similarity(model, pairs)  # builds the lookup table
            tracemalloc.start()
            try:
                evaluation.evaluate_similarity(model, pairs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2000
        wide, twice, narrow = peak(n, 700), peak(2 * n, 700), peak(2 * n, 7)
        assert twice - wide <= 64 * 8 * n
        assert abs(twice - narrow) <= 4096


def embed_fills(build, table, source, buckets, order, data, starts, ends, oov_flag, out):
    """Each fill of ``out`` that ``build.embed_rows`` yields: its text, its lines' known-token
    counts and their token total."""
    return [
        (bytes(out[:size]), known.tolist(), tokens)
        for size, known, tokens in build.embed_rows(
            table, source, buckets, order, data, starts, ends, oov_flag, out
        )
    ]


def assert_same_fills(got, want) -> None:
    assert [(len(text), known, tokens) for text, known, tokens in got] == [
        (len(text), known, tokens) for text, known, tokens in want
    ]
    assert_same_text(b"".join(f[0] for f in got).decode(), b"".join(f[0] for f in want).decode())


class TestEmbedRows:
    """``Kernel.embed_rows`` writes the numpy reference engine's fills byte for byte, their
    text is ``format_rows`` of ``embed_text``, and each fill ends where the next line's
    worst case no longer fits."""

    @pytest.mark.parametrize("oov_flag", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_the_reference(self, kernel, order, oov_flag):
        rng = np.random.default_rng(90 + order)
        words = vocab_words(300)
        tables = word_table(kernel, words), word_table(_reference, words)
        # empty, blank and all-unknown lines, and capitalized words
        data, starts, ends = pair_lines(rng, words, 40)
        buckets = 0 if order == 1 else 97
        # every tail of the lanes and of each build's vector width, and the presets' dims
        for dim in [*range(1, 21), 100, 700]:
            source = random_rows(rng, 300 + buckets, dim)
            vectors, known, tokens = kernel.embed_text(
                tables[0], source, buckets, order, data, starts, ends
            )
            want = row_text(kernel, vectors, " ", known == 0 if oov_flag else None)
            worst = _native._VALUE_BYTES * dim + 3
            for capacity in (3 * worst, 1 << 18):
                got, ref = (
                    embed_fills(build, table, source, buckets, order, data, starts, ends,
                                oov_flag, np.empty(capacity, dtype=np.uint8))
                    for build, table in zip((kernel, _reference), tables)
                )
                assert_same_fills(got, ref)
                assert_same_text(b"".join(f[0] for f in got).decode(), want)
                assert [k for f in got for k in f[1]] == known.tolist()
                assert sum(f[2] for f in got) == tokens
        assert (known == 0).sum() > 4 and (known > 0).sum() > 50

    @pytest.mark.parametrize("oov_flag", [False, True])
    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 17, 100, 700])
    def test_fills_stop_before_the_worst_case_no_longer_fits(self, kernel, dim, oov_flag):
        # one-word lines whose rows are the longest texts, and the one whose word
        # stores reach furthest past its text (see test_text_stays_within_capacity)
        worst_values = np.array([-1.17549e-38, -123457, -0.000123457, -1.23457e-05],
                                dtype=np.float32)
        source = np.stack([np.roll(np.resize(worst_values, dim), i) for i in range(4)])
        source[3] = worst_values[0]
        words = vocab_words(4)
        tables = word_table(kernel, words), word_table(_reference, words)
        lines = [words[i % 4] for i in range(13)] + [b"", b"zq", words[0] + b" " + words[3]]
        data = b"\n".join(lines)
        ends = np.cumsum([len(line) + 1 for line in lines], dtype=np.int64) - 1
        starts = ends - [len(line) for line in lines]
        worst = _native._VALUE_BYTES * dim + 3
        want = embed_fills(kernel, tables[0], source, 0, 1, data, starts, ends, oov_flag,
                           np.empty(1 << 20, dtype=np.uint8))
        assert len(want) == 1
        for rows, less in itertools.product((1, 2, 3), (0, 1)):
            capacity = rows * worst - less
            canary = np.arange(capacity + 64, dtype=np.int64).astype(np.uint8)
            buffer = canary.copy()
            fills = [
                embed_fills(build, table, source, 0, 1, data, starts, ends, oov_flag,
                            buffer[:capacity])
                for build, table in zip((kernel, _reference), tables)
            ] if capacity >= worst else []
            for build, table in zip((kernel, _reference), tables):
                if capacity < worst:
                    with pytest.raises(ValueError, match="holds no"):
                        embed_fills(build, table, source, 0, 1, data, starts, ends, oov_flag,
                                    buffer[:capacity])
            if not fills:
                continue
            got, ref = fills
            np.testing.assert_array_equal(buffer[capacity:], canary[capacity:])
            assert_same_fills(got, ref)
            assert_same_fills([(b"".join(f[0] for f in got), want[0][1], want[0][2])], want)
            for text, known, _ in got[:-1]:
                # the fill took every line whose worst case fit after it
                assert len(text) <= capacity < len(text) + worst
                assert len(known) >= rows - less

    def test_non_ascii_lines_rewritten_for_the_engines(self, kernel):
        words = ["cat", "café", "Dog", "äpfel", "the", "i̇", "a", "été"]
        vocab = Vocabulary(
            words=[(w, 5) for w in words], word_index={w: i for i, w in enumerate(words)},
            total_tokens=5 * len(words), min_count=1, min_target_count=1,
        )
        source = np.random.default_rng(87).standard_normal((len(words) + 31, 11))
        model = TrainedModel(
            vocab=vocab, word_ngrams=2, buckets=31, subsample_t=1e-5,
            matrices=EmbeddingMatrices(source=source.astype(np.float32),
                                       target=np.zeros((len(words), 11), np.float32), dim=11),
        )
        lines = ["CAFÉ\u3000the Cat", "İ cat", "ÄPFEL the\u2003dog", "Été a", "zzé", "",
                 "the", " \u00a0 "]
        vectors, flags = evaluation.embed_batch(model, lines)
        want = row_text(kernel, vectors, " ", flags)
        text = "".join(line + "\n" for line in lines).encode()
        lengths = np.array([len(line.encode()) for line in lines], dtype=np.int64)
        ends = np.cumsum(lengths + 1) - 1
        _, _, data, starts, ends = evaluation._engine_text(model, text, ends - lengths, ends)
        got, ref = (
            embed_fills(build, evaluation._table(vocab, build), model.matrices.source, 31, 2,
                        data, starts, ends, True, np.empty(2 * 146, dtype=np.uint8))
            for build in (kernel, _reference)
        )
        assert_same_fills(got, ref)
        assert_same_text(b"".join(f[0] for f in got).decode(), want)
        assert 1 < len(got) < len(lines)

    def test_bad_arguments_rejected(self, kernel):
        source = np.ones((5, 4), dtype=np.float32)
        worst = _native._VALUE_BYTES * 4 + 3
        for build in (_reference, kernel):  # fills() calls the kernel after the loop
            table = word_table(build, [b"a", b"b", b"c"])
            spans = np.array([0, 2], dtype=np.int64), np.array([1, 3], dtype=np.int64)

            def fills(*spans, out=np.empty(worst, dtype=np.uint8), data=b"a b"):
                return embed_fills(build, table, source, 2, 2, data, *spans, False, out)

            with pytest.raises(ValueError, match=f"text buffer of {worst - 1} bytes"):
                fills(*spans, out=np.empty(worst - 1, dtype=np.uint8))
            assert fills(spans[0][:0], spans[1][:0], out=np.empty(0, dtype=np.uint8)) == []
            assert fills(*spans) == [(b"1 1 1 1\n", [1], 1), (b"1 1 1 1\n", [1], 1)]
        with pytest.raises(ValueError, match="do not lie within the data"):
            fills(spans[0], spans[1] + 1)
        with pytest.raises(ValueError, match="C-contiguous uint8"):
            fills(*spans, out=np.empty(worst, dtype=np.int8))


# scores of every kind: plain decimals, which the kernel reads, and the ones left to float()
FIELD_SCORES = [
    b"0", b"1", b"0.5", b"+1", b"-0", b"-0.0", b"007", b"3.25", b"-12.5", b".5", b"5.", b"1e3",
    b" 1", b"1 ", b"1_0", b"nan", b"inf", b"", b"+", b"-", b"1.2.3", b"--1", b"0x10", b"\xc3\xa9",
    b"\x011", b"\r1", b"123456789012345", b"12345678.9012345", b"1234567890123456",
    b"0.123456789012345", b"000000000000001", b"0000000000000001",
]
# sentence bytes: tabs and line ends come from the line's layout
FIELD_BYTES = [b"a", b"B", b" ", b"\x00", b"\x0b", b"\x1c", b"\r", "\u00e9".encode(), "\u3000".encode()]


def fuzzed_pair_file(rng, n_lines: int, bad_rate: float) -> bytes:
    """A similarity file of mostly good lines, with empty, blank and control-byte lines, every
    kind of score, lines of 0 to 4 tabs at ``bad_rate``, and ends of \\n, \\r\\n and \\r."""
    lines = []
    for _ in range(n_lines):
        kind = rng.random()
        if kind < 0.05:
            lines.append(b"")
        elif kind < 0.08:
            lines.append(b" \x0b " if rng.random() < 0.5 else b"\x0c")
        else:
            score = FIELD_SCORES[rng.integers(len(FIELD_SCORES))] if rng.random() < 0.5 else (
                b"%d.%d" % (rng.integers(0, 10**6), rng.integers(0, 10**6))
            )
            tabs = int(rng.integers(0, 5)) if rng.random() < bad_rate else 2
            fields = [
                b"".join(FIELD_BYTES[i] for i in rng.integers(len(FIELD_BYTES), size=rng.integers(0, 12)))
                for _ in range(tabs)
            ]
            lines.append(b"\t".join([score, *fields]))
    ends = [(b"\n", b"\r\n", b"\r")[i] for i in rng.integers(3, size=n_lines)]
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data[:-1] if rng.random() < 0.5 else data  # with and without the last line end


def pair_fields(build, data) -> tuple:
    """``build.pair_fields`` of ``data`` with its gold as bits, every array as a list."""
    ends, lines, gold, flags, bad_line, bad_start = build.pair_fields(data)
    assert ends.dtype == lines.dtype == np.int64 and gold.dtype == np.float64
    assert flags.dtype == np.bool_
    return (ends.tolist(), lines.tolist(), gold.view(np.uint64).tolist(), flags.tolist(),
            bad_line, bad_start)


class TestPairFields:
    """``Kernel.pair_fields`` against the numpy reference engine's scan, and its plain-decimal
    scores against ``float()``."""

    def test_fuzzed_files_match_the_reference(self, kernel):
        rng = np.random.default_rng(2601)
        bad_lines = 0
        for case in range(300):
            data = fuzzed_pair_file(rng, int(rng.integers(0, 60)), (0.0, 0.02, 0.3)[case % 3])
            # as read (every line end a \n), and raw, where \r is a byte like any other
            for text in (data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"), data):
                got = pair_fields(kernel, text)
                assert got == pair_fields(_reference, text), text
                bad_lines += got[4] >= 0
        assert bad_lines > 100

    def test_scores_and_lines(self, kernel):
        data = b"\n1.5\ta\tb\n\n-0\tc\td\n.5\t\t\n1\tx\n2\ta\tb\n"
        for build in (kernel, _reference):
            ends, lines, gold, flags, bad_line, bad_start = build.pair_fields(data)
            assert ends.tolist() == [4, 6, 8, 12, 14, 16, 19, 20, 21]
            assert lines.tolist() == [1, 3, 4]
            assert gold.tolist() == [1.5, 0.0, 0.0] and math.copysign(1.0, gold[1]) == -1.0
            assert flags.tolist() == [False, False, True]
            assert (bad_line, bad_start) == (5, 22)
            assert pair_fields(build, b"") == ([], [], [], [], -1, -1)
            one = np.array([1.0]).view(np.uint64).tolist()
            assert pair_fields(build, b"1\ta\tb") == ([1, 3, 5], [0], one, [False], -1, -1)
            assert pair_fields(build, b"\t\t\t\n") == ([], [], [], [], 0, 0)

    def test_plain_decimals_equal_float(self, kernel):
        # 0 to 15 digits after the point, signs and leading zeros; more than 15 digits in
        # all is left to float()
        rng = np.random.default_rng(2602)
        n = 120_000
        fraction = rng.integers(0, 16, size=n)
        whole = rng.integers(1, np.maximum(15 - fraction, 1) + 1)
        digits = rng.integers(0, 10, size=(n, 32)).astype(np.uint8) + ord("0")
        digits[rng.random(n) < 0.3, 0] = ord("0")  # leading zeros
        signs = np.array([b"", b"+", b"-"])[rng.integers(0, 3, size=n)]
        scores = [
            sign + row[:w].tobytes() + (b"." + row[16 : 16 + f].tobytes() if f else b"")
            for sign, row, w, f in zip(signs.tolist(), digits, whole.tolist(), fraction.tolist())
        ]
        scores += [b"0.1", b"0.3", b"2.675", b"999999999999999", b"99999999999999.9",
                   b"0.00000000000001", b"-0", b"+0.0", b"1.000000000000000"]
        data = b"".join(score + b"\ta\tb\n" for score in scores)
        _, _, gold, flags, bad_line, _ = kernel.pair_fields(data)
        assert bad_line == -1 and len(gold) == len(scores)
        total = [len(s) - s.startswith((b"+", b"-")) - (b"." in s) for s in scores]
        assert flags.tolist() == [t > 15 for t in total]
        plain = ~flags
        assert plain.sum() > 100_000
        want = np.array([float(s) for s in scores])
        np.testing.assert_array_equal(gold[plain].view(np.uint64), want[plain].view(np.uint64))


def g6(values) -> list[str]:
    return [format(float(x), ".6g") for x in values]


def float32_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


def tie_and_boundary_values() -> np.ndarray:
    """float32 values at and around every rounding decision of ``%.6g``."""
    rng = np.random.default_rng(55)
    near = []
    for exponent in range(-46, 40):
        # the rounding ties of six digits (1234565 -> 123456|5), of five
        # digits, and of rounding up into the next decade
        heads = [100000, 123456, 999999, *rng.integers(100000, 1000000, size=8)]
        near += [(head + 0.5) * 10.0 ** (exponent - 5) for head in heads]
        near += [99999.5 * 10.0 ** (exponent - 4), 10.0**exponent]
    with np.errstate(over="ignore"):
        near = np.array(near, dtype=np.float32)
    near = np.concatenate([
        near, np.nextafter(near, np.float32(np.inf)), np.nextafter(near, np.float32(0))
    ])
    # exact ties: odd m / 2^k whose decimal form m * 5^k has seven digits
    exact = [1234565.0, 123456.5, 1.953125]
    for k in range(11):
        low, high = -(-(10**6) // 5**k), 10**7 // 5**k
        odd = np.arange(low | 1, high, 2)
        if k == 0:
            odd = odd[odd % 10 == 5]
        exact += (rng.choice(odd, size=min(200, len(odd)), replace=False) / 2.0**k).tolist()
    exact = np.array(exact, dtype=np.float32)
    special = float32_bits(
        [1 << i for i in range(23)]  # one subnormal of every exponent
        + [(1 << i) - 1 for i in range(1, 24)]  # and the largest below each
        + [0x00800000, 0x007FFFFF, 0x7F7FFFFF, 0x00000000]  # normal edge, max, +0
        + [0x7F800000, 0x7FC00000, 0x7F800001, 0x7FFFFFFF]  # inf and NaNs
    )
    values = np.concatenate([near, exact, special])
    return np.concatenate([values, -values])


def embedding_range_values() -> np.ndarray:
    """Every 97th float32 pattern of magnitude in [1e-7, 1e3), of both signs:
    "0.000ddd", integer parts of one to three digits, and the exponent form
    below 1e-4."""
    low = int(np.float32(1e-7).view(np.uint32)) + int(np.float32(1e-7) < 1e-7)
    high = int(np.float32(1e3).view(np.uint32))
    bits = np.arange(low, high, 97, dtype=np.uint32)
    return float32_bits(np.concatenate([bits, bits | np.uint32(1 << 31)]))


# values the eight-lane writer leaves to put_g6 (a tie, subnormals, zeros,
# inf, NaN, magnitudes outside [2^-16, 2^17) and the exponent form below
# 1e-4), and some it writes itself beside them: 123457, 0.0001 and
# -0.000123457 (its longest text), and 99999.95, which rounds up to 100000
EXACT_LANE_VALUES = [1.953125, 1e-40, -1.4e-45, 0.0, -0.0, math.inf, -math.inf, math.nan,
                     -math.nan, 654321.0, 3.4e38, 1.5e-7, -9.99999e-5, -1e-20, 6.5e25,
                     123457.0, 0.0001, -0.000123457, 99999.95]


def exact_lane_rows() -> np.ndarray:
    """Rows of 17 embedding-sized values, each with one of ``EXACT_LANE_VALUES``
    at one position: every lane of both eight-value passes, and the tail."""
    ordinary = (np.random.default_rng(57).standard_normal(17) * 0.1).astype(np.float32)
    rows = np.tile(ordinary, (17 * len(EXACT_LANE_VALUES), 1))
    for n, value in enumerate(EXACT_LANE_VALUES):
        for i in range(17):
            rows[17 * n + i, i] = value
    return rows


def random_rows(rng, n_rows, dim) -> np.ndarray:
    """float32 rows of standard normal values times powers of ten in [1e-9, 1e8]."""
    rows = rng.standard_normal((n_rows, dim)) * 10.0 ** rng.integers(-9, 9, size=(n_rows, dim))
    return rows.astype(np.float32)


def expected_text(rows, sep=" ", flags=None) -> str:
    return "".join(
        sep.join(g6(row)) + ("" if flags is None else f" {int(flags[i])}") + "\n"
        for i, row in enumerate(rows)
    )


def assert_same_text(got, want) -> None:
    """Assert that two texts, or two lists of value texts, are equal.

    A failure shows the first differing value alone, with its index (a byte
    offset, for texts): pytest's own diff of millions of values or of
    megabytes of text can take many minutes.
    """
    if got == want:
        return
    # the first differing index, or the shorter length: a block, then an item
    n = min(len(got), len(want))
    block = next((k for k in range(0, n, 4096) if got[k : k + 4096] != want[k : k + 4096]), n)
    i = next((k for k in range(block, n) if got[k] != want[k]), n)
    if isinstance(got, str):
        # from the start of the value holding offset i, which both texts share
        start = max(got.rfind(sep, 0, i) for sep in " \t\n") + 1
        where = f"byte offset {i} of texts of {len(got)} and {len(want)} bytes"
        assert got[start : i + 24] == want[start : i + 24], where
    else:
        where = f"value {i} of {len(got)} and {len(want)} values"
        assert got[i : i + 1] == want[i : i + 1], where


class TestFormatRows:
    def test_random_bit_patterns_match_python(self, kernel):
        rows = float32_bits(
            np.random.default_rng(404).integers(0, 2**32, size=2_000_000)
        ).reshape(-1, 100)
        assert_same_text(row_text(kernel, rows).split(), g6(rows.ravel()))

    def test_ties_and_boundaries_match_python(self, kernel):
        values = tie_and_boundary_values()
        assert np.isnan(values).sum() == 6 and np.signbit(values[np.isnan(values)]).sum() == 3
        text = row_text(kernel, values.reshape(-1, 1))
        assert_same_text(text.splitlines(), g6(values))
        assert "nan" in text and "-nan" not in text and "-0\n" in text

    def test_embedding_range_matches_python(self, kernel):
        for values in np.array_split(embedding_range_values(), 24):
            assert_same_text(row_text(kernel, values.reshape(-1, 1)).split(), g6(values))

    @pytest.mark.parametrize("with_flags", [False, True])
    def test_exact_lanes_at_every_position(self, kernel, with_flags):
        rows = exact_lane_rows()
        flags = np.arange(len(rows)) % 2 == 1 if with_flags else None
        assert_same_text(row_text(kernel, rows, " ", flags), expected_text(rows, " ", flags))
        # the same values, eight to a row: rows end at a pass
        eights = rows[:, :16].reshape(-1, 8)
        assert_same_text(row_text(kernel, eights), expected_text(eights))

    def test_lanes_follow_the_cpu(self, kernel, portable):
        # a typo in the writer's guard would quietly write every value alone
        flags = set(_native.cpu_identity().split())
        wide = {"avx512f", "avx512cd", "avx512bw"} <= flags
        assert kernel.format_lanes == (8 if wide else 1)
        assert portable.format_lanes == 1

    @pytest.mark.parametrize("with_flags", [False, True])
    @pytest.mark.parametrize("dim", [1, 7, 8, 16, 700])
    def test_text_stays_within_capacity(self, kernel, with_flags, dim):
        # the longest texts, and the one whose word stores reach furthest past it;
        # rows of one value fill all but a few bytes of their share of the buffer.
        # -0.000123457 is also the longest text of the eight-lane writer's own
        # stores, and rows of 8 and 16 end on its pass
        worst = np.array([-1.17549e-38, -123457, -0.000123457, -1.23457e-05], dtype=np.float32)
        flags = np.array([True, False, True]) if with_flags else None
        for rows in [np.resize(worst, (3, dim)), *(np.full((3, dim), x) for x in worst)]:
            capacity = len(rows) * (_native._VALUE_BYTES * dim + 3)
            canary = np.arange(capacity + 64, dtype=np.int64).astype(np.uint8)
            buffer = canary.copy()
            text = kernel.format_rows(rows, " ", flags, buffer[:capacity])
            assert text.obj.ctypes.data == buffer.ctypes.data  # written in place
            np.testing.assert_array_equal(buffer[capacity:], canary[capacity:])
            assert_same_text(str(text, "ascii"), expected_text(rows, " ", flags))

    def test_value_bytes_agree_with_the_kernel_source(self):
        source = _native.SOURCE.read_text()
        match = re.search(r"^#define G6_VALUE_BYTES (\d+)$", source, re.MULTILINE)
        assert match is not None and int(match.group(1)) == _native._VALUE_BYTES

    @pytest.mark.parametrize("sep", [" ", "\t"])
    @pytest.mark.parametrize("with_flags", [False, True])
    @pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 15, 16, 17, 100, 700])
    def test_separator_and_flags(self, kernel, sep, with_flags, dim):
        rng = np.random.default_rng(dim)
        rows = random_rows(rng, 40, dim)
        flags = rng.random(40) < 0.3 if with_flags else None
        assert_same_text(row_text(kernel, rows, sep, flags), expected_text(rows, sep, flags))
        assert row_text(kernel, rows[:0], sep, None if flags is None else flags[:0]) == ""

    def test_bad_arguments_rejected(self, kernel):
        rows = np.ones((4, 6), dtype=np.float32)
        out = np.empty(4 * (_native._VALUE_BYTES * 6 + 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="C-contiguous float32"):
            kernel.format_rows(rows[:, ::2], " ", None, out)
        with pytest.raises(ValueError, match="2-D float32 rows.*float64 rows"):
            kernel.format_rows(rows.astype(np.float64), " ", None, out)
        with pytest.raises(ValueError, match=r"one per row; .* bool flags of shape \(3,\)"):
            kernel.format_rows(rows, " ", np.zeros(3, dtype=bool), out)
        with pytest.raises(ValueError, match="one-character ASCII separator"):
            kernel.format_rows(rows, ", ", None, out)
        with pytest.raises(ValueError, match=f"buffer of {len(out) - 1} bytes holds no 4 rows"):
            kernel.format_rows(rows, " ", None, out[:-1])
        with pytest.raises(ValueError, match="C-contiguous uint8"):
            kernel.format_rows(rows, " ", None, out.view(np.int8))
        assert row_text(kernel, np.ones((1, 2), np.float32)) == "1 1\n"


# the x86-64-v3 build: AVX2 and FMA, so eight-float row loops, and no AVX-512
V3_FLAGS = _native.PORTABLE_FLAGS + ("-march=x86-64-v3",)


@pytest.fixture(scope="module")
def portable(kernel, tmp_path_factory):
    """The kernel built with the portable flags, beside the host build.

    The portable build runs its row loops four floats wide and its fill in
    four PCG64 lanes; the host build, eight and sixteen floats wide under
    AVX and AVX-512F, and eight lanes under AVX-512F with AVX-512DQ.
    """
    if not _native.HOST_FLAGS:
        pytest.skip("off x86-64 the host build is the portable build")
    if "avx" not in _native.cpu_identity().split():
        pytest.skip("no AVX on this host: both builds run four floats and four PCG64 lanes")
    path = tmp_path_factory.mktemp("portable") / "kernel-portable.so"
    return _native.Kernel(_native._build(path, _native.PORTABLE_FLAGS))


@pytest.fixture(scope="module")
def avx2(kernel, tmp_path_factory):
    """The kernel built for x86-64-v3: row loops eight floats wide, four PCG64
    lanes and the one-value %.6g writer."""
    if not _native.HOST_FLAGS:
        pytest.skip("x86-64-v3 is an x86-64 target")
    if not {"avx2", "fma", "bmi2", "movbe"} <= set(_native.cpu_identity().split()):
        pytest.skip("this CPU cannot run an x86-64-v3 build")
    path = tmp_path_factory.mktemp("avx2") / "kernel-avx2.so"
    return _native.Kernel(_native._build(path, V3_FLAGS))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestWidthsAgree:
    """The host build gives the bits of the portable build, whose row loops
    run four floats wide and whose fill runs four PCG64 lanes.  The host
    build's loops run eight floats wide under AVX and sixteen under
    AVX-512F, and its fill eight lanes under AVX-512F with AVX-512DQ."""

    @pytest.fixture
    def other(self, portable):
        return portable

    # each build's one vector width, then 4-float blocks and single floats:
    # 8, 16, 24 and 33 end on a block of some build or one float past it,
    # and 31 runs every tail of the sixteen-float build
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dim", [1, 7, 8, 13, 16, 17, 24, 31, 33, 100, 700])
    def test_train_chunk(self, kernel, other, dim, order):
        rng = np.random.default_rng(10 * dim + order)
        vocab_size, buckets = 60, 97 if order == 2 else 0
        lengths = rng.integers(2, 16, size=150)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        tokens = rng.integers(0, vocab_size, size=int(offsets[-1])).astype(np.int32)
        counts = {f"w{i:02d}": int(c) for i, c in enumerate(rng.integers(1, 500, size=vocab_size))}
        table = build_negative_table(make_vocab(counts))
        gate_prob = rng.uniform(0.5, 1.0, size=vocab_size)
        scale = 1.0 / math.sqrt(dim)
        source = rng.normal(0.0, scale, size=(vocab_size + buckets, dim)).astype(np.float32)
        target = rng.normal(0.0, scale, size=(vocab_size, dim)).astype(np.float32)
        runs = []
        for build in (kernel, other):
            run = [source.copy(), target.copy()]
            model = build.model(
                *run, order, buckets, 5, l1_tau=1e-3, dropout_k=2, base_lr=0.1,
                total_expected=float(offsets[-1]), tokens=tokens, offsets=offsets,
                gate_prob=gate_prob, table=table, progress=np.zeros(1, dtype=np.int64),
            )
            run += build.train_chunk(model, np.arange(len(lengths), dtype=np.int64), state(dim))
            runs.append(run)
        for host, narrow in zip(*runs):
            assert_same_bits(host, narrow)
        assert runs[0][3].sum() > 100 and not np.array_equal(runs[0][0], source)

    def test_embed_lines(self, kernel, other):
        rng = np.random.default_rng(73)
        words = vocab_words(200)
        tables = [word_table(build, words) for build in (kernel, other)]
        for dim in (1, 7, 8, 13, 16, 17, 24, 31, 33, 100, 700):
            aligned = rng.standard_normal((300, dim)).astype(np.float32)
            raw = np.zeros(aligned.nbytes + 4, dtype=np.uint8)
            raw[1 : 1 + aligned.nbytes] = aligned.view(np.uint8).ravel()
            moved = np.frombuffer(raw, "<f4", count=aligned.size, offset=1).reshape(300, dim)
            counts = rng.integers(0, 40, size=50)
            counts[:5] = [0, 1, 2, 3, 20_000]
            ids = rng.integers(0, 200, size=int(counts.sum())).astype(np.int32)
            data, starts, ends, _ = text_spans(rng, words, ids, counts)
            for source in (aligned, moved):
                host, narrow = (
                    build.embed_text(table, source, 100, 3, data, starts, ends)
                    for build, table in zip((kernel, other), tables)
                )
                assert_same_bits(host[0], narrow[0])
                assert host[1].tolist() == narrow[1].tolist() == counts.tolist()

    def test_embed_rows(self, kernel, other):
        rng = np.random.default_rng(75)
        words = vocab_words(200)
        tables = [word_table(build, words) for build in (kernel, other)]
        data, starts, ends = pair_lines(rng, words, 30)
        for dim in (1, 7, 8, 9, 15, 16, 17, 100, 700):
            source = random_rows(rng, 200 + 97, dim)
            out = np.empty(2 * (_native._VALUE_BYTES * dim + 3), dtype=np.uint8)
            host, narrow = (
                embed_fills(build, table, source, 97, 2, data, starts, ends, True, out)
                for build, table in zip((kernel, other), tables)
            )
            assert_same_fills(host, narrow)

    def test_pair_fields(self, kernel, other):
        rng = np.random.default_rng(2603)
        for case in range(60):
            data = fuzzed_pair_file(rng, int(rng.integers(0, 80)), (0.0, 0.05)[case % 2])
            assert pair_fields(kernel, data) == pair_fields(other, data)

    def test_fill_uniform(self, kernel, other):
        lengths = (0, 1, 5, 7, 8, 9, 15, 16, 17, 4_003, 4_004, 4_005, 4_006, 4_007, 100_003)
        for n in lengths:
            for delta in (0, 2**127 + 11):
                bits = np.random.PCG64(n)
                bits.advance(delta)
                host, four_lanes = np.empty(n, dtype=np.float32), np.empty(n, dtype=np.float32)
                kernel.fill_uniform(host, bits.state, -0.005, 0.005)
                other.fill_uniform(four_lanes, bits.state, -0.005, 0.005)
                assert_same_bits(host, four_lanes)

    def test_format_rows(self, kernel, other):
        random = float32_bits(np.random.default_rng(405).integers(0, 2**32, size=200_000))
        embedding = embedding_range_values()
        batches = [
            random.reshape(-1, 100), tie_and_boundary_values().reshape(-1, 1),
            embedding[: len(embedding) // 100 * 100].reshape(-1, 100), exact_lane_rows(),
            *(random_rows(np.random.default_rng(dim), 40, dim)
              for dim in (1, 7, 8, 9, 15, 16, 17, 100, 700)),
        ]
        for rows in batches:
            flags = np.arange(len(rows)) % 3 == 0
            for sep in (" ", "\t"):
                assert_same_text(row_text(kernel, rows, sep, flags),
                                 row_text(other, rows, sep, flags))
                assert_same_text(row_text(kernel, rows, sep), row_text(other, rows, sep))


class TestWidthsAgreeAvx2(TestWidthsAgree):
    """The same checks against the x86-64-v3 build, whose row loops run
    eight floats wide, so that every width runs on an AVX-512 host."""

    @pytest.fixture
    def other(self, avx2):
        return avx2


class TestText:
    """The kernel's line splitter, interning table and lookup table."""

    def encode(self, kernel, data, stop=None):
        with kernel.encoder() as encoder:
            encoder.encode_lines(data, len(data) if stop is None else stop)
            ids, lengths, n_words = encoder.result()
            ids = ids.tolist()  # a view of the encoder's buffer
            words, ends = encoder.words(np.arange(n_words))
        bounds = [-1, *ends.tolist()]
        return ids, lengths.tolist(), [words[a + 1 : b] for a, b in zip(bounds, bounds[1:])]

    def test_splits_as_str_split_on_ascii(self, kernel):
        rng = np.random.default_rng(71)
        alphabet = np.frombuffer(b"ab\x00\x1b\x7f \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f", np.uint8)
        data = alphabet[rng.integers(len(alphabet), size=5000)].tobytes()
        ids, lengths, words = self.encode(kernel, data)
        lines = data.split(b"\n")
        tokens = [line.decode("ascii").split() for line in lines]
        assert lengths == [len(t) for t in tokens]
        flat = [t.encode() for line in tokens for t in line]
        assert [words[i] for i in ids] == flat
        assert words == list(dict.fromkeys(flat))  # ids in first-occurrence order
        # and _native._most_tokens, which sizes composition at high orders, counts alike
        ends = np.cumsum([len(line) + 1 for line in lines]) - 1
        starts = ends - [len(line) for line in lines]
        view = np.frombuffer(data, dtype=np.uint8)
        assert [_native._most_tokens(view, starts[i : i + 1], ends[i : i + 1])
                for i in range(len(lines))] == lengths

    def test_lines_end_at_newline_or_stop(self, kernel):
        assert self.encode(kernel, b"a b\n\nc")[1] == [2, 0, 1]
        assert self.encode(kernel, b"a b\n\n")[1] == [2, 0]
        assert self.encode(kernel, b"a b\nc\nd e f", stop=6)[1] == [2, 1]

    def test_many_distinct_tokens_grow_the_table(self, kernel):
        words = [f"t{i}x{'y' * (i % 11)}" for i in range(20_000)]
        data = (" ".join(words) + "\n" + " ".join(reversed(words)) + "\n").encode()
        ids, lengths, got = self.encode(kernel, data)
        assert lengths == [20_000, 20_000]
        assert got == [w.encode() for w in words]
        assert ids == list(range(20_000)) + list(range(19_999, -1, -1))

    def test_encoder_checks_its_range(self, kernel):
        with kernel.encoder() as encoder:
            with pytest.raises(ValueError, match="line range"):
                encoder.encode_lines(b"ab", 3)
            with pytest.raises(ValueError, match="line range"):
                encoder.encode_lines(b"ab", -1)

    def test_lookup(self, kernel):
        words = b"the\ncat\nDog\nlonger-than-eight\nk\n\n"
        table = kernel.lookup_table(words, np.array([3, 7, 11, 29, 31, 32]))
        lines = [b"the CAT dog Dog", b"", b"LONGER-than-EIGHT\x1ck zebra", b"K the\t"]
        data = b"\n".join(lines)
        # each line, then each token alone, whose one-hot row names its id
        tokens = list(re.finditer(rb"[^ \t\n\r\x0b\x0c\x1c-\x1f]+", data))
        line_ends = np.cumsum([len(line) + 1 for line in lines]) - 1
        starts = np.concatenate([line_ends - [len(line) for line in lines],
                                 [m.start() for m in tokens]])
        ends = np.concatenate([line_ends, [m.end() for m in tokens]])
        vectors, known, n = kernel.embed_text(table, np.eye(6, dtype=np.float32), 0, 1, data,
                                              starts, ends)
        assert known[:4].tolist() == [3, 0, 2, 2] and n == 18
        ids = [int(v.argmax()) if k else -1 for v, k in zip(vectors[4:], known[4:])]
        assert ids == [0, 1, -1, 2, 3, 4, -1, 4, 0]
        with pytest.raises(ValueError, match="word 2 repeats"):
            kernel.lookup_table(b"ab\nc\nab\n", np.array([2, 4, 7]))

    def test_lookup_of_many_words(self, kernel):
        # the build hashes words ahead of their inserts; every id and repeat stays in place
        rng = np.random.default_rng(2605)
        words = list(dict.fromkeys(
            bytes(rng.integers(97, 123, size=rng.integers(1, 20)).astype(np.uint8))
            for _ in range(3_000)
        ))
        ends = np.cumsum([len(w) + 1 for w in words]) - 1
        table = kernel.lookup_table(b"".join(w + b"\n" for w in words), ends)
        source = np.arange(len(words), dtype=np.float32).reshape(-1, 1)
        vectors, known, _ = kernel.embed_text(table, source, 0, 1, b"\n".join(words),
                                              ends - [len(w) for w in words], ends)
        assert known.tolist() == [1] * len(words)
        assert vectors[:, 0].tolist() == list(range(len(words)))
        for first, again in [(0, 1), (5, 17), (100, 112), (100, 113), (7, 2_500)]:
            repeated = words[:again] + [words[first]]
            ends = np.cumsum([len(w) + 1 for w in repeated]) - 1
            with pytest.raises(ValueError, match=f"word {again} repeats"):
                kernel.lookup_table(b"".join(w + b"\n" for w in repeated), ends)

    def test_lookup_checks_line_ends(self, kernel):
        table = kernel.lookup_table(b"a\n", np.array([1]))
        source = np.ones((1, 2), dtype=np.float32)

        def embed(starts, ends):
            spans = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
            return kernel.embed_text(table, source, 0, 1, b"a a", *spans)

        for starts, ends in [([0], [4]), ([0, 2], [2, 4]), ([2, 1], [2, 0]), ([0], [2, 3])]:
            with pytest.raises(ValueError, match="do not lie within the data"):
                embed(starts, ends)
        # spans may overlap and come in any order
        assert embed([2, 0, 1], [3, 3, 2])[1].tolist() == [1, 2, 0]


class TestWordPath:
    """Tokens of 1 to 17 bytes, which the kernel loads eight bytes at a time where eight
    bytes are left, against the numpy reference engine and ``str.split`` lookups."""

    WORDS = word_path_words()
    ALPHABET = WORDS[16]  # the 17-byte word whose prefixes the other ASCII words are

    def expected_ids(self, tokens) -> list[int]:
        """Each token's id: verbatim, else ``str.lower()``ed, else -1."""
        index = {word.decode(): i for i, word in enumerate(self.WORDS)}
        texts = [token.decode() if isinstance(token, bytes) else token for token in tokens]
        return [index.get(text, index.get(text.lower(), -1)) for text in texts]

    def embedded(self, kernel, data, starts, ends) -> list[int]:
        """Each span's id by its one-hot mean (-1 when it knows no token), once the kernel
        and the numpy reference engine agree bit for bit."""
        from sentvec import _reference

        source = np.eye(len(self.WORDS), dtype=np.float32)
        spans = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
        got = kernel.embed_text(word_table(kernel, self.WORDS), source, 0, 1, data, *spans)
        want = _reference.embed_text(
            word_table(_reference, self.WORDS), source, 0, 1, data, *spans
        )
        assert_same_bits(got[0], want[0])
        assert got[1].tolist() == want[1].tolist() and got[2] == want[2]
        return [int(v.argmax()) if k else -1 for v, k in zip(got[0], got[1])]

    def test_embed_text_at_span_ends(self, kernel):
        tokens = word_path_tokens(self.WORDS)
        data, starts, ends = b"", [], []
        for token, space in itertools.product(tokens, SPLIT_WHITESPACE):
            sep = bytes([space])
            # the token ends its span, and the bytes after it spell a longer known word
            starts.append(len(data))
            data += sep + token
            ends.append(len(data))
            data += self.ALPHABET[len(token) :] if self.ALPHABET.startswith(token) else b"ab"
            # the token before a separator and a known word of eight bytes
            starts.append(len(data))
            data += token + sep + self.ALPHABET[:8]
            ends.append(len(data))
        ids = self.embedded(kernel, data, starts, ends)
        assert ids[0::2] == [i for i in self.expected_ids(tokens) for _ in SPLIT_WHITESPACE]

    def test_embed_text_at_the_buffer_end(self, kernel):
        tokens = word_path_tokens(self.WORDS)
        for i, token in enumerate(tokens):
            data = self.ALPHABET[:8] + bytes([SPLIT_WHITESPACE[i % 10]]) + token
            # the whole line, then the token alone
            ids = self.embedded(kernel, data, [0, len(data) - len(token)], [len(data)] * 2)
            assert ids[1] == self.expected_ids([token])[0], token

    def test_load_model(self, kernel, without_kernel, tmp_path):
        from sentvec.evaluation import embed_batch
        from sentvec.trainer import TrainedModel, load_model

        words = [word.decode() for word in self.WORDS]
        n = len(words)
        vocab = Vocabulary(words=[(w, 10) for w in words],
                           word_index={w: i for i, w in enumerate(words)},
                           total_tokens=10 * n, min_count=1, min_target_count=1)
        matrices = EmbeddingMatrices(source=np.eye(n, dtype=np.float32),
                                     target=np.zeros((n, n), dtype=np.float32), dim=n)
        path = str(tmp_path / "m.bin")
        save_model(TrainedModel(vocab=vocab, matrices=matrices, word_ngrams=1, buckets=0,
                                subsample_t=1e-5), path)
        # one token a line, in one batch and each alone, where it ends the buffer
        lines = [token.decode() for token in word_path_tokens(self.WORDS)]
        want = self.expected_ids(lines)

        def ids(model, lines):
            vectors, flags = embed_batch(model, lines)
            return [-1 if flag else int(v.argmax()) for v, flag in zip(vectors, flags)]

        for engine in ("kernel", "numpy"):
            if engine == "numpy":
                without_kernel()
            model = load_model(path)
            assert model.vocab.words == vocab.words
            assert ids(model, lines) == want
            assert [ids(model, [line])[0] for line in lines] == want

