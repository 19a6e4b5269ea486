"""Training orchestration, serialization, and the text export."""

import gzip
import logging
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from sentvec.sampling import discard_keep_prob
from sentvec.trainer import (
    MAX_THREADS,
    PRESETS,
    ModelFormatError,
    TrainConfig,
    TrainedModel,
    export_text_vectors,
    load_model,
    save_model,
    train,
)

from conftest import two_topic_sentences


def quick_config(**overrides) -> TrainConfig:
    base = dict(
        dim=16,
        min_count=1,
        min_target_count=1,
        lr=0.2,
        epochs=2,
        subsample_t=1e-3,
        word_ngrams=1,
        negatives=3,
        threads=1,
        seed=5,
        report_every=500,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("epochs", 0),
            ("word_ngrams", 0),
            ("negatives", 0),
            ("l1_tau", -0.1),
            ("lr", 0.0),
            ("subsample_t", 0.0),
            ("min_count", 0),
            ("min_target_count", 0),
            ("threads", 0),
            ("threads", 1025),
            ("dropout_k", -1),
            ("report_every", 0),
            ("seed", -1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        config = TrainConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("l1_tau", float("nan")),
            ("l1_tau", float("inf")),
            ("subsample_t", float("nan")),
        ],
    )
    def test_non_finite_floats_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_infinite_subsample_t_is_valid(self):
        # t = inf keeps every token: no subsampling
        TrainConfig(subsample_t=float("inf")).validate()

    @pytest.mark.parametrize("field", ["dim", "word_ngrams", "negatives", "dropout_k"])
    def test_int32_overflow_rejected(self, field):
        # the kernel would receive these truncated to 32 bits
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 2**31}).validate()
        TrainConfig(**{field: 2**31 - 1}).validate()

    def test_thread_count_bounded(self):
        # validate() runs before any worker or init piece exists
        TrainConfig(threads=MAX_THREADS).validate()
        with pytest.raises(ValueError, match=f"^threads must be <= {MAX_THREADS}, got {10**23}$"):
            TrainConfig(threads=10**23).validate()

    def test_bucketless_ngrams_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(word_ngrams=2, bucket_count=0).validate()

    @pytest.mark.parametrize("where", ["missing-parent", "file-parent", "directory"])
    def test_unwritable_checkpoint_path_rejected(self, where, tmp_path):
        # validate() runs before the corpus is read: the first epoch is not lost
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        bad = {
            "missing-parent": tmp_path / "nodir" / "ck.bin",
            "file-parent": tmp_path / "file" / "ck.bin",
            "directory": tmp_path / "dir",
        }[where]
        problem = " is" if where == "directory" else f": {bad.parent} is not"
        with pytest.raises(ValueError) as err:
            TrainConfig(checkpoint_path=str(bad)).validate()
        assert str(err.value) == f"checkpoint_path {bad}{problem} a directory"
        TrainConfig(checkpoint_path=str(tmp_path / "ck.bin")).validate()


class TestPresets:
    def test_books_unigram_preset(self):
        preset = PRESETS["books-uni"]
        assert preset["dim"] == 700
        assert preset["min_count"] == 5
        assert preset["min_target_count"] == 8
        assert preset["lr"] == 0.2
        assert preset["epochs"] == 13
        assert preset["subsample_t"] == 1e-5
        assert preset["negatives"] == 10
        assert preset["word_ngrams"] == 1

    def test_books_bigram_preset(self):
        preset = PRESETS["books-bi"]
        assert preset["word_ngrams"] == 2
        assert preset["dropout_k"] == 7
        assert preset["subsample_t"] == 5e-6
        assert preset["min_target_count"] == 5
        assert preset["epochs"] == 12

    def test_twitter_bigram_preset(self):
        preset = PRESETS["twitter-bi"]
        assert preset["dim"] == 700
        assert preset["min_count"] == 20
        assert preset["min_target_count"] == 20
        assert preset["epochs"] == 3
        assert preset["subsample_t"] == 1e-6
        assert preset["dropout_k"] == 3
        assert preset["negatives"] == 10

    def test_all_presets_build_valid_configs(self):
        for name, preset in PRESETS.items():
            TrainConfig(**preset).validate()


class TestTrain:
    def test_smoke_unigram(self, tiny_corpus):
        model = train(tiny_corpus, quick_config())
        assert len(model.vocab) > 0
        assert model.matrices.source.shape == (len(model.vocab), 16)
        assert model.matrices.target.shape == (len(model.vocab), 16)
        assert np.all(np.isfinite(model.matrices.source))
        assert np.all(np.isfinite(model.matrices.target))
        assert model.stats.targets_processed > 0

    def test_smoke_bigram_with_dropout(self, tiny_corpus):
        config = quick_config(word_ngrams=2, bucket_count=512, dropout_k=2)
        model = train(tiny_corpus, config)
        assert model.buckets == 512
        assert model.matrices.source.shape[0] == len(model.vocab) + 512
        assert np.all(np.isfinite(model.matrices.source))

    def test_unigram_model_allocates_no_buckets(self, tiny_corpus):
        model = train(tiny_corpus, quick_config(bucket_count=2_000_000))
        assert model.buckets == 0
        assert model.matrices.source.shape[0] == len(model.vocab)

    def test_loss_decreases_within_first_epoch(self, small_corpus):
        config = quick_config(epochs=1, report_every=400, subsample_t=1e-2)
        model = train(small_corpus, config)
        windows = model.stats.loss_windows
        assert len(windows) >= 3
        assert windows[-1] < windows[0]

    def test_deterministic_single_thread(self, tiny_corpus, tmp_path):
        paths = []
        for run in range(2):
            model = train(tiny_corpus, quick_config(seed=77))
            path = tmp_path / f"run{run}.bin"
            save_model(model, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_model(self, tiny_corpus):
        m1 = train(tiny_corpus, quick_config(seed=1))
        m2 = train(tiny_corpus, quick_config(seed=2))
        assert not np.array_equal(m1.matrices.source, m2.matrices.source)

    def test_multithreaded_run_completes(self, small_corpus):
        config = quick_config(threads=3, epochs=1)
        model = train(small_corpus, config)
        assert np.all(np.isfinite(model.matrices.source))
        assert model.stats.targets_processed > 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_initial_rows_drawn_on_every_cpu(self, tiny_corpus, monkeypatch, caplog, threads):
        # the init takes one worker per CPU of the mask whatever ``threads`` is, and
        # neither it nor the training threads change the caller's affinity
        from sentvec import model as model_module

        cpus = sorted(os.sched_getaffinity(0))
        monkeypatch.setattr(model_module, "INIT_PIECE_VALUES", 100)
        with caplog.at_level(logging.INFO, logger="sentvec.model"):
            trained = train(tiny_corpus, quick_config(threads=threads, epochs=1))
        assert os.sched_getaffinity(0) == set(cpus)
        pieces = -(-trained.matrices.source.size // 100)
        assert pieces > len(cpus)
        workers = f"{len(cpus)} workers, {len(cpus)}" if len(cpus) > 1 else "1 worker, 0"
        [init] = [m for m in caplog.messages if m.startswith("initialized")]
        assert init.endswith(f"{pieces} pieces on {workers} pinned)")
        if threads == 1:  # one worker on the calling thread draws the same rows
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpus[0]})
            inline = train(tiny_corpus, quick_config(threads=1, epochs=1))
            assert inline.matrices.source.tobytes() == trained.matrices.source.tobytes()

    def test_long_sentences_named(self, tmp_path, caplog):
        # a subsampling rate this low keeps almost no target, so the long line's
        # steps, quadratic in its length, cost next to nothing
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(50)]
        lines = [" ".join(rng.choice(words, 8)) for _ in range(200)]
        lines[50] = " ".join(rng.choice(words, 1_024))  # as long as a line may be
        lines[100] = " ".join(rng.choice(words, 20_000))
        path = tmp_path / "long.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="sentvec.trainer"):
            train(str(path), quick_config(dim=4, epochs=1, subsample_t=1e-12))
        assert "longest sentence 20000 tokens, 1 longer than 1024" in caplog.messages

    def test_l1_run_produces_exact_zeros(self, small_corpus):
        dense = train(small_corpus, quick_config(seed=3))
        sparse = train(small_corpus, quick_config(seed=3, l1_tau=0.01))
        dense_zeros = (dense.matrices.source == 0.0).mean()
        sparse_zeros = (sparse.matrices.source == 0.0).mean()
        assert sparse_zeros > dense_zeros

    # the same run on the numpy engine; the test above keeps its id and runs the kernel
    # where it builds
    def test_l1_run_produces_exact_zeros_without_kernel(self, small_corpus, without_kernel):
        without_kernel()
        self.test_l1_run_produces_exact_zeros(small_corpus)

    def test_targets_processed_tracks_expectation(self, small_corpus):
        config = quick_config(epochs=4, subsample_t=1e-2)
        model = train(small_corpus, config)
        counts = model.vocab.counts()
        keep = np.array(
            [discard_keep_prob(f, config.subsample_t)
             for f in model.vocab.frequencies()]
        )
        expected = config.epochs * float((counts * keep).sum())
        assert model.stats.targets_processed == pytest.approx(expected, rel=0.02)

    def test_empty_corpus_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no tokens"):
            train(str(path), quick_config())

    def test_no_sentence_survives_thresholds(self, tmp_path):
        path = tmp_path / "short.txt"
        # every word appears once, min_count=2 removes all of them
        path.write_text("a b c\nd e f\n", encoding="utf-8")
        with pytest.raises(ValueError):
            train(str(path), quick_config(min_count=2))

    def test_every_sentence_dropped_errors(self, tmp_path):
        path = tmp_path / "short.txt"
        # a and b survive min_count=2, but no line keeps 2 known tokens
        path.write_text("a\nb r1\n\na r2\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no trainable sentences"):
            train(str(path), quick_config(min_count=2))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_init_logs_its_time_and_engine(
        self, tiny_corpus, request, without_kernel, caplog, engine, threads
    ):
        if engine == "numpy":
            without_kernel()
            label = engine
        else:
            label = f"kernel, {request.getfixturevalue('kernel').fill_lanes} lanes"
        with caplog.at_level(logging.INFO, logger="sentvec.model"):
            model = train(tiny_corpus, quick_config(threads=threads, word_ngrams=2, bucket_count=64))
        rows, dim = model.matrices.source.shape
        # a matrix of one piece is filled on the calling thread, at any thread count
        pattern = (rf"initialized {rows} x {dim} source rows in \d+ ms "
                   rf"\({label}, 1 piece on 1 worker, 0 pinned\)")
        assert [r for r in caplog.records if re.fullmatch(pattern, r.getMessage())]

    @pytest.mark.parametrize("engine", ["kernel", "fallback"])
    def test_corpus_read_once(self, tiny_corpus, monkeypatch, request, without_kernel, engine):
        from sentvec import trainer

        if engine == "fallback":
            without_kernel()
        else:
            request.getfixturevalue("kernel")
        real_iter_corpus = trainer.iter_corpus
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real_iter_corpus(*args, **kwargs)

        monkeypatch.setattr(trainer, "iter_corpus", counted)
        train(tiny_corpus, quick_config(epochs=2))
        assert calls == [(tiny_corpus,)]

    def test_gzip_corpus_trains_the_same_model(self, tiny_corpus, tmp_path):
        packed = tmp_path / "tiny.txt.gz"
        with open(tiny_corpus, "rb") as src, gzip.open(packed, "wb") as dst:
            dst.write(src.read())
        config = quick_config(word_ngrams=2, bucket_count=256, dropout_k=2)
        blobs = []
        for path in (tiny_corpus, str(packed)):
            out = tmp_path / "model.bin"
            save_model(train(path, config), str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_corpus_errors(self):
        with pytest.raises(OSError):
            train("/nonexistent/corpus.txt", quick_config())

    def test_peak_allocation_far_below_a_flat_negative_table(self, tiny_corpus):
        # a 10M-entry int32 sampling table alone would take 40 MB
        tracemalloc.start()
        try:
            train(tiny_corpus, quick_config(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_missing_checkpoint_directory_fails_before_training(self, tiny_corpus, tmp_path):
        config = quick_config(epochs=3, checkpoint_path=str(tmp_path / "nodir" / "ck.bin"))
        with pytest.raises(ValueError, match="checkpoint_path .*nodir is not a directory"):
            train(tiny_corpus, config)

    def test_checkpoint_written_each_epoch(self, tiny_corpus, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        config = quick_config(epochs=2, checkpoint_path=str(ckpt))
        model = train(tiny_corpus, config)
        restored = load_model(str(ckpt))
        np.testing.assert_array_equal(
            restored.matrices.source, model.matrices.source
        )


class TestMemoryCheck:
    """The matrices' bytes against what ``_free_memory`` reads; the files it reads are
    patched, so no test needs or allocates a large matrix."""

    MEMINFO = "MemTotal:  8000000 kB\nMemFree:  100 kB\nMemAvailable:    5000 kB\n"

    @pytest.mark.parametrize("files,free", [
        ({"/proc/meminfo": MEMINFO}, 5000 << 10),
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/box\n",
          "/sys/fs/cgroup/box/memory.max": "9000\n",
          "/sys/fs/cgroup/box/memory.current": "1000\n"}, 8000),
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/box\n",
          "/sys/fs/cgroup/box/memory.max": "max\n",
          "/sys/fs/cgroup/box/memory.current": "1000\n"}, 5000 << 10),
        ({"/proc/self/cgroup": "4:memory:/v1\n0::/\n", "/sys/fs/cgroup/memory.max": "900\n",
          "/sys/fs/cgroup/memory.current": "1000\n"}, 0),
        ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/box\n",
          "/sys/fs/cgroup/box/memory.max": "9000\n",
          "/sys/fs/cgroup/box/memory.current": "8500\n",
          "/sys/fs/cgroup/box/memory.stat":
              "anon 400\nfile 8100\nactive_file 3000\ninactive_file 5000\nshmem 100\n"}, 8500),
        ({"/proc/self/cgroup": "0::/box/job/\n", "/sys/fs/cgroup/box/job/memory.max": "max\n",
          "/sys/fs/cgroup/box/job/memory.current": "500\n",
          "/sys/fs/cgroup/box/memory.max": "9000\n",
          "/sys/fs/cgroup/box/memory.current": "1000\n"}, 8000),
        ({"/proc/self/cgroup": "0::/box/job\n", "/sys/fs/cgroup/box/job/memory.max": "6000\n",
          "/sys/fs/cgroup/box/job/memory.current": "2000\n",
          "/sys/fs/cgroup/box/memory.max": "9000\n",
          "/sys/fs/cgroup/box/memory.current": "1000\n",
          "/sys/fs/cgroup/memory.max": "3000\n", "/sys/fs/cgroup/memory.current": "0\n"}, 3000),
        ({"/proc/self/cgroup": "4:memory:/v1\n", "/proc/meminfo": MEMINFO}, 5000 << 10),
        ({"/proc/meminfo": "MemTotal:  8000000 kB\n"}, None),
        ({}, None),
    ], ids=["meminfo", "cgroup-limit", "cgroup-no-limit", "cgroup-over", "cgroup-page-cache",
            "ancestor-limit", "tightest-ancestor", "cgroup-v1", "no-field", "nothing"])
    def test_free_memory(self, monkeypatch, files, free):
        from sentvec import trainer

        monkeypatch.setattr(trainer, "_read_text", files.get)
        assert trainer._free_memory() == free

    def test_page_cache_counts_as_free(self, monkeypatch):
        """A cgroup near its limit only through the page cache, as after reading a corpus
        about as large as the limit, still takes the matrices."""
        from sentvec import trainer

        need = (2 * 100 + 50) * 8 * 4
        stat = "/sys/fs/cgroup/box/memory.stat"
        files = {"/proc/self/cgroup": "0::/box\n",
                 "/sys/fs/cgroup/box/memory.max": f"{need + 1000}\n",
                 "/sys/fs/cgroup/box/memory.current": f"{need}\n",
                 stat: f"anon 1000\nactive_file 2000\ninactive_file {need - 3000}\n"}
        monkeypatch.setattr(trainer, "_read_text", files.get)
        trainer._check_memory(100, 50, 8)
        files[stat] = "anon 1000\nactive_file 0\ninactive_file 0\n"
        with pytest.raises(ValueError, match=r"; 1,000 bytes are available$"):
            trainer._check_memory(100, 50, 8)

    def test_checked_before_the_matrices_are_drawn(self, tiny_corpus, monkeypatch):
        from sentvec import trainer
        from sentvec.model import EmbeddingMatrices

        config = quick_config(word_ngrams=2, bucket_count=64, epochs=1)
        monkeypatch.setattr(trainer, "_free_memory", lambda: None)  # no check
        vocab = len(train(tiny_corpus, config).vocab)
        need = (2 * vocab + 64) * 16 * 4
        monkeypatch.setattr(trainer, "_free_memory", lambda: need)
        assert len(train(tiny_corpus, config).vocab) == vocab

        def drawn(*args):
            raise AssertionError("the matrices were drawn")

        monkeypatch.setattr(trainer, "_free_memory", lambda: need - 1)
        monkeypatch.setattr(EmbeddingMatrices, "initialize", drawn)
        message = (rf"^the source and target matrices need {need:,} bytes, \({vocab} \+ 64 "
                   rf"\+ {vocab}\) rows of 16 float32 values, set by --buckets 64 and --dim 16; "
                   rf"{need - 1:,} bytes are available$")
        with pytest.raises(ValueError, match=message):
            train(tiny_corpus, config)


class TestLossWindows:
    """The per-chunk fold of ``_LossReporter`` against adding one sentence at a time."""

    @staticmethod
    def one_at_a_time(loss_sums, steps, report_every):
        """The windows of the former per-sentence loop: (mean, targets) each, then the rest."""
        windows, total, count = [], 0.0, 0
        for loss_sum, done in zip(loss_sums.tolist(), steps.tolist()):
            if done == 0:
                continue
            total += loss_sum
            count += done
            if count >= report_every:
                windows.append((total / count, count))
                total, count = 0.0, 0
        return windows, (total, count)

    @pytest.mark.parametrize("report_every", [1, 7, 50, 1_000, 10**9])
    def test_equals_the_per_sentence_loop(self, report_every, caplog):
        from sentvec.trainer import _LossReporter

        rng = np.random.default_rng(report_every)
        steps = rng.integers(0, 12, size=3000) * (rng.random(3000) < 0.8)
        loss_sums = np.where(steps > 0, rng.random(3000) * steps * 7.3, 0.0)
        reporter = _LossReporter(report_every)
        with caplog.at_level(logging.INFO, logger="sentvec.trainer"):
            for start in range(0, 3000, 1024):
                reporter.add(loss_sums[start : start + 1024], steps[start : start + 1024])
        windows, (rest_sum, rest_count) = self.one_at_a_time(loss_sums, steps, report_every)
        assert reporter.window_means == [mean for mean, _ in windows]  # bit for bit
        assert [r.getMessage() for r in caplog.records] == [
            f"window {i}: mean loss {mean:.6f} over {count} targets"
            for i, (mean, count) in enumerate(windows, start=1)
        ]
        finals = reporter.finalize()
        assert finals[len(windows):] == ([rest_sum / rest_count] if rest_count else [])


    @pytest.mark.parametrize("loss_sums,steps,report_every,named", [
        ([1.0, 2.0, np.inf, 0.5], [1, 1, 1, 1], 2, "window 2 has mean loss inf"),
        ([1.0, np.nan], [1, 1], 10, "window 1 has mean loss nan"),  # the open window
        ([np.nan, 1.0, np.inf], [1, 1, 1], 1, "window 1 has mean loss nan"),
        ([0.0, 3.0, 1.5], [0, 2, 1], 1, None),
        ([1e308, 1e308], [1, 1], 5, "window 1 has mean loss inf"),
    ])
    def test_check_names_the_first_window_that_is_not_finite(
        self, loss_sums, steps, report_every, named
    ):
        from sentvec.trainer import _LossReporter

        reporter = _LossReporter(report_every)
        reporter.add(np.array(loss_sums), np.array(steps))
        if named is None:
            reporter.check(0.2)
        else:
            with pytest.raises(ValueError, match=rf"^training diverged: loss {named} at lr 0\.2;"):
                reporter.check(0.2)

    def test_overflowing_window_sums_warn_nothing(self):
        # the named error is all a caller sees of a run whose loss sums overflow
        from sentvec.trainer import _LossReporter

        reporter = _LossReporter(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reporter.add(np.array([1e308, 1e308]), np.array([1, 1]))
        with pytest.raises(ValueError, match="^training diverged: loss window 1 has mean loss inf"):
            reporter.check(0.2)

class TestSerialization:
    def test_round_trip_bit_exact(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config(word_ngrams=2, bucket_count=64,
                                                dropout_k=1))
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        restored = load_model(str(path))
        assert restored.vocab.words == model.vocab.words
        assert restored.vocab.total_tokens == model.vocab.total_tokens
        assert restored.word_ngrams == model.word_ngrams
        assert restored.buckets == model.buckets
        assert restored.subsample_t == model.subsample_t
        np.testing.assert_array_equal(restored.matrices.source, model.matrices.source)
        np.testing.assert_array_equal(restored.matrices.target, model.matrices.target)

    def test_loaded_matrices_are_private_writable_copies(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config(word_ngrams=2, bucket_count=64))
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        written = path.read_bytes()
        restored = load_model(str(path))
        for matrix in (restored.matrices.source, restored.matrices.target):
            assert type(matrix) is np.ndarray and matrix.flags.writeable
            matrix[0] += 1.0
            matrix[-1] = 0.0
        np.testing.assert_array_equal(restored.matrices.source[0], model.matrices.source[0] + 1.0)
        assert path.read_bytes() == written
        np.testing.assert_array_equal(load_model(str(path)).matrices.source, model.matrices.source)

    def test_loaded_model_survives_save_replacing_its_file(self, tiny_corpus, tmp_path):
        first = train(tiny_corpus, quick_config(seed=5))
        second = train(tiny_corpus, quick_config(seed=6))
        path = tmp_path / "m.bin"
        save_model(first, str(path))
        loaded = load_model(str(path))
        save_model(second, str(path))  # a new inode; the mapped one stays readable
        np.testing.assert_array_equal(loaded.matrices.source, first.matrices.source)
        np.testing.assert_array_equal(loaded.matrices.target, first.matrices.target)
        reloaded = load_model(str(path))
        np.testing.assert_array_equal(reloaded.matrices.source, second.matrices.source)
        assert not np.array_equal(first.matrices.source, second.matrices.source)

    def test_unwritable_path_error_names_the_path(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config(epochs=1))
        path = str(tmp_path / "nodir" / "m.bin")
        with pytest.raises(FileNotFoundError) as err:
            save_model(model, path)
        assert err.value.filename == path
        assert ".tmp." not in str(err.value)
        assert not (tmp_path / "nodir").exists()

    def test_file_size_matches_layout(self, tmp_path):
        # header is 48 bytes: 4s + u32 + u32 + u64 + u64 + u32 + f64 + u64
        from sentvec.corpus import build_vocab
        from sentvec.model import EmbeddingMatrices

        vocab = build_vocab([["aa", "b", "aa", "ccc"]], 1, 1)
        dim, buckets = 3, 7
        rng = np.random.default_rng(0)
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices.initialize(len(vocab), buckets, dim, rng),
            word_ngrams=2,
            buckets=buckets,
            subsample_t=1e-5,
        )
        path = tmp_path / "toy.bin"
        save_model(model, str(path))
        vocab_bytes = sum(4 + len(w.encode("utf-8")) + 8 for w, _ in vocab.words)
        expected = (
            48
            + vocab_bytes
            + 4 * dim * (len(vocab) + buckets)
            + 4 * dim * len(vocab)
        )
        assert path.stat().st_size == expected

    def test_corrupt_magic_mentions_expected(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="S2VM"):
            load_model(str(path))

    def test_unsupported_version(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version 99"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "keep,section",
        [(20, "header"), (60, "vocabulary"), (-20, "target matrix")],
    )
    def test_truncation_names_section(self, tiny_corpus, tmp_path, keep, section):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:keep] if keep > 0 else data[:keep])
        with pytest.raises(ModelFormatError, match=section):
            load_model(str(path))

    def test_truncated_source_matrix_named(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        data = path.read_bytes()
        matrix_bytes = 4 * 16 * len(model.vocab)
        path.write_bytes(data[: len(data) - matrix_bytes - 8])
        with pytest.raises(ModelFormatError, match="source matrix"):
            load_model(str(path))


    def test_short_matrix_read_names_section(self, tiny_corpus, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: the read itself comes up short
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        claimed = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-20])
        real_fstat = os.fstat
        monkeypatch.setattr(
            "sentvec.trainer.os.fstat",
            lambda fd: os.stat_result(real_fstat(fd)[:6] + (claimed,) + real_fstat(fd)[7:]),
        )
        with pytest.raises(ModelFormatError, match="target matrix.*got"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "fields",
        [dict(dim=0), dict(order=0), dict(order=1, buckets=5), dict(order=2, buckets=0)],
    )
    def test_inconsistent_header_rejected(self, tiny_corpus, tmp_path, fields):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        patch_header(path, **fields)
        with pytest.raises(ModelFormatError, match="header"):
            load_model(str(path))

    def test_huge_bucket_claim_rejected_before_allocation(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        patch_header(path, order=2, buckets=2**40)
        with pytest.raises(ModelFormatError, match="source matrix"):
            load_model(str(path))


    def test_save_writes_matrices_without_copying(self, tmp_path):
        from sentvec.corpus import build_vocab
        from sentvec.model import EmbeddingMatrices

        vocab = build_vocab([["a", "b", "a"]], 1, 1)
        rng = np.random.default_rng(2)
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices.initialize(2, 2**15, 32, rng),  # a 4 MiB source
            word_ngrams=2,
            buckets=2**15,
            subsample_t=1e-5,
        )
        path = tmp_path / "big.bin"
        tracemalloc.start()
        try:
            save_model(model, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
        restored = load_model(str(path))
        np.testing.assert_array_equal(restored.matrices.source, model.matrices.source)
        np.testing.assert_array_equal(restored.matrices.target, model.matrices.target)

    def test_empty_vocabulary_round_trips(self, tmp_path):
        from sentvec.corpus import Vocabulary
        from sentvec.model import EmbeddingMatrices

        vocab = Vocabulary(words=[], word_index={}, total_tokens=0, min_count=1,
                           min_target_count=1)
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices.initialize(0, 0, 4, np.random.default_rng(0)),
            word_ngrams=1,
            buckets=0,
            subsample_t=1e-5,
        )
        path = tmp_path / "empty.bin"
        save_model(model, str(path))
        restored = load_model(str(path))
        assert len(restored.vocab) == 0
        assert restored.matrices.source.shape == restored.matrices.target.shape == (0, 4)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda words: words[:1] + [b"\xff\xfe"] + words[2:], "not UTF-8"),
            (lambda words: words[:1] + words[:1] + words[2:], "repeats word 0"),
            (lambda words: words[:1] + [b""] + words[2:], r"word 1 \(''\) is empty"),
            (lambda words: words[:1] + [b"a b"] + words[2:], r"word 1 \('a b'\) .* whitespace"),
            (lambda words: words[:2] + [b"\xe3\x80\x80c"] + words[3:], r"word 2 .* whitespace"),
        ],
        ids=["non-utf8", "duplicate", "empty", "space", "unicode-space"],
    )
    def test_bad_vocabulary_word_rejected(self, tmp_path, mutate, message):
        path = tmp_path / "m.bin"
        save_model(toy_model(), str(path))
        words, offsets = vocabulary_fields(path.read_bytes())
        data = bytearray(path.read_bytes())
        new_words = mutate(words)
        # rewrite the vocabulary section with the mutated surfaces
        start, end = offsets[0], offsets[-1]
        section = b"".join(
            struct.pack("<I", len(w)) + w + struct.pack("<Q", 1) for w in new_words
        )
        data[start:end] = section
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=f"vocabulary.*{message}"):
            load_model(str(path))

    def test_zero_count_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(toy_model(), str(path))
        good = path.read_bytes()
        words, offsets = vocabulary_fields(good)
        count_at = offsets[1] - 8
        path.write_bytes(good[:count_at] + bytes(8) + good[count_at + 8 :])
        with pytest.raises(ModelFormatError, match="vocabulary.*count 0"):
            load_model(str(path))
        path.write_bytes(good + b"\0")
        with pytest.raises(ModelFormatError, match="1 trailing bytes"):
            load_model(str(path))

    @pytest.mark.parametrize("claimed", [0, 3, 5], ids=["zero", "one-less", "one-more"])
    def test_total_tokens_must_equal_the_count_sum(self, tmp_path, claimed):
        model = toy_model()
        assert model.vocab.total_tokens == 4
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 40, claimed)  # the header's last field
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=f"total_tokens={claimed}, but .* sum to 4"):
            load_model(str(path))

    def test_mutated_files_fail_cleanly_or_load_consistently(self, tmp_path):
        from sentvec.evaluation import embed_batch

        model = small_bigram_model()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        good = path.read_bytes()
        rng = np.random.default_rng(2024)
        fields = {"dim": (8, "<I"), "vocab": (12, "<Q"), "buckets": (20, "<Q"),
                  "order": (28, "<I")}
        outcomes = {"rejected": 0, "loaded": 0}
        for case in range(1_000):
            data = bytearray(good)
            kind = case % 3
            if kind == 0:
                data = data[: int(rng.integers(0, len(good)))]
            elif kind == 1:
                for _ in range(int(rng.integers(1, 4))):
                    bit = int(rng.integers(0, 8 * len(good)))
                    data[bit // 8] ^= 1 << (bit % 8)
            else:
                name = list(fields)[case // 3 % len(fields)]
                offset, fmt = fields[name]
                (value,) = struct.unpack_from(fmt, data, offset)
                limit = 2**32 if fmt == "<I" else 2**64
                value = int(rng.choice([0, 1, value - 1, value + 1, 2 * value,
                                        int(rng.integers(0, 2**31)) * 7, limit - 1])) % limit
                struct.pack_into(fmt, data, offset, value)
            path.write_bytes(bytes(data))
            try:
                loaded = load_model(str(path))
            except ModelFormatError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            vocab, matrices = loaded.vocab, loaded.matrices
            assert len(vocab.word_index) == len(vocab.words)
            assert all(vocab.word_index[w] == i for i, (w, _) in enumerate(vocab.words))
            assert vocab.counts().min(initial=1) >= 1
            assert vocab.total_tokens == sum(count for _, count in vocab.words)
            assert matrices.dim >= 1 and loaded.word_ngrams >= 1
            assert (loaded.buckets > 0) == (loaded.word_ngrams >= 2)
            assert matrices.target.shape == (len(vocab), matrices.dim)
            assert matrices.source.shape == (len(vocab) + loaded.buckets, matrices.dim)
            vectors, _ = embed_batch(loaded, [" ".join(w for w, _ in vocab.words[:5])])
            assert vectors.shape == (1, matrices.dim)
        # both outcomes occur: bit flips inside the matrices still load
        assert outcomes["rejected"] > 300 and outcomes["loaded"] > 100, outcomes

    def test_loaders_agree_on_mutated_files(self, kernel, without_kernel, tmp_path):
        # the files of test_mutated_files_fail_cleanly_or_load_consistently
        path = tmp_path / "m.bin"
        save_model(small_bigram_model(), str(path))
        files = list(mutated_files(path.read_bytes()))
        native = [load_outcome(path, data) for data in files]
        # every file that loads was read by the kernel's bulk reader
        assert all(bulk for _, bulk in native if bulk is not None)
        without_kernel()
        assert [load_outcome(path, data)[0] for data in files] == [got for got, _ in native]
        assert sum(isinstance(got, str) for got, _ in native) > 300

    @pytest.mark.parametrize("words,counts,total,message", [
        ([b"a", b"b\nc", b"d"], None, None, r"word 1 \('b\\nc'\) is empty or holds whitespace"),
        # invalid in each record alone, valid when the two are joined
        ([b"a", b"x\xc3", b"\xa9y"], None, None, r"word 1 is not UTF-8"),
        (["café".encode(), "a\u3000b".encode()], None, None,
         r"word 1 \('a\\u3000b'\) is empty or holds whitespace"),
        (["café".encode(), b"b", "café".encode()], None, None, r"word 2 repeats word 0 \('café'\)"),
        ([b"a", b"b", b"c"], [3, 0, 2], None, r"word 1 has count 0, outside"),
        ([b"a", b"b", b"c"], [3, 1, 2**63], None, r"word 2 has count 9223372036854775808"),
        # two faults: the earlier record is named
        ([b"a", b"\xff", b"a"], None, None, r"word 1 is not UTF-8"),
        ([b"a", b"b", b"a", b"c"], [1, 0, 1, 1], None, r"word 1 has count 0"),
        ([b"a", b"b c", b""], None, None, r"word 1 \('b c'\) is empty"),
        ([b"a", b"b"], None, 5, r"total_tokens=5, but the vocabulary counts sum to 2"),
        # a sum that wraps around 2^64 to the claimed 0
        ([b"a", b"b", b"c"], [2**63 - 1, 2**63 - 1, 2], 0, r"sum to 18446744073709551616"),
        (["café".encode(), "日本".encode(), b"a"], None, None, None),
    ], ids=[
        "newline", "split-utf8", "u3000-after-non-ascii", "repeated-non-ascii", "count-0",
        "count-2^63", "utf8-then-repeat", "count-then-repeat", "space-then-empty", "total",
        "total-wraps", "valid-non-ascii",
    ])
    def test_loaders_agree_on_targeted_files(
        self, kernel, without_kernel, tmp_path, words, counts, total, message
    ):
        path = tmp_path / "m.bin"
        data = model_file(words, counts, total)
        native, bulk = load_outcome(path, data)
        without_kernel()
        assert load_outcome(path, data)[0] == native
        if message is None:
            assert bulk and native[2] == [(w.decode(), 1) for w in words]
        else:
            assert re.search(message, native), native

    # 2^31 - 1 words is the most the kernel's int32 ids take; a larger claim skips it
    @pytest.mark.parametrize("claim", [2**40, 2**31 - 1])
    def test_huge_vocabulary_claim_is_a_truncation(self, kernel, without_kernel, tmp_path, claim):
        path = tmp_path / "m.bin"
        data = model_file([b"a", b"b"], vocab_size=claim)[:-16]  # no matrix rows
        data += b"\xff" * (1024 - len(data))  # word 2 claims 2^32 - 1 bytes
        native, _ = load_outcome(path, data)
        assert native == (
            "truncated model file in vocabulary section: expected 4294967295 bytes, "
            "at most 1024 remain"
        )
        without_kernel()
        assert load_outcome(path, data)[0] == native

    def test_vocabulary_is_read_in_bulk(self, kernel, tmp_path, monkeypatch):
        from sentvec import trainer
        from sentvec.evaluation import embed_batch

        words = [(f"w{i}", 20_000 - i) for i in range(20_000)]
        path = tmp_path / "m.bin"
        save_model(model_of(words, dim=2), str(path))
        sections = []
        read_exact = trainer._read_exact

        def counted(fh, n, section, limit):
            sections.append(section)
            return read_exact(fh, n, section, limit)

        monkeypatch.setattr(trainer, "_read_exact", counted)
        loaded = load_model(str(path))
        assert sections == ["header"]
        vocab = loaded.vocab
        table = vocab._lookup
        assert table is not None
        embed_batch(loaded, ["w0 w19999 W7 unknown"])
        assert vocab._lookup is table
        assert vocab._words is None and vocab._index is None  # an ASCII batch builds neither
        assert vocab.words == words and vocab.word_index["w19999"] == 19_999

    def test_a_cached_table_serves_only_its_own_engine(
        self, kernel, without_kernel, monkeypatch, tmp_path
    ):
        # load_model on the kernel caches the kernel's table in the vocabulary;
        # the other engine must build its own, and compose the same vectors
        from sentvec import _native
        from sentvec.evaluation import embed_batch

        path = tmp_path / "m.bin"
        save_model(model_of([("the", 9), ("Cat", 5), ("äpfel", 3), ("sat", 2)], dim=3), str(path))
        lines = ["the cat SAT", "Äpfel the", "unknown", "cat\u3000sat Äpfel", ""]
        loaded = load_model(str(path))
        assert loaded.vocab._lookup[0] is kernel
        native = embed_batch(loaded, lines)
        without_kernel()
        fallback = embed_batch(loaded, lines)
        assert loaded.vocab._lookup[0] is _native.reference()
        reloaded = load_model(str(path))
        assert reloaded.vocab._lookup is None  # the reference reads the records one by one
        embed_batch(reloaded, lines)
        monkeypatch.undo()  # the kernel again, over the reference's cached table
        again = embed_batch(reloaded, lines)
        assert reloaded.vocab._lookup[0] is kernel
        for vectors, flags in (fallback, again):
            np.testing.assert_array_equal(vectors.view(np.uint32), native[0].view(np.uint32))
            np.testing.assert_array_equal(flags, native[1])
        assert native[1].tolist() == [False, False, True, False, True]

    @pytest.mark.parametrize("words", [
        ["the", "cat", "sat", "on"],
        ["café", "日本語", "a", "äpfel"],
        [],
        ["solo"],
    ], ids=["ascii", "non-ascii", "empty", "one-word"])
    def test_vocabulary_section_equals_per_word_records(self, tmp_path, words):
        counted = list(zip(words, [2**63 - 1, 1, 7, 300]))
        path = tmp_path / "m.bin"
        save_model(model_of(counted, dim=3), str(path))
        reference = b"".join(
            struct.pack("<I", len(w.encode("utf-8"))) + w.encode("utf-8") + struct.pack("<Q", c)
            for w, c in counted
        )
        data = path.read_bytes()
        assert data[48 : 48 + len(reference)] == reference
        assert len(data) == 48 + len(reference) + 2 * 4 * 3 * len(words)

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_load_then_save_reproduces_the_file(self, kernel, without_kernel, tmp_path, engine):
        if engine == "numpy":
            without_kernel()
        unicode = model_of([("café", 3), ("日本", 2), ("a", 1)], dim=2)
        for i, model in enumerate([small_bigram_model(), unicode, toy_model()]):
            first, second = tmp_path / f"{i}.bin", tmp_path / f"{i}-again.bin"
            save_model(model, str(first))
            save_model(load_model(str(first)), str(second))
            assert second.read_bytes() == first.read_bytes()

    def test_save_rejects_a_lone_surrogate(self, tmp_path):
        with pytest.raises(UnicodeDecodeError):
            save_model(model_of([("a\udc80", 1)], dim=2), str(tmp_path / "m.bin"))


def model_of(words: list[tuple[str, int]], dim: int) -> TrainedModel:
    """A unigram model of the (word, count) pairs ``words``, with random rows."""
    from sentvec.corpus import Vocabulary
    from sentvec.model import EmbeddingMatrices

    vocab = Vocabulary(
        words=words, word_index={w: i for i, (w, _) in enumerate(words)},
        total_tokens=sum(c for _, c in words), min_count=1, min_target_count=1,
    )
    return TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices.initialize(len(words), 0, dim, np.random.default_rng(3)),
        word_ngrams=1,
        buckets=0,
        subsample_t=1e-5,
    )


def model_file(words: list[bytes], counts=None, total=None, vocab_size=None) -> bytes:
    """The bytes of a dim-1 unigram model file with these vocabulary records and zero rows."""
    from sentvec.trainer import _HEADER

    counts = [1] * len(words) if counts is None else counts
    header = _HEADER.pack(
        b"S2VM", 1, 1, len(words) if vocab_size is None else vocab_size, 0, 1, 1e-5,
        sum(counts) if total is None else total,
    )
    records = b"".join(
        struct.pack("<I", len(w)) + w + struct.pack("<Q", c) for w, c in zip(words, counts)
    )
    return header + records + bytes(8 * len(words))


def load_outcome(path, data: bytes):
    """``load_model`` of ``data`` written to ``path``: its ``ModelFormatError`` text, or
    what it loaded; and whether the kernel's bulk reader read it (None for an error)."""
    path.write_bytes(data)
    try:
        loaded = load_model(str(path))
    except ModelFormatError as err:
        return str(err), None
    vocab, matrices = loaded.vocab, loaded.matrices
    got = (
        (matrices.dim, loaded.word_ngrams, loaded.buckets, loaded.subsample_t),
        vocab.total_tokens, vocab.words, vocab.word_index, vocab.counts().tolist(),
        matrices.source.tobytes(), matrices.target.tobytes(),
    )
    return got, vocab._lookup is not None


def mutated_files(good: bytes):
    """The mutations of ``good`` that test_mutated_files_fail_cleanly_or_load_consistently
    makes, in its order: truncations, bit flips and header field changes."""
    rng = np.random.default_rng(2024)
    fields = {"dim": (8, "<I"), "vocab": (12, "<Q"), "buckets": (20, "<Q"),
              "order": (28, "<I")}
    for case in range(1_000):
        data = bytearray(good)
        kind = case % 3
        if kind == 0:
            data = data[: int(rng.integers(0, len(good)))]
        elif kind == 1:
            for _ in range(int(rng.integers(1, 4))):
                bit = int(rng.integers(0, 8 * len(good)))
                data[bit // 8] ^= 1 << (bit % 8)
        else:
            name = list(fields)[case // 3 % len(fields)]
            offset, fmt = fields[name]
            (value,) = struct.unpack_from(fmt, data, offset)
            limit = 2**32 if fmt == "<I" else 2**64
            value = int(rng.choice([0, 1, value - 1, value + 1, 2 * value,
                                    int(rng.integers(0, 2**31)) * 7, limit - 1])) % limit
            struct.pack_into(fmt, data, offset, value)
        yield bytes(data)


def toy_model() -> TrainedModel:
    from sentvec.corpus import build_vocab
    from sentvec.model import EmbeddingMatrices

    vocab = build_vocab([["aa", "b", "aa", "ccc"]], 1, 1)
    return TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices.initialize(len(vocab), 0, 3, np.random.default_rng(0)),
        word_ngrams=1,
        buckets=0,
        subsample_t=1e-5,
    )


def small_bigram_model() -> TrainedModel:
    from sentvec.corpus import build_vocab
    from sentvec.model import EmbeddingMatrices

    sentences, _ = two_topic_sentences(40, words_per_topic=12, seed=5)
    vocab = build_vocab(sentences, 1, 1)
    return TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices.initialize(len(vocab), 16, 4, np.random.default_rng(1)),
        word_ngrams=2,
        buckets=16,
        subsample_t=1e-4,
    )


def vocabulary_fields(data: bytes) -> tuple[list[bytes], list[int]]:
    """Surfaces of a model file's vocabulary and the offsets of its entries (plus the end)."""
    (vocab_size,) = struct.unpack_from("<Q", data, 12)
    words, offsets, at = [], [48], 48
    for _ in range(vocab_size):
        (length,) = struct.unpack_from("<I", data, at)
        words.append(data[at + 4 : at + 4 + length])
        at += 4 + length + 8
        offsets.append(at)
    return words, offsets


def patch_header(path, **fields) -> None:
    """Overwrite model-header fields in place (offsets of the 48-byte layout)."""
    layout = {"dim": (8, "<I"), "buckets": (20, "<Q"), "order": (28, "<I")}
    data = bytearray(path.read_bytes())
    for name, value in fields.items():
        offset, fmt = layout[name]
        struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))


class TestExportTextVectors:
    def test_header_and_line_count(self, tmp_path):
        from sentvec.corpus import build_vocab
        from sentvec.model import EmbeddingMatrices

        vocab = build_vocab([["x", "y", "x"]], 1, 1)
        rng = np.random.default_rng(1)
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices.initialize(2, 0, 3, rng),
            word_ngrams=1,
            buckets=0,
            subsample_t=1e-5,
        )
        path = tmp_path / "vec.txt"
        export_text_vectors(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "2 3"
        assert len(lines) == 3
        assert lines[1].split()[0] == "x"

    def test_text_equals_per_value_format(self):
        import io

        from sentvec.corpus import build_vocab
        from sentvec.model import EmbeddingMatrices

        words = [f"w{i}" for i in range(2_100)]  # more rows than one write holds
        vocab = build_vocab([words], 1, 1)
        rng = np.random.default_rng(3)
        source = (rng.standard_normal((len(vocab), 4)) * 10.0 ** rng.integers(
            -8, 4, size=(len(vocab), 4))).astype(np.float32)
        source[0] = [0.0, -0.0, np.float32(1e-45), -np.float32(3e-39)]  # zeros, subnormals
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices(source=source, target=source.copy(), dim=4),
            word_ngrams=1,
            buckets=0,
            subsample_t=1e-5,
        )
        out = io.StringIO()
        export_text_vectors(model, out)
        expected = [f"{len(vocab)} 4"] + [
            f"{word} " + " ".join(format(x, ".6g") for x in source[wid])
            for wid, (word, _) in enumerate(vocab.words)
        ]
        assert out.getvalue() == "\n".join(expected) + "\n"
        assert out.getvalue().splitlines()[1].split()[1:] == ["0", "-0", "1.4013e-45", "-3e-39"]

    @pytest.mark.parametrize("dim,n_words", [(3, 2_100), (700, 1_100)])
    def test_chunks_share_one_text_buffer(self, kernel, monkeypatch, dim, n_words):
        import io

        from sentvec import _native
        from sentvec.corpus import build_vocab
        from sentvec.model import EmbeddingMatrices

        vocab = build_vocab([[f"w{i}" for i in range(n_words)]], 1, 1)
        rng = np.random.default_rng(dim)
        source = (rng.standard_normal((n_words, dim)) * 10.0 ** rng.integers(
            -8, 4, size=(n_words, dim))).astype(np.float32)
        model = TrainedModel(
            vocab=vocab,
            matrices=EmbeddingMatrices(source=source, target=source[:1], dim=dim),
            word_ngrams=1,
            buckets=0,
            subsample_t=1e-5,
        )
        buffers = []
        format_rows = _native.Kernel.format_rows

        def recording(self, rows, sep, flags, out):
            text = format_rows(self, rows, sep, flags, out)
            buffers.append((out, text.obj))
            return text

        monkeypatch.setattr(_native.Kernel, "format_rows", recording)
        # a 4 KiB buffer: 97 rows a fill at dim 3, and one worst-case row at dim 700
        monkeypatch.setattr(_native, "_TEXT_BYTES", 1 << 12)
        out = io.StringIO()
        export_text_vectors(model, out)
        expected = [f"{n_words} {dim}"] + [
            f"{word} " + " ".join(format(x, ".6g") for x in source[wid])
            for wid, (word, _) in enumerate(vocab.words)
        ]
        assert out.getvalue() == "\n".join(expected) + "\n"
        per_fill = max(1, 4096 // (13 * dim + 3))
        assert len(buffers) == -(-n_words // per_fill) > 1
        assert len(buffers[0][0]) == max(4096, 13 * dim + 3)
        assert all(given is buffers[0][0] and made is given for given, made in buffers)

    def test_reparse_within_relative_tolerance(self, tiny_corpus, tmp_path):
        model = train(tiny_corpus, quick_config())
        path = tmp_path / "vec.txt"
        export_text_vectors(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        count, dim = map(int, lines[0].split())
        assert count == len(model.vocab) and dim == 16
        for wid, line in enumerate(lines[1:]):
            parts = line.split()
            word_id = model.vocab.word_index[parts[0]]
            assert word_id == wid
            parsed = np.array([float(p) for p in parts[1:]])
            stored = model.matrices.source[wid].astype(np.float64)
            np.testing.assert_allclose(parsed, stored, rtol=1e-5, atol=1e-30)
