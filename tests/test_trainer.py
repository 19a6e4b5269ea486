"""Training orchestration, serialization, and the text export."""

import os
import struct

import numpy as np
import pytest

from sentvec.sampling import discard_keep_prob
from sentvec.trainer import (
    PRESETS,
    ModelFormatError,
    TrainConfig,
    TrainedModel,
    export_text_vectors,
    load_model,
    save_model,
    train,
)


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
        negative_table_size=10_000,
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
            ("dropout_k", -1),
            ("negative_table_size", 0),
            ("report_every", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        config = TrainConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()

    def test_bucketless_ngrams_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(word_ngrams=2, bucket_count=0).validate()


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

    def test_l1_run_produces_exact_zeros(self, small_corpus):
        dense = train(small_corpus, quick_config(seed=3))
        sparse = train(small_corpus, quick_config(seed=3, l1_tau=0.01))
        dense_zeros = (dense.matrices.source == 0.0).mean()
        sparse_zeros = (sparse.matrices.source == 0.0).mean()
        assert sparse_zeros > dense_zeros

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

    def test_missing_corpus_errors(self):
        with pytest.raises(OSError):
            train("/nonexistent/corpus.txt", quick_config())

    def test_checkpoint_written_each_epoch(self, tiny_corpus, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        config = quick_config(epochs=2, checkpoint_path=str(ckpt))
        model = train(tiny_corpus, config)
        restored = load_model(str(ckpt))
        np.testing.assert_array_equal(
            restored.matrices.source, model.matrices.source
        )


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
