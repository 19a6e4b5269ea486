"""Command-line surface: flags, exit codes, output formats."""

import ast
import gzip
import io
import itertools
import logging
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sentvec
from sentvec import _native, _reference, cli
from sentvec.cli import main
from sentvec.evaluation import cosine, embed_batch, embed_sentence
from sentvec.corpus import Vocabulary
from sentvec.model import EmbeddingMatrices
from sentvec.trainer import TrainedModel, load_model, save_model

from conftest import row_text, two_topic_sentences, write_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    sentences, _ = two_topic_sentences(250, words_per_topic=50, seed=19)
    return write_corpus(path, sentences)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli") / "model.bin"
    code = main(
        [
            "train", "--input", corpus_path, "--output", str(path),
            "--dim", "12", "--min-count", "1", "--min-target-count", "1",
            "--epochs", "2", "--t", "1e-2", "--neg", "3",
            "--seed", "3",
        ]
    )
    assert code == 0
    return str(path)


class TestTrainCommand:
    def test_missing_input_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--output", str(tmp_path / "m.bin")])
        assert exit_info.value.code == 2

    def test_unknown_flag_is_usage_error(self, corpus_path, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--input", corpus_path, "--output",
                  str(tmp_path / "m.bin"), "--bogus", "1"])
        assert exit_info.value.code == 2

    def test_unreadable_corpus_is_runtime_error(self, tmp_path):
        code = main(["train", "--input", "/no/such/file", "--output",
                     str(tmp_path / "m.bin"), "--min-count", "1"])
        assert code == 1

    def test_int32_overflow_fails_before_training(
        self, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("sentvec.trainer.encode_corpus", no_training)
        out = tmp_path / "m.bin"
        code = main(["train", "--input", corpus_path, "--output", str(out),
                     "--word-ngrams", "4294967298"])
        assert code == 1
        assert "error: word_ngrams must be <=" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_utf8_names_line_and_writes_no_model(self, tmp_path, capsys):
        corpus = tmp_path / "bad.txt"
        corpus.write_bytes(b"a b c\nb c a\nc a \xff b\na b c\n")
        out = tmp_path / "m.bin"
        code = main(["train", "--input", str(corpus), "--output", str(out),
                     "--min-count", "1", "--min-target-count", "1", "--dim", "4"])
        assert code == 1
        assert "line 3: invalid UTF-8 at byte offset 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]

    def test_report_every_sets_the_loss_window(self, corpus_path, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="sentvec.trainer"):
            code = main(["train", "--input", corpus_path, "--output", str(tmp_path / "m.bin"),
                         "--dim", "8", "--min-count", "1", "--min-target-count", "1",
                         "--epochs", "2", "--t", "1e-2", "--report-every", "50"])
        assert code == 0
        windows = [re.fullmatch(r"window \d+: mean loss \S+ over (\d+) targets", m)
                   for m in caplog.messages]
        targets = [int(w[1]) for w in windows if w]
        assert len(targets) > 1 and min(targets) >= 50

    def test_report_every_below_one_fails_before_training(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "m.bin"
        code = main(["train", "--input", corpus_path, "--output", str(out),
                     "--report-every", "0"])
        assert code == 1
        assert capsys.readouterr().err.endswith("error: report_every must be >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["50", "1e308"])
    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_divergence_is_named_and_writes_no_model(
        self, corpus_path, tmp_path, capsys, caplog, request, without_kernel, engine, lr
    ):
        # rows that overflow make every later loss NaN; a model of them is no model
        if engine == "kernel":
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        # every warning is kept here, where a plain run prints it to stderr
        with (caplog.at_level(logging.INFO, logger="sentvec.trainer"),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["train", "--input", corpus_path, "--output", str(tmp_path / "m.bin"),
                         "--checkpoint", str(tmp_path / "ck.bin"), "--dim", "16",
                         "--min-count", "1", "--min-target-count", "1", "--epochs", "2",
                         "--lr", lr])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: training diverged: loss window 1 has mean loss nan at lr {float(lr):g}; "
            "try a lower learning rate\n"
        )
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        # stopped at the end of the first epoch, before its checkpoint
        epochs = [m.split(",")[0] for m in caplog.messages if m.startswith("epoch ")]
        assert epochs == ["epoch 1/2 done"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("native", [True, False], ids=["kernel", "python"])
    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "not-gzip"])
    def test_bad_gzip_corpus_is_one_error_line(
        self, tmp_path, capsys, request, without_kernel, native, damage
    ):
        if native:
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        data = bytearray(gzip.compress(b"a b c\nb c a\n" * 50, mtime=0))
        if damage == "truncated":
            data = data[:20]
        elif damage == "corrupt":
            data[10] |= 0x06  # the first deflate block's type becomes the reserved 11
        else:
            data = bytearray(b"no\n")
        corpus = tmp_path / "bad.txt.gz"
        corpus.write_bytes(data)
        code = main(["train", "--input", str(corpus), "--output", str(tmp_path / "m.bin"),
                     "--min-count", "1", "--min-target-count", "1", "--dim", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: invalid gzip data: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [corpus]

    def test_preset_values_land_in_model(self, corpus_path, tmp_path):
        out = tmp_path / "preset.bin"
        # books-uni preset, overriding the knobs that need desk scale
        code = main(
            [
                "train", "--preset", "books-uni", "--input", corpus_path,
                "--output", str(out), "--dim", "8", "--min-count", "1",
                "--min-target-count", "1", "--epochs", "1",
            ]
        )
        assert code == 0
        model = load_model(str(out))
        assert model.word_ngrams == 1
        assert model.subsample_t == 1e-5  # preset value not overridden
        assert model.matrices.dim == 8  # explicit flag wins over preset 700

    def test_bigram_preset_allocates_buckets(self, corpus_path, tmp_path):
        out = tmp_path / "bi.bin"
        code = main(
            [
                "train", "--preset", "twitter-bi", "--input", corpus_path,
                "--output", str(out), "--dim", "8", "--min-count", "1",
                "--min-target-count", "1", "--epochs", "1", "--t", "1e-2",
                "--buckets", "256",
            ]
        )
        assert code == 0
        model = load_model(str(out))
        assert model.word_ngrams == 2
        assert model.buckets == 256

    def test_threads_env_default(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SENTVEC_THREADS", "2")
        out = tmp_path / "env.bin"
        code = main(
            [
                "train", "--input", corpus_path, "--output", str(out),
                "--dim", "8", "--min-count", "1", "--min-target-count", "1",
                "--epochs", "1", "--t", "1e-2",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
    def test_invalid_threads_env_fails_before_training(
        self, value, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("sentvec.cli.train", no_training)
        monkeypatch.setenv("SENTVEC_THREADS", value)
        out = tmp_path / "m.bin"
        code = main(["train", "--input", corpus_path, "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            f"error: SENTVEC_THREADS must be a positive integer, got '{value}'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--lr", "nan", "lr"),
            ("--lr", "inf", "lr"),
            ("--t", "nan", "subsample_t"),
            ("--l1", "nan", "l1_tau"),
            ("--l1", "inf", "l1_tau"),
        ],
    )
    def test_non_finite_float_fails_before_reading_the_corpus(
        self, flag, value, field, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("corpus read")

        monkeypatch.setattr("sentvec.trainer.encode_corpus", no_reading)
        out = tmp_path / "m.bin"
        code = main(["train", "--input", corpus_path, "--output", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {field} must " in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_too_many_threads_fail_before_reading_the_corpus(
        self, source, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("corpus read")

        monkeypatch.setattr("sentvec.trainer.encode_corpus", no_reading)
        value = "100000000000000000000000"
        argv = ["train", "--input", corpus_path, "--output", str(tmp_path / "m.bin")]
        if source == "flag":
            argv += ["--threads", value]
        else:
            monkeypatch.setenv("SENTVEC_THREADS", value)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith(f"error: threads must be <= 1024, got {value}\n")
        assert not (tmp_path / "m.bin").exists()

    def test_negative_seed_fails_before_reading_the_corpus(
        self, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("corpus read")

        monkeypatch.setattr("sentvec.trainer.encode_corpus", no_reading)
        out = tmp_path / "m.bin"
        assert main(["train", "--input", corpus_path, "--output", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith("error: seed must be >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--output", "--checkpoint"])
    @pytest.mark.parametrize("where", ["missing-parent", "file-parent", "directory"])
    def test_unwritable_model_path_fails_before_reading_the_corpus(
        self, flag, where, corpus_path, tmp_path, monkeypatch, capsys
    ):
        def no_reading(*args, **kwargs):
            raise AssertionError("corpus read")

        monkeypatch.setattr("sentvec.trainer.encode_corpus", no_reading)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        bad = {
            "missing-parent": tmp_path / "nodir" / "m.bin",
            "file-parent": tmp_path / "file" / "m.bin",
            "directory": tmp_path / "dir",
        }[where]
        problem = " is" if where == "directory" else f": {bad.parent} is not"
        paths = {"--output": tmp_path / "m.bin", "--checkpoint": tmp_path / "c.bin", flag: bad}
        argv = ["train", "--input", corpus_path]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith(f"error: {flag} {bad}{problem} a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_worker_memory_error_is_one_error_line(
        self, corpus_path, tmp_path, capsys, monkeypatch, request, without_kernel, engine
    ):
        from sentvec import _native, _reference

        def exhausted(*args):
            raise MemoryError()

        if engine == "kernel":
            request.getfixturevalue("kernel")
            monkeypatch.setattr(_native.Kernel, "train_chunk", exhausted)
        else:
            without_kernel()
            monkeypatch.setattr(_reference, "train_chunk", exhausted)
        code = main(["train", "--input", corpus_path, "--output", str(tmp_path / "m.bin"),
                     "--threads", "2", "--dim", "8", "--min-count", "1",
                     "--min-target-count", "1", "--epochs", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_matrices_larger_than_free_memory_are_one_error_line(
        self, corpus_path, tmp_path, capsys, monkeypatch
    ):
        from sentvec import trainer

        monkeypatch.setattr(trainer, "_free_memory", lambda: 1_000)
        out = tmp_path / "m.bin"
        code = main(["train", "--input", corpus_path, "--output", str(out), "--dim", "8",
                     "--word-ngrams", "2", "--buckets", "64", "--min-count", "1",
                     "--min-target-count", "1", "--epochs", "1"])
        assert code == 1
        vocab = 100  # two topics of 50 words, each seen
        err = capsys.readouterr().err
        assert err == (
            f"error: the source and target matrices need {(2 * vocab + 64) * 8 * 4:,} bytes, "
            f"({vocab} + 64 + {vocab}) rows of 8 float32 values, set by --buckets 64 and "
            "--dim 8; 1,000 bytes are available\n"
        )
        assert not out.exists()

    def test_threads_flag_skips_the_env(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SENTVEC_THREADS", "abc")
        out = tmp_path / "flag.bin"
        code = main(
            [
                "train", "--input", corpus_path, "--output", str(out), "--threads", "1",
                "--dim", "8", "--min-count", "1", "--min-target-count", "1",
                "--epochs", "1", "--t", "1e-2",
            ]
        )
        assert code == 0

    def test_help_exits_zero_and_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--dim", "--min-count", "--min-target-count", "--lr",
                     "--epochs", "--t", "--word-ngrams", "--buckets",
                     "--dropout-k", "--neg", "--l1", "--threads", "--seed",
                     "--lowercase", "--preset"):
            assert flag in text
        assert "default" in text


class TestEmbedCommand:
    def test_line_counts_and_field_counts(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001 a0002\nb0001\nzzz\n"))
        code = main(["embed", "--model", model_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert len(line.split()) == 12

    def test_empty_stdin_empty_stdout(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["embed", "--model", model_path])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_oov_flag_column(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001\nzzz qqq\n"))
        code = main(["embed", "--model", model_path, "--oov-flag"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines] == ["0", "1"]
        assert len(lines[0].split()) == 13

    def test_embedding_matches_library(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001 a0003 b0002\n"))
        assert main(["embed", "--model", model_path]) == 0
        printed = np.array(
            [float(x) for x in capsys.readouterr().out.split()]
        )
        model = load_model(model_path)
        direct, _ = embed_sentence(model, "a0001 a0003 b0002")
        np.testing.assert_allclose(printed, direct.astype(np.float64), rtol=1e-5,
                                   atol=1e-30)

    def test_chunked_output_matches_line_by_line(self, model_path, capsys, monkeypatch):
        lines = ["a0001 a0002 b0003", "zzz", "", "A0004 a0005", "b0001 qqq b0002",
                 "a0003", "b0004 b0004 b0004", "a0001 b0001"]
        separate = []
        for line in lines:
            monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
            assert main(["embed", "--model", model_path, "--oov-flag"]) == 0
            separate.append(capsys.readouterr().out)
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", 8)  # blocks of one to four lines
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["embed", "--model", model_path, "--oov-flag"]) == 0
        assert capsys.readouterr().out == "".join(separate)

    def test_oov_report_logged(self, model_path, caplog, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001 zzz a0002\nqqq\n"))
        with caplog.at_level(logging.INFO, logger="sentvec.cli"):
            assert main(["embed", "--model", model_path]) == 0
        assert (
            "embedded 2 lines, 1 all-OOV, OOV token rate 0.5000 (2 of 4 tokens)"
            in caplog.messages
        )

    def test_unreadable_model_is_runtime_error(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["embed", "--model", "/no/such/model.bin"]) == 1


    @pytest.mark.parametrize(
        "patches,message",
        [
            ([(8, "<I", 0)], "dim=0"),
            ([(20, "<Q", 2**40), (28, "<I", 2)], "source matrix"),  # buckets, order
        ],
    )
    def test_hostile_header_is_runtime_error(
        self, model_path, tmp_path, capsys, monkeypatch, patches, message
    ):
        with open(model_path, "rb") as fh:
            data = bytearray(fh.read())
        for offset, fmt, value in patches:
            struct.pack_into(fmt, data, offset, value)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001\n"))
        assert main(["embed", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_memory_error_is_runtime_error(self, model_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr("sentvec.cli.load_model", exhausted)
        assert main(["export-vec", "--model", model_path]) == 1
        assert capsys.readouterr().err.strip() == "error: out of memory"


EMBED_INPUT = (
    "a0001 a0002 b0003\nzzz\n\nA0004 a0005\nB0001 qqq b0002\r\n"
    "a0003 ça b0002\n\u3000a0001\u00a0b0004\n\x1ca0002\x1fb0001\nİ K a0003"
)


class TestEmbedStreams:
    """``embed`` reads and writes bytes when stdin and stdout have them, and text otherwise."""

    def run_embed(self, model_path, stdin, stdout, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        return main(["embed", "--model", model_path, "--oov-flag"])

    def test_files_and_string_streams_print_the_same_bytes(
        self, model_path, tmp_path, monkeypatch
    ):
        source = tmp_path / "in.txt"
        source.write_bytes(EMBED_INPUT.encode())
        out = tmp_path / "out.txt"
        with open(source, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
            fout.write("before\n")
            assert self.run_embed(model_path, fin, fout, monkeypatch) == 0
        text = io.StringIO()
        stdin = io.StringIO(EMBED_INPUT, newline="\n")  # split at \n only, as sys.stdin does
        assert self.run_embed(model_path, stdin, text, monkeypatch) == 0
        printed = out.read_bytes()
        assert printed == ("before\n" + text.getvalue()).encode()
        assert printed.count(b"\n") == EMBED_INPUT.count("\n") + 2

    def test_invalid_utf8_names_the_line(self, model_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", 16)  # lines 1-2, then 3-4
        source = tmp_path / "in.txt"
        source.write_bytes("a0001\nb0002\nça va\n".encode() + b"ok \xff a0001\n")
        out = tmp_path / "out.txt"
        with open(source, "rb") as raw, open(out, "w", encoding="utf-8") as fout:
            stdin = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
            assert self.run_embed(model_path, stdin, fout, monkeypatch) == 1
        assert capsys.readouterr().err.strip() == (
            "error: stdin: line 4: invalid UTF-8 at byte offset 3: invalid start byte"
        )
        # the block before the bad line's was written
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("native", [True, False])
    def test_batches_and_blocks_print_the_same_bytes(
        self, model_path, tmp_path, monkeypatch, request, without_kernel, native
    ):
        # a line's text does not depend on its block, nor on the text buffer's fills
        if native:
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        model = load_model(model_path)
        rng = np.random.default_rng(31)
        words = [w for w, _ in model.vocab.words] + ["zzz", "Qq"]
        upper = {w: w.upper() for w in words}
        many = "".join(
            " \t"[int(rng.integers(2))].join(
                upper[w] if rng.random() < 0.2 else w
                for w in rng.choice(words, size=int(rng.integers(0, 12)))
            ) + "\n"
            for _ in range(3000)
        )
        for text in (EMBED_INPUT, many):
            lines = text.split("\n")[: text.count("\n") + (not text.endswith("\n"))]
            vectors, flags = embed_batch(model, lines)
            want = row_text(None, vectors, " ", flags).encode()
            source = tmp_path / "in.txt"
            source.write_bytes(text.encode())
            # a text buffer of 1 byte grows to one line's worst case
            for block, buffer in itertools.product([3, 1 << 16], [1, _native._TEXT_BYTES]):
                monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", block)
                monkeypatch.setattr("sentvec._native._TEXT_BYTES", buffer)
                out = tmp_path / "out.txt"
                with open(source, encoding="utf-8") as fin, open(out, "w") as fout:
                    assert self.run_embed(model_path, fin, fout, monkeypatch) == 0
                assert out.read_bytes() == want, (block, buffer)
                # a text stdin and stdout, read in characters
                printed = io.StringIO()
                stdin = io.StringIO(text, newline="\n")
                assert self.run_embed(model_path, stdin, printed, monkeypatch) == 0
                assert printed.getvalue().encode() == want, (block, buffer)

    def test_memory_does_not_grow_with_the_batch(self, tmp_path, monkeypatch, kernel):
        # one block of all the lines: their text and int64 offsets grow with them, but no
        # (n, dim) vector array (2,800 bytes a line at dim 700) nor a text buffer sized
        # for their worst case (9,103 bytes a line)
        import tracemalloc

        rng = np.random.default_rng(34)
        words = [f"w{i}" for i in range(200)]
        vocab = Vocabulary(
            words=[(w, 5) for w in words], word_index={w: i for i, w in enumerate(words)},
            total_tokens=5 * len(words), min_count=1, min_target_count=1,
        )
        source = rng.standard_normal((200 + 101, 700)).astype(np.float32)
        model = tmp_path / "model.bin"
        save_model(TrainedModel(
            vocab=vocab, word_ngrams=2, buckets=101, subsample_t=1e-5,
            matrices=EmbeddingMatrices(source, np.zeros((200, 700), np.float32), 700),
        ), str(model))
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", 1 << 20)

        def peak(n_lines):
            lines = "".join(" ".join(rng.choice(words, 3)) + "\n" for _ in range(n_lines))
            (tmp_path / "in.txt").write_text(lines)
            with open(tmp_path / "in.txt", encoding="utf-8") as fin, \
                    open(tmp_path / "out.txt", "w", encoding="utf-8") as fout:
                tracemalloc.start()
                try:
                    assert self.run_embed(str(model), fin, fout, monkeypatch) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(16)  # the lookup table's first build
        assert peak(4096) - peak(1024) <= 3072 * 8 * 12

    @pytest.mark.parametrize("block", [8, 40])
    @pytest.mark.parametrize("lead", [1, 2, 3, 1024])
    def test_invalid_utf8_in_a_later_block(
        self, model_path, tmp_path, monkeypatch, capsys, lead, block
    ):
        # a read can end inside a line or hold the ends of many; ``lead`` lines come first
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", block)
        good = b"a0001 a0002\n" * lead + "\u00e7a va\n".encode() + b"a0003\n"
        source = tmp_path / "in.txt"
        source.write_bytes(good + b"ok \xff a0001\nb0001\n")
        out = tmp_path / "out.txt"
        with open(source, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
            assert self.run_embed(model_path, fin, fout, monkeypatch) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: stdin: line {lead + 3}: invalid UTF-8 at byte offset 3: invalid start byte"
        )
        # a block holds the lines that end in one read: every line that ends in a read
        # before the one holding the bad line's end was written
        bad_end = len(good) + len(b"ok \xff a0001")
        written = good.count(b"\n", 0, bad_end // block * block)
        assert len(out.read_text().splitlines()) == written

    @pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
    def test_invalid_utf8_exits_one_under_every_locale(self, model_path, locale):
        env = {
            **os.environ, "LC_ALL": locale, "PYTHONPATH": str(Path(sentvec.__file__).parents[1])
        }
        proc = subprocess.run(
            [sys.executable, "-m", "sentvec.cli", "embed", "--model", model_path],
            input=b"a0001\n\xff\n", capture_output=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert b"error: stdin: line 2: invalid UTF-8 at byte offset 0" in proc.stderr

    def test_closed_stdin_is_runtime_error(self, model_path, monkeypatch, capsys):
        assert self.run_embed(model_path, None, sys.stdout, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stdin" in err and "Traceback" not in err


class TestEvalSimCommand:
    def _identity_dataset(self, model_path, path, n=6):
        model = load_model(model_path)
        vocab_words = [w for w, _ in model.vocab.words]
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(n):
            left = " ".join(rng.choice(vocab_words, size=3))
            right = " ".join(rng.choice(vocab_words, size=3))
            va, _ = embed_sentence(model, left)
            vb, _ = embed_sentence(model, right)
            rows.append(f"{cosine(va, vb)}\t{left}\t{right}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    def test_identity_dataset_scores_one(self, model_path, tmp_path, capsys):
        dataset = self._identity_dataset(model_path, tmp_path / "sim.tsv")
        code = main(["eval-sim", "--model", model_path, "--dataset", dataset])
        assert code == 0
        out = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["pearson"]) == pytest.approx(1.0, abs=1e-6)
        assert float(fields["spearman"]) == pytest.approx(1.0, abs=1e-6)
        assert fields["n"] == "6"
        assert fields["excluded"] == "0"

    def test_excluded_count_reported(self, model_path, tmp_path, capsys):
        dataset = tmp_path / "sim.tsv"
        dataset.write_text(
            "0.5\ta0001 a0002\tb0001\n"
            "0.1\tzzzz\ta0001\n"
            "0.9\ta0003\tb0002 b0003\n"
            "0.2\ta0001\tqqqq\n",
            encoding="utf-8",
        )
        code = main(["eval-sim", "--model", model_path, "--dataset", str(dataset)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert "n=2" in out
        assert "excluded=2" in out

    def test_oov_report_logged(self, model_path, tmp_path, caplog):
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("0.5\ta0001 zzz\tb0001\n0.1\tqqq\ta0001\n"
                           "0.9\ta0003\tb0002\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="sentvec.cli"):
            assert main(["eval-sim", "--model", model_path, "--dataset", str(dataset)]) == 0
        assert (
            "embedded 6 lines, 1 all-OOV, OOV token rate 0.2857 (2 of 7 tokens)"
            in caplog.messages
        )

    def test_single_usable_pair_fails(self, model_path, tmp_path, capsys):
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("0.5\ta0001\tb0001\n0.2\tzz\tqq\n", encoding="utf-8")
        code = main(["eval-sim", "--model", model_path, "--dataset", str(dataset)])
        assert code == 1
        assert ">=2" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["gold", "cosine"])
    def test_zero_variance_names_its_column(
        self, model_path, tmp_path, capsys, kernel, without_kernel, constant
    ):
        # 50 pairs all scored 1, or 50 pairs of the same two sides; an
        # all-OOV pair is excluded from the used count
        if constant == "gold":
            rows = [(1, f"a000{i % 9 + 1} b000{i % 7 + 1}", f"b000{i % 5 + 1}") for i in range(50)]
        else:
            rows = [(i / 50, "a0001 b0002", "a0003") for i in range(50)]
        rows.append((0.5, "zzz", "a0001"))
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("".join(f"{g}\t{a}\t{b}\n" for g, a, b in rows), encoding="utf-8")
        want = (
            "error: zero variance: all 50 used pairs have the same gold score (1); "
            "correlation undefined" if constant == "gold" else
            "error: zero variance: all 50 used pairs have the same predicted cosine "
        )
        for engine in ("kernel", "numpy"):
            if engine == "numpy":
                without_kernel()
            assert main(["eval-sim", "--model", model_path, "--dataset", str(dataset)]) == 1
            errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
            assert len(errors) == 1 and errors[0].startswith(want), (engine, errors)

    def test_malformed_line_cites_number(self, model_path, tmp_path, capsys):
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("0.5\ta\tb\nbroken line\n", encoding="utf-8")
        code = main(["eval-sim", "--model", model_path, "--dataset", str(dataset)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_invalid_utf8_past_the_first_chunk_cites_line(self, model_path, tmp_path, capsys):
        dataset = tmp_path / "sim.tsv"
        good = b"0.5\ta0001 a0002\tb0001\n" * 5000
        dataset.write_bytes(good + b"0.5\ta0001 \xff\tb0001\n")
        assert len(good) > 8192
        code = main(["eval-sim", "--model", model_path, "--dataset", str(dataset)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{dataset}: line 5001: invalid UTF-8 at byte offset 10: invalid start byte" in err

    def test_same_line_with_and_without_the_kernel(
        self, model_path, tmp_path, capsys, kernel, without_kernel
    ):
        model = load_model(model_path)
        rng = np.random.default_rng(5)
        words = [w for w, _ in model.vocab.words] + ["zzz"]
        sides = [[" ".join(rng.choice(words, n)) for n in (4, 3)] for _ in range(300)]
        text = "".join(f"{rng.random():.3f}\t{a}\t{b}\n" for a, b in sides)
        plain, other = tmp_path / "plain.tsv", tmp_path / "other.tsv"
        plain.write_text(text, encoding="utf-8")
        # ideographic spaces before capitals that fold, and accented unknown tokens
        other.write_text(text.replace(" a", "\u3000A").replace("b0", "B0\u00e9"), encoding="utf-8")

        def outputs():
            for dataset in (plain, other):
                assert main(["eval-sim", "--model", model_path, "--dataset", str(dataset)]) == 0
            return capsys.readouterr().out.splitlines()

        native = outputs()
        without_kernel()
        assert outputs() == native
        assert native[0] != native[1]

    def test_one_kernel_call_per_side_and_per_batch(
        self, model_path, tmp_path, monkeypatch, capsys, kernel
    ):
        # eval-sim scores every pair in one pair_dots call, and embed writes the text of a
        # batch through one embed_rows call, with no embed_text call
        calls = []

        def counting(name):
            entry = getattr(_native.Kernel, name)

            def counted(self, table, source, buckets, order, data, starts, ends, *more):
                calls.append((name, len(ends)))
                return entry(self, table, source, buckets, order, data, starts, ends, *more)
            return counted

        def python_ids(*args):
            raise AssertionError("the reference lookup ran")

        for name in ("embed_text", "pair_dots", "embed_rows"):
            monkeypatch.setattr(_native.Kernel, name, counting(name))
        monkeypatch.setattr(_reference, "_python_ids", python_ids)
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("".join(f"0.{i}\ta0001 a000{i}\tb000{i}\n" for i in range(1, 6)))
        assert main(["eval-sim", "--model", model_path, "--dataset", str(dataset)]) == 0
        assert calls == [("pair_dots", 10)]
        calls.clear()
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", 8)
        monkeypatch.setattr("sys.stdin", io.StringIO("a0001\nb0002 a0003\n\nzzz\na0002\n"))
        assert main(["embed", "--model", model_path]) == 0
        # the blocks end in reads of 8 characters: lines 1, 2-4 and 5
        assert calls == [("embed_rows", 1), ("embed_rows", 3), ("embed_rows", 1)]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5


class TestOnlyNonAsciiLinesRewritten:
    """Python rewrites only the lines and sides that hold a byte >= 0x80."""

    @staticmethod
    def lines(n):
        # every fourth line has a non-ASCII token or space; the rest are ASCII
        rng = np.random.default_rng(47)
        odd = ["caf\u00e9", "A0003\u3000b0002", "\u00c9T\u00c9", "a0001\u00a0A0002"]
        lines = []
        for i in range(n):
            words = [f"{'ab'[i % 2]}{int(rng.integers(50)):04d}" for _ in range(3)]
            if i % 4 == 0:
                words[1] = odd[i // 4 % len(odd)]
            lines.append(" ".join(words))
        return lines

    def test_outputs_equal_the_reference_engine_and_only_non_ascii_lines_are_rewritten(
        self, model_path, tmp_path, monkeypatch, capsys, kernel, without_kernel
    ):
        from sentvec import evaluation
        from sentvec.evaluation import SimilarityPairs, write_pair_features

        seen = []
        rewrite = evaluation._rewrite_lines

        def counting(data, starts, ends, tokens, every=False):
            def counted(text):
                seen.append(text)
                return tokens(text)
            return rewrite(data, starts, ends, counted, every)

        monkeypatch.setattr(evaluation, "_rewrite_lines", counting)
        # blocks of about four lines, each with one non-ASCII line
        monkeypatch.setattr("sentvec.corpus._BLOCK_BYTES", 64)
        lines = self.lines(40)
        odd = [line for line in lines if not line.isascii()]
        stdin = tmp_path / "in.txt"
        stdin.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("".join(
            f"0.{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(zip(lines[::2], lines[1::2]))
        ), encoding="utf-8")
        features = tmp_path / "features.tsv"
        model = load_model(model_path)

        def outputs():
            got = {}
            seen.clear()
            with open(stdin, encoding="utf-8") as fin:
                monkeypatch.setattr("sys.stdin", fin)
                assert main(["embed", "--model", model_path, "--oov-flag"]) == 0
            got["embed"] = capsys.readouterr().out
            assert seen == odd
            seen.clear()
            assert main(["eval-sim", "--model", model_path, "--dataset", str(dataset)]) == 0
            got["eval-sim"] = capsys.readouterr().out
            # a side's span starts at the tab before it
            assert seen == ["\t" + line for line in odd]
            seen.clear()
            vectors, flags = embed_batch(model, lines)
            got["embed_batch"] = vectors.tobytes(), flags.tolist()
            assert seen == odd
            seen.clear()
            write_pair_features(model, SimilarityPairs.read(str(dataset)), str(features))
            got["features"] = features.read_bytes()
            assert seen == ["\t" + line for line in odd]
            return got

        native = outputs()
        without_kernel()
        assert outputs() == native
        assert native["embed"].count("\n") == len(lines)

class TestNormProfileCommand:
    def test_row_count_equals_vocab(self, model_path, capsys):
        code = main(["norm-profile", "--model", model_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        model = load_model(model_path)
        assert len(lines) == len(model.vocab)
        assert all(len(line.split()) == 2 for line in lines)

    def test_weight_column_added(self, model_path, capsys):
        code = main(["norm-profile", "--model", model_path, "--a", "0.001"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(len(line.split()) == 3 for line in lines)
        # third column is the static weight a/(a+f), always in (0, 1)
        weights = [float(line.split()[2]) for line in lines]
        assert all(0.0 < w < 1.0 for w in weights)

    def test_output_file(self, model_path, tmp_path):
        out = tmp_path / "profile.txt"
        code = main(["norm-profile", "--model", model_path, "--output", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("a", ["nan", "inf", "-1", "0"])
    def test_bad_weight_parameter_leaves_no_output(self, model_path, tmp_path, capsys, a):
        out = tmp_path / "profile.txt"
        code = main(["norm-profile", "--model", model_path, "--a", a, "--output", str(out)])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("error: weighting parameter")
        assert not out.exists()


class TestExportVecCommand:
    def test_header_to_stdout(self, model_path, capsys):
        code = main(["export-vec", "--model", model_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        model = load_model(model_path)
        assert lines[0] == f"{len(model.vocab)} 12"
        assert len(lines) == len(model.vocab) + 1

    def test_to_file(self, model_path, tmp_path):
        out = tmp_path / "vectors.txt"
        code = main(["export-vec", "--model", model_path, "--output", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[0].endswith(" 12")

    @pytest.mark.parametrize("native", [True, False])
    def test_no_text_buffer_without_words(
        self, tmp_path, capsys, request, without_kernel, native
    ):
        # a header-only model of dim 2^32 - 1: a text buffer of its row would take 52 GiB
        from sentvec.trainer import _HEADER

        if native:
            request.getfixturevalue("kernel")
        else:
            without_kernel()
        path = tmp_path / "empty.bin"
        path.write_bytes(_HEADER.pack(b"S2VM", 1, 2**32 - 1, 0, 0, 1, 1e-5, 0))
        assert main(["export-vec", "--model", str(path)]) == 0
        assert capsys.readouterr().out == f"0 {2**32 - 1}\n"


class TestTopLevel:
    def test_import_loads_no_kernel_binding(self):
        # the kernel binding and the thread pool load on first use, so every
        # command starts without them; numpy itself may import ctypes
        probe = (
            "import sys, numpy; before = set(sys.modules); import sentvec, sentvec.cli; "
            "print(sorted(set(sys.modules) - before))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sentvec.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        added = ast.literal_eval(proc.stdout)
        assert "sentvec.cli" in added
        for name in (
            "sentvec._native", "sentvec._reference", "ctypes", "concurrent.futures", "subprocess"
        ):
            assert name not in added, name

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for sub in ("train", "embed", "eval-sim", "norm-profile", "export-vec"):
            assert sub in out

    @pytest.mark.parametrize("argv", [
        *([name, "--help"] for name in
          ("train", "embed", "eval-sim", "norm-profile", "export-vec")),
        ["train", "--input", "corpus.txt"],
        ["embed"],
        ["eval-sim", "--model", "m.bin"],
        ["norm-profile", "--output", "out.txt"],
        ["export-vec"],
        ["train", "--input", "c", "--output", "m", "--dim", "wide"],
        ["train", "--input", "c", "--output", "m", "--preset", "nope"],
        ["norm-profile", "--model", "m", "--a", "zz"],
        ["embed", "--model", "m", "--bogus"],
        ["export-vec", "--model", "m", "extra"],
        ["bogus"],
        ["bogus", "--help"],
        [],
        ["--help"],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_single_command_parser_prints_as_the_full_one(self, argv, capsys, monkeypatch):
        from sentvec import cli

        full = cli.build_parser
        built = []

        def recording(command=None):
            built.append(command)
            return full(command)

        def outcome(call):
            with pytest.raises(SystemExit) as exit_info:
                call()
            return exit_info.value.code, *capsys.readouterr()

        monkeypatch.setattr(cli, "build_parser", recording)
        got = outcome(lambda: main(argv))
        # a known command first: only its parser is built
        assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
        assert got == outcome(lambda: full().parse_args(argv))


class TestWithoutACompiler:
    def test_train_and_embed_equal_the_reference_engine_in_process(
        self, corpus_path, tmp_path, monkeypatch, capsys, without_kernel
    ):
        # a real run where no kernel can be built: no compiler on PATH, no cached build
        empty = tmp_path / "bin"
        empty.mkdir()
        env = {
            **os.environ, "PATH": str(empty), "XDG_CACHE_HOME": str(tmp_path / "cache"),
            "PYTHONPATH": str(Path(sentvec.__file__).parents[1]),
        }
        train = ["train", "--input", corpus_path, "--dim", "8", "--min-count", "1",
                 "--min-target-count", "1", "--epochs", "2", "--t", "1e-2", "--neg", "3",
                 "--threads", "1"]
        model = tmp_path / "model.bin"
        trained = subprocess.run(
            [sys.executable, "-m", "sentvec.cli", *train, "--output", str(model)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert trained.returncode == 0, trained.stderr
        assert (
            " WARNING native kernel unavailable, training with numpy: "
            "no C compiler (gcc or cc) on PATH\n"
        ) in trained.stderr
        embedded = subprocess.run(
            [sys.executable, "-m", "sentvec.cli", "embed", "--model", str(model), "--oov-flag"],
            input=EMBED_INPUT.encode(), capture_output=True, env=env, check=False,
        )
        assert embedded.returncode == 0, embedded.stderr

        without_kernel()
        here = tmp_path / "here.bin"
        assert main([*train, "--output", str(here)]) == 0
        assert here.read_bytes() == model.read_bytes()
        source, out = tmp_path / "in.txt", tmp_path / "out.txt"
        source.write_bytes(EMBED_INPUT.encode())
        with open(source, "rb") as fin, open(out, "wb") as fout:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(fin, encoding="utf-8"))
            monkeypatch.setattr("sys.stdout", io.TextIOWrapper(fout, encoding="utf-8"))
            assert main(["embed", "--model", str(here), "--oov-flag"]) == 0
            sys.stdout.flush()
        assert out.read_bytes() == embedded.stdout
        assert embedded.stdout.count(b"\n") == EMBED_INPUT.count("\n") + 1
