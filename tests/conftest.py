"""Shared fixtures: synthetic corpora with controlled statistics, and the two engines."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_report_header(config):
    """The kernel build the run takes, whether it is cached, and the compiler a build
    would run; compiles and loads nothing."""
    from sentvec import _native

    path = _native.library_path()
    cached = "cached" if path.is_file() else "not cached"
    return f"sentvec kernel: {path} ({cached}), C compiler: {_native.c_compiler() or 'none'}"


def write_corpus(path, sentences) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")
    return str(path)


def write_pairs(path, rows):
    """``SimilarityPairs.read`` of a pair file at ``path`` of ``rows`` (sentence a,
    sentence b, gold); each gold is written as ``repr(float)``, which reads back exactly."""
    from sentvec.evaluation import SimilarityPairs

    path.write_text(
        "".join(f"{float(gold)!r}\t{a}\t{b}\n" for a, b, gold in rows), encoding="utf-8"
    )
    return SimilarityPairs.read(str(path))


def row_text(build, rows, sep=" ", flags=None) -> str:
    """``build.format_rows``' text of ``rows``, written into a buffer of their worst case;
    ``build`` is an engine, or None for the one ``_native.engine()`` picks."""
    from sentvec import _native

    build = _native.engine() if build is None else build
    out = np.empty(len(rows) * (_native._VALUE_BYTES * rows.shape[1] + 3), dtype=np.uint8)
    return str(build.format_rows(rows, sep, flags, out), "ascii")


def two_topic_sentences(
    n_sentences: int,
    words_per_topic: int = 500,
    seed: int = 0,
    min_len: int = 6,
    max_len: int = 14,
):
    """Sentences drawn from two disjoint vocabularies, Zipfian within each topic.

    Returns (sentences, topic_labels).
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, words_per_topic + 1, dtype=np.float64)
    probs = ranks**-1.05
    probs /= probs.sum()
    cum = np.cumsum(probs)
    vocabs = [
        [f"a{i:04d}" for i in range(words_per_topic)],
        [f"b{i:04d}" for i in range(words_per_topic)],
    ]
    sentences = []
    labels = rng.integers(0, 2, size=n_sentences)
    lengths = rng.integers(min_len, max_len + 1, size=n_sentences)
    for topic, length in zip(labels, lengths):
        picks = np.searchsorted(cum, rng.random(length))
        sentences.append([vocabs[topic][i] for i in picks])
    return sentences, labels


def zipf_topic_sentences(
    n_sentences: int,
    vocab_size: int = 10_000,
    n_function: int = 100,
    n_topics: int = 20,
    mean_len: int = 12,
    seed: int = 0,
):
    """Zipf-distributed tokens where the head is topic-agnostic and the tail topical.

    The most frequent ``n_function`` words are shared across all sentences
    (function-word behaviour); the rest are assigned round-robin to topics
    so each topic spans the full frequency range.  This mimics the
    frequency/co-occurrence structure of natural prose.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-1.05
    probs /= probs.sum()

    func_ids = np.arange(n_function)
    func_mass = probs[:n_function].sum()
    func_cum = np.cumsum(probs[:n_function] / func_mass)

    content = np.arange(n_function, vocab_size)
    topic_members = []
    topic_cums = []
    for topic in range(n_topics):
        members = content[content % n_topics == topic]
        weights = probs[members] / probs[members].sum()
        topic_members.append(members)
        topic_cums.append(np.cumsum(weights))

    words = [f"w{i:05d}" for i in range(vocab_size)]
    sentences = []
    topics = rng.integers(0, n_topics, size=n_sentences)
    lengths = np.maximum(4, rng.poisson(mean_len, size=n_sentences))
    for topic, length in zip(topics, lengths):
        n_func = rng.binomial(length, func_mass)
        picks = np.concatenate(
            [
                func_ids[np.searchsorted(func_cum, rng.random(n_func))],
                topic_members[topic][
                    np.searchsorted(topic_cums[topic], rng.random(length - n_func))
                ],
            ]
        )
        rng.shuffle(picks)
        sentences.append([words[i] for i in picks])
    return sentences


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """300 two-topic sentences; enough for smoke-level training."""
    path = tmp_path_factory.mktemp("corpus") / "tiny.txt"
    sentences, _ = two_topic_sentences(300, words_per_topic=60, seed=11)
    return write_corpus(path, sentences)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """2,000 single-vocabulary Zipf sentences for trainer-level tests."""
    path = tmp_path_factory.mktemp("corpus") / "small.txt"
    sentences = zipf_topic_sentences(2_000, vocab_size=800, n_function=30,
                                     n_topics=8, seed=23)
    return write_corpus(path, sentences)


# the ASCII bytes ``str.split`` splits on, and the kernel; ``bytes.split`` misses \x1c-\x1f
SPLIT_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def word_path_words() -> list[bytes]:
    """Words of 1 to 17 bytes for the kernel's eight-byte token loads.

    The ASCII ones are the prefixes of one alphabet, so that a load past a
    token's end that is not masked off reads a longer known word; the others
    have bytes >= 0x80 at their start or at their end.
    """
    alphabet = b"abcdefghijklmnopq"
    return (
        [alphabet[:n] for n in range(1, 18)]
        + [("ä" + "b" * (n - 2)).encode() for n in range(2, 18)]
        + [alphabet[: n - 2] + "é".encode() for n in range(2, 18)]
    )


def word_path_tokens(words: list[bytes]) -> list[bytes]:
    """``words``, each with an ASCII capital at each of its byte positions and in capitals,
    and unknown tokens: each word with a byte more and a capital before it."""
    tokens = []
    for word in words:
        tokens.append(word)
        tokens += [word[:i] + word[i : i + 1].upper() + word[i + 1 :] for i in range(len(word))]
        tokens += [word.upper(), word + b"z", b"Z" + word]
    return list(dict.fromkeys(tokens))


@pytest.fixture(scope="session")
def kernel():
    """The native kernel; skips the test where it cannot be built."""
    from sentvec import _native

    try:
        return _native.load()
    except _native.KernelUnavailable as err:
        pytest.skip(f"native kernel unavailable: {err}")


@pytest.fixture
def without_kernel(monkeypatch):
    """A call that makes ``_native.load`` fail from then on, so code takes its numpy path."""
    from sentvec import _native

    def unavailable():
        raise _native.KernelUnavailable("disabled for this test")

    def patch():
        monkeypatch.setattr(_native, "load", unavailable)

    return patch
