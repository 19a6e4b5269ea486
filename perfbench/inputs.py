"""Seeded synthetic inputs for the benchmark.

Every input is a pure function of the benchmark seed.  Held-out text uses
its own seed stream, so no held-out sentence is drawn from the training
stream.  Inputs are generated in the benchmark's parent process, never in
the process whose time and memory are measured.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Corpus shape shared by all workloads: 2,500 words, a 75-word topic-free
# head and 60 topics, as in the norm-profile acceptance scenario.
CORPUS_SHAPE = dict(vocab_size=2_500, n_function=75, n_topics=60, mean_len=12)

# seed streams: [seed, TRAIN] training corpus, [seed, HELDOUT] held-out text,
# [seed, NOISE] OOV injection, [seed, PAIRS] pair choice, [seed, PROBES]
# held-out loss triples and reference samples
TRAIN, HELDOUT, NOISE, PAIRS, PROBES = range(5)


def zipf_topic_sentences(
    n_sentences: int,
    vocab_size: int,
    n_function: int,
    n_topics: int,
    mean_len: int,
    seed,
):
    """Zipf-distributed tokens where the head is topic-agnostic and the tail topical.

    Same law as ``zipf_topic_sentences`` in ``tests/conftest.py``; kept here
    so that a change to the test fixtures cannot change benchmark inputs.
    Returns (sentences, topics).
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
    return sentences, topics


def training_corpus(seed: int, n_sentences: int) -> list[str]:
    sentences, _ = zipf_topic_sentences(n_sentences, seed=[seed, TRAIN], **CORPUS_SHAPE)
    return [" ".join(s) for s in sentences]


def heldout(seed: int, n_sentences: int):
    """Held-out (lines, topics) from a seed stream disjoint from training."""
    sentences, topics = zipf_topic_sentences(
        n_sentences, seed=[seed, HELDOUT], **CORPUS_SHAPE
    )
    return [" ".join(s) for s in sentences], topics


def embed_lines(seed: int, lines: list[str], oov_rate: float, n_unknown_lines: int):
    """Held-out lines with injected unknown and capitalised tokens.

    About ``oov_rate`` of the tokens are followed by a token no vocabulary
    holds, about as many are capitalised (known only through the
    lowercase fallback), and ``n_unknown_lines`` lines hold no known token
    at all (one of them empty).
    """
    rng = np.random.default_rng([seed, NOISE])
    out = []
    for line in lines:
        tokens = []
        for token in line.split():
            tokens.append(token.capitalize() if rng.random() < oov_rate else token)
            if rng.random() < oov_rate:
                tokens.append(f"zz{rng.integers(0, 1_000_000)}")
        out.append(" ".join(tokens))
    unknown = [""] + [
        " ".join(f"qq{rng.integers(0, 1_000_000)}" for _ in range(rng.integers(1, 8)))
        for _ in range(n_unknown_lines - 1)
    ]
    for position, line in zip(rng.integers(0, len(out) + 1, size=len(unknown)), unknown):
        out.insert(int(position), line)
    return out


def similarity_pairs(seed: int, lines: list[str], topics, n_pairs: int, n_unknown: int):
    """``score<TAB>a<TAB>b`` rows: half same-topic pairs (gold 1), half not (gold 0).

    ``n_unknown`` extra rows have one side with no known token, which the
    evaluation must exclude.
    """
    rng = np.random.default_rng([seed, PAIRS])
    topics = np.asarray(topics)
    by_topic = {t: np.nonzero(topics == t)[0] for t in np.unique(topics)}
    rows = []
    pairable = np.nonzero([len(by_topic[t]) >= 2 for t in topics])[0]
    for k in range(n_pairs):
        a = int(rng.choice(pairable))
        if k % 2 == 0:
            b = a
            while b == a:
                b = int(rng.choice(by_topic[topics[a]]))
        else:
            b = int(rng.integers(0, len(lines)))
            while topics[b] == topics[a]:
                b = int(rng.integers(0, len(lines)))
        rows.append(f"{int(topics[a] == topics[b])}\t{lines[a]}\t{lines[b]}")
    for _ in range(n_unknown):
        a = int(rng.integers(0, len(lines)))
        rows.append(f"0\t{lines[a]}\tqq{rng.integers(0, 1_000_000)}")
    return rows


def write_lines(path, lines) -> str:
    """Write one line per item and return the file's sha256."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
