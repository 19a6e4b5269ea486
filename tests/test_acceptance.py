"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or
in the captured output); pytest's own verdict line mirrors it.  The
heavier scenarios (4, 5, 6) train real models and dominate the runtime;
the whole module finishes in a few minutes on one core.
"""

import math
import time

import numpy as np

from sentvec.corpus import Vocabulary, build_vocab, sentence_ngrams
from sentvec.evaluation import (
    cosine,
    embed_sentence,
    norm_profile,
    pearson,
    spearman,
)
from sentvec._reference import l1_prox, masked_context, sample_negatives, train_step
from sentvec.model import EmbeddingMatrices
from sentvec.sampling import build_negative_table, discard_keep_prob, negative_prob
from sentvec.trainer import (
    TrainConfig,
    TrainedModel,
    export_text_vectors,
    load_model,
    save_model,
    train,
)

from conftest import two_topic_sentences, write_corpus, zipf_topic_sentences


def announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: PASS{suffix}")


# -----------------------------------------------------------------------
# 1. Gradient oracle
# -----------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    """Analytic updates match central finite differences on 200 random steps.

    h=5, up to 5 negatives, eps=1e-3, 64-bit; relative error < 1e-4.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    dim, vocab_size, buckets, eps = 5, 12, 8, 1e-3

    def loss_at(sentence, pos, negatives, source, target):
        probe = EmbeddingMatrices(source.copy(), target.copy(), dim)
        return train_step(*sentence, pos, negatives, 1.0, probe).loss

    worst = 0.0
    checked = 0
    instances = 0
    while instances < 200:
        length = int(rng.integers(2, 8))
        ids = rng.integers(0, vocab_size, size=length).tolist()
        order = int(rng.integers(1, 3))
        sentence = (ids, *sentence_ngrams(ids, order, vocab_size, buckets))
        pos = int(rng.integers(0, length))
        negatives = rng.integers(0, vocab_size, size=int(rng.integers(1, 6)))
        negatives = np.where(
            negatives == ids[pos], (negatives + 1) % vocab_size, negatives
        )
        source = rng.normal(0.0, 0.5, size=(vocab_size + buckets, dim))
        target = rng.normal(0.0, 0.5, size=(vocab_size, dim))
        matrices = EmbeddingMatrices(source.copy(), target.copy(), dim)
        if train_step(*sentence, pos, negatives, 1.0, matrices) is None:
            continue
        instances += 1
        for before, after, which in (
            (source, matrices.source, "source"),
            (target, matrices.target, "target"),
        ):
            analytic = before - after  # lr = 1
            for row in np.nonzero(np.abs(analytic).sum(axis=1))[0]:
                for col in range(dim):
                    plus = before.copy()
                    plus[row, col] += eps
                    minus = before.copy()
                    minus[row, col] -= eps
                    if which == "source":
                        fd = (
                            loss_at(sentence, pos, negatives, plus, target)
                            - loss_at(sentence, pos, negatives, minus, target)
                        ) / (2 * eps)
                    else:
                        fd = (
                            loss_at(sentence, pos, negatives, source, plus)
                            - loss_at(sentence, pos, negatives, source, minus)
                        ) / (2 * eps)
                    ana = analytic[row, col]
                    rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-10)
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"gradient oracle took {elapsed:.1f}s"
    announce(1, "gradient oracle",
             f"{checked} partials, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. Sampler fidelity
# -----------------------------------------------------------------------


def test_criterion_02_sampler_fidelity():
    """Negative draws within TV 0.01 of the sqrt-frequency law; keep rates within 1%."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    counts = {f"w{i:02d}": int(c) for i, c in
              enumerate(np.sort(rng.integers(1, 2000, size=50))[::-1])}
    items = sorted(counts.items(), key=lambda kv: -kv[1])
    vocab = Vocabulary(
        words=items,
        word_index={w: i for i, (w, _) in enumerate(items)},
        total_tokens=sum(counts.values()),
        min_count=1,
        min_target_count=1,
    )
    table = build_negative_table(vocab)
    # a sentinel target never collides, so draws realize the raw distribution
    draws = sample_negatives(table, target=-1, count=1_000_000, rng=rng)
    observed = np.bincount(draws, minlength=50) / 1_000_000
    expected = negative_prob(vocab.counts())
    tv_distance = 0.5 * float(np.abs(observed - expected).sum())
    assert tv_distance < 0.01, f"TV distance {tv_distance:.4f}"

    worst_gap = 0.0
    t = 1e-4
    for f in vocab.frequencies():
        p = discard_keep_prob(float(f), t)
        kept = float((rng.random(1_000_000) < p).mean())
        worst_gap = max(worst_gap, abs(kept - p))
    assert worst_gap < 0.01, f"keep-rate gap {worst_gap:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"sampler fidelity took {elapsed:.1f}s"
    announce(2, "sampler fidelity",
             f"TV {tv_distance:.4f}, worst keep-rate gap {worst_gap:.4f}, "
             f"{elapsed:.1f}s")


# -----------------------------------------------------------------------
# 3. Zero fixed point
# -----------------------------------------------------------------------


def test_criterion_03_zero_fixed_point():
    """All-zero parameters: loss exactly (1+|N|) ln 2 and bitwise-zero updates."""
    for n_negatives in (1, 3, 10):
        matrices = EmbeddingMatrices(
            source=np.zeros((30, 7), dtype=np.float32),
            target=np.zeros((20, 7), dtype=np.float32),
            dim=7,
        )
        ids = [0, 1, 2, 3, 4]
        grams, spans = sentence_ngrams(ids, 2, 20, 10)
        negatives = list(range(5, 5 + n_negatives))
        outcome = train_step(ids, grams, spans, 2, negatives, lr=0.25, matrices=matrices)
        assert outcome.loss == (1 + n_negatives) * math.log(2.0)
        assert not matrices.source.any()
        assert not matrices.target.any()
    announce(3, "zero fixed point", "loss == (1+|N|) ln 2, zero updates, bitwise")


# -----------------------------------------------------------------------
# 4. Determinism
# -----------------------------------------------------------------------


def test_criterion_04_single_thread_determinism(tmp_path):
    """threads=1 plus a fixed seed reproduce the model file byte for byte."""
    sentences = zipf_topic_sentences(10_000, vocab_size=1_200, n_function=40,
                                     n_topics=12, seed=404)
    corpus = write_corpus(tmp_path / "c.txt", sentences)
    config = TrainConfig(
        dim=24, min_count=2, min_target_count=2, lr=0.2, epochs=2,
        subsample_t=1e-3, word_ngrams=2, bucket_count=4_096, dropout_k=2,
        negatives=5, threads=1, seed=31, report_every=10**9,
    )
    blobs = []
    for run in range(2):
        model = train(corpus, config)
        path = tmp_path / f"run{run}.bin"
        save_model(model, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    announce(4, "determinism", f"{len(blobs[0])}-byte model files identical")


# -----------------------------------------------------------------------
# 5. Learning signal
# -----------------------------------------------------------------------


def test_criterion_05_two_topic_learning_signal(tmp_path):
    """Within-topic sentence cosine beats cross-topic by >= 0.2 after training."""
    started = time.perf_counter()
    sentences, labels = two_topic_sentences(20_000, words_per_topic=500, seed=101)
    corpus = write_corpus(tmp_path / "topics.txt", sentences)
    config = TrainConfig(
        dim=50, min_count=5, min_target_count=8, lr=0.2, epochs=5,
        subsample_t=1e-5, word_ngrams=1, negatives=10, threads=1, seed=9,
        report_every=10**9,
    )
    model = train(corpus, config)

    embedded = []
    for sent in sentences[:4000]:
        vector, oov = embed_sentence(model, " ".join(sent))
        embedded.append(None if oov else vector)
    by_topic = {
        topic: [i for i in range(4000)
                if labels[i] == topic and embedded[i] is not None]
        for topic in (0, 1)
    }

    def mean_cosine(pairs):
        return float(np.mean([cosine(embedded[i], embedded[j]) for i, j in pairs]))

    pairs_a = list(zip(by_topic[0][0::2], by_topic[0][1::2]))[:800]
    pairs_b = list(zip(by_topic[1][0::2], by_topic[1][1::2]))[:800]
    pairs_x = list(zip(by_topic[0], by_topic[1]))[:800]
    within = (mean_cosine(pairs_a) + mean_cosine(pairs_b)) / 2.0
    cross = mean_cosine(pairs_x)
    elapsed = time.perf_counter() - started
    assert within - cross >= 0.2, f"gap {within - cross:.3f}"
    assert elapsed < 120.0, f"learning-signal run took {elapsed:.1f}s"
    announce(5, "learning signal",
             f"within {within:.3f}, cross {cross:.3f}, {elapsed:.0f}s")


# -----------------------------------------------------------------------
# 6. Norm-vs-frequency profile
# -----------------------------------------------------------------------


def test_criterion_06_norm_profile_shape(tmp_path):
    """After real training, frequent and rare words carry smaller vectors than mid-band words."""
    started = time.perf_counter()
    sentences = zipf_topic_sentences(115_000, vocab_size=2_500, n_function=75,
                                     n_topics=60, mean_len=12, seed=808)
    corpus = write_corpus(tmp_path / "big.txt", sentences)
    config = TrainConfig(
        dim=100, min_count=5, min_target_count=8, lr=0.2, epochs=8,
        subsample_t=1e-5, word_ngrams=1, negatives=10, threads=1, seed=42,
        report_every=500_000,
    )
    model = train(corpus, config)
    profile = norm_profile(model)
    vocab_size = len(model.vocab)
    norms = profile[:, 1]  # ids are ordered by descending frequency
    band = max(1, vocab_size // 100)
    top_mean = norms[:band].mean()
    mid_mean = norms[int(0.4 * vocab_size): int(0.6 * vocab_size)].mean()
    bottom_mean = norms[vocab_size - band:].mean()
    elapsed = time.perf_counter() - started
    assert top_mean < mid_mean, f"top {top_mean:.3f} !< mid {mid_mean:.3f}"
    assert bottom_mean < mid_mean, f"bottom {bottom_mean:.3f} !< mid {mid_mean:.3f}"
    assert elapsed < 600.0, f"norm-profile run took {elapsed:.1f}s"
    announce(6, "norm profile",
             f"top1% {top_mean:.2f} < mid {mid_mean:.2f} > bottom1% "
             f"{bottom_mean:.2f}, {elapsed:.0f}s")


# -----------------------------------------------------------------------
# 7. Efficiency contract
# -----------------------------------------------------------------------


def test_criterion_07a_touched_rows_exact():
    """Each step touches exactly |context| source rows and 1+|N| target rows."""
    rng = np.random.default_rng(70)
    checked = 0
    while checked < 300:
        vocab_size, buckets = 40, 32
        length = int(rng.integers(2, 12))
        ids = rng.integers(0, vocab_size, size=length).tolist()
        order = int(rng.integers(1, 4))
        grams, spans = sentence_ngrams(ids, order, vocab_size, buckets)
        pos = int(rng.integers(0, length))
        n_neg = int(rng.integers(1, 11))
        negatives = rng.integers(0, vocab_size, size=n_neg)
        negatives = np.where(
            negatives == ids[pos], (negatives + 1) % vocab_size, negatives
        )
        matrices = EmbeddingMatrices(
            source=rng.normal(size=(vocab_size + buckets, 6)).astype(np.float32),
            target=rng.normal(size=(vocab_size, 6)).astype(np.float32),
            dim=6,
        )
        outcome = train_step(ids, grams, spans, pos, negatives, 0.05, matrices)
        # independent recount of the masked feature list
        surviving_ngrams = int(((spans[:, 0] > pos) | (spans[:, 1] < pos)).sum())
        expected_context = (length - 1) + surviving_ngrams
        assert outcome.source_touch_count == expected_context
        assert outcome.target_touch_count == 1 + n_neg
        assert len(masked_context(ids, grams, spans, pos)) == expected_context
        checked += 1
    announce(7, "efficiency: touched rows", f"{checked} steps exact")


def test_criterion_07b_linear_wall_clock(tmp_path):
    """Training time over 1x/2x/4x corpora fits a linear model with R^2 > 0.98."""
    base = zipf_topic_sentences(2_000, vocab_size=600, n_function=25,
                                n_topics=10, seed=55)
    config = TrainConfig(
        dim=32, min_count=2, min_target_count=2, lr=0.2, epochs=2,
        subsample_t=1e-2, word_ngrams=1, negatives=5, threads=1, seed=3,
        report_every=10**9,
    )
    multiples = (1, 2, 4)
    corpora = [write_corpus(tmp_path / f"lin{mult}.txt", base * mult) for mult in multiples]
    train(corpora[0], config)  # warmup: page/alloc caches
    # each run takes 0.05-0.2 s: the best of five rounds, each timing every
    # size in turn, so a burst of host load slows one round, not one size
    times = [math.inf] * len(multiples)
    for _ in range(5):
        for i, corpus in enumerate(corpora):
            started = time.perf_counter()
            train(corpus, config)
            times[i] = min(times[i], time.perf_counter() - started)
    x = np.asarray(multiples, dtype=np.float64)
    y = np.asarray(times)
    design = np.column_stack([np.ones_like(x), x])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coeffs
    r_squared = 1.0 - (residuals @ residuals) / ((y - y.mean()) @ (y - y.mean()))
    assert r_squared > 0.98, f"R^2 {r_squared:.4f}, times {y}"
    announce(7, "efficiency: linear wall clock",
             f"times {np.round(y, 2).tolist()}s, R^2 {r_squared:.4f}")


# -----------------------------------------------------------------------
# 8. L1 regularization behaviour
# -----------------------------------------------------------------------


def test_criterion_08_l1_sparsity_and_prox_laws(tmp_path):
    """tau=0.0005 strictly increases exact zeros; prox laws hold pointwise."""
    sentences = zipf_topic_sentences(3_000, vocab_size=1_500, n_function=40,
                                     n_topics=10, seed=77)
    corpus = write_corpus(tmp_path / "l1.txt", sentences)
    zero_fractions = {}
    for tau in (0.0, 0.0005):
        config = TrainConfig(
            dim=50, min_count=2, min_target_count=2, lr=0.2, epochs=3,
            subsample_t=1e-3, word_ngrams=1, negatives=5, threads=1, seed=13,
            l1_tau=tau, report_every=10**9,
        )
        model = train(corpus, config)
        zero_fractions[tau] = float((model.matrices.source == 0.0).mean())
    assert zero_fractions[0.0005] > zero_fractions[0.0], zero_fractions

    rng = np.random.default_rng(81)
    x = rng.normal(0.0, 1.0, size=100_000)
    alpha = 0.2
    y = l1_prox(x, alpha)
    assert np.all(np.abs(y) <= np.abs(x))  # shrinkage
    assert np.all((y == 0) | (np.sign(y) == np.sign(x)))  # sign preservation
    assert np.all(y[np.abs(x) <= alpha] == 0.0)  # dead zone
    assert np.all(y[np.abs(x) > alpha] != 0.0)
    announce(8, "L1 behaviour",
             f"zero fraction {zero_fractions[0.0]:.4f} -> "
             f"{zero_fractions[0.0005]:.4f}, prox laws on 1e5 scalars")


# -----------------------------------------------------------------------
# 9. Serialization
# -----------------------------------------------------------------------


def test_criterion_09_serialization(tmp_path):
    """Bit-exact round trip, layout-derived file size, text export re-parse."""
    vocab = build_vocab([["alpha", "beta", "alpha", "gamma", "beta", "alpha"]], 1, 1)
    dim, buckets = 4, 5
    rng = np.random.default_rng(90)
    model = TrainedModel(
        vocab=vocab,
        matrices=EmbeddingMatrices.initialize(len(vocab), buckets, dim, rng),
        word_ngrams=2,
        buckets=buckets,
        subsample_t=5e-6,
    )
    path = tmp_path / "toy.bin"
    save_model(model, str(path))

    # header 48 bytes, then (4 + utf8 + 8) per word, then two f32 matrices
    vocab_bytes = sum(4 + len(w.encode("utf-8")) + 8 for w, _ in vocab.words)
    expected_size = (
        48 + vocab_bytes + 4 * dim * (len(vocab) + buckets) + 4 * dim * len(vocab)
    )
    assert path.stat().st_size == expected_size

    restored = load_model(str(path))
    assert restored.vocab.words == vocab.words
    assert restored.vocab.total_tokens == vocab.total_tokens
    np.testing.assert_array_equal(restored.matrices.source, model.matrices.source)
    np.testing.assert_array_equal(restored.matrices.target, model.matrices.target)
    assert restored.subsample_t == model.subsample_t

    text_path = tmp_path / "toy.vec"
    export_text_vectors(model, str(text_path))
    lines = text_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"{len(vocab)} {dim}"
    for wid, line in enumerate(lines[1:]):
        parts = line.split()
        parsed = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        stored = model.matrices.source[wid].astype(np.float64)
        np.testing.assert_allclose(parsed, stored, rtol=1e-5)
    announce(9, "serialization",
             f"{expected_size} bytes as derived, round trip bit-exact")


# -----------------------------------------------------------------------
# 10. Correlation statistics oracle
# -----------------------------------------------------------------------


def _brute_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def _brute_midranks(values):
    return [
        sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2
        for v in values
    ]


def test_criterion_10_statistics_oracle():
    """pearson/spearman match an enumeration-based oracle within 1e-12."""
    rng = np.random.default_rng(100)
    worst = 0.0
    cases = 0
    while cases < 1000:
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
        else:
            xs = rng.integers(0, 8, size=n).astype(np.float64)  # heavy ties
            ys = rng.integers(0, 8, size=n).astype(np.float64)
        if np.ptp(xs) == 0 or np.ptp(ys) == 0:
            continue
        cases += 1
        xs_list, ys_list = xs.tolist(), ys.tolist()
        dp = abs(pearson(xs, ys) - _brute_pearson(xs_list, ys_list))
        ds = abs(
            spearman(xs, ys)
            - _brute_pearson(_brute_midranks(xs_list), _brute_midranks(ys_list))
        )
        worst = max(worst, dp, ds)
    assert worst < 1e-12, f"worst deviation {worst:.2e}"
    announce(10, "statistics oracle", f"{cases} cases, worst deviation {worst:.1e}")
