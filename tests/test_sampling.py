"""Subsampling gate and the alias negative sampler."""

import math

import numpy as np
import pytest

from sentvec._reference import sample_negatives
from sentvec.corpus import Vocabulary, build_vocab
from sentvec.sampling import (
    COIN_SCALE,
    build_negative_table,
    discard_keep_prob,
    negative_prob,
)


def make_vocab(counts: dict[str, int], min_target_count: int = 1) -> Vocabulary:
    items = sorted(counts.items(), key=lambda kv: -kv[1])
    return Vocabulary(
        words=items,
        word_index={w: i for i, (w, _) in enumerate(items)},
        total_tokens=sum(counts.values()),
        min_count=1,
        min_target_count=min_target_count,
    )


def vose_reference(counts):
    """Vose's loop over all words: (entries, threshold, alias), small columns
    popped from the end and filled by the last large one."""
    n = len(counts)
    mass = (negative_prob(counts) * n).tolist()
    threshold = [COIN_SCALE] * n
    alias = list(range(n))
    small = [k for k, m in enumerate(mass) if m < 1.0]
    large = [k for k, m in enumerate(mass) if m >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        threshold[s] = max(1, round(mass[s] * COIN_SCALE))
        alias[s] = big
        mass[big] = (mass[big] + mass[s]) - 1.0
        if mass[big] < 1.0:
            small.append(large.pop())
    return np.arange(n), np.array(threshold), np.array(alias)


class TestDiscardKeepProb:
    def test_boundary_frequency_equals_t(self):
        assert discard_keep_prob(1e-4, 1e-4) == 1.0

    def test_derived_value(self):
        # sqrt(1e-3) + 1e-3, hand arithmetic
        assert discard_keep_prob(0.01, 1e-5) == pytest.approx(
            0.03262277660168379, rel=1e-12
        )

    def test_rare_words_always_kept(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = 10.0 ** rng.uniform(-7, -2)
            f = t * rng.uniform(0.01, 1.0)
            assert discard_keep_prob(f, t) == 1.0

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = 10.0 ** rng.uniform(-8, 0)
            t = 10.0 ** rng.uniform(-8, -1)
            assert 0.0 < discard_keep_prob(f, t) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            discard_keep_prob(0.0, 1e-5)
        with pytest.raises(ValueError):
            discard_keep_prob(-0.1, 1e-5)
        with pytest.raises(ValueError):
            discard_keep_prob(1.5, 1e-5)
        with pytest.raises(ValueError):
            discard_keep_prob(0.5, 0.0)

    def test_array_equals_scalar_loop(self):
        t = 1e-4
        rng = np.random.default_rng(3)
        # both sides of t, t itself and 1
        freqs = np.concatenate([t * 10.0 ** rng.uniform(-3, 4, size=500), [t, 1.0]])
        assert (freqs < t).any() and (freqs > t).any()
        expected = np.array([discard_keep_prob(float(f), t) for f in freqs])
        keep = discard_keep_prob(freqs, t)
        assert keep.dtype == np.float64
        assert keep.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, np.nan])
    def test_array_names_first_bad_frequency(self, bad):
        freqs = np.array([0.25, bad, 0.5, 2.0])
        with pytest.raises(ValueError, match=f"got {bad}$"):
            discard_keep_prob(freqs, 1e-5)


class TestNegativeProb:
    def test_sqrt_ratio(self):
        np.testing.assert_allclose(negative_prob([1, 4]), [1 / 3, 2 / 3], rtol=1e-15)

    def test_single_word(self):
        np.testing.assert_array_equal(negative_prob([7]), [1.0])

    def test_equal_counts_symmetric(self):
        np.testing.assert_allclose(negative_prob([3] * 8), [1 / 8] * 8, rtol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            counts = rng.integers(1, 10_000, size=rng.integers(1, 400))
            assert abs(negative_prob(counts).sum() - 1.0) < 1e-12

    def test_monotone_in_counts(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 1000, size=100)
        probs = negative_prob(counts)
        for i in range(100):
            for j in range(100):
                if counts[i] > counts[j]:
                    assert probs[i] > probs[j]

    def test_errors(self):
        with pytest.raises(ValueError):
            negative_prob([])
        with pytest.raises(ValueError):
            negative_prob([1, 0])


def alias_probs(table, vocab_size: int) -> np.ndarray:
    """Per-word draw probability implied by the table's columns."""
    own = table.threshold / COIN_SCALE
    probs = np.bincount(table.entries, weights=own, minlength=vocab_size)
    probs += np.bincount(table.alias, weights=1.0 - own, minlength=vocab_size)
    return probs / table.size


class TestBuildNegativeTable:
    def test_slots_from_sqrt_counts(self):
        vocab = make_vocab({"b": 4, "a": 1})
        table = build_negative_table(vocab)
        probs = alias_probs(table, 2)
        assert probs[vocab.word_index["b"]] == pytest.approx(2 / 3, abs=1e-15)
        assert probs[vocab.word_index["a"]] == pytest.approx(1 / 3, abs=1e-15)

    def test_single_eligible_word(self):
        vocab = make_vocab({"a": 10, "b": 1}, min_target_count=5)
        table = build_negative_table(vocab)
        a = vocab.word_index["a"]
        assert table.entries.tolist() == [a]
        assert table.threshold.tolist() == [COIN_SCALE]
        assert table.alias.tolist() == [a]

    def test_eligibility_threshold_filters(self):
        vocab = make_vocab({"a": 10, "b": 3, "c": 8}, min_target_count=5)
        table = build_negative_table(vocab)
        drawable = set(table.entries.tolist()) | set(table.alias.tolist())
        assert drawable == {vocab.word_index["a"], vocab.word_index["c"]}
        assert alias_probs(table, 3)[vocab.word_index["b"]] == 0.0

    def test_deterministic_given_seed(self):
        vocab = make_vocab({"a": 5, "b": 9, "c": 2})
        t1 = build_negative_table(vocab)
        t2 = build_negative_table(vocab)
        for name in ("entries", "threshold", "alias"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_composition_approximates_distribution(self):
        rng = np.random.default_rng(6)
        counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(1, 500, size=40))}
        vocab = make_vocab(counts)
        table = build_negative_table(vocab)
        probs = negative_prob(vocab.counts())
        # exact up to float arithmetic, not up to table-slot rounding
        np.testing.assert_allclose(alias_probs(table, len(vocab)), probs, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "low,high,size,min_target_count",
        [(1, 2, 7, 1), (1, 10**12, 300, 1), (1, 50, 5_000, 3), (10**6, 10**6 + 1, 64, 1)],
    )
    def test_exact_law_and_invariants(self, low, high, size, min_target_count):
        rng = np.random.default_rng(size)
        counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(low, high, size=size))}
        vocab = make_vocab(counts, min_target_count)
        table = build_negative_table(vocab)
        eligible = np.nonzero(vocab.counts() >= min_target_count)[0]
        np.testing.assert_array_equal(table.entries, eligible)
        assert table.entries.dtype == table.alias.dtype == np.int32
        assert table.threshold.dtype == np.int64
        assert table.threshold.min() >= 1 and table.threshold.max() <= COIN_SCALE
        assert np.isin(table.alias, eligible).all()
        expected = np.zeros(len(vocab))
        expected[eligible] = negative_prob(vocab.counts()[eligible])
        probs = alias_probs(table, len(vocab))
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-9)
        assert (probs[eligible] > 0).all()

    @pytest.mark.parametrize(
        "low,high,size",
        [(1, 2, 7), (1, 10**12, 300), (1, 50, 5_000), (10**6, 10**6 + 1, 64), (1, 10**4, 40_000)],
    )
    def test_same_table_as_vose_loop(self, low, high, size):
        counts = np.random.default_rng(size).integers(low, high, size=size)
        vocab = make_vocab({f"w{i}": int(c) for i, c in enumerate(counts)})
        table = build_negative_table(vocab)
        entries, threshold, alias = vose_reference(vocab.counts())
        np.testing.assert_array_equal(table.entries, entries)
        np.testing.assert_array_equal(table.alias, alias)
        # the loop carries float64 masses through up to n steps, and
        # build_negative_table exact fixed point: columns agree to n float64
        # roundings of mass 1
        tolerance = COIN_SCALE * size * np.finfo(np.float64).eps
        np.testing.assert_allclose(table.threshold, threshold, rtol=0, atol=tolerance)

    def test_errors(self):
        vocab = make_vocab({"a": 1, "b": 1}, min_target_count=10)
        with pytest.raises(ValueError, match="no words"):
            build_negative_table(vocab)


class TestSampleNegatives:
    def test_single_candidate_table(self):
        table = build_negative_table(make_vocab({"b": 3}))
        rng = np.random.default_rng(0)
        out = sample_negatives(table, target=1, count=2, rng=rng)
        assert out.tolist() == [0, 0]

    def test_target_never_sampled(self):
        vocab = make_vocab({"a": 100, "b": 1})
        table = build_negative_table(vocab)
        target = vocab.word_index["a"]  # ~91% of the mass
        rng = np.random.default_rng(8)
        draws = np.concatenate(
            [sample_negatives(table, target, 1000, rng) for _ in range(50)]
        )
        assert not np.any(draws == target)

    def test_exact_count_and_duplicates_allowed(self):
        vocab = make_vocab({"a": 4, "b": 4, "c": 4})
        table = build_negative_table(vocab)
        rng = np.random.default_rng(9)
        out = sample_negatives(table, target=0, count=50, rng=rng)
        assert len(out) == 50
        assert len(set(out.tolist())) <= 2  # only b and c remain

    def test_only_target_in_table_errors(self):
        table = build_negative_table(make_vocab({"a": 3}))
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="only the target"):
            sample_negatives(table, target=0, count=1, rng=rng)

    def test_draw_frequencies_match_distribution(self):
        # Monte-Carlo against the analytic sqrt-frequency law, excluding the target
        rng = np.random.default_rng(11)
        counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(1, 400, size=30))}
        vocab = make_vocab(counts)
        table = build_negative_table(vocab)
        target = 0
        n_draws = 200_000
        draws = sample_negatives(table, target, n_draws, rng)
        observed = np.bincount(draws, minlength=len(vocab)) / n_draws
        expected = negative_prob(vocab.counts())
        expected[target] = 0.0
        expected /= expected.sum()
        tv_distance = 0.5 * np.abs(observed - expected).sum()
        assert tv_distance < 0.01


class TestKeepRateMonteCarlo:
    def test_empirical_keep_rate_tracks_probability(self):
        rng = np.random.default_rng(13)
        for f, t in [(0.5, 1e-3), (0.02, 1e-4), (1e-4, 1e-5), (1e-6, 1e-5)]:
            p = discard_keep_prob(f, t)
            kept = (rng.random(200_000) < p).mean()
            assert abs(kept - p) < 0.01
