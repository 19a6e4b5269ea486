"""Loss, the masked context, the SGD step, dropout, schedule, and the L1 operator."""

import errno
import logging
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from sentvec import model
from sentvec._reference import (
    INIT_BLOCK_VALUES,
    apply_l1_after_step,
    l1_prox,
    logistic_loss,
    lr_schedule,
    masked_context,
    ngram_dropout,
    sigmoid,
    train_step,
)
from sentvec.corpus import sentence_ngrams
from sentvec.model import EmbeddingMatrices


def sentence_of(ids, order=1, vocab_size=100, buckets=64):
    """The ``(ids, grams, spans)`` arguments of ``masked_context`` and ``train_step``."""
    return (ids, *sentence_ngrams(ids, order, vocab_size, buckets))


def matrices_of(source, target):
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return EmbeddingMatrices(source=source, target=target, dim=source.shape[1])


PIECE_CASES = pytest.mark.parametrize(
    "vocab_size,buckets,dim,cpus",
    [
        (*shape, cpus)
        for shape in [
            (6_000, 5_001, 100),
            (2, 1, 3),  # fewer values than CPUs
            (0, 0, 4),
            (3, 2, 1),
            (3, 2, INIT_BLOCK_VALUES + 5),  # a row longer than a block
        ]
        for cpus in [1, 2, 3, 4, 7]
    ],
)


@pytest.fixture(params=["kernel", "numpy"])
def fill_engine(request, without_kernel):
    """Each engine's ``fill_uniform`` in turn; the kernel's case skips where it cannot be built."""
    if request.param == "numpy":
        without_kernel()
    else:
        request.getfixturevalue("kernel")
    return request.param


def affinity_mask(monkeypatch, cpus):
    """Make ``os.sched_getaffinity`` report the CPUs ``cpus``; pinning a thread to one
    this host lacks fails, and that worker runs unpinned."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def check_pieces_equal_one_shot(vocab_size, buckets, dim):
    rng, reference = np.random.default_rng(23), np.random.default_rng(23)
    # leave a buffered 32-bit half in both, which double draws must keep
    rng.integers(0, 9, dtype=np.int32)
    reference.integers(0, 9, dtype=np.int32)
    matrices = EmbeddingMatrices.initialize(vocab_size, buckets, dim, rng)
    bound = 1.0 / (2.0 * dim)
    one_shot = reference.uniform(
        -bound, bound, size=(vocab_size + buckets, dim)
    ).astype(np.float32)
    assert matrices.source.tobytes() == one_shot.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(rng.random(5), reference.random(5))


def check_piece_case(monkeypatch, vocab_size, buckets, dim, cpus):
    """``cpus`` CPUs in the mask, and pieces sized so that each CPU gets about two."""
    affinity_mask(monkeypatch, range(cpus))
    piece = (vocab_size + buckets) * dim // (2 * cpus) + 1
    monkeypatch.setattr(model, "INIT_PIECE_VALUES", piece)
    check_pieces_equal_one_shot(vocab_size, buckets, dim)


def counted_threads(monkeypatch):
    """The threads started from now on, as a list that grows as they start."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestInitialize:
    def test_blocked_draw_equals_one_shot(self, without_kernel):
        without_kernel()  # the numpy reference draws in blocks
        vocab_size, buckets, dim = 6_000, 5_001, 100  # many blocks, a ragged last one
        assert (vocab_size + buckets) * dim > 3 * INIT_BLOCK_VALUES
        matrices = EmbeddingMatrices.initialize(
            vocab_size, buckets, dim, np.random.default_rng(17)
        )
        bound = 1.0 / (2.0 * dim)
        one_shot = np.random.default_rng(17).uniform(
            -bound, bound, size=(vocab_size + buckets, dim)
        ).astype(np.float32)
        assert matrices.source.dtype == np.float32
        np.testing.assert_array_equal(matrices.source, one_shot)
        assert not matrices.target.any()

    @PIECE_CASES
    def test_slabs_equal_one_shot(
        self, without_kernel, monkeypatch, vocab_size, buckets, dim, cpus
    ):
        without_kernel()
        check_piece_case(monkeypatch, vocab_size, buckets, dim, cpus)

    # the same cases filled by the kernel; a sibling keeps the numpy cases' ids
    @PIECE_CASES
    def test_kernel_slabs_equal_one_shot(
        self, kernel, monkeypatch, vocab_size, buckets, dim, cpus
    ):
        check_piece_case(monkeypatch, vocab_size, buckets, dim, cpus)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}, {1, 3}], ids=["0", "0,1,2", "1,3"])
    def test_any_affinity_mask_equals_one_shot(self, fill_engine, monkeypatch, cpus):
        affinity_mask(monkeypatch, cpus)
        monkeypatch.setattr(model, "INIT_PIECE_VALUES", 1_000)
        started = counted_threads(monkeypatch)
        check_pieces_equal_one_shot(20, 31, 100)  # 6 pieces, the last of 100 values
        assert len(started) == (0 if len(cpus) == 1 else len(cpus))

    @pytest.mark.parametrize("pinning", ["refused", "missing"])
    def test_unpinned_workers_equal_one_shot(self, fill_engine, monkeypatch, caplog, pinning):
        if pinning == "missing":  # as on an OS without affinity calls: os.cpu_count() CPUs
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            def refuse(pid, cpus):
                raise OSError(errno.EINVAL, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
            affinity_mask(monkeypatch, {0, 1})
        monkeypatch.setattr(model, "INIT_PIECE_VALUES", 999)
        with caplog.at_level(logging.INFO, logger="sentvec.model"):
            check_pieces_equal_one_shot(7, 6, 301)  # 4 pieces, the last of 916 values
        assert caplog.records[-1].getMessage().endswith("4 pieces on 2 workers, 0 pinned)")

    def test_more_pieces_than_workers(self, fill_engine, monkeypatch, caplog):
        workers = len(os.sched_getaffinity(0))  # each pinned to its CPU of the real mask
        monkeypatch.setattr(model, "INIT_PIECE_VALUES", 4_099)
        started = counted_threads(monkeypatch)
        with caplog.at_level(logging.INFO, logger="sentvec.model"):
            check_pieces_equal_one_shot(50, 77, 700)  # 22 pieces, the last of 2,821 values
        assert len(started) == (0 if workers == 1 else workers)
        expected = (f"22 pieces on {workers} workers, {workers} pinned)" if workers > 1
                    else "22 pieces on 1 worker, 0 pinned)")
        assert caplog.records[-1].getMessage().endswith(expected)

    def test_one_piece_filled_without_a_thread(self, fill_engine, monkeypatch):
        affinity_mask(monkeypatch, {0, 1, 2, 3})
        started = counted_threads(monkeypatch)
        # train-uni-1t's shape: 2,500 words at dim 100, 250k values
        check_pieces_equal_one_shot(2_500, 0, 100)
        assert started == []

    def test_callers_affinity_unchanged(self, fill_engine):
        before = os.sched_getaffinity(0)
        EmbeddingMatrices.initialize(3_000, 0, 700, np.random.default_rng(5))  # 3 pieces
        assert os.sched_getaffinity(0) == before

    def test_worker_errors_reach_the_caller(self):
        def work(w):
            if w == 1:
                raise MemoryError()

        with pytest.raises(MemoryError):
            model.run_workers(work, 3)

    def test_generator_without_pcg64_raises_before_the_matrix(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="PCG64, not Philox"):
                # 1M rows of dim 10: a 40 MB source, were it allocated
                EmbeddingMatrices.initialize(
                    1_000_000, 0, 10, np.random.Generator(np.random.Philox(4))
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLogisticLoss:
    def test_zero_is_log_two(self):
        assert logistic_loss(0.0) == math.log(2.0)

    def test_reflection_identity(self):
        # log(1 + e^x) = x + log(1 + e^(-x)) holds exactly for the two branches
        assert logistic_loss(-1.0) == 1.0 + logistic_loss(1.0)

    def test_large_argument(self):
        assert logistic_loss(20.0) == pytest.approx(2.0611536203143807e-9, rel=1e-12)

    def test_stable_on_extreme_inputs(self):
        values = logistic_loss(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(values))
        assert values[0] == 1000.0
        assert values[-1] == 0.0

    def test_matches_direct_formula_in_safe_range(self):
        x = np.linspace(-30, 30, 601)
        np.testing.assert_allclose(
            logistic_loss(x), np.log1p(np.exp(-x)), rtol=1e-12
        )


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert float(sigmoid(0.0)) == 0.5
        x = np.linspace(-40, 40, 400)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_saturation_is_finite(self):
        assert float(sigmoid(1000.0)) == 1.0
        assert float(sigmoid(-1000.0)) == 0.0


class TestMaskedContext:
    def test_removes_only_the_target_occurrence(self):
        sentence = sentence_of([5, 7, 5])
        assert masked_context(*sentence, 0).tolist() == [7, 5]
        assert masked_context(*sentence, 2).tolist() == [5, 7]

    def test_removes_ngrams_covering_position(self):
        sentence = sentence_of([1, 2, 3], order=2)
        ctx = masked_context(*sentence, 1).tolist()
        # both bigrams cover position 1; only the other unigrams remain
        assert ctx == [1, 3]
        ctx0 = masked_context(*sentence, 0).tolist()
        assert len(ctx0) == 3  # unigrams 2,3 plus the (1,2)-span-free bigram over (2,3)

    def test_single_token_sentence_has_empty_context(self):
        sentence = sentence_of([4])
        assert len(masked_context(*sentence, 0)) == 0


class TestTrainStep:
    def test_hand_worked_single_context(self):
        # one context row with value 1.0, zero target row, no negatives
        matrices = matrices_of([[1.0], [0.0]], [[0.0], [0.0]])
        sentence = sentence_of([0, 1])
        outcome = train_step(*sentence, 1, [], lr=0.2, matrices=matrices)
        assert outcome.loss == math.log(2.0)
        np.testing.assert_allclose(matrices.target[1], [0.1], rtol=1e-15)

    def test_zero_parameters_fixed_point(self):
        matrices = matrices_of(np.zeros((6, 4)), np.zeros((6, 4)))
        sentence = sentence_of([0, 1, 2])
        outcome = train_step(*sentence, 0, [3, 4, 5], lr=0.3, matrices=matrices)
        assert outcome.loss == 4 * math.log(2.0)
        assert not matrices.source.any()
        assert not matrices.target.any()

    def test_skipped_on_empty_context(self):
        matrices = matrices_of(np.ones((3, 2)), np.ones((3, 2)))
        outcome = train_step(*sentence_of([1]), 0, [2], lr=0.1, matrices=matrices)
        assert outcome is None
        np.testing.assert_array_equal(matrices.source, np.ones((3, 2)))

    def test_touched_rows_and_counts(self):
        matrices = matrices_of(np.zeros((40, 3)), np.zeros((40, 3)))
        sentence = sentence_of([1, 2, 1, 3], order=2, vocab_size=10, buckets=20)
        outcome = train_step(*sentence, 1, [7, 7, 8], lr=0.1, matrices=matrices)
        # context: unigrams 1,1,3 plus the bigram over positions (2,3)
        assert outcome.source_touch_count == 4
        assert outcome.target_touch_count == 4
        assert outcome.touched_target_rows == [2, 7, 8]  # duplicate-free
        assert len(set(outcome.touched_source_rows)) == len(outcome.touched_source_rows)
        assert outcome.loss >= 0.0

    def test_duplicate_negatives_accumulate(self):
        rng = np.random.default_rng(31)
        source = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 4))
        m_dup = matrices_of(source.copy(), target.copy())
        m_two = matrices_of(source.copy(), target.copy())
        sentence = sentence_of([0, 1, 2])
        train_step(*sentence, 0, [5, 5], lr=0.1, matrices=m_dup)
        # a duplicated negative must move its row twice as far as a single one
        train_step(*sentence, 0, [5], lr=0.2, matrices=m_two)
        np.testing.assert_allclose(m_dup.target[5], m_two.target[5], rtol=1e-12)

    def test_duplicate_context_rows_move_per_occurrence(self):
        rng = np.random.default_rng(32)
        source = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 4))
        matrices = matrices_of(source.copy(), target.copy())
        sentence = sentence_of([3, 3, 6, 7])  # context of target 7: [3, 3, 6]
        train_step(*sentence, 3, [1], lr=0.1, matrices=matrices)
        moved_3 = source[3] - matrices.source[3]
        moved_6 = source[6] - matrices.source[6]
        assert np.abs(moved_6).sum() > 0
        np.testing.assert_allclose(moved_3, 2.0 * moved_6, rtol=1e-10)

    def test_loss_decreases_on_repetition(self):
        rng = np.random.default_rng(33)
        matrices = matrices_of(rng.normal(0, 0.1, (8, 5)), np.zeros((8, 5)))
        sentence = sentence_of([0, 1, 2, 3])
        losses = [
            train_step(*sentence, 0, [6, 7], lr=0.5, matrices=matrices).loss
            for _ in range(30)
        ]
        assert losses[-1] < losses[0]

    def test_gradients_match_finite_differences(self):
        # smaller sibling of the acceptance criterion, kept here for fast feedback
        rng = np.random.default_rng(34)
        worst = _finite_difference_check(rng, trials=25)
        assert worst < 1e-4


def _finite_difference_check(rng, trials, dim=5, eps=1e-3):
    """Compare (pre - post)/lr updates against central differences of the loss."""
    vocab_size, buckets = 12, 8
    worst = 0.0

    def loss_at(sentence, pos, negatives, source, target):
        probe = EmbeddingMatrices(source.copy(), target.copy(), dim)
        return train_step(*sentence, pos, negatives, 1.0, probe).loss

    trial = 0
    while trial < trials:
        length = int(rng.integers(2, 8))
        ids = rng.integers(0, vocab_size, size=length).tolist()
        order = int(rng.integers(1, 3))
        sentence = sentence_of(ids, order, vocab_size, buckets)
        pos = int(rng.integers(0, length))
        negatives = rng.integers(0, vocab_size, size=int(rng.integers(0, 6)))
        negatives = np.where(
            negatives == ids[pos], (negatives + 1) % vocab_size, negatives
        )
        source = rng.normal(0.0, 0.5, size=(vocab_size + buckets, dim))
        target = rng.normal(0.0, 0.5, size=(vocab_size, dim))
        matrices = EmbeddingMatrices(source.copy(), target.copy(), dim)
        if train_step(*sentence, pos, negatives, 1.0, matrices) is None:
            continue
        trial += 1
        grad_source = source - matrices.source
        grad_target = target - matrices.target
        for matrix, grad, which in (
            (source, grad_source, "source"),
            (target, grad_target, "target"),
        ):
            for row in np.nonzero(np.abs(grad).sum(axis=1))[0]:
                for col in range(dim):
                    plus = matrix.copy()
                    plus[row, col] += eps
                    minus = matrix.copy()
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
                    analytic = grad[row, col]
                    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-10)
                    worst = max(worst, rel)
    return worst


class TestNgramDropout:
    def test_zero_k_is_identity(self):
        rng = np.random.default_rng(0)
        assert ngram_dropout(2, 0, rng) is None

    def test_k_clamps_to_available(self):
        rng = np.random.default_rng(1)
        dropped = ngram_dropout(2, 99, rng)
        assert dropped.dtype == np.uint8
        assert dropped.tolist() == [1, 1]

    def test_unigrams_never_dropped(self):
        # the flags cover the n-grams alone, so every unigram stays in the context
        ids, grams, spans = sentence_of(list(range(10)), order=3)
        rng = np.random.default_rng(2)
        for k in (1, 3, 7):
            dropped = ngram_dropout(len(grams), k, rng)
            assert len(dropped) == len(grams) and int(dropped.sum()) == k
            context = masked_context(ids, grams, spans, 0, dropped)
            assert context[:9].tolist() == list(range(1, 10))

    def test_spans_stay_aligned(self):
        ids, grams, spans = sentence_of([4, 5, 6, 7], order=2, vocab_size=10, buckets=1000)
        rng = np.random.default_rng(3)
        dropped = ngram_dropout(len(grams), 2, rng)
        # position 0 masks only the bigram over (0, 1); the flags remove their own grams
        free = (spans[:, 0] > 0) & (dropped == 0)
        context = masked_context(ids, grams, spans, 0, dropped)
        assert context[3:].tolist() == grams[free].tolist()

    def test_selection_roughly_uniform(self):
        rng = np.random.default_rng(4)
        survival = np.zeros(4)  # the 4 bigrams of a 5-token sentence
        n_rounds = 4000
        for _ in range(n_rounds):
            survival += ngram_dropout(4, 1, rng) == 0
        np.testing.assert_allclose(survival / n_rounds, 0.75, atol=0.03)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ngram_dropout(1, -1, np.random.default_rng(0))

    def test_draw_is_one_choice_without_replacement(self):
        # the numpy fallback's model files depend on this exact draw
        dropped = ngram_dropout(9, 4, np.random.default_rng(5))
        chosen = np.random.default_rng(5).choice(9, size=4, replace=False)
        assert np.flatnonzero(dropped).tolist() == sorted(chosen.tolist())


class TestLrSchedule:
    def test_endpoints_and_floor(self):
        assert lr_schedule(0.2, 0.0) == 0.2
        assert lr_schedule(0.2, 0.5) == pytest.approx(0.1, rel=1e-15)
        assert lr_schedule(0.2, 1.0) == pytest.approx(2e-6, rel=1e-12)

    def test_overshoot_clamped(self):
        assert lr_schedule(0.2, 1.7) == lr_schedule(0.2, 1.0)

    def test_linear_in_between(self):
        for progress in np.linspace(0.0, 0.9, 10):
            assert lr_schedule(1.0, progress) == pytest.approx(1.0 - progress)


class TestL1Prox:
    def test_dead_zone(self):
        assert l1_prox(0.3, 0.5) == 0.0

    def test_shrinks_toward_zero(self):
        assert l1_prox(-2.0, 0.5) == -1.5

    def test_zero_threshold_identity(self):
        x = np.array([-1.5, 0.0, 0.2])
        np.testing.assert_array_equal(l1_prox(x, 0.0), x)

    def test_never_grows_never_flips(self):
        rng = np.random.default_rng(41)
        x = rng.normal(0, 2.0, size=10_000)
        alpha = 0.37
        y = l1_prox(x, alpha)
        assert np.all(np.abs(y) <= np.abs(x))
        assert np.all((y == 0) | (np.sign(y) == np.sign(x)))
        assert np.all(y[np.abs(x) <= alpha] == 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            l1_prox(1.0, -0.1)


class TestApplyL1AfterStep:
    def test_zero_tau_is_noop(self):
        rng = np.random.default_rng(42)
        matrices = matrices_of(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        before_source = matrices.source.copy()
        sentence = sentence_of([0, 1, 2])
        outcome = train_step(*sentence, 0, [3], lr=0.0, matrices=matrices)
        apply_l1_after_step(outcome, 0.0, 0.5, outcome.source_touch_count, matrices)
        np.testing.assert_array_equal(matrices.source, before_source)

    def test_source_row_example(self):
        matrices = matrices_of(
            [[0.001, -0.2], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]
        )
        outcome = _fake_outcome(source_rows=[0], target_rows=[], context=2)
        # threshold tau*lr/|context| arranged to be 0.01
        apply_l1_after_step(outcome, tau=0.04, lr=0.5, context_size=2,
                            matrices=matrices)
        np.testing.assert_allclose(matrices.source[0], [0.0, -0.19], rtol=1e-12)

    def test_target_threshold_not_divided_by_context(self):
        matrices = matrices_of(
            [[0.5, 0.5]], [[0.1, -0.02], [0.3, 0.3]]
        )
        outcome = _fake_outcome(source_rows=[], target_rows=[0], context=10)
        apply_l1_after_step(outcome, tau=0.1, lr=0.5, context_size=10,
                            matrices=matrices)
        np.testing.assert_allclose(matrices.target[0], [0.05, 0.0], rtol=1e-12)


def _fake_outcome(source_rows, target_rows, context):
    from sentvec._reference import StepOutcome

    return StepOutcome(
        loss=0.0,
        touched_source_rows=source_rows,
        touched_target_rows=target_rows,
        source_touch_count=context,
        target_touch_count=1 + len(target_rows),
    )
