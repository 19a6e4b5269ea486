"""Output checks recomputed with numpy from a saved model file.

The reference composes sentences from the model's matrices and the scalar
``sentvec.corpus.ngram_hash``, the golden n-gram hash, so it shares no
code with the program's embedding path beyond reading the model file.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import re

import numpy as np

from sentvec.corpus import ngram_hash

EVAL_LINE = re.compile(r"pearson=(\S+) spearman=(\S+) n=(\d+) excluded=(\d+)$")


def known_ids(index: dict, text: str) -> list[int]:
    """Vocabulary ids of a line: verbatim lookup, then the lowercase fallback."""
    ids = []
    for token in text.split():
        wid = index.get(token)
        if wid is None:
            wid = index.get(token.lower())
        if wid is not None:
            ids.append(wid)
    return ids


def feature_rows(model, ids: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Source rows of a sentence (unigrams, then n-grams) and each n-gram's token span."""
    vocab_size = len(model.vocab)
    rows, spans = list(ids), []
    for k in range(2, model.word_ngrams + 1):
        for i in range(len(ids) - k + 1):
            rows.append(ngram_hash(ids[i : i + k], vocab_size, model.buckets))
            spans.append((i, i + k - 1))
    return rows, spans


def reference_vector(model, text: str) -> np.ndarray | None:
    """Mean source row in float64, or None when the line has no known token."""
    ids = known_ids(model.vocab.word_index, text)
    if not ids:
        return None
    rows, _ = feature_rows(model, ids)
    return model.matrices.source[rows].astype(np.float64).mean(axis=0)


def check_model(model, dim: int) -> list[str]:
    problems = []
    if model.matrices.dim != dim:
        problems.append(f"model dim {model.matrices.dim}, expected {dim}")
    for name in ("source", "target"):
        if not np.isfinite(getattr(model.matrices, name)).all():
            problems.append(f"non-finite values in the {name} matrix")
    return problems


class EmbedReference:
    """Expected ``embed --oov-flag`` output of one model on one input.

    Every line's OOV flag is known; the lines in ``sample`` also get a
    reference vector.
    """

    def __init__(self, model, inputs: list[str], sample) -> None:
        index = model.vocab.word_index
        self.dim = model.matrices.dim
        self.oov = [not known_ids(index, text) for text in inputs]
        self.vectors = {}
        for i in sorted(int(i) for i in sample):
            ids = known_ids(index, inputs[i])
            if ids:
                rows, _ = feature_rows(model, ids)
                used = model.matrices.source[rows].astype(np.float64)
                # 6-significant-digit output plus float32 accumulation error
                ref = used.mean(axis=0)
                self.vectors[i] = (ref, 6e-6 * np.abs(ref) + 4e-6 * np.abs(used).max())

    def check(self, output: list[str]) -> tuple[list[str], int]:
        """Problems with one output, and its count of lines flagged all-OOV."""
        if len(output) != len(self.oov):
            return [f"embed wrote {len(output)} lines for {len(self.oov)} inputs"], 0
        problems = []
        flagged = 0
        for i, (line, oov) in enumerate(zip(output, self.oov)):
            values, _, flag = line.rpartition(" ")
            flagged += flag == "1"
            if flag != str(int(oov)):
                problems.append(f"line {i + 1}: OOV flag {flag!r}, expected {int(oov)}")
                continue
            if not oov and i not in self.vectors:
                continue
            vector = np.array(values.split(), dtype=np.float64)
            if vector.shape != (self.dim,):
                problems.append(f"line {i + 1}: {vector.size} values, expected {self.dim}")
            elif oov and np.any(vector != 0.0):
                problems.append(f"line {i + 1}: non-zero vector with no known token")
            elif not oov:
                ref, tol = self.vectors[i]
                if np.any(np.abs(vector - ref) > tol):
                    problems.append(f"line {i + 1}: vector differs from the reference")
        return problems, flagged


def _midranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + ends - 1) / 2.0 + 1.0)[inverse]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))


class EvalReference:
    """Expected ``eval-sim`` result of one model on one pair file."""

    def __init__(self, model, rows: list[str]) -> None:
        golds, cosines = [], []
        for row in rows:
            gold, a, b = row.split("\t")
            va, vb = reference_vector(model, a), reference_vector(model, b)
            if va is None or vb is None:
                continue
            golds.append(float(gold))
            norm = np.linalg.norm(va) * np.linalg.norm(vb)
            cosines.append(float(va @ vb / norm) if norm else 0.0)
        self.counts = (len(golds), len(rows) - len(golds))
        self.spearman = _pearson(_midranks(np.array(golds)), _midranks(np.array(cosines)))

    def check(self, output: list[str]) -> tuple[list[str], float]:
        """Problems with one output, and the Spearman it reports."""
        match = EVAL_LINE.match(output[-1]) if output else None
        if match is None:
            return [f"unparsable eval-sim output {output[-1:]!r}"], math.nan
        rho, counts = float(match[2]), (int(match[3]), int(match[4]))
        problems = []
        if counts != self.counts:
            problems.append(f"eval-sim (used, excluded) = {counts}, expected {self.counts}")
        if not abs(rho - self.spearman) <= 2e-3:
            problems.append(f"eval-sim spearman {rho}, reference {self.spearman:.6f}")
        return problems, rho


class HeldoutLoss:
    """Fixed (sentence, position, negatives) triples scored under a saved model.

    Targets are held-out words with count >= ``min_target_count``; the
    context is the sentence's feature list without that position's unigram
    and without n-grams covering it, as in training.  Negatives are drawn
    from the benchmark's own RNG in proportion to sqrt(count), never equal
    to the target.  The triples depend on the vocabulary only, which every
    session of a run shares, so the loss compares models.
    """

    def __init__(self, model, lines, negatives: int, min_target_count: int,
                 n_triples: int, rng: np.random.Generator) -> None:
        counts = np.array([c for _, c in model.vocab.words], dtype=np.float64)
        eligible = np.nonzero(counts >= min_target_count)[0]
        weights = np.sqrt(counts[eligible])
        probs = weights / weights.sum()
        index = model.vocab.word_index
        encoded = [ids for ids in (known_ids(index, line) for line in lines) if len(ids) >= 2]
        # the sampling loops below would never end without these
        if len(eligible) < 2 or not any(counts[w] >= min_target_count for ids in encoded
                                        for w in ids):
            raise ValueError("held-out text has no target with two eligible words to contrast")
        self.negatives = negatives
        self.triples = []
        while len(self.triples) < n_triples:
            ids = encoded[int(rng.integers(0, len(encoded)))]
            positions = [p for p, w in enumerate(ids) if counts[w] >= min_target_count]
            if not positions:
                continue
            pos = positions[int(rng.integers(0, len(positions)))]
            rows, spans = feature_rows(model, ids)
            n_uni = len(ids)
            context = [r for i, r in enumerate(rows[:n_uni]) if i != pos] + [
                r for r, (lo, hi) in zip(rows[n_uni:], spans) if not lo <= pos <= hi
            ]
            negs = eligible[rng.choice(len(eligible), size=negatives, p=probs)]
            while np.any(negs == ids[pos]):
                clash = negs == ids[pos]
                negs[clash] = eligible[rng.choice(len(eligible), size=int(clash.sum()), p=probs)]
            self.triples.append((np.array(context), np.concatenate([[ids[pos]], negs])))

    @property
    def zero_model_loss(self) -> float:
        """Loss of the all-zero model, (1 + negatives) * ln 2."""
        return (1 + self.negatives) * math.log(2.0)

    def __call__(self, model) -> float:
        source, target = model.matrices.source, model.matrices.target
        total = 0.0
        for context, scored in self.triples:
            v = source[context].astype(np.float64).mean(axis=0)
            scores = target[scored].astype(np.float64) @ v
            scores[0] = -scores[0]
            total += float(np.logaddexp(0.0, scores).sum())
        return total / len(self.triples)
