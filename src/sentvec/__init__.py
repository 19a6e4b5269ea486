"""Unsupervised sentence embeddings from averaged unigram and n-gram vectors.

Training predicts held-out words from the rest of their sentence with
negative sampling; the learned source vectors compose sentence embeddings
by plain averaging, making inference a single sparse matrix lookup.
"""

from .corpus import (
    Vocabulary,
    build_vocab,
    encode_corpus,
    iter_corpus,
    ngram_bucket_ids,
    ngram_hash,
    sentence_ngrams,
    tokenize,
)
from .evaluation import (
    OovStats,
    SimilarityPairs,
    arora_weight,
    cosine,
    embed_batch,
    embed_sentence,
    evaluate_similarity,
    norm_profile,
    pair_features,
    pearson,
    spearman,
    write_pair_features,
)
from .model import EmbeddingMatrices
from .sampling import (
    AliasTable,
    build_negative_table,
    discard_keep_prob,
    negative_prob,
)
from .trainer import (
    PRESETS,
    ModelFormatError,
    TrainConfig,
    TrainedModel,
    TrainingStats,
    export_text_vectors,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AliasTable",
    "EmbeddingMatrices",
    "ModelFormatError",
    "OovStats",
    "PRESETS",
    "SimilarityPairs",
    "TrainConfig",
    "TrainedModel",
    "TrainingStats",
    "Vocabulary",
    "arora_weight",
    "build_negative_table",
    "build_vocab",
    "cosine",
    "discard_keep_prob",
    "embed_batch",
    "embed_sentence",
    "encode_corpus",
    "evaluate_similarity",
    "export_text_vectors",
    "iter_corpus",
    "load_model",
    "negative_prob",
    "ngram_bucket_ids",
    "ngram_hash",
    "norm_profile",
    "pair_features",
    "pearson",
    "save_model",
    "sentence_ngrams",
    "spearman",
    "tokenize",
    "train",
    "write_pair_features",
]
