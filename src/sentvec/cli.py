"""Command-line interface: train / embed / eval-sim / norm-profile / export-vec.

Results go to standard output, logs and progress to standard error.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from .corpus import _check_utf8, _line_blocks, _line_spans
from .evaluation import (
    OovStats,
    SimilarityPairs,
    _all_oov,
    _engine_text,
    arora_weight,
    evaluate_similarity,
    norm_profile,
)
from .trainer import (
    MAX_THREADS,
    PRESETS,
    ModelFormatError,
    TrainConfig,
    _byte_output,
    check_model_path,
    export_text_vectors,
    load_model,
    save_model,
    train,
)

THREADS_ENV_VAR = "SENTVEC_THREADS"

logger = logging.getLogger(__name__)

_DEFAULTS = TrainConfig()

# (flag, TrainConfig field, type, help)
_TRAIN_FLAGS = [
    ("--dim", "dim", int, f"embedding dimension [default: {_DEFAULTS.dim}]"),
    ("--min-count", "min_count", int,
     f"drop words seen fewer times [default: {_DEFAULTS.min_count}]"),
    ("--min-target-count", "min_target_count", int,
     f"minimum count for target/negative words [default: {_DEFAULTS.min_target_count}]"),
    ("--lr", "lr", float, f"initial learning rate [default: {_DEFAULTS.lr}]"),
    ("--epochs", "epochs", int, f"training passes [default: {_DEFAULTS.epochs}]"),
    ("--t", "subsample_t", float,
     f"target subsampling threshold [default: {_DEFAULTS.subsample_t}]"),
    ("--word-ngrams", "word_ngrams", int,
     f"max n-gram order; 1 = unigrams only [default: {_DEFAULTS.word_ngrams}]"),
    ("--buckets", "bucket_count", int,
     f"hash buckets for n-gram rows [default: {_DEFAULTS.bucket_count}]"),
    ("--dropout-k", "dropout_k", int,
     f"n-grams dropped per sentence [default: {_DEFAULTS.dropout_k}]"),
    ("--neg", "negatives", int,
     f"negatives sampled per target [default: {_DEFAULTS.negatives}]"),
    ("--l1", "l1_tau", float,
     f"L1 regularization strength, 0 disables [default: {_DEFAULTS.l1_tau}]"),
    ("--seed", "seed", int, f"random seed [default: {_DEFAULTS.seed}]"),
]


def _default_threads() -> int:
    value = os.environ.get(THREADS_ENV_VAR)
    if value is None:
        return _DEFAULTS.threads
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {value!r}")
    return threads


def _add_train(sub) -> None:
    p_train = sub.add_parser("train", help="train a model from a text corpus")
    p_train.add_argument("--input", required=True,
                         help="corpus path, one sentence per line (.gz accepted)")
    p_train.add_argument("--output", required=True, help="model file to write")
    p_train.add_argument("--preset", choices=sorted(PRESETS),
                         help="load a shipped hyperparameter preset; explicit flags override")
    for flag, _, ftype, helptext in _TRAIN_FLAGS:
        p_train.add_argument(flag, type=ftype, default=None, help=helptext)
    p_train.add_argument("--threads", type=int, default=None,
                         help=f"training threads, at most {MAX_THREADS}; the initial draw "
                              "uses every CPU of the affinity mask "
                              f"[default: ${THREADS_ENV_VAR} or {_DEFAULTS.threads}]")
    p_train.add_argument("--lowercase", action="store_true",
                         help="lowercase all tokens [default: off]")
    p_train.add_argument("--checkpoint", default=None,
                         help="write the model here after every epoch [default: off]")
    p_train.add_argument("--report-every", type=int, default=None,
                         help=f"targets per loss report [default: {_DEFAULTS.report_every}]")
    p_train.set_defaults(func=cmd_train)


def _add_embed(sub) -> None:
    p_embed = sub.add_parser("embed", help="embed stdin sentences, one per line")
    p_embed.add_argument("--model", required=True, help="trained model file")
    p_embed.add_argument("--oov-flag", action="store_true",
                         help="append a 0/1 column marking all-OOV lines [default: off]")
    p_embed.set_defaults(func=cmd_embed)


def _add_eval_sim(sub) -> None:
    p_eval = sub.add_parser("eval-sim", help="similarity correlation on a TSV dataset")
    p_eval.add_argument("--model", required=True, help="trained model file")
    p_eval.add_argument("--dataset", required=True,
                        help="TSV file: score<TAB>sentence_a<TAB>sentence_b")
    p_eval.set_defaults(func=cmd_eval_sim)


def _add_norm_profile(sub) -> None:
    p_norm = sub.add_parser("norm-profile",
                            help="per-word (log frequency, vector norm) table")
    p_norm.add_argument("--model", required=True, help="trained model file")
    p_norm.add_argument("--a", type=float, default=None,
                        help="also emit the static weight a/(a+f) column [default: off]")
    p_norm.add_argument("--output", default="-", help="output path [default: stdout]")
    p_norm.set_defaults(func=cmd_norm_profile)


def _add_export_vec(sub) -> None:
    p_export = sub.add_parser("export-vec", help="write unigram vectors as text")
    p_export.add_argument("--model", required=True, help="trained model file")
    p_export.add_argument("--output", default="-", help="output path [default: stdout]")
    p_export.set_defaults(func=cmd_export_vec)


# each subcommand's parser, added in this order
_COMMANDS = {
    "train": _add_train,
    "embed": _add_embed,
    "eval-sim": _add_eval_sim,
    "norm-profile": _add_norm_profile,
    "export-vec": _add_export_vec,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with ``command``, only that subcommand's parser is built.

    Such a parser prints the full parser's usage, and parses and rejects a
    command line that starts with ``command`` as the full parser does.
    """
    parser = argparse.ArgumentParser(
        prog="sentvec",
        description="Train and query averaged-n-gram sentence embeddings.",
    )
    # the full parser's choices, shown in the usage of one built for a single command
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def cmd_train(args) -> int:
    kwargs = {}
    if args.preset:
        kwargs.update(PRESETS[args.preset])
    for flag, fieldname, _, _ in _TRAIN_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            kwargs[fieldname] = value
    kwargs["threads"] = args.threads if args.threads is not None else _default_threads()
    kwargs["lowercase"] = args.lowercase
    if args.checkpoint is not None:
        kwargs["checkpoint_path"] = args.checkpoint
    if args.report_every is not None:
        kwargs["report_every"] = args.report_every
    config = TrainConfig(**kwargs)
    for flag, path in (("--output", args.output), ("--checkpoint", args.checkpoint)):
        if path is not None:
            check_model_path(path, flag)
    model = train(args.input, config)
    save_model(model, args.output)
    stats = model.stats
    logger.info(
        "trained %d targets in %.1fs, wrote %s",
        stats.targets_processed, stats.elapsed_seconds, args.output,
    )
    return 0


def _log_oov(stats: OovStats) -> None:
    logger.info(
        "embedded %d lines, %d all-OOV, OOV token rate %.4f (%d of %d tokens)",
        stats.lines, stats.all_oov_lines, stats.oov_token_rate,
        stats.oov_tokens, stats.tokens,
    )


def cmd_embed(args) -> int:
    from . import _native

    model = load_model(args.model)
    source = model.matrices.source
    stats = OovStats()
    text = _native.text_buffer(source.shape[1])  # each kernel call fills it with whole lines
    if sys.stdin is None:
        raise ValueError("no standard input to read sentences from (stdin is closed)")
    # stdin's bytes when it has them; the str of a text stdin holds no invalid UTF-8
    stdin = getattr(sys.stdin, "buffer", None)
    lines = 0
    with _byte_output(sys.stdout) as write:
        for block in _line_blocks(sys.stdin if stdin is None else stdin):
            if stdin is not None:
                _check_utf8(block, "stdin", lines)
            starts, ends = _line_spans(block)
            lines += len(ends)
            engine, table, data, starts, ends = _engine_text(model, block, starts, ends)
            known, tokens = [], 0
            for size, fill_known, fill_tokens in engine.embed_rows(
                table, source, model.buckets, model.word_ngrams, data, starts, ends,
                args.oov_flag, text,
            ):
                known.append(fill_known)
                tokens += fill_tokens
                write(text[:size])
            # one count per block: a fill holds as few as 34 lines at dim 700
            _all_oov(np.concatenate(known), tokens, stats)
    _log_oov(stats)
    return 0


def cmd_eval_sim(args) -> int:
    model = load_model(args.model)
    pairs = SimilarityPairs.read(args.dataset)
    stats = OovStats()
    try:
        r, rho, n_used = evaluate_similarity(model, pairs, stats)
    finally:
        _log_oov(stats)
    print(f"pearson={r:.6f} spearman={rho:.6f} n={n_used} "
          f"excluded={len(pairs) - n_used}")
    return 0


def cmd_norm_profile(args) -> int:
    model = load_model(args.model)
    profile = norm_profile(model)
    if args.a is not None:
        arora_weight(1.0, args.a)  # a bad --a fails before --output is created
    with _byte_output(sys.stdout if args.output == "-" else args.output) as write:
        for log_freq, norm in profile:
            line = f"{log_freq:.6g} {norm:.6g}"
            if args.a is not None:
                line += f" {arora_weight(math.exp(log_freq), args.a):.6g}"
            write(f"{line}\n".encode())
    return 0


def cmd_export_vec(args) -> int:
    export_text_vectors(load_model(args.model), sys.stdout if args.output == "-" else args.output)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that names a subcommand first needs only that subcommand's parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ModelFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory {err}".rstrip(), file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
