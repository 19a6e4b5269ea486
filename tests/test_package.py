"""The package's public names."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sentvec

MODULES = sorted(info.name for info in pkgutil.iter_modules(sentvec.__path__))


@pytest.mark.parametrize("name", ["sentvec", *(f"sentvec.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


# the numpy per-step oracle: defined in ``_reference`` alone, next to ``train_chunk``
ORACLE = [
    "LR_FLOOR_FRACTION", "StepOutcome", "_draw", "apply_l1_after_step", "l1_prox",
    "logistic_loss", "lr_schedule", "masked_context", "ngram_dropout", "sample_negatives",
    "sigmoid", "train_step",
]


@pytest.mark.parametrize("name", ORACLE)
def test_step_oracle_lives_in_the_reference_engine(name):
    from sentvec import _reference, model, sampling

    assert name not in sentvec.__all__
    assert hasattr(_reference, name)
    for module in (sentvec, model, sampling):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


# train, embed and eval-sim through ``cli.main`` on the kernel, in one fresh process;
# prints the sentvec modules loaded by the import and after each command, and the exit codes
PROBE = """
import json, sys
import sentvec, sentvec.cli
loaded = [sorted(m for m in sys.modules if m.startswith("sentvec."))]
corpus, model, pairs = sys.argv[1:4]
codes = [sentvec.cli.main(["train", "--input", corpus, "--output", model, "--dim", "8",
                           "--word-ngrams", "2", "--buckets", "64", "--min-count", "1",
                           "--min-target-count", "1", "--epochs", "1"])]
loaded.append(sorted(m for m in sys.modules if m.startswith("sentvec.")))
codes.append(sentvec.cli.main(["embed", "--model", model, "--oov-flag"]))
codes.append(sentvec.cli.main(["eval-sim", "--model", model, "--dataset", pairs]))
loaded.append(sorted(m for m in sys.modules if m.startswith("sentvec.")))
print(json.dumps([codes, loaded]), file=sys.stderr)
"""


def test_kernel_commands_never_load_the_reference(kernel, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c d\nb c d e\nc d e a\nd e a b\n" * 20, encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("1\ta b\tb c\n0\tc d\te zz\n0.5\ta\td e\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(sentvec.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(corpus), str(tmp_path / "m.bin"), str(pairs)],
        input=b"a b c\nzz\n", capture_output=True, env=env, check=True,
    )
    codes, (imported, trained, inferred) = json.loads(proc.stderr.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert len(proc.stdout.splitlines()) == 3  # embed's two lines, then eval-sim's
    assert "sentvec._native" not in imported and "sentvec._reference" not in imported
    assert "sentvec._native" in trained
    assert "sentvec._reference" not in trained + inferred
