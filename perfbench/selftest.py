"""Self-tests of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs shrunken copies of the workloads with tracing on every other session
and checks that the counters reconcile, that span self times nest, that
tracing leaves a threads=1 model file byte-identical, and that every
reported metric name is well formed and declared in BENCHMARK.json.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys

import numpy as np

import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

SMALL = {
    "train-uni-1t": dict(train_sentences=1_500, heldout_sentences=600,
                         embed_sentences=500, pairs=300),
    "train-bi-2t": dict(train_sentences=600, heldout_sentences=600, embed_sentences=200,
                        pairs=200, train_flags=run.WORKLOADS["train-bi-2t"].train_flags
                        + ("--buckets", "5000")),
    "embed-bi": dict(train_sentences=1_000, heldout_sentences=800,
                     embed_sentences=800, pairs=300),
}


def check_spans(trace: dict) -> list[str]:
    """Children's self times sum to no more than their parent's wall time."""
    table = np.asarray(trace["spans"], dtype=np.int64).reshape(-1, 7)
    own = spans.self_times(table)
    duration = table[:, 4] - table[:, 3]
    problems = []
    if np.any(own < 0):
        problems.append("negative self time")
    position = {int(i): k for k, i in enumerate(table[:, 0])}
    children_self = np.zeros(len(table), dtype=np.int64)
    for k, parent in enumerate(table[:, 1]):
        if parent >= 0:
            children_self[position[int(parent)]] += own[k]
    if np.any(children_self > duration):
        problems.append("children's self time exceeds the parent's wall time")
    return problems


def check_workload(name: str, nproc: int) -> list[str]:
    workload = dataclasses.replace(run.WORKLOADS[name], **SMALL[name])
    bench = run.Run(f"selftest-{name}", workload, seed=7, nproc=nproc)
    problems = []
    try:
        bench.measure(seconds=0.0, trace=True)
        problems += bench.problems
        traced = [s for s in bench.sessions if s["trace"]]
        plain = [s for s in bench.sessions if not s["trace"]]
        if not traced or not plain:
            return problems + ["missing traced or untraced sessions"]
        for session in traced:
            with open(session["spans_path"], encoding="utf-8") as fh:
                trace = json.load(fh)
            problems += check_spans(trace)
            m = spans.summarize(trace)
            if m["model.train_step_calls"] != m["trainer.targets"] + m["model.skipped_steps"]:
                problems.append(
                    f"train_step calls {m['model.train_step_calls']} != targets "
                    f"{m['trainer.targets']} + skipped {m['model.skipped_steps']}"
                )
            if m["sampling.sample_negatives_calls"] != m["model.train_step_calls"]:
                problems.append("sample_negatives calls != train_step calls")
        if workload.threads_used(nproc) == 1:
            digests = {s["model_sha256"] for s in bench.sessions}
            if len(digests) != 1:
                problems.append("traced and untraced threads=1 model files differ")
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            reported = bench.metrics(trace)
            if set(reported) != set(run.declared(kind)):
                problems.append(f"{kind} metrics differ from BENCHMARK.json")
            problems += [f"bad metric name {k!r}" for k in reported if not NAME.match(k)]
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    return problems


def main() -> int:
    if not run.SRC.joinpath("sentvec", "__init__.py").is_file():
        print(f"error: no sentvec package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    nproc = run.environment()["nproc"]
    failures = 0
    for name in run.WORKLOADS:
        problems = check_workload(name, nproc)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
