"""The sentvec benchmark: seeded user sessions, end-to-end metrics, a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each session is a fresh process (``session.py``) that imports sentvec and
runs ``sentvec train``, then ``sentvec embed --oov-flag`` and ``sentvec
eval-sim`` ``REPEATS`` times each, through ``sentvec.cli.main``.  Sessions
repeat for about ``--seconds`` (at least ``MIN_SESSIONS``) and every output
is checked against a numpy reference.  With ``--trace 1`` every other
session runs with span tracing and the run reports per-layer metrics
instead, plus the tracing overhead.  Inputs are generated here, from the
seed alone, never in the measured process.  The last line of standard
output is one JSON object; ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

import inputs  # noqa: E402

MIN_SESSIONS = 3
MIN_TRACED_SESSIONS = 2
RUN_LIMIT_S = 160.0  # sessions stop here; a whole run must end within 180 s
HELDOUT_TRIPLES = 3_000
CHECKED_EMBED_LINES = 300
REPEATS = 3  # embed and eval-sim runs per session; their walls are pooled
CAL_NOMINAL_S = 0.05  # calibration time of the nominal machine throughputs refer to
PROBE_NOMINAL_S = 0.1  # set-up probe time of the nominal machine setup_s refers to
SETUP_PROBE = (
    "import sys, time; start = float(sys.argv[1]); import numpy; "
    "print(time.perf_counter() - start)"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One session shape; see ``BENCHMARK.json`` for why each exists."""

    train_sentences: int
    train_flags: tuple[str, ...]
    threads: int
    epochs: int
    dim: int
    negatives: int
    min_target_count: int
    heldout_sentences: int
    embed_sentences: int
    pairs: int

    def train_argv(self, corpus: Path, model: Path, nproc: int) -> list[str]:
        return [
            "train", "--input", str(corpus), "--output", str(model),
            *self.train_flags, "--epochs", str(self.epochs),
            "--threads", str(self.threads_used(nproc)),
        ]

    def threads_used(self, nproc: int) -> int:
        return min(self.threads, nproc)


WORKLOADS = {
    "train-uni-1t": Workload(
        train_sentences=3_000,
        train_flags=("--dim", "100", "--neg", "10", "--min-target-count", "8",
                     "--t", "1e-3"),
        threads=1, epochs=1, dim=100, negatives=10, min_target_count=8,
        heldout_sentences=5_000, embed_sentences=5_000, pairs=4_000,
    ),
    "train-bi-2t": Workload(
        train_sentences=1_000,
        train_flags=("--preset", "books-bi", "--t", "1e-3", "--buckets", "20000"),
        threads=2, epochs=1, dim=700, negatives=10, min_target_count=5,
        heldout_sentences=3_000, embed_sentences=300, pairs=600,
    ),
    "embed-bi": Workload(
        train_sentences=1_500,
        train_flags=("--dim", "100", "--neg", "10", "--min-target-count", "8",
                     "--t", "1e-3", "--word-ngrams", "2", "--buckets", "100000"),
        threads=1, epochs=1, dim=100, negatives=10, min_target_count=8,
        heldout_sentences=3_000, embed_sentences=3_000, pairs=2_000,
    ),
}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        head = read(ROOT / ".git" / head[5:])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "cgroup_memory_max": read("/sys/fs/cgroup/memory.max"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": head,
        "loadavg_before": os.getloadavg(),
    }


class Run:
    """Inputs, sessions and checks of one workload at one seed."""

    def __init__(self, name: str, workload: Workload, seed: int, nproc: int) -> None:
        self.name, self.workload, self.seed, self.nproc = name, workload, seed, nproc
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.corpus = self.dir / "corpus.txt"
        self.embed_in = self.dir / "embed.txt"
        self.pairs_tsv = self.dir / "pairs.tsv"
        self.hashes = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sessions: list[dict] = []
        self.heldout_loss = None
        self.model_sha = None
        self.oov_token_rate = None
        self.references = {}
        self._generate()

    def _generate(self) -> None:
        w, seed = self.workload, self.seed
        corpus = inputs.training_corpus(seed, w.train_sentences)
        self.tokens = sum(len(line.split()) for line in corpus)
        lines, topics = inputs.heldout(seed, w.heldout_sentences)
        self.heldout_lines = lines
        self.embed_lines = inputs.embed_lines(
            seed, lines[: w.embed_sentences], oov_rate=0.05,
            n_unknown_lines=max(2, w.embed_sentences // 500),
        )
        self.pair_rows = inputs.similarity_pairs(
            seed, lines, topics, w.pairs, n_unknown=max(2, w.pairs // 500)
        )
        self.hashes["corpus.txt"] = inputs.write_lines(self.corpus, corpus)
        self.hashes["embed.txt"] = inputs.write_lines(self.embed_in, self.embed_lines)
        self.hashes["pairs.tsv"] = inputs.write_lines(self.pairs_tsv, self.pair_rows)
        rng = np.random.default_rng([seed, inputs.PROBES])
        self.embed_sample = rng.choice(
            len(self.embed_lines), size=min(CHECKED_EMBED_LINES, len(self.embed_lines)),
            replace=False,
        )
        self.probe_rng = rng

    def session(self, index: int, trace: bool, deadline: float) -> None:
        """Run one session in a fresh process and check every output."""
        tag = f"s{index}"
        model = self.dir / f"{tag}.model"
        commands = [
            {"name": "train", "argv": self.workload.train_argv(self.corpus, model, self.nproc),
             "stdout": str(self.dir / f"{tag}.train.out")},
        ]
        for r in range(1 if trace else REPEATS):
            commands += [
                {"name": "embed", "argv": ["embed", "--model", str(model), "--oov-flag"],
                 "stdin": str(self.embed_in), "stdout": str(self.dir / f"{tag}.embed{r}.out")},
                {"name": "eval_sim", "argv": ["eval-sim", "--model", str(model),
                                              "--dataset", str(self.pairs_tsv)],
                 "stdout": str(self.dir / f"{tag}.eval{r}.out")},
            ]
        spec = {
            "src": str(SRC),
            "trace": trace,
            "result": str(self.dir / f"{tag}.result.json"),
            "spans": str(self.dir / f"{tag}.spans.json"),
            "commands": commands,
        }
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        problems = [[] for _ in commands]
        # a bare interpreter start plus `import numpy`, timed like the session's set-up
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, repr(start)], stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=max(1.0, deadline - start), check=True,
        )
        probe_s = float(probe.stdout)
        with open(self.dir / f"{tag}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "session.py"), str(spec_path), repr(start)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                timeout=max(1.0, deadline - start), check=False,
            )
        if proc.returncode != 0:
            for found in problems:
                found.append(f"session process exited with {proc.returncode}")
        else:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
            for found, command in zip(problems, result["commands"]):
                if command["code"] != 0:
                    found.append(f"exit code {command['code']}")
            if not any(problems):
                self._check(model, commands, result, problems)
            if not any(problems):  # metrics come only from fully correct sessions
                walls, cals = {}, {}
                for command in result["commands"]:
                    walls.setdefault(command["name"], []).append(command["wall_s"])
                    cals.setdefault(command["name"], []).append(command["cal_s"])
                result.update(walls=walls, cals=cals, trace=trace, spans_path=spec["spans"],
                              model_bytes=model.stat().st_size, probe_s=probe_s)
                self.sessions.append(result)
        model.unlink(missing_ok=True)
        for found, command in zip(problems, commands):
            self.attempted += 1
            self.failed += bool(found)
            self.problems.extend(f"{tag}: {command['name']}: {p}" for p in found[:5])

    def _check(self, model_path: Path, commands: list, result: dict, problems: list) -> None:
        import reference
        from sentvec.trainer import ModelFormatError, load_model

        w = self.workload
        try:
            model = load_model(str(model_path))
        except (OSError, ValueError, ModelFormatError) as err:
            for found in problems:
                found.append(f"model file does not load: {err}")
            return
        found = problems[0]
        found.extend(reference.check_model(model, w.dim))
        digest = None
        if w.threads_used(self.nproc) == 1:
            # a threads=1 run is bit-deterministic, traced or not
            digest = result["model_sha256"] = hashlib.sha256(model_path.read_bytes()).hexdigest()
            self.model_sha = self.model_sha or digest
            if digest != self.model_sha:
                found.append("threads=1 model file differs from the first session's")
        if not found and self.heldout_loss is None:
            try:
                self.heldout_loss = reference.HeldoutLoss(
                    model, self.heldout_lines, w.negatives, w.min_target_count,
                    HELDOUT_TRIPLES, self.probe_rng,
                )
            except ValueError as err:
                found.append(f"no held-out loss: {err}")
        if not found:
            loss = self.heldout_loss(model)
            result["heldout_loss"] = loss
            # 1% below, so a model that learned next to nothing fails too
            if not loss < 0.99 * self.heldout_loss.zero_model_loss:
                found.append(
                    f"held-out loss {loss:.4f} not 1% below the zero model's "
                    f"{self.heldout_loss.zero_model_loss:.4f}"
                )

        if digest is None or digest not in self.references:  # threads=1 shares one model
            self.references = {digest: (
                reference.EmbedReference(model, self.embed_lines, self.embed_sample),
                reference.EvalReference(model, self.pair_rows),
            )}
        embed, evaluation = self.references[digest]
        for found, command in zip(problems[1:], commands[1:]):
            output = Path(command["stdout"]).read_text(encoding="utf-8").splitlines()
            if command["name"] == "embed":
                errors, result["all_oov_lines"] = embed.check(output)
            else:
                errors, result["quality_spearman"] = evaluation.check(output)
            found.extend(errors)

        if self.oov_token_rate is None:
            index = model.vocab.word_index
            tokens = [t for line in self.embed_lines for t in line.split()]
            unknown = sum(t not in index and t.lower() not in index for t in tokens)
            self.oov_token_rate = unknown / len(tokens)

    def timings(self) -> dict[str, list[tuple[float, float]]]:
        """(wall, calibration) seconds of each command over the untraced sessions."""
        pooled: dict[str, list[tuple[float, float]]] = {}
        for s in self.sessions:
            if not s["trace"]:
                for name, walls in s["walls"].items():
                    pooled.setdefault(name, []).extend(zip(walls, s["cals"][name]))
        return pooled

    def end_to_end(self) -> dict[str, float]:
        """Medians over the untraced sessions, repeated commands pooled.

        Each throughput is scaled by the calibration time around its
        command over ``CAL_NOMINAL_S``, and each set-up time by
        ``PROBE_NOMINAL_S`` over the set-up probe started just before its
        session: they read as on a nominal machine, so host-speed drift
        between runs cancels.
        """
        timings = self.timings()
        measured = [s for s in self.sessions if not s["trace"]]

        def rate(count, command):
            return statistics.median(
                count / wall * cal / CAL_NOMINAL_S for wall, cal in timings[command]
            )

        return {
            "train_tokens_per_s": rate(self.tokens * self.workload.epochs, "train"),
            "heldout_loss": statistics.median(s["heldout_loss"] for s in measured),
            "embed_sentences_per_s": rate(len(self.embed_lines), "embed"),
            "eval_pairs_per_s": rate(len(self.pair_rows), "eval_sim"),
            "setup_s": statistics.median(
                s["setup_s"] * PROBE_NOMINAL_S / s["probe_s"] for s in measured),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in measured),
        }

    def per_layer(self) -> dict[str, float]:
        import spans

        traced = [s for s in self.sessions if s["trace"]]
        plain = [s for s in self.sessions if not s["trace"]]
        rows = []
        for s in traced:
            with open(s["spans_path"], encoding="utf-8") as fh:
                row = spans.summarize(json.load(fh))
            row["trainer.model_bytes"] = s["model_bytes"]
            row["evaluation.all_oov_lines"] = s["all_oov_lines"]
            row["evaluation.quality_spearman"] = s["quality_spearman"]
            rows.append(row)
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["evaluation.oov_token_rate"] = self.oov_token_rate

        def command_s(sessions):
            return sum(
                statistics.median(w for s in sessions for w in s["walls"][name])
                for name in sessions[0]["walls"]
            )

        metrics["bench.trace_overhead_share"] = command_s(traced) / command_s(plain) - 1.0
        return metrics

    def measure(self, seconds: float, trace: bool) -> None:
        """Run sessions for about ``seconds``, alternating tracing if asked.

        After the minimum number of sessions, a new one starts only if a
        session of median length still fits.
        """
        started = time.perf_counter()
        deadline = started + RUN_LIMIT_S
        minimum = 2 * MIN_TRACED_SESSIONS if trace else MIN_SESSIONS
        lengths = []
        while len(lengths) < minimum or (
            time.perf_counter() + statistics.median(lengths) <= started + seconds
        ):
            begun = time.perf_counter()
            self.session(len(lengths), trace and len(lengths) % 2 == 1, deadline)
            lengths.append(time.perf_counter() - begun)

    def metrics(self, trace: bool) -> dict[str, dict]:
        """Declared metrics as {name: {"value", "unit"}}; empty if no session passed."""
        traced = any(s["trace"] for s in self.sessions)
        plain = any(not s["trace"] for s in self.sessions)
        if not plain or (trace and not traced):
            return {}
        values = self.per_layer() if trace else self.end_to_end()
        units = declared("per_layer" if trace else "end_to_end")
        return {k: {"value": float(values[k]), "unit": unit} for k, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    run = Run(name, WORKLOADS[name], seed, nproc)
    try:
        run.measure(seconds, trace)
    except subprocess.TimeoutExpired:
        run.attempted += 1
        run.failed += 1
        run.problems.append("a session did not finish before the run's time limit")
    record = {
        "workload": name,
        "seed": seed,
        "threads": run.workload.threads_used(nproc),
        "sessions": [
            {"walls": s["walls"], "cals": s["cals"], "setup_s": s["setup_s"],
             "probe_s": s["probe_s"], "peak_rss_mb": s["peak_rss_mb"], "trace": s["trace"]}
            for s in run.sessions
        ],
        "timings": {
            name: {"runs": len(pairs), "min_s": min(w for w, _ in pairs),
                   "median_s": statistics.median(w for w, _ in pairs),
                   "median_cal_s": statistics.median(c for _, c in pairs)}
            for name, pairs in run.timings().items()
        },
        "inputs_sha256": run.hashes,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(trace),
    }
    shutil.rmtree(run.dir, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sentvec" / "__init__.py").is_file():
        print(f"error: no sentvec package under {SRC}; run from a sentvec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), env["nproc"])
        for name in names
    ]
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    for record in records:
        print(f"workload {record['workload']} seed={record['seed']} "
              f"threads={record['threads']} sessions={len(record['sessions'])} "
              f"fail_rate={record['failed']}/{record['attempted']}")
        for input_name, digest in record["inputs_sha256"].items():
            print(f"  input {input_name} sha256={digest}")
        for name, t in record["timings"].items():
            print(f"  {name}: {t['runs']} runs, wall fastest {t['min_s']:.4g} s, "
                  f"median {t['median_s']:.4g} s; calibration median "
                  f"{t['median_cal_s']:.4g} s")
        for problem in record["problems"]:
            print(f"  FAILED {problem}")
        for metric, value in record["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"results-{args.workload}-{args.seed}-{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "runs": records}, fh, indent=1)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if any(not r["metrics"] for r in records):
        print("error: no session completed; no metrics to report", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
