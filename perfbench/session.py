"""One measured user session, run in a fresh process by ``run.py``.

Usage: python3 perfbench/session.py SPEC.json START

``START`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so ``setup_s``
covers interpreter start plus ``import sentvec``.  Each command of the
spec then runs through ``sentvec.cli.main(argv)`` in-process with stdin
and stdout redirected to files, between two runs of a fixed calibration
kernel.  The session writes its timings, calibrations, peak RSS and, when
traced, its spans to the spec's ``result`` path.
"""

import sys
import time

START = float(sys.argv[2])

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, SPEC["src"])

import sentvec  # noqa: E402
import sentvec.cli  # noqa: E402

SETUP_S = time.perf_counter() - START

import numpy as np  # noqa: E402

# Fixed calibration kernel: the operations sentvec spends its time on
# (string building, dict lookups, fancy indexing, small-array numpy,
# float formatting), on data that never changes.  Its duration tracks the
# machine's momentary speed, which on a shared host drifts by half again
# over minutes.
CAL_PASSES = 360
_CAL_WORDS = {f"w{i:05d}": i for i in range(2_500)}
_CAL_ROWS = np.random.default_rng(0).random((500, 100), dtype=np.float32)


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes."""
    started = time.perf_counter()
    for k in range(CAL_PASSES):
        tokens = [f"w{(k * 7 + i * 13) % 2_600:05d}" for i in range(60)]
        ids = [_CAL_WORDS[t] % 500 for t in tokens if t in _CAL_WORDS]
        rows = _CAL_ROWS[ids]
        v = rows.mean(axis=0)
        (rows[:11] @ v).sum()
        " ".join(format(x, ".6g") for x in v[:40])
    return time.perf_counter() - started


def run_command(main, command: dict) -> dict:
    """Run one command; ``cal_s`` is the calibration time around it."""
    before = calibrate()
    stdin_path = command.get("stdin")
    fin = open(stdin_path, encoding="utf-8") if stdin_path else None
    saved = sys.stdin, sys.stdout
    try:
        with open(command["stdout"], "w", encoding="utf-8") as fout:
            sys.stdin, sys.stdout = fin, fout
            started = time.perf_counter()
            try:
                code = main(command["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a raw traceback is a failed operation, not a crash
                traceback.print_exc()
                code = "exception"
            fout.flush()
            wall = time.perf_counter() - started
    finally:
        sys.stdin, sys.stdout = saved
        if fin is not None:
            fin.close()
    cal = (before + calibrate()) / 2.0
    return {"name": command["name"], "code": code, "wall_s": wall, "cal_s": cal}


def main() -> None:
    calibrate()  # first-call costs stay out of the measured calibrations
    tracer = None
    if SPEC["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(sentvec)
    commands = []
    for command in SPEC["commands"]:
        main_fn = sentvec.cli.main
        if tracer is not None:
            main_fn = tracer.wrap(f"cli.{command['name']}", main_fn)
        commands.append(run_command(main_fn, command))
    result = {
        "setup_s": SETUP_S,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        with open(SPEC["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(SPEC["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
