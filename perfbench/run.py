"""The edeval benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Inputs are generated from --seed (see gen.py) under perfbench/_work/.  With
--trace 0 the real ``edeval`` CLI runs as child processes, one at a time
(closed loop, one client): each round is one execution of the workload's
command(s) on the full input followed by set-up starts on a one-segment
input of the same kind for a quarter of that execution's wall time (so the
starts are spread over the whole run), repeated while another round still
fits in --seconds.  Every output is checked (checks.py); the end-to-end
metrics are medians over rounds.
With --trace 1 the workload instead runs in-process under tracing.py and
the per-layer metrics are reported.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment record, raw samples and any check failures.  The exit code
is 1 when a check failed and 2 when the edeval sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_SHARE = 0.25  # set-up starts after a round take this share of its wall time
MIN_SETUP_STARTS_PER_ROUND = 3
MIN_SETUP_STARTS = 15
IMPORT_STARTS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import edeval.cli; "
                "print(time.perf_counter() - t)")
THREAD_VARS = ("EDEVAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def child_env(threads: int | None = None) -> dict[str, str]:
    """The fixed environment of every child; EDEVAL_THREADS only on request."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "LANG": "C.UTF-8", "LC_ALL": "C.UTF-8",
           "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "PYTHONIOENCODING": "utf-8"}
    if threads is not None:
        env["EDEVAL_THREADS"] = str(threads)
    return env


@dataclass
class Run:
    """One execution: wall and CPU seconds, peak RSS, and per-process results."""

    wall: float
    cpu: float
    rss_mb: float
    codes: list
    stdouts: list[bytes]
    stderrs: list[bytes]

    @property
    def ok(self) -> bool:
        return all(code == 0 for code in self.codes)


def spawn(args: list[str], cwd: Path, env: dict[str, str]) -> Run:
    """Run ``python <args>`` in cwd and wait for it; resource use from wait4."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   [proc.returncode], [out.read()], [err.read()])


def execute(commands: list[list[str]], cwd: Path, env: dict[str, str]) -> Run:
    """Run a workload's edeval commands one after the other."""
    runs = [spawn(["-m", "edeval.cli", *argv], cwd, env) for argv in commands]
    return Run(sum(r.wall for r in runs), sum(r.cpu for r in runs), max(r.rss_mb for r in runs),
               [c for r in runs for c in r.codes], [s for r in runs for s in r.stdouts],
               [s for r in runs for s in r.stderrs])


class Ledger:
    """Attempted and failed executions plus the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, n: int, ok: bool, error: str | None = None) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if error:
                self.errors.append(error)

    def add_run(self, what: str, run: Run) -> None:
        tail = b"".join(run.stderrs).decode("utf-8", "replace").strip()[-300:]
        self.add(len(run.codes), run.ok, f"{what}: exit codes {run.codes}: {tail}")


def environment() -> dict:
    """The record printed with every result."""
    import numpy

    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_commit": commit or None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_env": child_env(),
    }


def prepare(workload: str, seed: int) -> tuple[Path, Path]:
    import gen

    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    full, one = base / "full", base / "one"
    gen.write_files(gen.workload_files(workload, seed), full)
    gen.write_files(gen.workload_files(workload, seed, 1), one)
    return full, one


def check_outputs(workload: str, seed: int, full: Path, reference: dict[str, bytes],
                  ledger: Ledger) -> list[str]:
    """Checks of the reference outputs that hold for every seed, the recorded
    digests, and for compare the cross-runs (`edeval score` per system, and
    the same compare with EDEVAL_THREADS=2, which must be byte-identical)."""
    import checks
    import gen

    errors = checks.invariant_errors(workload, reference, full)
    errors += checks.digest_errors(workload, seed, reference)
    if workload == "compare" and not errors:
        scores = {}
        for metric in ("ter", "bleu"):
            for side in ("a", "b"):
                run = execute([["score", "--metric", metric, "--hyp", f"sys-{side}.txt",
                                "--ref", "ref.txt"]], full, child_env())
                ledger.add_run(f"score --metric {metric} sys-{side}", run)
                if run.ok:
                    scores[(metric, side)] = run.stdouts[0]
        if len(scores) == 4:
            errors += checks.compare_vs_score_errors(reference, scores)
        threaded = execute(gen.commands(workload), full, child_env(threads=2))
        same = checks.collect(workload, full, threaded.stdouts) == reference
        ledger.add(len(threaded.codes), threaded.ok and same,
                   "compare with EDEVAL_THREADS=2 is not byte-identical")
    return errors


def timed(workload: str, seed: int, seconds: float, ledger: Ledger):
    """End-to-end metrics with tracing off."""
    import checks
    import gen

    full, one = prepare(workload, seed)
    commands, env = gen.commands(workload), child_env()
    ledger.add_run("warm-up start", execute(commands, one, env))
    runs, outputs, setups = [], [], []

    def set_up():
        setup = execute(commands, one, env)
        ledger.add_run("set-up start", setup)
        setups.append(setup.wall)

    start = last = time.perf_counter()
    while True:
        run = execute(commands, full, env)
        runs.append(run)
        outputs.append(checks.collect(workload, full, run.stdouts))
        block_end = time.perf_counter() + SETUP_SHARE * run.wall
        for _ in range(MIN_SETUP_STARTS_PER_ROUND):
            set_up()
        while time.perf_counter() < block_end:
            set_up()
        now = time.perf_counter()
        if now - start + (now - last) > seconds:  # another round would overrun
            break
        last = now
    while len(setups) < MIN_SETUP_STARTS:
        set_up()
    reference = outputs[0]
    errors = check_outputs(workload, seed, full, reference, ledger)
    ledger.errors += errors
    for i, (run, out) in enumerate(zip(runs, outputs)):
        if not run.ok:
            ledger.add_run(f"round {i}", run)
        else:
            ledger.add(len(run.codes), out == reference and not errors,
                       f"round {i}: outputs differ from round 0" if out != reference else None)
    wall = statistics.median(r.wall for r in runs)
    setup_s = statistics.median(setups)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "items_per_s": (gen.items(workload) / (wall - setup_s), "1/s"),
        "cpu_s": (statistics.median(r.cpu for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
    }
    samples = {"wall_s": [r.wall for r in runs], "setup_s": setups,
               "cpu_s": [r.cpu for r in runs], "peak_rss_mb": [r.rss_mb for r in runs]}
    return metrics, samples, []


def traced(workload: str, seed: int, seconds: float, ledger: Ledger):
    """Per-layer metrics from in-process passes; the first (untraced) pass's
    outputs go through the same checks as a child's, and every later pass
    must reproduce them byte for byte."""
    import checks
    import gen
    import tracing

    full, one = prepare(workload, seed)
    commands = gen.commands(workload)
    os.environ.pop("EDEVAL_THREADS", None)  # same single-thread path as the children
    tracing.run_pass(commands, one)  # imports and first calls, outside the measurement
    metrics, absent, passes, tracer = tracing.measure(
        commands, full, seconds, lambda stdouts: checks.collect(workload, full, stdouts))
    reference = passes[0][0]
    errors = check_outputs(workload, seed, full, reference, ledger)
    ledger.errors += errors
    for i, (outputs, codes) in enumerate(passes):
        ok = all(code == 0 for code in codes) and outputs == reference and not errors
        ledger.add(len(codes), ok, None if errors else f"in-process pass {i}: exit codes "
                   f"{codes} or outputs differ from pass 0")
    imports = []
    for _ in range(IMPORT_STARTS):
        probe = spawn(["-c", IMPORT_PROBE], full, child_env())
        ledger.add_run("import probe", probe)
        if probe.ok:
            imports.append(float(probe.stdouts[0]))
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    with open(full / "spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    return metrics, {"cli.import_s": imports}, absent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="edeval benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True,
                    choices=["analyze", "score-ter", "compare", "score-bleu"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "edeval" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: edeval sources or test oracles missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ledger = Ledger()
    env_record = environment()
    if args.trace:
        metrics, samples, absent = traced(args.workload, args.seed, args.seconds, ledger)
    else:
        metrics, samples, absent = timed(args.workload, args.seed, args.seconds, ledger)
    correct = not ledger.errors and ledger.failed == 0
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fail_frac": ledger.failed / ledger.attempted, "errors": ledger.errors[:20],
              "absent": absent, "samples": samples, "environment": env_record}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
