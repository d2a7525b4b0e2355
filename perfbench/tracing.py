"""Traced in-process run: spans around every module's public entry points.

Wrappers are installed where each caller looks a name up, not only where
the name is defined: ``cli`` binds the loaders and scorers at import,
``taxonomy`` binds ``corpus_ter_detailed``, ``ter`` reaches the kernel as
``_kernels.greedy_shift_ter``, and ``taxonomy``/``significance`` call
``classify_edits_detailed``/``ar_trial_diffs`` from their own globals.
Nothing inside ``src/`` is edited; the originals are restored after every
pass.

A span is ``[name, start, end, parent_index]`` (parent -1 for the root),
kept in memory for the pass.  Self time is a span's duration minus the
durations of its direct children (the program is single-threaded on this
path, so children never overlap).  An entry point that no longer exists is
reported as absent and the metrics it feeds are left out.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import statistics
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path


def _count_tokens(counts, args, doc):
    counts["corpus.tokens"] += sum(len(seg.tokens) for seg in doc.segments)


def _count_kernel(counts, args, result):
    counts["kernels.edits"] += int(result[0])
    counts["kernels.shifts"] += int(result[1])


def _count_ops(counts, args, result):
    counts["taxonomy.ops"] += len(args[0].ops)


def _count_trials(counts, args, diffs):
    counts["significance.trials"] += len(diffs)


# (module, attribute looked up by the caller, span name, counter, metric
# name prefixes that cannot be computed without this entry point)
SITES = (
    ("edeval.cli", "load_plain", "corpus.load", _count_tokens, ("corpus.",)),
    ("edeval.cli", "load_annotated", "corpus.load", _count_tokens, ("corpus.",)),
    ("edeval.cli", "corpus_ter_detailed", "ter.corpus", None, ()),
    ("edeval.taxonomy", "corpus_ter_detailed", "ter.corpus", None, ()),
    ("edeval.ter", "mter", "ter.mter", None, ("ter.", "kernels.useful_ratio")),
    ("edeval._kernels", "greedy_shift_ter", "kernels.greedy_shift_ter", _count_kernel,
     ("kernels.", "ter.mter_self_s")),
    ("edeval.cli", "profile_system", "taxonomy.profile", None, ()),
    ("edeval.taxonomy", "classify_edits_detailed", "taxonomy.classify", _count_ops,
     ("taxonomy.",)),
    ("edeval.cli", "corpus_bleu", "bleu.corpus", None, ()),
    ("edeval.cli", "corpus_stats", "bleu.corpus", None, ()),
    ("edeval.bleu", "segment_bleu_stats", "bleu.segment", None, ("bleu.",)),
    ("edeval.cli", "approx_randomization", "significance.ar", None, ("significance.self_s",)),
    ("edeval.significance", "ar_trial_diffs", "significance.resample", _count_trials,
     ("significance.",)),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers; yields the entry points that were not found."""
    patched, absent = [], []
    for module_name, attr, span, count, _ in SITES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn, count))
        patched.append((module, attr, fn))
    try:
        yield absent
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).  A module
    the workload does not reach reports zeros."""
    durs, selfs, counts = tracer.durations(), tracer.self_times(), tracer.counts
    parse, mter, kernel = sum(durs["corpus.load"]), durs["ter.mter"], durs["kernels.greedy_shift_ter"]
    resample = sum(durs["significance.resample"])
    metrics = {
        "corpus.parse_s": (parse, "s"),
        "corpus.tokens": (counts["corpus.tokens"], "count"),
        "corpus.tokens_per_s": (_ratio(counts["corpus.tokens"], parse), "1/s"),
        "ter.mter_calls": (len(mter), "count"),
        "ter.mter_s": (sum(mter), "s"),
        "ter.mter_self_s": (selfs["ter.mter"], "s"),
        "ter.seg_p50_ms": (1e3 * _percentile(mter, 50), "ms"),
        "ter.seg_p99_ms": (1e3 * _percentile(mter, 99), "ms"),
        "kernels.calls": (len(kernel), "count"),
        "kernels.busy_s": (sum(kernel), "s"),
        "kernels.pair_p99_ms": (1e3 * _percentile(kernel, 99), "ms"),
        "kernels.useful_ratio": (_ratio(len(mter), len(kernel)), "ratio"),
        "kernels.shifts": (counts["kernels.shifts"], "count"),
        "kernels.edits": (counts["kernels.edits"], "count"),
        "taxonomy.classify_s": (sum(durs["taxonomy.classify"]), "s"),
        "taxonomy.ops": (counts["taxonomy.ops"], "count"),
        "bleu.stats_s": (sum(durs["bleu.segment"]), "s"),
        "bleu.segments": (len(durs["bleu.segment"]), "count"),
        "significance.resample_s": (resample, "s"),
        "significance.trials_per_s": (_ratio(counts["significance.trials"], resample), "1/s"),
        "significance.self_s": (selfs["significance.ar"], "s"),
        "cli.self_s": (selfs["cli.main"], "s"),
    }
    lost = tuple(p for module, attr, _, _, feeds in SITES if f"{module}.{attr}" in absent
                 for p in feeds)
    return {k: v for k, v in metrics.items() if not k.startswith(lost)}


def run_pass(commands: list[list[str]], directory: Path, tracer: Tracer | None = None):
    """Run the workload's commands through ``edeval.cli.main`` in this
    process; returns (wall seconds, stdout bytes per command, exit codes)."""
    import edeval.cli

    main = edeval.cli.main if tracer is None else tracer.wrap("cli.main", edeval.cli.main)
    stdouts, codes = [], []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        start = time.perf_counter()
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    codes.append(main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception:
                    # What a child process would die of: report it, count it as exit 1.
                    traceback.print_exc()
                    codes.append(1)
            stdouts.append(buf.getvalue().encode("utf-8"))
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return wall, stdouts, codes


def measure(commands: list[list[str]], directory: Path, seconds: float, collect):
    """Alternate untraced and traced passes (swapping which goes first) while
    another pair still fits in `seconds`, at least one pair.  Returns the
    per-layer metrics (median over traced passes) with trace.overhead_frac,
    the absent entry points, (collect(stdouts), exit codes) of every pass in
    order (the first is untraced), and the last pass's tracer."""
    untraced, traced, layers, passes = [], [], [], []
    absent: list[str] = []
    tracer = None
    start = last = time.perf_counter()
    while True:
        for use_tracer in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if use_tracer:
                tracer = Tracer()
                with installed(tracer) as absent:
                    wall, outs, codes = run_pass(commands, directory, tracer)
                traced.append(wall)
                layers.append(layer_metrics(tracer, absent))
            else:
                wall, outs, codes = run_pass(commands, directory)
                untraced.append(wall)
            passes.append((collect(outs), codes))
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            break
        last = now
    base = statistics.median(untraced)
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_frac"] = ((statistics.median(traced) - base) / base, "ratio")
    return metrics, absent, passes, tracer
