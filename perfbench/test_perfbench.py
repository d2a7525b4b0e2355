"""Self-tests of the benchmark itself (not of edeval):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SCRATCH = run.WORK / "selftest"
SMALL = {"analyze": 4, "score-ter": 3, "compare": 12, "score-bleu": 20}


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def small_inputs(workload: str, directory: Path) -> Path:
    gen.write_files(gen.workload_files(workload, 5, SMALL[workload]), directory)
    return directory


def outputs_of(workload: str, directory: Path) -> dict[str, bytes]:
    result = run.execute(gen.commands(workload), directory, run.child_env())
    assert result.ok, result.stderrs
    return checks.collect(workload, directory, result.stdouts)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_do_not_depend_on_hash_seed(workload, scratch):
    trees = []
    for hash_seed in ("1", "2"):
        out = scratch / hash_seed
        env = dict(run.child_env(), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, "3", str(out),
                        "--segments", str(SMALL[workload])], env=env, check=True, timeout=120)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]
    assert trees[0]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert gen.workload_files("score-ter", 4, 3) == gen.workload_files("score-ter", 4, 3)
    assert gen.workload_files("score-ter", 4, 3) != gen.workload_files("score-ter", 5, 3)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_gate_accepts_real_outputs(workload, scratch):
    directory = small_inputs(workload, scratch)
    assert checks.invariant_errors(workload, outputs_of(workload, directory), directory) == []


@pytest.mark.parametrize("workload, key, old, new", [
    ("score-ter", "stdout.0", b"edits=", b"edits=1"),
    ("analyze", "stdout.0", b"total=", b"total=9"),
    ("analyze", "p.json", b'"total": ', b'"total": 1'),
    ("compare", "stdout.1", b"score_a = ", b"score_a = 1"),
    ("score-bleu", "stdout.0", b"hyp_len=", b"hyp_len=7"),
])
def test_gate_rejects_mutated_output(workload, key, old, new, scratch):
    directory = small_inputs(workload, scratch)
    outputs = outputs_of(workload, directory)
    assert old in outputs[key]
    mutated = dict(outputs, **{key: outputs[key].replace(old, new, 1)})
    assert checks.invariant_errors(workload, mutated, directory)


def test_digest_rejects_one_changed_byte(scratch, monkeypatch):
    directory = small_inputs("score-bleu", scratch)
    outputs = outputs_of("score-bleu", directory)
    digests = scratch / "digests.json"
    digests.write_text(json.dumps({"score-bleu": {"seed": 5, "sha256": checks.sha256s(outputs)}}))
    monkeypatch.setattr(checks, "DIGESTS", digests)
    assert checks.digest_errors("score-bleu", 5, outputs) == []
    assert checks.digest_errors("score-bleu", 6, {"stdout.0": b"other seed"}) == []
    flipped = outputs["stdout.0"][:-2] + bytes([outputs["stdout.0"][-2] ^ 1]) + b"\n"
    assert checks.digest_errors("score-bleu", 5, {"stdout.0": flipped})


def test_compare_must_match_score_runs(scratch):
    directory = small_inputs("compare", scratch)
    outputs = outputs_of("compare", directory)
    scores = {}
    for metric in ("ter", "bleu"):
        for side in ("a", "b"):
            argv = ["score", "--metric", metric, "--hyp", f"sys-{side}.txt", "--ref", "ref.txt"]
            scores[(metric, side)] = run.execute([argv], directory, run.child_env()).stdouts[0]
    assert checks.compare_vs_score_errors(outputs, scores) == []
    swapped = dict(scores)
    swapped[("ter", "a")], swapped[("ter", "b")] = scores[("ter", "b")], scores[("ter", "a")]
    assert checks.compare_vs_score_errors(outputs, swapped)


def declared_layers() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", ["analyze", "compare", "score-bleu"])
def test_span_tree_is_well_formed(workload, scratch):
    directory = small_inputs(workload, scratch)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        _, _, codes = tracing.run_pass(gen.commands(workload), directory, tracer)
    assert absent == [] and all(code == 0 for code in codes)
    spans = tracer.spans
    assert spans and all(parent < i for i, (_, _, _, parent) in enumerate(spans))
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
        else:
            assert name == "cli.main"
    assert all(t >= 0.0 for t in tracer.self_times().values())
    metrics = tracing.layer_metrics(tracer, absent)
    assert set(metrics) | {"cli.import_s", "trace.overhead_frac"} == declared_layers()


def test_missing_entry_point_is_reported_absent(monkeypatch):
    import edeval._kernels

    monkeypatch.delattr(edeval._kernels, "greedy_shift_ter")
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        pass
    assert absent == ["edeval._kernels.greedy_shift_ter"]
    metrics = tracing.layer_metrics(tracer, absent)
    assert not any(name.startswith("kernels.") for name in metrics)
    assert "ter.mter_calls" in metrics and "ter.mter_self_s" not in metrics


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "score-bleu",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_fails_without_the_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("_work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=scratch,
                          capture_output=True, text=True, timeout=170,
                          env={"PATH": os.environ.get("PATH", os.defpath)})
    assert proc.returncode != 0 and proc.stdout == ""
