"""Output correctness gate of the perfbench workloads.

Three kinds of check, all on the bytes a workload execution left behind:

* digests: for the seed recorded in ``digests.json``, the sha256 of every
  stdout and output file must match;
* invariants that hold for any seed (profile counts sum to the total, the
  trace has one line per segment and its edits sum to the printed count,
  printed scores agree with each other, ...);
* a brute-force cross-check of sampled TER segments against the test
  suite's independent oracle (``tests/oracles.py``, imported read-only).

Every check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from gen import COMPARE_SEED, COMPARE_TRIALS, N_BLEU_REFS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("digests.json")
OUTPUT_FILES = {"analyze": ("p.json",), "score-ter": ("t.jsonl",), "compare": (), "score-bleu": ()}
ORACLE_SAMPLES = 6
EDIT_KINDS = {"substitution", "insertion", "deletion"}


def collect(workload: str, directory: Path, stdouts: list[bytes]) -> dict[str, bytes]:
    """Everything one execution produced: stdout of each command plus the
    workload's output files.  The files are removed once read, so a later
    execution that fails to write them cannot pass with stale ones."""
    outputs = {f"stdout.{i}": out for i, out in enumerate(stdouts)}
    for name in OUTPUT_FILES[workload]:
        path = directory / name
        outputs[name] = path.read_bytes() if path.is_file() else b""
        path.unlink(missing_ok=True)
    return outputs


def sha256s(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def digest_errors(workload: str, seed: int, outputs: dict[str, bytes]) -> list[str]:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if recorded is None or recorded["seed"] != seed:
        return []
    got = sha256s(outputs)
    return [f"{workload} seed {seed}: sha256 of {name} is {got.get(name)}, recorded {want}"
            for name, want in recorded["sha256"].items() if got.get(name) != want]


def _guarded(check, workload: str, *args) -> list[str]:
    # Output that does not even parse as the documented format is a failed
    # check, whatever the parser raised on it.
    try:
        return check(*args)
    except Exception as exc:
        return [f"{workload}: malformed output ({type(exc).__name__}: {exc})"]


def invariant_errors(workload: str, outputs: dict[str, bytes], directory: Path) -> list[str]:
    return _guarded(_INVARIANTS[workload], workload, outputs, directory)


def _lines(directory: Path, name: str) -> list[list[str]]:
    return [line.split() for line in (directory / name).read_text(encoding="utf-8").splitlines()]


def _analyze(outputs: dict[str, bytes], directory: Path) -> list[str]:
    profile = json.loads(outputs["p.json"])
    counts = profile["counts"]
    errors = []
    if sum(counts.values()) != profile["total"]:
        errors.append(f"analyze: category counts {counts} do not sum to total {profile['total']}")
    if profile["total"] <= 0:
        errors.append("analyze: noisy post-edits gave a profile with no errors")
    if sum(profile["by_pos"].values()) != counts["morph"]:
        errors.append(f"analyze: by_pos {profile['by_pos']} does not sum to morph {counts['morph']}")
    m = re.fullmatch(r"p\.json: system=(\S+) total=(\d+) \((.*)\)\n", outputs["stdout.0"].decode())
    printed = dict(pair.split("=") for pair in m.group(3).split(", "))
    if (m.group(1), int(m.group(2))) != (profile["system"], profile["total"]) or \
            {k: int(v) for k, v in printed.items()} != counts:
        errors.append(f"analyze: stdout {m.group(0)!r} disagrees with the profile file")
    return errors


def _oracle():
    spec = importlib.util.spec_from_file_location("_edeval_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.greedy_shift_ter_oracle


def _score_ter(outputs: dict[str, bytes], directory: Path) -> list[str]:
    hyps, refs = _lines(directory, "h.txt"), _lines(directory, "r.txt")
    m = re.fullmatch(r"TER = [\d.]+ \(score=(\S+), edits=(\d+), denom=(\S+), segs=(\d+)\)\n",
                     outputs["stdout.0"].decode())
    edits, denom = int(m.group(2)), Fraction(m.group(3))
    records = [json.loads(line) for line in outputs["t.jsonl"].decode().splitlines()]
    errors = []
    if not len(records) == int(m.group(4)) == len(hyps):
        errors.append(f"score-ter: {len(records)} trace lines, {m.group(4)} printed segments, "
                      f"{len(hyps)} input segments")
    if [r["segment"] for r in records] != list(range(len(records))):
        errors.append("score-ter: trace segments are not 0..n-1 in order")
    if sum(r["edits"] for r in records) != edits:
        errors.append(f"score-ter: trace edits sum to {sum(r['edits'] for r in records)}, "
                      f"stdout says {edits}")
    if sum(Fraction(r["denominator_exact"]) for r in records) != denom:
        errors.append("score-ter: trace denominators do not sum to the printed denominator")
    if m.group(1) != repr(float(Fraction(edits) / denom)):
        errors.append(f"score-ter: printed score {m.group(1)} is not edits/denom")
    for r in records:
        if r["edits"] != sum(op["kind"] in EDIT_KINDS for op in r["ops"]) + r["shifts"]:
            errors.append(f"score-ter: segment {r['segment']} edits disagree with its ops")
    oracle = _oracle()
    for i in range(0, len(records), max(1, len(records) // ORACLE_SAMPLES)):
        want = oracle(hyps[i], refs[i])
        got = (records[i]["edits"], records[i]["shifts"])
        if got != want:
            errors.append(f"score-ter: segment {i} (edits, shifts) = {got}, oracle says {want}")
    return errors


_COMPARE = re.compile(
    r"metric = (ter|bleu)\nscore_a = (\S+)\nscore_b = (\S+)\ndiff = (\S+)\n"
    r"p_value = (\S+) \(trials=(\d+), seed=(\d+)\)( ↑)?\n"
)


def parse_compare(stdout: bytes) -> dict:
    m = _COMPARE.fullmatch(stdout.decode())
    return {"metric": m.group(1), "score_a": float(m.group(2)), "score_b": float(m.group(3)),
            "diff": float(m.group(4)), "p_value": float(m.group(5)), "trials": int(m.group(6)),
            "seed": int(m.group(7)), "arrow": m.group(8) is not None}


def _compare(outputs: dict[str, bytes], directory: Path) -> list[str]:
    errors = []
    for key, metric in (("stdout.0", "ter"), ("stdout.1", "bleu")):
        r = parse_compare(outputs[key])
        if (r["metric"], r["trials"], r["seed"]) != (metric, COMPARE_TRIALS, COMPARE_SEED):
            errors.append(f"compare: {key} echoes {r['metric']}/{r['trials']}/{r['seed']}")
        if not 0.0 < r["p_value"] <= 1.0 or r["arrow"] != (r["p_value"] < 0.05):
            errors.append(f"compare {metric}: p_value {r['p_value']} / arrow {r['arrow']}")
        if abs(r["score_a"] - r["score_b"] - r["diff"]) > 1.5e-4:
            errors.append(f"compare {metric}: diff {r['diff']} is not score_a - score_b")
    return errors


def compare_vs_score_errors(outputs: dict[str, bytes], scores: dict[tuple[str, str], bytes]) -> list[str]:
    """compare's score_a/score_b must match `edeval score` on each system.

    ``scores`` maps (metric, "a"|"b") to that `edeval score` run's stdout.
    TER is checked exactly (same 4-decimal rendering of the same float);
    BLEU's score line has two decimals, so agreement is to rounding.
    """
    return _guarded(_compare_vs_score, "compare", outputs, scores)


def _compare_vs_score(outputs: dict[str, bytes], scores: dict[tuple[str, str], bytes]) -> list[str]:
    errors = []
    for key, metric in (("stdout.0", "ter"), ("stdout.1", "bleu")):
        r = parse_compare(outputs[key])
        for side in ("a", "b"):
            line = scores[(metric, side)].decode()
            if metric == "ter":
                score = float(re.search(r"\(score=(\S+),", line).group(1))
                ok = f"{100.0 * score:.4f}" == f"{r['score_' + side]:.4f}"
            else:
                score = float(re.match(r"BLEU = (\S+),", line).group(1))
                ok = abs(score - r["score_" + side]) <= 0.005 + 1e-9
            if not ok:
                errors.append(f"compare {metric}: score_{side} {r['score_' + side]} but "
                              f"`edeval score` says {line.strip()!r}")
    return errors


def _score_bleu(outputs: dict[str, bytes], directory: Path) -> list[str]:
    m = re.fullmatch(
        r"BLEU = (\S+), (\S+)/(\S+)/(\S+)/(\S+) \(BP=(\S+), ratio=(\S+), "
        r"hyp_len=(\d+), ref_len=(\d+)\)\n",
        outputs["stdout.0"].decode(),
    )
    bleu, bp, ratio = float(m.group(1)), float(m.group(6)), float(m.group(7))
    precisions = [float(m.group(i)) for i in range(2, 6)]
    hyp_len, ref_len = int(m.group(8)), int(m.group(9))
    hyps = _lines(directory, "h.txt")
    refs = [_lines(directory, f"r{k + 1}.txt") for k in range(N_BLEU_REFS)]
    lens = [[len(r[i]) for r in refs] for i in range(len(hyps))]
    errors = []
    if hyp_len != sum(map(len, hyps)):
        errors.append(f"score-bleu: hyp_len {hyp_len}, input has {sum(map(len, hyps))} tokens")
    if not sum(map(min, lens)) <= ref_len <= sum(map(max, lens)):
        errors.append(f"score-bleu: ref_len {ref_len} outside the reference length range")
    if f"{hyp_len / ref_len:.3f}" != m.group(7):
        errors.append(f"score-bleu: ratio {ratio} is not hyp_len/ref_len")
    want_bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if f"{want_bp:.3f}" != m.group(6):
        errors.append(f"score-bleu: BP {bp}, expected {want_bp:.3f}")
    geo = math.exp(sum(math.log(p / 100.0) for p in precisions) / 4)
    if not 0.0 <= bleu <= 100.0 or abs(100.0 * bp * geo - bleu) > 0.2:
        errors.append(f"score-bleu: BLEU {bleu} does not follow from its precisions and BP")
    return errors


_INVARIANTS = {
    "analyze": _analyze,
    "score-ter": _score_ter,
    "compare": _compare,
    "score-bleu": _score_bleu,
}
