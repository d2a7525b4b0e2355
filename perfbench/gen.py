"""Seeded input generator for the perfbench workloads.

Every input is a pure function of (workload, seed, size): the random
streams come from ``random.Random`` seeded with an int or a str (the str
form hashes with SHA-512, not the salted builtin ``hash``), and POS tags
come from CRC-32 of the lemma.  Files are written through edeval's own
serializers, so they are valid input by construction.

Usage (writes the workload's files into DIR):

    PYTHONPATH=src python3 perfbench/gen.py WORKLOAD SEED DIR [--segments N]
"""

from __future__ import annotations

import argparse
import itertools
import random
import zlib
from pathlib import Path

from edeval.corpus import Document, Token, serialize_annotated, serialize_plain

POS_TAGS = ("N", "V", "ADJ", "ADV", "PRO")

# Reference sizes per workload (segments); see README.md for how they were
# scaled from the ROADMAP sizes to fit the benchmark's run length.
SEGMENTS = {"analyze": 300, "score-ter": 100, "compare": 800, "score-bleu": 4000}
WORKLOADS = tuple(SEGMENTS)
N_POSTEDITS = 9
N_BLEU_REFS = 4
COMPARE_TRIALS = 10000
COMPARE_SEED = 42


def _pos(lemma: str) -> str:
    return POS_TAGS[zlib.crc32(lemma.encode("utf-8")) % len(POS_TAGS)]


class Lexicon:
    """Lemmas with three surface variants each; consumes the random stream
    exactly like the acceptance suite's annotated vocabulary, but tags POS
    with a stable function of the lemma."""

    def __init__(self, n_lemmas: int, n_variants: int = 3):
        self.lemmas = [f"lem{i}" for i in range(n_lemmas)]
        self.n_variants = n_variants

    def token(self, rng: random.Random, lemma: str | None = None) -> Token:
        if lemma is None:
            lemma = rng.choice(self.lemmas)
        variant = rng.randrange(self.n_variants)
        surface = lemma if variant == 0 else f"{lemma}.{variant}"
        return Token(surface, lemma, _pos(lemma))


class Zipf:
    """Word sampler with rank-frequency weight 1/rank**exponent."""

    def __init__(self, size: int, exponent: float = 1.0):
        self.words = [f"w{r}" for r in range(size)]
        self.cum = list(itertools.accumulate((r + 1) ** -exponent for r in range(size)))

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def perf_corpus(rng: random.Random, n_segments: int, n_refs: int = N_POSTEDITS,
                avg_len: int = 20) -> tuple[Document, list[Document]]:
    """The acceptance perf-corpus recipe: 2000 lemmas x 3 surfaces, 35 % of
    tokens from 25 function-word lemmas, post-edits with lexical,
    morphological, block-move and insertion noise."""
    vocab = Lexicon(2000)
    common = [f"lem{i}" for i in range(25)]

    def sentence(length):
        return [vocab.token(rng, rng.choice(common) if rng.random() < 0.35 else None)
                for _ in range(length)]

    hyp_segments = [sentence(rng.randrange(avg_len - 5, avg_len + 6)) for _ in range(n_segments)]

    def postedit(tokens):
        out = list(tokens)
        for _ in range(rng.randrange(0, 4)):
            if out:
                out[rng.randrange(len(out))] = vocab.token(rng)
        for _ in range(rng.randrange(0, 3)):
            if out:
                i = rng.randrange(len(out))
                out[i] = vocab.token(rng, out[i].lemma)
        if out and rng.random() < 0.6:
            _move_block(rng, out, 3)
        if rng.random() < 0.4:
            out.insert(rng.randrange(len(out) + 1), vocab.token(rng))
        return out

    hyps = Document.from_tokens(hyp_segments)
    refs = [Document.from_tokens([postedit(s) for s in hyp_segments]) for _ in range(n_refs)]
    return hyps, refs


def _move_block(rng: random.Random, out: list, max_size: int) -> None:
    i = rng.randrange(len(out))
    size = min(rng.randrange(1, max_size + 1), len(out) - i)
    block = out[i:i + size]
    del out[i:i + size]
    d = rng.randrange(len(out) + 1)
    out[d:d] = block


def perturb(rng: random.Random, words: list[str], zipf: Zipf, subs: int, indels: int) -> list[str]:
    """Exactly `subs` substitutions, one block move, then `indels` insertions
    and `indels` deletions (fixed counts keep the work per segment steady)."""
    out = list(words)
    for _ in range(subs):
        out[rng.randrange(len(out))] = zipf.sample(rng, 1)[0]
    _move_block(rng, out, 4)
    for _ in range(indels):
        out.insert(rng.randrange(len(out) + 1), zipf.sample(rng, 1)[0])
    for _ in range(indels):
        del out[rng.randrange(len(out))]
    return out


def lengths(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """n lengths spread evenly over [low, high], in seeded order."""
    out = [low + i * (high - low + 1) // n for i in range(n)]
    rng.shuffle(out)
    return out


def _plain(lines: list[list[str]]) -> str:
    return serialize_plain(Document.from_tokens([Token(w) for w in ws] for ws in lines))


def workload_files(workload: str, seed: int, n_segments: int | None = None) -> dict[str, str]:
    """File name -> text for one workload's inputs."""
    n = SEGMENTS[workload] if n_segments is None else n_segments
    if workload == "analyze":
        hyps, pes = perf_corpus(random.Random(seed), n)
        files = {"h.ann": serialize_annotated(hyps)}
        files.update((f"pe{k + 1}.ann", serialize_annotated(d)) for k, d in enumerate(pes))
        return files
    rng = random.Random(f"{workload}:{seed}")
    if workload == "score-ter":
        zipf = Zipf(2000)
        hyps = [zipf.sample(rng, k) for k in lengths(rng, n, 30, 50)]
        refs = [perturb(rng, h, zipf, subs=2, indels=1) for h in hyps]
        return {"h.txt": _plain(hyps), "r.txt": _plain(refs)}
    if workload == "compare":
        zipf = Zipf(3000)
        refs = [zipf.sample(rng, k) for k in lengths(rng, n, 5, 15)]
        sys_a = [perturb(rng, r, zipf, subs=2, indels=1) for r in refs]
        sys_b = [perturb(rng, r, zipf, subs=2, indels=1) for r in refs]
        return {"sys-a.txt": _plain(sys_a), "sys-b.txt": _plain(sys_b), "ref.txt": _plain(refs)}
    if workload == "score-bleu":
        zipf = Zipf(5000)
        hyps = [zipf.sample(rng, k) for k in lengths(rng, n, 15, 40)]
        files = {"h.txt": _plain(hyps)}
        for k in range(N_BLEU_REFS):
            refs = [perturb(rng, h, zipf, subs=8, indels=2) for h in hyps]
            files[f"r{k + 1}.txt"] = _plain(refs)
        return files
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str) -> list[list[str]]:
    """edeval argument lists of one workload execution, run in the input dir."""
    if workload == "analyze":
        pes = [f"pe{k + 1}.ann" for k in range(N_POSTEDITS)]
        return [["analyze", "--hyp", "h.ann", "--pe", *pes, "--out", "p.json"]]
    if workload == "score-ter":
        return [["score", "--metric", "ter", "--hyp", "h.txt", "--ref", "r.txt",
                 "--trace", "t.jsonl"]]
    if workload == "compare":
        return [["compare", "--metric", metric, "--sys-a", "sys-a.txt", "--sys-b", "sys-b.txt",
                 "--ref", "ref.txt", "--trials", str(COMPARE_TRIALS), "--seed", str(COMPARE_SEED)]
                for metric in ("ter", "bleu")]
    if workload == "score-bleu":
        refs = [f"r{k + 1}.txt" for k in range(N_BLEU_REFS)]
        return [["score", "--metric", "bleu", "--hyp", "h.txt", "--ref", *refs]]
    raise ValueError(f"unknown workload {workload!r}")


def items(workload: str) -> int:
    """Work items of one execution: hyp-post-edit pairs for analyze,
    resampling trials (both metrics) for compare, segments otherwise."""
    if workload == "analyze":
        return SEGMENTS[workload] * N_POSTEDITS
    if workload == "compare":
        return 2 * COMPARE_TRIALS
    return SEGMENTS[workload]


def write_files(files: dict[str, str], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_bytes(text.encode("utf-8"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("directory", type=Path)
    ap.add_argument("--segments", type=int)
    args = ap.parse_args()
    write_files(workload_files(args.workload, args.seed, args.segments), args.directory)


if __name__ == "__main__":
    main()
