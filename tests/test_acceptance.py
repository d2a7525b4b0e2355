"""Acceptance suite: one test per release criterion, at full stated size.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`).  Expected values come from
independent oracles in `oracles.py`, hand-derived fixtures, or exhaustive
enumeration; tolerances are fixed here, not calibrated.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from edeval.bleu import corpus_bleu
from edeval.corpus import (
    Document,
    ReferenceSet,
    Token,
    parse_annotated,
    serialize_annotated,
)
from edeval.significance import approx_randomization
from edeval.taxonomy import classify_edits, error_op_count, normalize, deltas, profile_system
from edeval.ter import MatchMode, mter, ter_single

from helpers import (
    AnnotatedVocab,
    four_error_corpus,
    plain_doc,
    random_annotated_pair,
    random_words,
    perturb,
    seg,
    table4_recurrent_profiles,
)
from oracles import (
    exact_ar_p_value_ter,
    greedy_shift_ter_oracle,
    simple_edit_distance,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------

def test_ter_identity_and_bound_suite():
    with criterion("ter-identity-bound-oracle (<60s)"):
        started = time.perf_counter()
        rng = random.Random(100)

        for _ in range(1000):
            words = random_words(rng, rng.randrange(0, 13))
            score, _ = ter_single(seg(words), seg(words))
            assert score.edits == 0

        for i in range(10_000):
            hyp = random_words(rng, rng.randrange(0, 13), vocab=10)
            ref = (
                perturb(rng, hyp, vocab=10)[:12]
                if i % 2
                else random_words(rng, rng.randrange(0, 13), vocab=10)
            )
            score, script = ter_single(seg(hyp), seg(ref))
            assert score.edits <= simple_edit_distance(hyp, ref)
            assert sum(1 for op in script.ops if op.is_edit) + script.shift_count == score.edits

        for i in range(1000):
            hyp = random_words(rng, rng.randrange(0, 9), vocab=6)
            ref = (
                perturb(rng, hyp, vocab=6)[:8]
                if i % 2
                else random_words(rng, rng.randrange(0, 9), vocab=6)
            )
            score, script = ter_single(seg(hyp), seg(ref))
            assert (score.edits, script.shift_count) == greedy_shift_ter_oracle(hyp, ref)

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_canonical_shift_case():
    with criterion("canonical-shift-0.25"):
        score, script = ter_single(seg("a b c d".split()), seg("a c b d".split()))
        assert score.score == 0.25
        assert script.shift_count == 1
        assert score.edits == 1


def test_mter_law():
    with criterion("mter-min-and-mean-denominator (5000 cases)"):
        rng = random.Random(200)
        for _ in range(5000):
            hyp = random_words(rng, rng.randrange(0, 11), vocab=12)
            refs = [
                perturb(rng, hyp, vocab=12)[:10] if rng.random() < 0.7
                else random_words(rng, rng.randrange(0, 11), vocab=12)
                for _ in range(rng.randrange(1, 5))
            ]
            score, _, chosen = mter(seg(hyp), [seg(r) for r in refs])
            per_ref = [ter_single(seg(hyp), seg(r))[0].edits for r in refs]
            assert score.edits == min(per_ref)
            assert chosen == per_ref.index(min(per_ref))
            total = sum(len(r) for r in refs)
            expected = Fraction(total, len(refs)) if total else Fraction(1)
            assert score.denominator == expected


def test_lemma_dominance():
    with criterion("lemma-dominance (5000 cases)"):
        vocab = AnnotatedVocab()
        rng = random.Random(300)
        for _ in range(5000):
            hyp, ref = random_annotated_pair(rng, vocab)
            lemma_edits = ter_single(hyp, ref, MatchMode.LEMMA)[0].edits
            surface_edits = ter_single(hyp, ref, MatchMode.SURFACE)[0].edits
            assert lemma_edits <= surface_edits, (
                "lemma TER above surface TER: mter should have rerun this "
                "pair on surfaces and kept the rescored surface result. "
                f"hyp={[(t.surface, t.lemma) for t in hyp.tokens]} "
                f"ref={[(t.surface, t.lemma) for t in ref.tokens]} "
                f"lemma_edits={lemma_edits} surface_edits={surface_edits}"
            )


def test_taxonomy_completeness():
    with criterion("taxonomy-completeness (10000 cases + engineered corpus)"):
        vocab = AnnotatedVocab()
        rng = random.Random(400)
        for _ in range(10_000):
            hyp, ref = random_annotated_pair(rng, vocab)
            _, script = ter_single(hyp, ref, MatchMode.LEMMA)
            counts = classify_edits(script)
            assert sum(counts.values()) == error_op_count(script)

        hyp_doc, pe_doc = four_error_corpus()
        profile = profile_system(hyp_doc, ReferenceSet.of(pe_doc), "engineered")
        got = [profile.counts[c] for c in sorted(profile.counts, key=lambda c: c.value)]
        by_value = {c.value: n for c, n in profile.counts.items()}
        assert by_value == {"lexical": 2, "morph": 1, "reordering": 1, "morph_reo": 0}


def test_table4_arithmetic_reproduction():
    with criterion("table4-normalization-and-deltas (±0.01)"):
        profiles = table4_recurrent_profiles()
        normed = {p.system: p for p in normalize(profiles, "NMT")}
        assert normed["NMT"].total_pct == 100.0
        assert abs(normed["M-NMT"].total_pct - 90.31) <= 0.01
        assert abs(normed["ZST"].total_pct - 109.84) <= 0.01
        reports = {d.system: d for d in deltas(list(normed.values()), "NMT")}
        from edeval.taxonomy import ErrorCategory

        assert abs(reports["M-NMT"].deltas[ErrorCategory.LEXICAL] - (-7.64)) <= 0.01
        assert abs(reports["M-NMT"].total_delta - (-9.69)) <= 0.01
        assert abs(reports["ZST"].total_delta - 9.84) <= 0.01


def test_bleu_criteria():
    with criterion("bleu-identity-fixture-nosmoothing"):
        identity = plain_doc([["a", "b", "c", "d", "e"], ["p", "q", "r", "s"]])
        assert corpus_bleu(identity, ReferenceSet.of(identity)).score * 100 == 100.0

        hyps = plain_doc([["a", "b", "c", "d", "e"]])
        refs = plain_doc([["a", "b", "c", "d", "f"]])
        score = corpus_bleu(hyps, ReferenceSet.of(refs))
        assert abs(score.score * 100 - 66.874) <= 0.001

        short = plain_doc([["the", "cat", "sat"]])
        longer = plain_doc([["the", "cat", "sat", "down"]])
        zeroed = corpus_bleu(short, ReferenceSet.of(longer))
        assert zeroed.precisions[3] == 0.0
        assert zeroed.score == 0.0


def test_significance_criteria(tmp_path):
    with criterion("significance-self-enumeration-determinism"):
        stats = [(i % 3, Fraction(4)) for i in range(10)]
        self_cmp = approx_randomization(stats, stats, "ter", trials=1000, seed=4)
        assert self_cmp.p_value == 1.0

        rng = random.Random(500)
        for trial in range(5):
            n = rng.randrange(4, 11)
            a = [(rng.randrange(0, 5), Fraction(rng.randrange(2, 7))) for _ in range(n)]
            b = [(rng.randrange(0, 5), Fraction(rng.randrange(2, 7))) for _ in range(n)]
            exact = exact_ar_p_value_ter(a, b)
            approx = approx_randomization(a, b, "ter", trials=100_000, seed=trial)
            assert abs(approx.p_value - exact) <= 0.01, (approx.p_value, exact)

        one = approx_randomization(a, b, "ter", trials=100_000, seed=77)
        two = approx_randomization(a, b, "ter", trials=100_000, seed=77)
        assert one == two

        # full-stack determinism across thread counts (environment variable)
        ref = tmp_path / "ref.txt"
        sys_a = tmp_path / "a.txt"
        sys_b = tmp_path / "b.txt"
        gen = random.Random(42)
        for path, tag in ((ref, "r"), (sys_a, "a"), (sys_b, "b")):
            with open(path, "w", encoding="utf-8") as fh:
                for i in range(15):
                    words = [f"w{gen.randrange(20)}" for _ in range(8)]
                    if tag != "r":
                        words[gen.randrange(8)] = tag
                    fh.write(" ".join(words) + "\n")
        argv = [sys.executable, "-m", "edeval.cli", "compare", "--metric", "ter",
                "--sys-a", str(sys_a), "--sys-b", str(sys_b), "--ref", str(ref),
                "--trials", "5000", "--seed", "21"]
        outputs = []
        for threads in ("1", "3"):
            env = {**os.environ, "EDEVAL_THREADS": threads, "PYTHONIOENCODING": "utf-8"}
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def test_annotated_format_roundtrip():
    with criterion("annotated-roundtrip (1000 documents)"):
        rng = random.Random(600)
        alphabet = "abcdefäöüß'-"
        for _ in range(1000):
            segments = []
            for _ in range(rng.randrange(0, 7)):
                tokens = []
                for _ in range(rng.randrange(0, 7)):
                    surface = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
                    lemma = "".join(rng.choice(alphabet + " ") for _ in range(rng.randrange(1, 6)))
                    pos = rng.choice(["N", "V", "ADJ", "$.", "PRO N"])
                    tokens.append(Token(surface, lemma, pos))
                segments.append(tokens)
            doc = Document.from_tokens(segments)
            text = serialize_annotated(doc)
            assert parse_annotated(text) == doc
            assert serialize_annotated(parse_annotated(text)) == text


def _build_perf_corpus(n_segments=1000, n_refs=9, avg_len=20):
    rng = random.Random(700)
    vocab = AnnotatedVocab(n_lemmas=2000, n_variants=3)
    common = [f"lem{i}" for i in range(25)]  # function-word-like lemmas

    def sentence(length):
        toks = []
        for _ in range(length):
            lemma = rng.choice(common) if rng.random() < 0.35 else None
            toks.append(vocab.token(rng, lemma))
        return toks

    hyp_segments = [sentence(rng.randrange(avg_len - 5, avg_len + 6)) for _ in range(n_segments)]

    def postedit(tokens):
        out = list(tokens)
        for _ in range(rng.randrange(0, 4)):  # lexical noise
            if out:
                out[rng.randrange(len(out))] = vocab.token(rng)
        for _ in range(rng.randrange(0, 3)):  # morphological noise
            if out:
                i = rng.randrange(len(out))
                out[i] = vocab.reinflect(rng, out[i])
        if out and rng.random() < 0.6:  # block move
            i = rng.randrange(len(out))
            size = min(rng.randrange(1, 4), len(out) - i)
            block = out[i:i + size]
            del out[i:i + size]
            d = rng.randrange(len(out) + 1)
            out[d:d] = block
        if rng.random() < 0.4:
            out.insert(rng.randrange(len(out) + 1), vocab.token(rng))
        return out

    hyps = Document.from_tokens(hyp_segments)
    refs = ReferenceSet(
        tuple(
            Document.from_tokens([postedit(segment) for segment in hyp_segments])
            for _ in range(n_refs)
        )
    )
    return hyps, refs


def test_performance_mter_taxonomy():
    with criterion("performance-1000x9-mter-taxonomy (<10s)"):
        hyps, refs = _build_perf_corpus()
        started = time.perf_counter()
        profile = profile_system(hyps, refs, "perf")
        elapsed = time.perf_counter() - started
        assert profile.total > 0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        print(f"\n[acceptance] performance detail: {elapsed:.2f}s for 1000 segments x 9 refs")
