import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edeval.bleu import (
    bleu_corpus_score,
    corpus_bleu,
    corpus_stats,
    format_multi_bleu_line,
    segment_bleu_stats,
    sum_stats,
)
from edeval.corpus import ReferenceSet
from edeval.errors import ShapeError

from helpers import perturb, plain_doc, seg


def test_identity_corpus_is_100():
    doc = plain_doc([["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]])
    score = corpus_bleu(doc, ReferenceSet.of(doc))
    assert score.score == 1.0
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.brevity_penalty == 1.0


def test_no_smoothing_zero_fourgram_zeroes_score():
    hyps = plain_doc([["the", "cat", "sat"]])
    refs = plain_doc([["the", "cat", "sat", "down"]])
    score = corpus_bleu(hyps, ReferenceSet.of(refs))
    assert score.precisions[:3] == (1.0, 1.0, 1.0)
    assert score.precisions[3] == 0.0
    assert score.score == 0.0


def test_hand_counted_fixture():
    hyps = plain_doc([["a", "b", "c", "d", "e"]])
    refs = plain_doc([["a", "b", "c", "d", "f"]])
    score = corpus_bleu(hyps, ReferenceSet.of(refs))
    assert score.precisions == (4 / 5, 3 / 4, 2 / 3, 1 / 2)
    assert score.brevity_penalty == 1.0
    assert score.score * 100 == pytest.approx(66.874, abs=1e-3)
    line = format_multi_bleu_line(score)
    assert line == (
        "BLEU = 66.87, 80.0/75.0/66.7/50.0 "
        "(BP=1.000, ratio=1.000, hyp_len=5, ref_len=5)"
    )


def test_segment_order_permutation_invariance():
    rng = random.Random(2)
    lines = [[f"w{rng.randrange(6)}" for _ in range(6)] for _ in range(5)]
    refs = [[f"w{rng.randrange(6)}" for _ in range(6)] for _ in range(5)]
    base = corpus_bleu(plain_doc(lines), ReferenceSet.of(plain_doc(refs)))
    perm = [3, 1, 4, 0, 2]
    shuffled = corpus_bleu(
        plain_doc([lines[i] for i in perm]),
        ReferenceSet.of(plain_doc([refs[i] for i in perm])),
    )
    assert base == shuffled


def test_degradation_is_monotone():
    hyp = ["a", "b", "c", "d", "e", "f"]
    refs = ReferenceSet.of(plain_doc([hyp]))
    perfect = corpus_bleu(plain_doc([hyp]), refs)
    worse = corpus_bleu(plain_doc([["a", "b", "c", "d", "e", "UNSEEN"]]), refs)
    assert worse.score < perfect.score


def test_brevity_penalty():
    hyps = plain_doc([["a", "b", "c"]])
    refs = plain_doc([["a", "b", "c", "d"]])
    score = corpus_bleu(hyps, ReferenceSet.of(refs))
    assert score.brevity_penalty == pytest.approx(math.exp(1 - 4 / 3))


def test_effective_length_closest_tie_shorter():
    hyp = seg(["a", "b", "c"])
    stats = segment_bleu_stats(hyp, [seg(["a", "b"]), seg(["a", "b", "c", "d"])])
    assert stats.ref_len == 2
    stats = segment_bleu_stats(hyp, [seg(["a", "b", "c", "d"]), seg(["a", "b"])])
    assert stats.ref_len == 2
    stats = segment_bleu_stats(hyp, [seg(["a", "b", "c", "d"]), seg(["q"])])
    assert stats.ref_len == 4


def test_multi_reference_clipping():
    hyp = seg(["a", "a", "b"])
    stats = segment_bleu_stats(hyp, [seg(["a", "b"]), seg(["a", "a"])])
    # unigram clip: max ref count of "a" is 2, of "b" is 1
    assert stats.matches[0] == 3
    assert stats.totals[0] == 3


def test_empty_hypothesis_segment_is_legal():
    hyps = plain_doc([[], ["a", "b", "c", "d"]])
    refs = plain_doc([["x"], ["a", "b", "c", "d"]])
    score = corpus_bleu(hyps, ReferenceSet.of(refs))
    assert 0.0 <= score.score <= 1.0


def test_all_empty_hypothesis_scores_zero():
    hyps = plain_doc([[]])
    refs = plain_doc([["a", "b"]])
    score = corpus_bleu(hyps, ReferenceSet.of(refs))
    assert score.score == 0.0
    assert score.brevity_penalty == 0.0


def test_shape_and_empty_corpus_errors():
    with pytest.raises(ShapeError):
        corpus_bleu(plain_doc([["a"]]), ReferenceSet.of(plain_doc([["a"], ["b"]])))
    with pytest.raises(ValueError):
        corpus_bleu(plain_doc([]), ReferenceSet.of(plain_doc([])))


def test_stats_recomputation_identity():
    rng = random.Random(4)
    lines = [[f"w{rng.randrange(8)}" for _ in range(rng.randrange(1, 9))] for _ in range(12)]
    refs = [[f"w{rng.randrange(8)}" for _ in range(rng.randrange(1, 9))] for _ in range(12)]
    hyps = plain_doc(lines)
    refset = ReferenceSet.of(plain_doc(refs))
    from_stats = bleu_corpus_score(sum_stats(corpus_stats(hyps, refset)))
    assert from_stats == corpus_bleu(hyps, refset)


def test_score_bounds_fuzz():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(1, 5)
        hyps = plain_doc(
            [[f"w{rng.randrange(5)}" for _ in range(rng.randrange(0, 7))] for _ in range(n)]
        )
        refs = plain_doc(
            [[f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 7))] for _ in range(n)]
        )
        score = corpus_bleu(hyps, ReferenceSet.of(refs))
        assert 0.0 <= score.score <= 1.0


def test_smoothing_flag():
    hyps = plain_doc([["the", "cat", "sat"]])
    refs = ReferenceSet.of(plain_doc([["the", "cat", "sat", "down"]]))
    plain = corpus_bleu(hyps, refs)
    smoothed = corpus_bleu(hyps, refs, smooth=True)
    assert plain.score == 0.0
    assert smoothed.score > 0.0


def test_ignore_case():
    hyps = plain_doc([["The", "Cat", "Sat", "Down"]])
    refs = ReferenceSet.of(plain_doc([["the", "cat", "sat", "down"]]))
    assert corpus_bleu(hyps, refs).score == 0.0
    assert corpus_bleu(hyps, refs, ignore_case=True).score == 1.0


# -- the corpus path against the per-segment definition ------------------------

# Hypotheses draw from a small mixed-case alphabet, so n-grams repeat and case
# folding matters; references add words that no hypothesis contains.
hyp_word_st = st.sampled_from(["a", "A", "b", "B", "c"])
ref_word_st = st.sampled_from(["a", "A", "b", "B", "c", "x", "X", "y"])


@st.composite
def bleu_corpus_st(draw):
    n_segs = draw(st.integers(1, 5))
    n_refs = draw(st.integers(1, 4))
    lines = st.lists(hyp_word_st, max_size=7)
    hyps = draw(st.lists(lines, min_size=n_segs, max_size=n_segs))
    ref_lines = st.lists(ref_word_st, max_size=7)
    refs = [draw(st.lists(ref_lines, min_size=n_segs, max_size=n_segs))
            for _ in range(n_refs)]
    return hyps, refs


def segment_by_segment(hyps, refset, ignore_case):
    return [
        segment_bleu_stats(h, refset.segment_refs(i), ignore_case=ignore_case)
        for i, h in enumerate(hyps)
    ]


@given(bleu_corpus_st(), st.booleans())
@settings(max_examples=400, deadline=None)
@example(([[], ["a"], ["a", "b"], ["a", "a", "a"]],
          [[["y"], ["x", "a"], ["a"], ["a", "a", "b"]], [[], ["x"], ["a", "b", "c"], ["a"]]]),
         False)
@example(([["A", "b", "a", "B"]], [[["a", "B"]], [["a", "b", "A", "b", "x", "y"]]]), True)
def test_corpus_stats_equal_segment_definition(corpus, ignore_case):
    lines, ref_lines = corpus
    hyps = plain_doc(lines)
    refset = ReferenceSet(tuple(plain_doc(r) for r in ref_lines))
    expected = segment_by_segment(hyps, refset, ignore_case)
    assert corpus_stats(hyps, refset, ignore_case=ignore_case) == expected
    assert corpus_bleu(hyps, refset, ignore_case=ignore_case) == bleu_corpus_score(
        sum_stats(expected))


def test_corpus_stats_large_vocabulary_and_long_segment():
    # Over 70 000 distinct words: n-gram ids must stay exact in int64.  The
    # first segment alone is longer than one block of the corpus path.
    rng = random.Random(11)
    lengths = [9000] + [rng.randrange(0, 40) for _ in range(4000)]
    lines = [[f"v{rng.randrange(1_000_000)}" for _ in range(n)] for n in lengths]
    refs = [[perturb(rng, words, vocab=1_000_000) for words in lines] for _ in range(2)]
    assert len({w for doc in (lines, *refs) for words in doc for w in words}) >= 70_000
    hyps = plain_doc(lines)
    refset = ReferenceSet(tuple(plain_doc(r) for r in refs))
    got = corpus_stats(hyps, refset)
    assert got == segment_by_segment(hyps, refset, False)
    assert all(type(v) is int for s in got for v in s.as_tuple())
