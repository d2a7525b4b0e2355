import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edeval import _kernels
from edeval.corpus import ReferenceSet, Segment
from edeval.errors import AnnotationError, ShapeError
from edeval.ter import (
    EditKind,
    MatchMode,
    corpus_ter,
    corpus_ter_detailed,
    corpus_ter_segment_average,
    mter,
    ter_corpus_score,
    ter_single,
)
from edeval.ter import _edit_lower_bound

from helpers import (
    AnnotatedVocab,
    ann_seg,
    perturb,
    plain_doc,
    random_annotated_pair,
    random_words,
    seg,
)
from oracles import greedy_shift_ter_oracle, simple_edit_distance

words_st = st.lists(st.sampled_from("abcdef"), max_size=8)


def recount(script):
    return sum(1 for op in script.ops if op.is_edit) + script.shift_count


# -- ter_single basics --------------------------------------------------------

def test_identity_segment():
    score, script = ter_single(seg("a b c".split()), seg("a b c".split()))
    assert score.edits == 0
    assert score.score == 0.0
    assert [op.kind for op in script.ops] == [EditKind.MATCH] * 3
    assert script.shift_count == 0


def test_canonical_shift_case():
    score, script = ter_single(seg("a b c d".split()), seg("a c b d".split()))
    assert score.edits == 1
    assert script.shift_count == 1
    assert score.score == 0.25


def test_insertion_case():
    score, script = ter_single(seg("a b".split()), seg("a b c".split()))
    assert score.edits == 1
    kinds = [op.kind for op in script.ops]
    assert kinds.count(EditKind.INSERTION) == 1
    assert score.denominator == Fraction(3)
    assert score.score == pytest.approx(1 / 3)


def test_empty_reference_convention():
    score, script = ter_single(seg("a b c".split()), seg([]))
    assert score.edits == 3
    assert score.denominator == Fraction(1)
    assert [op.kind for op in script.ops] == [EditKind.DELETION] * 3
    assert score.score == 3.0


def test_empty_hypothesis():
    score, script = ter_single(seg([]), seg("a b".split()))
    assert score.edits == 2
    assert [op.kind for op in script.ops] == [EditKind.INSERTION] * 2
    assert score.score == 1.0


def test_both_empty():
    score, script = ter_single(seg([]), seg([]))
    assert score.edits == 0
    assert script.ops == ()
    assert score.score == 0.0


def test_ignore_case_matches_but_keeps_surface_flag():
    score, script = ter_single(seg(["Haus"]), seg(["haus"]), ignore_case=True)
    assert score.edits == 0
    (op,) = script.ops
    assert op.kind is EditKind.MATCH
    assert op.surface_equal is False


def test_op_field_conventions():
    _, script = ter_single(seg("a x q".split()), seg("a b".split()))
    for op in script.ops:
        if op.kind is EditKind.INSERTION:
            assert op.hyp_index is None and op.ref_index is not None
            assert op.surface_equal is None
        elif op.kind is EditKind.DELETION:
            assert op.ref_index is None and op.hyp_index is not None
            assert op.surface_equal is None
        elif op.kind is EditKind.SUBSTITUTION:
            assert op.hyp_index is not None and op.ref_index is not None
            assert op.surface_equal is None
        else:
            assert op.surface_equal == (op.hyp_token.surface == op.ref_token.surface)


# -- property tests -----------------------------------------------------------

@given(words_st)
def test_self_ter_is_zero(words):
    score, script = ter_single(seg(words), seg(words))
    assert score.edits == 0
    assert all(op.kind is EditKind.MATCH for op in script.ops)


@given(words_st, words_st)
@settings(max_examples=300)
def test_levenshtein_bound_and_recount(hyp_words, ref_words):
    score, script = ter_single(seg(hyp_words), seg(ref_words))
    assert score.edits <= simple_edit_distance(hyp_words, ref_words)
    assert recount(script) == score.edits
    assert script.edit_count == score.edits
    assert script.shift_count <= simple_edit_distance(hyp_words, ref_words)


@given(words_st, words_st)
@settings(max_examples=200)
def test_exact_match_with_greedy_oracle(hyp_words, ref_words):
    score, script = ter_single(seg(hyp_words), seg(ref_words))
    oracle_edits, oracle_shifts = greedy_shift_ter_oracle(hyp_words, ref_words)
    assert (score.edits, script.shift_count) == (oracle_edits, oracle_shifts)


@given(words_st, words_st, st.permutations(list("abcdef")))
@settings(max_examples=150)
def test_token_rename_invariance(hyp_words, ref_words, perm):
    table = dict(zip("abcdef", perm))
    base, _ = ter_single(seg(hyp_words), seg(ref_words))
    renamed, _ = ter_single(
        seg([table[w] for w in hyp_words]), seg([table[w] for w in ref_words])
    )
    assert base.edits == renamed.edits


def test_shift_marks_shift_match_ops():
    _, script = ter_single(seg(["b", "a"]), seg(["a", "b"]))
    kinds = sorted(op.kind.value for op in script.ops)
    assert kinds == ["match", "shift_match"]
    assert script.shift_count == 1


# -- lemma mode ---------------------------------------------------------------

def test_lemma_mode_requires_annotation():
    with pytest.raises(AnnotationError, match=r"hypothesis segment 0"):
        ter_single(seg(["geht"]), ann_seg([("gehe", "gehen", "V")]), MatchMode.LEMMA)
    with pytest.raises(AnnotationError, match=r"reference segment 0"):
        ter_single(ann_seg([("gehe", "gehen", "V")]), seg(["geht"]), MatchMode.LEMMA)


def test_lemma_match_with_surface_difference():
    score, script = ter_single(
        ann_seg([("geht", "gehen", "V")]),
        ann_seg([("gehe", "gehen", "V")]),
        MatchMode.LEMMA,
    )
    assert score.edits == 0
    (op,) = script.ops
    assert op.kind is EditKind.MATCH
    assert op.surface_equal is False


def test_lemma_dominance_statistical():
    # Lemma matching alone can make the greedy shift search do worse than
    # surface matching: when a token lemma-matches a *different* copy of
    # its lemma in place, the shift that surface mode would take becomes
    # illegal.  mter reruns such a pair on surfaces and keeps the rescored
    # surface result, so when every surface has one lemma no pair may
    # score more lemma edits than surface edits.
    vocab = AnnotatedVocab()
    rng = random.Random(11)
    violations = 0
    corpus_lemma = corpus_surface = 0
    for _ in range(2000):
        hyp, ref = random_annotated_pair(rng, vocab)
        lemma_edits = ter_single(hyp, ref, MatchMode.LEMMA)[0].edits
        surface_edits = ter_single(hyp, ref, MatchMode.SURFACE)[0].edits
        violations += lemma_edits > surface_edits
        corpus_lemma += lemma_edits
        corpus_surface += surface_edits
    assert violations == 0
    assert corpus_lemma < corpus_surface


# -- mter ----------------------------------------------------------------------

def test_mter_exact_reference():
    score, script, chosen = mter(
        seg("a b c".split()), [seg("a b c".split()), seg("x y".split())]
    )
    assert score.edits == 0
    assert chosen == 0
    assert score.denominator == Fraction(5, 2)
    assert score.score == 0.0


def test_mter_min_across_refs():
    score, script, chosen = mter(
        seg("a b".split()), [seg("a c".split()), seg("d e f".split())]
    )
    assert score.edits == 1
    assert chosen == 0
    assert score.denominator == Fraction(5, 2)
    assert score.score == pytest.approx(0.4)


def test_mter_tie_takes_lowest_index():
    _, _, chosen = mter(seg(["a"]), [seg(["b"]), seg(["c"])])
    assert chosen == 0


def test_mter_empty_refs_rejected():
    with pytest.raises(ValueError):
        mter(seg(["a"]), [])


def test_mter_all_empty_refs_denominator_convention():
    score, _, _ = mter(seg(["a", "b"]), [seg([]), seg([])])
    assert score.denominator == Fraction(1)
    assert score.edits == 2


def test_mter_min_law_fuzz():
    rng = random.Random(5)
    for _ in range(300):
        hyp_words = [f"w{rng.randrange(8)}" for _ in range(rng.randrange(0, 9))]
        refs = [
            [f"w{rng.randrange(8)}" for _ in range(rng.randrange(0, 9))]
            for _ in range(rng.randrange(1, 4))
        ]
        score, _, chosen = mter(seg(hyp_words), [seg(r) for r in refs])
        singles = [ter_single(seg(hyp_words), seg(r))[0].edits for r in refs]
        assert score.edits == min(singles)
        assert chosen == singles.index(min(singles))
        total_len = sum(len(r) for r in refs)
        expected = Fraction(total_len, len(refs)) if total_len else Fraction(1)
        assert score.denominator == expected


# -- mter reference pruning ------------------------------------------------------

def keys(segment, mode, ignore_case=False):
    out = [t.lemma if mode is MatchMode.LEMMA else t.surface for t in segment.tokens]
    return [k.lower() for k in out] if ignore_case else out


def pruning_cases():
    """Seeded (hyp, refs, mode, ignore_case) cases in both match modes."""
    rng = random.Random(21)
    vocab = AnnotatedVocab()
    cases = []
    for i in range(120):
        words = random_words(rng, rng.randrange(0, 12), vocab=8)
        refs = [perturb(rng, words, vocab=8) for _ in range(rng.randrange(2, 10))]
        if rng.random() < 0.3:  # exact duplicates: ties between references
            refs.insert(rng.randrange(len(refs) + 1), refs[rng.randrange(len(refs))])
        if i % 2:  # lemmas are the words; surfaces are random inflections
            segments = [Segment(0, tuple(vocab.token(rng, w) for w in ws))
                        for ws in [words, *refs]]
            mode = MatchMode.LEMMA
        else:
            segments = [seg([w.upper() if rng.random() < 0.2 else w for w in ws])
                        for ws in [words, *refs]]
            mode = MatchMode.SURFACE
        cases.append((segments[0], segments[1:], mode, i % 4 == 0))
    # hand-made: bound order reverses index order, and a three-way tie
    cases.append((seg("a b c d".split()), [seg("x y z".split()), seg("a b c".split()),
                                           seg("a b c d".split())], MatchMode.SURFACE, False))
    cases.append((seg("a b".split()), [seg("a c".split()), seg("c b".split()),
                                       seg("a b c".split())], MatchMode.SURFACE, False))
    return cases


def test_mter_pruning_matches_brute_force():
    reordered = ties = 0
    for hyp, refs, mode, ignore_case in pruning_cases():
        score, script, chosen = mter(hyp, refs, mode, ignore_case=ignore_case)
        # brute force: score every reference, keep the lowest index among the minima
        singles = [ter_single(hyp, r, mode, ignore_case=ignore_case) for r in refs]
        edits = [s.edits for s, _ in singles]
        best_k = edits.index(min(edits))
        total = sum(len(r.tokens) for r in refs)
        denominator = Fraction(total, len(refs)) if total else Fraction(1)
        assert (score.edits, score.denominator, chosen) == (edits[best_k], denominator, best_k)
        assert script == singles[best_k][1]
        bounds = [_edit_lower_bound(keys(hyp, mode, ignore_case), keys(r, mode, ignore_case))
                  for r in refs]
        reordered += bounds != sorted(bounds)
        ties += edits.count(min(edits)) > 1
    assert reordered > 10 and ties > 10


@given(words_st, words_st)
@settings(max_examples=300)
def test_edit_lower_bound_below_greedy_oracle(hyp_words, ref_words):
    bound = _edit_lower_bound(hyp_words, ref_words)
    assert 0 <= bound <= greedy_shift_ter_oracle(hyp_words, ref_words)[0]


@given(st.lists(st.integers(0, 5), max_size=12), st.lists(st.integers(0, 5), max_size=12))
@settings(max_examples=300)
def test_edit_floor_is_at_least_the_length_difference(h, r):
    # The shift search scores a candidate only while its best distance is
    # above this floor, so _lev_bounded needs no length check of its own.
    assert _kernels.edit_floor(h, r) >= abs(len(h) - len(r))


@given(words_st, words_st, st.data())
@settings(max_examples=300)
def test_lev_bounded_is_the_distance_capped_at_the_bound(a, b, data):
    bound = data.draw(st.integers(0, len(a) + len(b) + 1))
    assert _kernels._lev_bounded(a, b, bound) == min(simple_edit_distance(a, b), bound)


def shift_aware_bound(h, r):
    return min(simple_edit_distance(h, r), _edit_lower_bound(h, r) + 1)


@given(words_st, words_st)
@settings(max_examples=300)
def test_shift_aware_bound_below_greedy_oracle(hyp_words, ref_words):
    assert shift_aware_bound(hyp_words, ref_words) <= greedy_shift_ter_oracle(
        hyp_words, ref_words)[0]


lemma_words_st = st.lists(st.sampled_from(["a1", "a2", "b1", "b2", "c"]), max_size=7)


@given(lemma_words_st, lemma_words_st)
@settings(max_examples=300)
def test_shift_aware_bound_below_lemma_edits(hyp_words, ref_words):
    # Lemmas are the first letter of each surface.  The bound holds for the
    # greedy search on lemma keys and for lemma-mode TER, which may take a
    # rescored surface-mode search instead.
    hyp_lemmas = [w[0] for w in hyp_words]
    ref_lemmas = [w[0] for w in ref_words]
    bound = shift_aware_bound(hyp_lemmas, ref_lemmas)
    assert bound <= greedy_shift_ter_oracle(hyp_lemmas, ref_lemmas)[0]
    score, _ = ter_single(ann_seg([(w, w[0], "X") for w in hyp_words]),
                          ann_seg([(w, w[0], "X") for w in ref_words]), MatchMode.LEMMA)
    assert bound <= score.edits


def test_lemma_mode_takes_the_rescored_surface_search():
    # In lemma mode a1 in place matches a different copy of lemma a, so no
    # block with a misaligned token can move; the surface search shifts.
    hyp = ann_seg([("b", "b", "X"), ("c", "c", "X"), ("a1", "a", "X"), ("a2", "a", "X")])
    ref = ann_seg([("a1", "a", "X"), ("b", "b", "X"), ("a2", "a", "X"), ("c", "c", "X")])
    lemma, script = ter_single(hyp, ref, MatchMode.LEMMA)
    surface, _ = ter_single(hyp, ref, MatchMode.SURFACE)
    assert lemma.edits == surface.edits == 2
    assert recount(script) == 2 and script.shift_count == 2


def test_shift_search_stops_at_the_floor(monkeypatch):
    # Each reference token is distinct, and k >= 2 of them are overwritten
    # by copies of tokens that are kept: the no-shift distance is k, and so
    # is the bag-of-words floor, while every copy still starts a candidate
    # block.  No candidate may be scored.
    def refuse(*args):
        raise AssertionError("a candidate shift was scored at the floor")

    monkeypatch.setattr(_kernels, "_lev_bounded", refuse)
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randrange(3, 16)
        r = rng.sample(range(100), m)
        h = list(r)
        k = rng.randrange(2, m)
        replaced = rng.sample(range(m), k)
        kept = [t for q, t in enumerate(r) if q not in replaced]
        for p in replaced:
            h[p] = rng.choice(kept)
        floor = _edit_lower_bound(h, r)
        assert floor == simple_edit_distance(h, r) == k
        edits, shifts, order, moved = _kernels.greedy_shift_ter(h, r)
        assert (edits, shifts, list(order), list(moved)) == (k, 0, list(range(m)), [0] * m)


def test_mter_unannotated_pruned_reference_still_rejected():
    hyp = ann_seg([("a", "a", "N"), ("b", "b", "N")], seg_id=4)
    exact = ann_seg([("a", "a", "N"), ("b", "b", "N")])
    # reference 0 needs no edits, so reference 1 is never scored
    with pytest.raises(AnnotationError, match=r"reference segment 0, token 0 \('x'\)"):
        mter(hyp, [exact, seg(["x", "y"])], MatchMode.LEMMA)


def test_mter_pruning_skips_kernel_runs(monkeypatch):
    calls = []

    def counting(h, r):
        calls.append(1)
        return greedy(h, r)

    greedy = _kernels.greedy_shift_ter
    monkeypatch.setattr(_kernels, "greedy_shift_ter", counting)
    rng = random.Random(17)
    n_segments, n_refs = 40, 9
    lines = [random_words(rng, rng.randrange(8, 16)) for _ in range(n_segments)]
    refs = ReferenceSet(tuple(
        plain_doc([perturb(rng, words) for words in lines]) for _ in range(n_refs)
    ))
    corpus_ter_detailed(plain_doc(lines), refs)
    assert len(calls) < n_segments * n_refs // 2


def test_mter_orders_references_by_the_shift_aware_bound(monkeypatch):
    # Reference 1 is a reversal: its bag-of-words bound is 0, below reference
    # 0's 1, but it needs shifts, so its shift-aware bound is 1, and index 0
    # wins the tie.  Ordering by the bag-of-words bound alone would run the
    # shift search on reference 1 first, and then on reference 0.
    calls = []

    def counting(h, r):
        calls.append(1)
        return greedy(h, r)

    greedy = _kernels.greedy_shift_ter
    monkeypatch.setattr(_kernels, "greedy_shift_ter", counting)
    words = ["a b c d".split(), "a b c x".split(), "d c b a".split()]
    assert [_edit_lower_bound(words[0], w) for w in words[1:]] == [1, 0]
    hyp, refs = seg(words[0]), [seg(w) for w in words[1:]]
    assert ter_single(hyp, refs[1])[0].edits > 1
    calls.clear()
    score, _, chosen = mter(hyp, refs)
    assert (score.edits, chosen, len(calls)) == (1, 0, 1)


# -- corpus --------------------------------------------------------------------

def test_corpus_identity_zero():
    doc = plain_doc([["a", "b"], ["c"]])
    assert corpus_ter(doc, ReferenceSet.of(doc)).score == 0.0


def test_corpus_sum_over_sum():
    hyps = plain_doc([["a", "b", "c", "x"], "p q r s t u".split()])
    refs = plain_doc([["a", "b", "c", "d"], "p q r s o o".split()])
    score = corpus_ter(hyps, ReferenceSet.of(refs))
    assert (score.edits, score.denominator) == (3, Fraction(10))
    assert score.score == pytest.approx(0.3)


def test_corpus_shape_mismatch():
    with pytest.raises(ShapeError, match="1 segments.*2"):
        corpus_ter(plain_doc([["a"]]), ReferenceSet.of(plain_doc([["a"], ["b"]])))


def test_corpus_score_bounded_by_segment_scores_constant_denoms():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 6)
        hyps = plain_doc([[f"w{rng.randrange(6)}" for _ in range(4)] for _ in range(n)])
        refs = plain_doc([[f"w{rng.randrange(6)}" for _ in range(4)] for _ in range(n)])
        detailed = corpus_ter_detailed(hyps, ReferenceSet.of(refs))
        per_seg = [r.score.score for r in detailed]
        corpus = corpus_ter(hyps, ReferenceSet.of(refs)).score
        assert min(per_seg) - 1e-12 <= corpus <= max(per_seg) + 1e-12


def test_corpus_thread_determinism():
    rng = random.Random(9)
    hyps = plain_doc([[f"w{rng.randrange(9)}" for _ in range(6)] for _ in range(40)])
    refs = plain_doc([[f"w{rng.randrange(9)}" for _ in range(6)] for _ in range(40)])
    one = corpus_ter(hyps, ReferenceSet.of(refs), threads=1)
    two = corpus_ter(hyps, ReferenceSet.of(refs), threads=2)
    assert one == two


def test_corpus_stat_recomputation_identity():
    rng = random.Random(13)
    hyps = plain_doc([[f"w{rng.randrange(9)}" for _ in range(5)] for _ in range(20)])
    refs = plain_doc([[f"w{rng.randrange(9)}" for _ in range(5)] for _ in range(20)])
    detailed = corpus_ter_detailed(hyps, ReferenceSet.of(refs))
    stats = [(r.score.edits, r.score.denominator) for r in detailed]
    assert ter_corpus_score(stats) == corpus_ter(hyps, ReferenceSet.of(refs))


def test_corpus_segment_average_variant():
    hyps = plain_doc([["a", "x"], ["b"]])
    refs = plain_doc([["a", "y"], ["b"]])
    # per-segment scores 0.5 and 0.0 -> mean 0.25; pooled 1/3
    assert corpus_ter_segment_average(hyps, ReferenceSet.of(refs)) == pytest.approx(0.25)
    assert corpus_ter(hyps, ReferenceSet.of(refs)).score == pytest.approx(1 / 3)
