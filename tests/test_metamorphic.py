"""Metamorphic relations of TER, mTER and BLEU.

Each test changes an input in a way whose effect on the output is known:
permuting or duplicating references, renaming tokens bijectively,
permuting, splitting and concatenating segments, and case folding text
that is already lower-case.  It then checks that the output changes in
exactly that way.  A one-pair oracle cannot see a result that depends on
its neighbours, on the order in which ids are handed out, or on how
segments are grouped; these relations can.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edeval.bleu import corpus_stats
from edeval.cli import main
from edeval.corpus import Document, ReferenceSet, Segment, Token, serialize_plain
from edeval.ter import MatchMode, corpus_ter_detailed, mter, ter_single

# Few distinct keys make ties between references and between candidate
# shifts common.  "a"/"A" and "b"/"B" differ only in case; the lemmas are
# not a function of the surfaces.
SURFACES = ["a", "A", "b", "B", "c", "ä"]
LEMMAS = ["l", "m", "n"]
LOWER_SURFACES = ["a", "b", "c", "ä", "ß"]
NAME_POOL = ["a", "b", "c", "d", "e", "f", "g", "h", "qq", "ü"]

mode_st = st.sampled_from(list(MatchMode))


def segment_st(surfaces=SURFACES, max_size=8):
    token_st = st.builds(
        lambda s, l: Token(s, l, "X"), st.sampled_from(surfaces), st.sampled_from(LEMMAS)
    )
    return st.lists(token_st, max_size=max_size).map(lambda toks: Segment(0, tuple(toks)))


refs_st = st.lists(segment_st(), min_size=1, max_size=4)


def signature(score, script, chosen):
    """Everything an mTER result says about a segment except its id."""
    ops = [(op.kind, op.hyp_index, op.ref_index, op.surface_equal) for op in script.ops]
    return score.edits, score.denominator, script.shift_count, chosen, ops


# -- references -----------------------------------------------------------------

@given(segment_st(), refs_st, mode_st, st.data())
@settings(max_examples=300, deadline=None)
def test_permuting_references_keeps_edits_and_picks_lowest_tied_index(hyp, refs, mode, data):
    perm = data.draw(st.permutations(range(len(refs))))
    score, script, _ = mter(hyp, refs, mode)
    new_refs = [refs[p] for p in perm]
    new_score, new_script, new_chosen = mter(hyp, new_refs, mode)
    edits = [ter_single(hyp, r, mode)[0].edits for r in new_refs]
    assert new_score == score
    assert new_script.edit_count == script.edit_count == min(edits)
    assert new_chosen == edits.index(min(edits))
    assert new_script == ter_single(hyp, new_refs[new_chosen], mode)[1]


@given(segment_st(), refs_st, mode_st, st.data())
@settings(max_examples=300, deadline=None)
def test_duplicated_reference_changes_neither_edits_nor_choice(hyp, refs, mode, data):
    copy = refs[data.draw(st.integers(0, len(refs) - 1))]
    at = data.draw(st.integers(0, len(refs)))
    score, script, chosen = mter(hyp, refs, mode)
    new_score, new_script, new_chosen = mter(hyp, refs + [copy], mode)
    assert (new_score.edits, new_chosen, new_script) == (score.edits, chosen, script)
    # Inserted anywhere else, the copy only moves the indices behind it.
    refs_with_copy = refs[:at] + [copy] + refs[at:]
    new_score, _, new_chosen = mter(hyp, refs_with_copy, mode)
    expected = chosen if chosen < at else chosen + 1
    if ter_single(hyp, copy, mode)[0].edits == score.edits:
        expected = min(expected, at)
    assert (new_score.edits, new_chosen) == (score.edits, expected)


# -- renaming -------------------------------------------------------------------

@given(segment_st(), refs_st, mode_st, st.data())
@settings(max_examples=300, deadline=None)
def test_bijective_renaming_changes_no_count_kind_or_index(hyp, refs, mode, data):
    surface_map = dict(zip(SURFACES, data.draw(st.permutations(NAME_POOL))))
    lemma_map = dict(zip(LEMMAS, data.draw(st.permutations(NAME_POOL))))

    def rename(seg):
        return Segment(seg.id, tuple(
            Token(surface_map[t.surface], lemma_map[t.lemma], t.pos) for t in seg.tokens
        ))

    before = signature(*mter(hyp, refs, mode))
    after = signature(*mter(rename(hyp), [rename(r) for r in refs], mode))
    assert after == before


# -- segments -------------------------------------------------------------------

@st.composite
def corpus_st(draw):
    """Hypothesis rows plus the same number of rows in each of 1-3 references."""
    n = draw(st.integers(0, 6))
    n_refs = draw(st.integers(1, 3))
    rows = st.lists(segment_st(max_size=6).map(lambda s: s.tokens), min_size=n, max_size=n)
    return draw(rows), [draw(rows) for _ in range(n_refs)]


def build(hyp_rows, ref_rows):
    refs = ReferenceSet(tuple(Document.from_tokens(rows) for rows in ref_rows))
    return Document.from_tokens(hyp_rows), refs


def per_segment(hyp_rows, ref_rows, mode, ignore_case):
    hyps, refs = build(hyp_rows, ref_rows)
    ter = [
        signature(r.score, r.script, r.chosen_ref)
        for r in corpus_ter_detailed(hyps, refs, mode, ignore_case=ignore_case)
    ]
    # corpus_stats rejects an empty corpus; an empty part has no rows.
    bleu = corpus_stats(hyps, refs, ignore_case=ignore_case) if hyp_rows else []
    return ter, bleu


@given(corpus_st(), mode_st, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_permuting_segments_permutes_the_results(corpus, mode, ignore_case, data):
    hyp_rows, ref_rows = corpus
    perm = data.draw(st.permutations(range(len(hyp_rows))))
    ter, bleu = per_segment(hyp_rows, ref_rows, mode, ignore_case)
    new_ter, new_bleu = per_segment(
        [hyp_rows[p] for p in perm], [[rows[p] for p in perm] for rows in ref_rows],
        mode, ignore_case,
    )
    assert new_ter == [ter[p] for p in perm]
    assert new_bleu == [bleu[p] for p in perm]


@given(corpus_st(), mode_st, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_splitting_and_concatenating_segments_maps_the_results(corpus, mode, ignore_case, data):
    hyp_rows, ref_rows = corpus
    cut = data.draw(st.integers(0, len(hyp_rows)))
    ter, bleu = per_segment(hyp_rows, ref_rows, mode, ignore_case)
    head_ter, head_bleu = per_segment(
        hyp_rows[:cut], [rows[:cut] for rows in ref_rows], mode, ignore_case
    )
    tail_ter, tail_bleu = per_segment(
        hyp_rows[cut:], [rows[cut:] for rows in ref_rows], mode, ignore_case
    )
    assert ter == head_ter + tail_ter
    assert bleu == head_bleu + tail_bleu


# -- case -----------------------------------------------------------------------

@given(segment_st(LOWER_SURFACES), st.lists(segment_st(LOWER_SURFACES), min_size=1, max_size=4),
       mode_st)
@settings(max_examples=200, deadline=None)
def test_ignore_case_changes_nothing_on_lower_case_segments(hyp, refs, mode):
    assert mter(hyp, refs, mode, ignore_case=True) == mter(hyp, refs, mode)
    hyps, refset = build([hyp.tokens], [[r.tokens] for r in refs])
    assert corpus_stats(hyps, refset, ignore_case=True) == corpus_stats(hyps, refset)


@pytest.mark.parametrize("metric", ["ter", "bleu"])
def test_ignore_case_flag_changes_nothing_on_lower_case_files(tmp_path, capsys, metric):
    rows = [
        ["ä", "b", "c", "ß", "a"], ["c", "a"], [], ["b", "b", "a", "c", "ä", "ß"],
    ]
    ref_rows = [
        ["a", "ä", "b", "c"], ["a", "c", "c"], ["b"], ["b", "a", "b", "ä", "c", "ß"],
    ]
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text(serialize_plain(Document.from_tokens([map(Token, r) for r in rows])),
                   encoding="utf-8")
    ref.write_text(serialize_plain(Document.from_tokens([map(Token, r) for r in ref_rows])),
                   encoding="utf-8")
    outputs = []
    for flags in ([], ["--ignore-case"]):
        argv = ["score", "--metric", metric, "--hyp", str(hyp), "--ref", str(ref), *flags]
        trace = tmp_path / f"trace{len(flags)}.jsonl"
        if metric == "ter":
            argv += ["--trace", str(trace)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        outputs.append((out, trace.read_bytes() if metric == "ter" else b""))
    assert outputs[0] == outputs[1]
