import random

import pytest

from edeval.corpus import ReferenceSet
from edeval.errors import AnnotationError, DataError
from edeval.taxonomy import (
    ErrorCategory,
    ErrorProfile,
    classify_edits,
    classify_edits_detailed,
    deltas,
    error_op_count,
    load_profile,
    normalize,
    profile_from_dict,
    profile_system,
    save_profile,
)
from edeval.ter import EditKind, MatchMode, ter_single

from helpers import (
    AnnotatedVocab,
    ann_doc,
    ann_seg,
    four_error_corpus,
    plain_doc,
    random_annotated_pair,
    table4_recurrent_profiles,
)

LEX = ErrorCategory.LEXICAL
MORPH = ErrorCategory.MORPHOLOGICAL
REO = ErrorCategory.REORDERING
MR = ErrorCategory.MORPH_AND_REORDERING


def lemma_script(hyp, ref):
    return ter_single(hyp, ref, MatchMode.LEMMA)[1]


# -- classify_edits -----------------------------------------------------------

def test_identity_script_all_zero():
    s = ann_seg([("a", "a", "N"), ("b", "b", "N")])
    counts = classify_edits(lemma_script(s, s))
    assert counts == {LEX: 0, MORPH: 0, REO: 0, MR: 0}


def test_morphological_error():
    script = lemma_script(
        ann_seg([("geht", "gehen", "V")]), ann_seg([("gehe", "gehen", "V")])
    )
    assert classify_edits(script) == {LEX: 0, MORPH: 1, REO: 0, MR: 0}


def test_reordering_error():
    script = lemma_script(
        ann_seg([("b", "b", "N"), ("a", "a", "N")]),
        ann_seg([("a", "a", "N"), ("b", "b", "N")]),
    )
    assert classify_edits(script) == {LEX: 0, MORPH: 0, REO: 1, MR: 0}


def test_substitution_insertion_deletion_are_lexical():
    script = lemma_script(
        ann_seg([("x", "x", "N"), ("k", "k", "N"), ("q", "q", "N")]),
        ann_seg([("y", "y", "N"), ("k", "k", "N")]),
    )
    counts = classify_edits(script)
    assert counts[LEX] == 2  # one substitution, one deletion
    assert counts[MORPH] == counts[REO] == counts[MR] == 0


def test_shifted_and_reinflected_is_one_combined_error():
    # "gehst" moves and its surface differs from the aligned "gehe"
    script = lemma_script(
        ann_seg([("gehst", "gehen", "V"), ("nun", "nun", "ADV"), ("da", "da", "ADV")]),
        ann_seg([("nun", "nun", "ADV"), ("da", "da", "ADV"), ("gehe", "gehen", "V")]),
    )
    counts = classify_edits(script)
    assert counts[MR] == 1
    assert counts[LEX] == 0
    assert sum(counts.values()) == error_op_count(script)


def test_classify_requires_lemma_mode():
    _, script = ter_single(ann_seg([("a", "a", "N")]), ann_seg([("a", "a", "N")]))
    with pytest.raises(AnnotationError, match="lemma-mode"):
        classify_edits(script)


def test_classification_respects_lemma_provenance():
    vocab = AnnotatedVocab()
    rng = random.Random(21)
    for _ in range(200):
        hyp, ref = random_annotated_pair(rng, vocab)
        script = lemma_script(hyp, ref)
        for op in script.ops:
            if op.kind is EditKind.SUBSTITUTION:
                assert op.hyp_token.lemma != op.ref_token.lemma
            elif op.kind in (EditKind.MATCH, EditKind.SHIFT_MATCH):
                assert op.hyp_token.lemma == op.ref_token.lemma


def test_completeness_sum_equals_error_ops_fuzz():
    vocab = AnnotatedVocab()
    rng = random.Random(22)
    for _ in range(800):
        hyp, ref = random_annotated_pair(rng, vocab)
        script = lemma_script(hyp, ref)
        counts = classify_edits(script)
        assert sum(counts.values()) == error_op_count(script)


def test_by_pos_breakdown():
    counts, by_pos = classify_edits_detailed(
        lemma_script(
            ann_seg([("geht", "gehen", "V"), ("Hauses", "Haus", "N")]),
            ann_seg([("gehe", "gehen", "V"), ("Haus", "Haus", "N")]),
        )
    )
    assert counts[MORPH] == 2
    assert by_pos == {"V": 1, "N": 1}


# -- profile_system -----------------------------------------------------------

def test_profile_identity_zero():
    doc = ann_doc([[("a", "a", "N"), ("b", "b", "N")]])
    profile = profile_system(doc, ReferenceSet.of(doc), "sys")
    assert profile.total == 0
    assert profile.system == "sys"


def test_profile_uses_min_edit_postedit():
    hyp = ann_doc([[("a", "a", "N"), ("c", "c", "N")]])
    pe1 = ann_doc([[("a", "a", "N"), ("b", "b", "N")]])
    pe2 = ann_doc([[("a", "a", "N"), ("c", "c", "N")]])
    profile = profile_system(hyp, ReferenceSet.of(pe1, pe2), "sys")
    assert profile.total == 0


def test_profile_four_error_corpus():
    hyp, pe = four_error_corpus()
    profile = profile_system(hyp, ReferenceSet.of(pe), "engineered")
    assert profile.counts == {LEX: 2, MORPH: 1, REO: 1, MR: 0}
    assert profile.total == 4
    assert profile.by_pos == {"V": 1}


def test_profile_requires_annotation():
    with pytest.raises(AnnotationError):
        profile_system(plain_doc([["a"]]), ReferenceSet.of(plain_doc([["a"]])))
    ann = ann_doc([[("a", "a", "N")]])
    with pytest.raises(AnnotationError):
        profile_system(ann, ReferenceSet.of(plain_doc([["a"]])))


# -- normalize / deltas --------------------------------------------------------

def make_profiles():
    return table4_recurrent_profiles()


def test_normalize_arithmetic():
    profiles = [
        # baseline with total 200; second system with 50 lexical errors
        ErrorProfile("base", {LEX: 150, MORPH: 30, REO: 15, MR: 5}, {}),
        ErrorProfile("sys", {LEX: 50, MORPH: 0, REO: 0, MR: 0}, {}),
    ]
    normed = normalize(profiles, "base")
    assert normed[1].percentages[LEX] == 25.0
    assert normed[0].total_pct == 100.0


def test_normalize_baseline_exactly_100():
    for profile in make_profiles():
        normed = normalize([profile], profile.system)
        assert normed[0].total_pct == 100.0


def test_normalize_degenerate_baseline():
    empty = ErrorProfile("base", {LEX: 0, MORPH: 0, REO: 0, MR: 0}, {})
    with pytest.raises(DataError, match="zero total"):
        normalize([empty], "base")


def test_normalize_unknown_baseline():
    with pytest.raises(ValueError, match="not among"):
        normalize(make_profiles(), "nope")


def test_normalize_duplicate_system_names():
    profile = make_profiles()[0]
    with pytest.raises(ValueError, match="duplicate"):
        normalize([profile, profile], "NMT")


def test_table4_reproduction():
    normed = normalize(make_profiles(), "NMT")
    by_name = {p.system: p for p in normed}
    assert by_name["NMT"].total_pct == pytest.approx(100.0, abs=1e-9)
    assert by_name["M-NMT"].total_pct == pytest.approx(90.31, abs=0.01)
    assert by_name["ZST"].total_pct == pytest.approx(109.84, abs=0.01)
    reports = {d.system: d for d in deltas(normed, "NMT")}
    assert reports["M-NMT"].deltas[LEX] == pytest.approx(-7.64, abs=0.01)
    assert reports["M-NMT"].total_delta == pytest.approx(-9.69, abs=0.01)
    assert reports["ZST"].total_delta == pytest.approx(9.84, abs=0.01)


def test_deltas_self_is_zero():
    normed = normalize(make_profiles(), "NMT")
    reports = {d.system: d for d in deltas(normed, "NMT")}
    assert reports["NMT"].total_delta == 0.0
    assert all(v == 0.0 for v in reports["NMT"].deltas.values())


def test_deltas_total_consistent_with_categories():
    normed = normalize(make_profiles(), "NMT")
    for report in deltas(normed, "NMT"):
        assert report.total_delta == pytest.approx(sum(report.deltas.values()), abs=1e-9)


def test_deltas_mismatched_baseline():
    normed = normalize(make_profiles(), "NMT")
    with pytest.raises(ValueError, match="baseline"):
        deltas(normed, "M-NMT")


def test_scale_invariance():
    profiles = make_profiles()
    scaled = [
        ErrorProfile(p.system, {c: 7 * n for c, n in p.counts.items()}, {})
        for p in profiles
    ]
    base = normalize(profiles, "NMT")
    big = normalize(scaled, "NMT")
    for a, b in zip(base, big):
        assert a.percentages == b.percentages
        assert a.total_pct == b.total_pct
    assert deltas(base, "NMT") == deltas(big, "NMT")


# -- JSON round trip ------------------------------------------------------------

def test_profile_json_roundtrip(tmp_path):
    hyp, pe = four_error_corpus()
    profile = profile_system(hyp, ReferenceSet.of(pe), "engineered")
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    assert load_profile(path) == profile
    # rewriting produces byte-identical output
    first = path.read_bytes()
    save_profile(profile, path)
    assert path.read_bytes() == first


def test_profile_json_total_mismatch_rejected():
    raw = {
        "system": "s",
        "counts": {"lexical": 1, "morph": 0, "reordering": 0, "morph_reo": 0},
        "total": 5,
        "by_pos": {},
    }
    with pytest.raises(DataError, match="total"):
        profile_from_dict(raw)


@pytest.mark.parametrize("lexical", ["x", "5", 1.9, 1.5e400, [1], -3, True])
def test_profile_json_bad_count_rejected(lexical):
    raw = {
        "system": "s",
        "counts": {"lexical": lexical, "morph": 0, "reordering": 0, "morph_reo": 0},
    }
    with pytest.raises(DataError, match="malformed profile JSON"):
        profile_from_dict(raw)
