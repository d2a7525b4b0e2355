"""Frozen TER outputs, the shift search under binding caps, and ``align``.

The golden digests pin what the public ``mter`` returns (score, chosen
reference, shift count and every edit op) and the raw output of the shift
search (edits, shifts, order, moved) on seeded cases.  Any rewrite of the
alignment or of the shift search must reproduce them exactly; a digest may
change only with a deliberate change of output that README documents.
``_kernels.align``, the alignment both the shift search and the edit
scripts use, is checked against the plain-list oracles.
"""

from __future__ import annotations

import hashlib
import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from edeval import _kernels
from edeval.corpus import Segment
from edeval.ter import MatchMode, mter

from helpers import AnnotatedVocab, perturb, random_annotated_pair, random_words, seg

MTER_DIGEST = "1e261cea5dbcc1dc76772ae60b97fa594dd0d8b9a103c98001bf978f4be63009"
KERNEL_DIGEST = "2fe6133f1772f64735537556936f24705118b8908726ab9f0f59790a9a78eb45"


def golden_cases():
    """1000 seeded (hyp, refs, mode, ignore_case) cases: 1-3 references of
    0-30 tokens, in four regimes cycling by index: plain surfaces,
    mixed-case surfaces under ignore_case, inflected surfaces in lemma
    mode, and a crowded vocabulary (six lemmas, three surfaces each) in
    both modes, where lemmas repeat within a segment.  The first three
    draw from 3, 6, 12 or 30 words; three words make insertions and
    deletions tie in the alignment, so its preference order shows."""
    rng = random.Random(714)
    vocab = AnnotatedVocab()
    crowded = AnnotatedVocab(n_lemmas=6)
    cases = []
    for i in range(1000):
        kind = i % 4
        n_refs = rng.randrange(1, 4)
        max_len = 30 if rng.random() < 0.2 else 15
        if kind == 3:
            hyp, ref = random_annotated_pair(rng, crowded, max_len=max_len)
            refs = [ref] + [Segment(0, tuple(crowded.reinflect(rng, t) for t in ref.tokens[:30]))
                            for _ in range(n_refs - 1)]
            mode = MatchMode.LEMMA if i % 8 == 3 else MatchMode.SURFACE
            cases.append((hyp, refs, mode, False))
            continue
        size = rng.choice((3, 6, 12, 30))
        words = random_words(rng, rng.randrange(0, max_len + 1), vocab=size)
        ref_words = [perturb(rng, words, vocab=size)[:30] if rng.random() < 0.9
                     else random_words(rng, rng.randrange(0, max_len + 1), vocab=size)
                     for _ in range(n_refs)]
        if kind == 0:
            cases.append((seg(words), [seg(r) for r in ref_words], MatchMode.SURFACE, False))
        elif kind == 1:
            def mixed(ws):
                return seg([w.upper() if rng.random() < 0.3 else w for w in ws])
            cases.append((mixed(words), [mixed(r) for r in ref_words], MatchMode.SURFACE, True))
        else:  # lemmas are the words; surfaces are random inflections
            segments = [Segment(0, tuple(vocab.token(rng, w) for w in ws))
                        for ws in [words, *ref_words]]
            cases.append((segments[0], segments[1:], MatchMode.LEMMA, False))
    return cases


def match_keys(segment, mode, ignore_case):
    out = [t.lemma if mode is MatchMode.LEMMA else t.surface for t in segment.tokens]
    return [k.lower() for k in out] if ignore_case else out


def key_ids(hyp_keys, ref_keys):
    table: dict[str, int] = {}
    for k in hyp_keys + ref_keys:
        table.setdefault(k, len(table))
    return (np.array([table[k] for k in hyp_keys], dtype=np.int32),
            np.array([table[k] for k in ref_keys], dtype=np.int32))


def test_golden_mter_outputs():
    digest = hashlib.sha256()
    for hyp, refs, mode, ignore_case in golden_cases():
        score, script, chosen = mter(hyp, refs, mode, ignore_case=ignore_case)
        ops = tuple((op.kind.value, op.hyp_index, op.ref_index, op.surface_equal)
                    for op in script.ops)
        record = (score.edits, str(score.denominator), chosen, script.shift_count, ops)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == MTER_DIGEST


def test_golden_shift_search_outputs():
    # every other case against its first reference: independent of pruning
    digest = hashlib.sha256()
    for hyp, refs, mode, ignore_case in golden_cases()[::2]:
        h, r = key_ids(match_keys(hyp, mode, ignore_case),
                       match_keys(refs[0], mode, ignore_case))
        edits, shifts, order, moved = _kernels.greedy_shift_ter(h, r)
        digest.update(repr((int(edits), int(shifts), order.tolist(), moved.tolist())).encode())
    assert digest.hexdigest() == KERNEL_DIGEST


def kernel_result(hyp, ref):
    edits, shifts, _, _ = _kernels.greedy_shift_ter(
        np.array(hyp, dtype=np.int32), np.array(ref, dtype=np.int32))
    return int(edits), int(shifts)


@pytest.mark.parametrize("size_cap, dist_cap", [(2, 3), (1, 2), (3, 1)])
def test_shift_caps_match_oracle(monkeypatch, size_cap, dist_cap):
    # Segments of 6-12 tokens over 3-6 words offer many shifts; caps this
    # small rule some of them out, which the count of changed results shows.
    rng = random.Random(10 * size_cap + dist_cap)
    pairs = []
    for _ in range(300):
        k = rng.randrange(3, 7)
        pairs.append(([rng.randrange(k) for _ in range(rng.randrange(6, 13))],
                      [rng.randrange(k) for _ in range(rng.randrange(6, 13))]))
    default = [kernel_result(hyp, ref) for hyp, ref in pairs]
    for module in (_kernels, oracles):
        monkeypatch.setattr(module, "MAX_SHIFT_SIZE", size_cap)
        monkeypatch.setattr(module, "MAX_SHIFT_DIST", dist_cap)
    capped = [kernel_result(hyp, ref) for hyp, ref in pairs]
    assert capped == [oracles.greedy_shift_ter_oracle(hyp, ref) for hyp, ref in pairs]
    assert sum(c != d for c, d in zip(capped, default)) >= 50


# three symbols make ties between insertions and deletions common
ids_st = st.lists(st.integers(0, 2), max_size=12)


@given(ids_st, ids_st)
@example([], [])
@example([1, 2], [])
@example([], [3])
@example([0, 1, 0], [1, 0, 1])
@settings(max_examples=500)
def test_align_agrees_with_oracles(hyp, ref):
    distance, ops = _kernels.align(np.array(hyp, dtype=np.int32), np.array(ref, dtype=np.int32))
    assert distance == oracles.simple_edit_distance(hyp, ref)
    # every index of each side appears once, in increasing order
    assert [i for _, i, _ in ops if i >= 0] == list(range(len(hyp)))
    assert [j for _, _, j in ops if j >= 0] == list(range(len(ref)))
    matched = [False] * len(hyp)
    for code, i, j in ops:
        if code == _kernels.INSERTION:
            assert i < 0 <= j
        elif code == _kernels.DELETION:
            assert j < 0 <= i
        else:
            assert code in (_kernels.MATCH, _kernels.SUBSTITUTION) and min(i, j) >= 0
            assert (hyp[i] == ref[j]) == (code == _kernels.MATCH)
            matched[i] = code == _kernels.MATCH
    assert matched == oracles.matched_positions(hyp, ref)
    assert sum(code != _kernels.MATCH for code, _, _ in ops) == distance


ID_FORMS = {
    "list": list,
    "tuple": tuple,
    "array": lambda ids: array("i", ids),
    "numpy": lambda ids: np.array(ids, dtype=np.int32),
}


def test_kernels_accept_any_integer_sequence():
    # Same outputs from every container of ids; results are plain ints, and
    # order and moved expose tolist() like the numpy arrays they replace.
    rng = random.Random(1717)
    for _ in range(300):
        k = rng.randrange(2, 7)
        hyp = [rng.randrange(k) for _ in range(rng.randrange(0, 16))]
        ref = [rng.randrange(k) for _ in range(rng.randrange(0, 16))]
        shifted, aligned = set(), set()
        for form in ID_FORMS.values():
            edits, shifts, order, moved = _kernels.greedy_shift_ter(form(hyp), form(ref))
            result = (edits, shifts, order.tolist(), moved.tolist())
            assert all(type(v) is int for v in [edits, shifts, *result[2], *result[3]])
            shifted.add(repr(result))
            distance, ops = _kernels.align(form(hyp), form(ref))
            assert type(distance) is int
            aligned.add(repr((distance, ops)))
        assert len(shifted) == 1 and len(aligned) == 1
