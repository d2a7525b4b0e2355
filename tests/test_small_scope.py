"""Exhaustive small-scope checks of the shift search and ``align``.

Every pair of 0-5-token sequences over three symbols is tried, up to a
renaming of the symbols (22 101 pairs); lemma dominance is checked on
every pair of 0-4-token sequences over four surfaces in three lemmas.  Random sampling rarely hits every
tie between insertions, deletions and competing shifts; in a world this
small, every such tie occurs.  The oracles in ``tests/oracles.py`` are the
reference: plain lists, full matrices brute-force shift enumeration, and an exact search over unrestricted
block moves.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

import oracles
from edeval import _kernels
from edeval.corpus import Segment
from edeval.ter import MatchMode, ter_single

from helpers import ann_tok

SYMBOLS = 3


def canonical_strings(length, symbols=SYMBOLS):
    """Sequences of ``length`` over ``symbols`` symbols in which each symbol
    first appears after all smaller ones (restricted growth strings): one
    representative per renaming of the symbols."""
    out = [[]]
    for _ in range(length):
        out = [s + [c] for s in out for c in range(min(max(s, default=-1) + 2, symbols))]
    return out


def small_pairs(max_len):
    """Every (hyp, ref) pair of at most ``max_len`` tokens each, up to
    renaming: the concatenation hyp + ref is a canonical string."""
    return [(s[:n], s[n:])
            for total in range(2 * max_len + 1)
            for s in canonical_strings(total)
            for n in range(max(0, total - max_len), min(total, max_len) + 1)]


def kernel_result(hyp, ref):
    edits, shifts, _, _ = _kernels.greedy_shift_ter(
        np.array(hyp, dtype=np.int32), np.array(ref, dtype=np.int32))
    return int(edits), int(shifts)


def test_pair_enumeration_counts():
    # Burnside over the 6 renamings of 3 symbols: (364**2 + 3 * 6**2 + 2) / 6
    assert len(small_pairs(5)) == 22101
    assert len(small_pairs(4)) == 2453
    assert len({(tuple(h), tuple(r)) for h, r in small_pairs(5)}) == 22101


def test_shift_search_matches_oracle_exhaustively():
    mismatches = [(hyp, ref) for hyp, ref in small_pairs(5)
                  if kernel_result(hyp, ref) != oracles.greedy_shift_ter_oracle(hyp, ref)]
    assert mismatches == []


def test_align_matches_oracles_exhaustively():
    mismatches = []
    for hyp, ref in small_pairs(5):
        distance, ops = _kernels.align(np.array(hyp, dtype=np.int32),
                                       np.array(ref, dtype=np.int32))
        matched = [False] * len(hyp)
        for code, i, _ in ops:
            if code == _kernels.MATCH:
                matched[i] = True
        if (distance != oracles.simple_edit_distance(hyp, ref)
                or matched != oracles.matched_positions(hyp, ref)):
            mismatches.append((hyp, ref))
    assert mismatches == []


@pytest.mark.parametrize("size_cap", [1, 2, 3])
@pytest.mark.parametrize("dist_cap", [1, 2, 3])
def test_shift_caps_match_oracle_exhaustively(monkeypatch, size_cap, dist_cap):
    # Up to 4 tokens keeps the sweep fast.  Every cap pair but (3, 3) changes
    # some results against the default caps (2 to 441 of the 2453 pairs).
    for module in (_kernels, oracles):
        monkeypatch.setattr(module, "MAX_SHIFT_SIZE", size_cap)
        monkeypatch.setattr(module, "MAX_SHIFT_DIST", dist_cap)
    mismatches = [(hyp, ref) for hyp, ref in small_pairs(4)
                  if kernel_result(hyp, ref) != oracles.greedy_shift_ter_oracle(hyp, ref)]
    assert mismatches == []


def test_greedy_lies_between_the_shift_aware_bound_and_the_exact_optimum():
    # L2 = min(D0, L + 1) bounds every shift sequence, the optimum included;
    # greedy takes one such sequence, so it cannot beat the optimum.  Greedy
    # is a heuristic (the exact problem is NP-hard), and in this world it
    # misses the optimum on 229 pairs, by one edit each.
    gaps = []
    for hyp, ref in small_pairs(5):
        floor = max(len(hyp), len(ref)) - sum((Counter(hyp) & Counter(ref)).values())
        bound = min(oracles.simple_edit_distance(hyp, ref), floor + 1)
        optimum = oracles.exact_block_move_ter(hyp, ref)
        greedy = _kernels.greedy_shift_ter(hyp, ref)[0]
        assert bound <= optimum <= greedy, (hyp, ref)
        if greedy > optimum:
            gaps.append(greedy - optimum)
    assert gaps == [1] * 229


LEMMA_OF = {"a1": "a", "a2": "a", "b": "b", "c": "c"}
# Renamings that keep the lemma classes: a1 <-> a2 and b <-> c.
RENAMINGS = [dict(zip(LEMMA_OF, image)) for image in
             [("a2", "a1", "b", "c"), ("a1", "a2", "c", "b"), ("a2", "a1", "c", "b")]]


def test_lemma_edits_never_exceed_surface_edits_exhaustively():
    # Every pair of up to 4 tokens over four surfaces in three lemmas
    # (116 281 pairs), one per orbit of the two lemma-preserving renamings:
    # by Burnside (116 281 + 2 * 31**2 + 1) / 4 = 29 551 pairs.
    tokens = {w: ann_tok(w, lemma) for w, lemma in LEMMA_OF.items()}
    seqs = [s for n in range(5) for s in itertools.product(LEMMA_OF, repeat=n)]
    segments = {s: Segment(0, tuple(tokens[w] for w in s)) for s in seqs}
    pairs = violations = 0
    for hyp in seqs:
        for ref in seqs:
            if any((tuple(f[w] for w in hyp), tuple(f[w] for w in ref)) < (hyp, ref)
                   for f in RENAMINGS):
                continue
            pairs += 1
            lemma = ter_single(segments[hyp], segments[ref], MatchMode.LEMMA)[0].edits
            surface = ter_single(segments[hyp], segments[ref], MatchMode.SURFACE)[0].edits
            violations += lemma > surface
    assert (pairs, violations) == (29551, 0)
