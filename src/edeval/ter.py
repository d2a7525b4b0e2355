"""Translation edit rate with block shifts, against one or many references.

Matching can be performed on surface forms or on lemmas; every aligned
match additionally records whether the surfaces are character-identical,
which downstream error classification relies on.

The shift search is greedy: starting from the minimum-edit alignment it
repeatedly applies the legal block move that removes the most remaining
edits (each move costs one edit), until no move helps or the distance
reaches the bag-of-words floor :func:`edeval._kernels.edit_floor`, from
which :func:`mter` also derives the bound that orders its references.  See
:mod:`edeval._kernels` for the legality constraints and tie-breaking.
Edit scripts come from :func:`edeval._kernels.align`, the one alignment
that the shift search also reads its matched positions from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .corpus import Document, ReferenceSet, Segment, Token
from .errors import AnnotationError, ShapeError

__all__ = [
    "MatchMode",
    "EditKind",
    "EditOp",
    "EditScript",
    "TerScore",
    "SegmentTer",
    "ter_single",
    "mter",
    "corpus_ter",
    "corpus_ter_detailed",
    "corpus_ter_segment_average",
    "ter_corpus_score",
]

class MatchMode(Enum):
    SURFACE = "surface"
    LEMMA = "lemma"


class EditKind(Enum):
    MATCH = "match"
    SUBSTITUTION = "substitution"
    INSERTION = "insertion"
    DELETION = "deletion"
    SHIFT_MATCH = "shift_match"


@dataclass(frozen=True, slots=True)
class EditOp:
    """One alignment step.  Indices refer to the original token order.

    INSERTION carries only a reference token, DELETION only a hypothesis
    token; surface_equal is defined for MATCH and SHIFT_MATCH only.
    """

    kind: EditKind
    hyp_index: int | None = None
    ref_index: int | None = None
    hyp_token: Token | None = None
    ref_token: Token | None = None
    surface_equal: bool | None = None

    @property
    def is_edit(self) -> bool:
        return self.kind in (EditKind.SUBSTITUTION, EditKind.INSERTION, EditKind.DELETION)


@dataclass(frozen=True)
class EditScript:
    """Ordered edit operations for one segment plus the applied shift count."""

    ops: tuple[EditOp, ...]
    shift_count: int
    segment_id: int
    mode: MatchMode

    @property
    def edit_count(self) -> int:
        """Substitutions + insertions + deletions + one per block shift."""
        return sum(1 for op in self.ops if op.is_edit) + self.shift_count


@dataclass(frozen=True)
class TerScore:
    """Edit count over a reference-length denominator."""

    edits: int
    denominator: Fraction

    @property
    def score(self) -> float:
        return float(Fraction(self.edits) / self.denominator)


@dataclass(frozen=True)
class SegmentTer:
    """Per-segment result: score, attributed script, chosen reference."""

    score: TerScore
    script: EditScript
    chosen_ref: int


def _segment_keys(seg: Segment, mode: MatchMode, ignore_case: bool, side: str) -> list[str]:
    if mode is MatchMode.LEMMA:
        keys = []
        for i, tok in enumerate(seg.tokens):
            if tok.lemma is None:
                raise AnnotationError(
                    f"lemma matching requires annotation: {side} segment {seg.id}, "
                    f"token {i} ({tok.surface!r}) has no lemma"
                )
            keys.append(tok.lemma)
    else:
        keys = [tok.surface for tok in seg.tokens]
    if ignore_case:
        keys = [k.lower() for k in keys]
    return keys


def _encode(hyp_keys: list[str], ref_keys: list[str]) -> tuple[list[int], list[int]]:
    ids: dict[str, int] = {}
    for k in hyp_keys + ref_keys:
        ids.setdefault(k, len(ids))
    return [ids[k] for k in hyp_keys], [ids[k] for k in ref_keys]


_EDIT_KINDS = {
    _kernels.SUBSTITUTION: EditKind.SUBSTITUTION,
    _kernels.INSERTION: EditKind.INSERTION,
    _kernels.DELETION: EditKind.DELETION,
}


def _build_ops(
    hyp: Segment,
    ref: Segment,
    h_ids: list[int],
    r_ids: list[int],
    order: Sequence[int],
    moved: Sequence[int],
) -> tuple[EditOp, ...]:
    """Align the post-shift hypothesis to the reference and emit typed ops.

    ``h_ids``/``r_ids`` are the interned keys of ``hyp``/``ref``; ``order``
    and ``moved`` come from the shift search (final position -> original
    index, and a flag per original index that took part in a shift).  The
    alignment is :func:`edeval._kernels.align`, the same one the shift
    search reads its matched positions from; this only maps its codes onto
    :class:`EditOp`, with indices in the original token order.
    """
    _, steps = _kernels.align([h_ids[t] for t in order], r_ids)
    ops = []
    for code, i, j in steps:
        orig = order[i] if i >= 0 else None
        h_tok = hyp.tokens[orig] if i >= 0 else None
        r_tok = ref.tokens[j] if j >= 0 else None
        if code == _kernels.MATCH:
            kind = EditKind.SHIFT_MATCH if moved[orig] else EditKind.MATCH
            ops.append(EditOp(kind, orig, j, h_tok, r_tok, h_tok.surface == r_tok.surface))
        else:
            ops.append(EditOp(_EDIT_KINDS[code], orig, j if j >= 0 else None, h_tok, r_tok))
    return tuple(ops)


def ter_single(
    hyp: Segment,
    ref: Segment,
    mode: MatchMode = MatchMode.SURFACE,
    *,
    ignore_case: bool = False,
) -> tuple[TerScore, EditScript]:
    """TER of one hypothesis segment against one reference segment.

    The denominator is the reference length; an empty reference uses a
    denominator of 1 (so a non-empty hypothesis scores its own length).
    """
    return mter(hyp, [ref], mode, ignore_case=ignore_case)[:2]


# The bag-of-words bound L of one pair, from which mter derives its
# reference order (through _kernels.edit_floors, for all references at
# once); the shift search stops at the same floor.
_edit_lower_bound = _kernels.edit_floor


def _surface_rescored(result, hyp, ref, h_ids, r_ids, ignore_case):
    """Lemma-mode ``result`` of one pair, or the surface-mode shift search's
    result rescored with lemma matching if that has strictly fewer edits.

    The surface search's final order is a shift sequence like any other:
    its lemma cost is the lemma distance of that order plus its shifts.
    When lemmas are a function of surfaces, every surface match is a lemma
    match, so the pair's lemma edits never exceed its surface edits.
    """
    s_ids = _encode(_segment_keys(hyp, MatchMode.SURFACE, ignore_case, "hypothesis"),
                    _segment_keys(ref, MatchMode.SURFACE, ignore_case, "reference"))
    _, shifts, order, moved = _kernels.greedy_shift_ter(*s_ids)
    edits = _kernels.align([h_ids[t] for t in order], r_ids)[0] + shifts
    return (edits, shifts, order, moved) if edits < result[0] else result


def mter(
    hyp: Segment,
    refs: Sequence[Segment],
    mode: MatchMode = MatchMode.SURFACE,
    *,
    ignore_case: bool = False,
) -> tuple[TerScore, EditScript, int]:
    """Multi-reference TER: minimum edits across references.

    The denominator is the average reference length (1 if that is zero).
    Returns the score, the edit script against the chosen reference, and
    the chosen reference index (lowest index on ties).

    References are searched in ascending (L2, index) order, where
    L2 = min(D0, L + 1) bounds every shift sequence's edits from below:
    D0 is the no-shift distance, and L the bag-of-words floor
    :func:`edeval._kernels.edit_floor`, below which no permutation aligns,
    so a sequence with a shift costs at least L + 1.  A queue holds each
    reference under L until it reaches the front, and D0 is computed only
    then, so the last reference left (the only one, for a single
    reference) is searched without it.  The search stops once the front
    (bound, index) is not below the best (edits, index) found so far,
    since no queued reference can then win.  The result is exactly that
    of scoring every reference.

    In lemma mode, a pair whose edits exceed the bound held for it is
    searched again on surfaces, and the surface result, rescored with
    lemma matching, is taken if it has strictly fewer edits (see
    :func:`_surface_rescored`).
    """
    if not refs:
        raise ValueError("mter needs at least one reference segment")
    # All keys are extracted up front so that an unannotated reference is
    # reported even when the search would never reach it.
    hyp_keys = _segment_keys(hyp, mode, ignore_case, "hypothesis")
    ref_keys = [_segment_keys(ref, mode, ignore_case, "reference") for ref in refs]
    # (bound, k, ids): ids is None while the bound is L, and the interned
    # keys of the pair once it is L2; indices are distinct, so ids is
    # never compared.  A list, not heapq: there are few references, and
    # loading the _heapq extension slowed even `score --metric bleu` by 1 %.
    bounds = _kernels.edit_floors(hyp_keys, ref_keys)
    queue = [(bound, k, None) for k, bound in enumerate(bounds)]
    best = (math.inf, -1)
    while queue:
        entry = min(queue)
        if entry[:2] >= best[:2]:
            break
        queue.remove(entry)
        bound, k, ids = entry
        if ids is None:
            ids = _encode(hyp_keys, ref_keys[k])
            if queue:
                queue.append((_kernels._lev_bounded(*ids, bound + 1), k, ids))
                continue
        h_ids, r_ids = ids
        result = _kernels.greedy_shift_ter(h_ids, r_ids)
        if mode is MatchMode.LEMMA and result[0] > bound:
            result = _surface_rescored(result, hyp, refs[k], h_ids, r_ids, ignore_case)
        if (result[0], k) < best[:2]:
            best = (result[0], k, *result[1:], h_ids, r_ids)
    edits, k, shifts, order, moved, h_ids, r_ids = best
    ops = _build_ops(hyp, refs[k], h_ids, r_ids, order, moved)
    script = EditScript(ops=ops, shift_count=shifts, segment_id=hyp.id, mode=mode)
    mean_len = Fraction(sum(len(r.tokens) for r in refs), len(refs))
    denominator = mean_len if mean_len > 0 else Fraction(1)
    return TerScore(edits, denominator), script, k


def corpus_ter_detailed(
    hyps: Document,
    refs: ReferenceSet,
    mode: MatchMode = MatchMode.SURFACE,
    *,
    ignore_case: bool = False,
    threads: int | None = None,
) -> list[SegmentTer]:
    """Score every segment with :func:`mter`, in segment-id order.

    ``threads`` (and the ``EDEVAL_THREADS`` environment variable) is
    accepted for compatibility and ignored: the shift search runs Python
    loops and holds the GIL, so worker threads could only add overhead.
    """
    if len(hyps) != len(refs):
        raise ShapeError(
            f"hypothesis has {len(hyps)} segments but references have {len(refs)}"
        )
    return [
        SegmentTer(*mter(hyp, refs.segment_refs(i), mode, ignore_case=ignore_case))
        for i, hyp in enumerate(hyps.segments)
    ]


def ter_corpus_score(stats: Sequence[tuple[int, Fraction]]) -> TerScore:
    """Pool per-segment (edits, denominator) stats into one corpus score."""
    edits = sum(e for e, _ in stats)
    denom = sum((d for _, d in stats), start=Fraction(0))
    if denom == 0:
        denom = Fraction(1)
    return TerScore(edits, denom)


def corpus_ter(
    hyps: Document,
    refs: ReferenceSet,
    mode: MatchMode = MatchMode.SURFACE,
    *,
    ignore_case: bool = False,
    threads: int | None = None,
) -> TerScore:
    """Corpus TER/mTER: summed edits over summed per-segment denominators."""
    detailed = corpus_ter_detailed(hyps, refs, mode, ignore_case=ignore_case, threads=threads)
    return ter_corpus_score([(r.score.edits, r.score.denominator) for r in detailed])


def corpus_ter_segment_average(
    hyps: Document,
    refs: ReferenceSet,
    mode: MatchMode = MatchMode.SURFACE,
    *,
    ignore_case: bool = False,
    threads: int | None = None,
) -> float:
    """Mean of per-segment scores (alternative corpus aggregation)."""
    detailed = corpus_ter_detailed(hyps, refs, mode, ignore_case=ignore_case, threads=threads)
    if not detailed:
        return 0.0
    return sum(r.score.score for r in detailed) / len(detailed)
