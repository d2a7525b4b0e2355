"""Corpus BLEU with multi-bleu.perl semantics.

Modified n-gram precision up to 4-grams, clipped per segment against the
maximum reference count of each n-gram; brevity penalty against the
closest reference length (ties broken toward the shorter); no smoothing
by default, so any zero precision zeroes the score.  Input is assumed
pre-tokenized and is compared case-sensitively unless asked otherwise.

:func:`segment_bleu_stats` is the definition of the statistics, one
segment at a time.  :func:`corpus_stats` and :func:`corpus_bleu` compute
the same statistics for all segments at once from integer token ids, and
the tests hold the two paths equal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document, ReferenceSet, Segment
from .errors import ShapeError

__all__ = [
    "MAX_NGRAM_ORDER",
    "BleuStats",
    "BleuScore",
    "segment_bleu_stats",
    "bleu_corpus_score",
    "corpus_bleu",
    "format_multi_bleu_line",
]

MAX_NGRAM_ORDER = 4


@dataclass(frozen=True, slots=True)
class BleuStats:
    """Sufficient statistics of one segment (or a sum of segments)."""

    matches: tuple[int, int, int, int]
    totals: tuple[int, int, int, int]
    hyp_len: int
    ref_len: int

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(a + b for a, b in zip(self.matches, other.matches)),
            tuple(a + b for a, b in zip(self.totals, other.totals)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    @classmethod
    def zero(cls) -> "BleuStats":
        return cls((0, 0, 0, 0), (0, 0, 0, 0), 0, 0)

    def as_tuple(self) -> tuple[int, ...]:
        return (*self.matches, *self.totals, self.hyp_len, self.ref_len)


@dataclass(frozen=True)
class BleuScore:
    """Final score (fraction in [0, 1]; reported x100) plus its parts."""

    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    score: float
    hyp_len: int
    ref_len: int


def _ngram_counts(words: Sequence[str], n: int) -> Counter:
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


def _surfaces(seg: Segment, ignore_case: bool) -> list[str]:
    if ignore_case:
        return [t.surface.lower() for t in seg.tokens]
    return [t.surface for t in seg.tokens]


def segment_bleu_stats(
    hyp: Segment, refs: Sequence[Segment], *, ignore_case: bool = False
) -> BleuStats:
    """Clipped n-gram matches, n-gram totals, and effective lengths."""
    if not refs:
        raise ValueError("BLEU needs at least one reference segment")
    hyp_words = _surfaces(hyp, ignore_case)
    ref_words = [_surfaces(r, ignore_case) for r in refs]
    matches = []
    totals = []
    for n in range(1, MAX_NGRAM_ORDER + 1):
        hyp_counts = _ngram_counts(hyp_words, n)
        totals.append(max(len(hyp_words) - n + 1, 0))
        if not hyp_counts:
            matches.append(0)
            continue
        clip: dict[tuple, int] = {}
        for words in ref_words:
            ref_counts = _ngram_counts(words, n)
            for gram in hyp_counts:
                count = ref_counts.get(gram, 0)
                if count > clip.get(gram, 0):
                    clip[gram] = count
        matches.append(sum(min(c, clip.get(g, 0)) for g, c in hyp_counts.items()))
    # Effective reference length: closest to the hypothesis, shorter on ties.
    eff_ref_len = min((len(w) for w in ref_words),
                      key=lambda L: (abs(L - len(hyp_words)), L))
    return BleuStats(tuple(matches), tuple(totals), len(hyp_words), eff_ref_len)


def bleu_corpus_score(stats: BleuStats, *, smooth: bool = False) -> BleuScore:
    """Apply the BLEU formula to summed statistics."""
    precisions = []
    for n in range(MAX_NGRAM_ORDER):
        m, t = stats.matches[n], stats.totals[n]
        if smooth and n > 0:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(m / t if t > 0 else 0.0)
    if stats.hyp_len == 0:
        bp = 0.0
    elif stats.hyp_len >= stats.ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - stats.ref_len / stats.hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(math.fsum(math.log(p) for p in precisions) / MAX_NGRAM_ORDER)
    return BleuScore(tuple(precisions), bp, score, stats.hyp_len, stats.ref_len)


# Tokens of all documents per block of whole segments.  Blocks bound the
# scratch memory and keep it in cache: of 2^12 ... 2^20, 2^14 was fastest.
_BLOCK_TOKENS = 1 << 14


class _Ids(dict):
    """Dense ids in first-seen order: a missing key gets the next id."""

    def __missing__(self, key):
        i = self[key] = len(self)
        return i


def _clipped_matches(tok: np.ndarray, seg_len: np.ndarray, n_docs: int,
                     n_vocab: int) -> np.ndarray:
    """Clipped n-gram matches of a block of segments, one row per segment.

    ``tok`` holds the token ids (all below ``n_vocab``) of the first segment
    in every document, hypothesis first, then of the next segment, and so
    on; ``seg_len`` gives the lengths in the same order.  The id of the
    (segment, n-gram) starting at p pairs the (segment, (n-1)-gram) id at p
    with the token id at p+n-1.  One sort per order groups equal
    (segment, n-gram, document) keys into runs, and the hypothesis run is
    clipped by the longest reference run of its (segment, n-gram).
    """
    n_segs = seg_len.size // n_docs
    doc_of = np.repeat(np.tile(np.arange(n_docs), n_segs), seg_len)
    left = np.repeat(np.cumsum(seg_len), seg_len) - np.arange(tok.size)
    matches = np.zeros((n_segs, MAX_NGRAM_ORDER), dtype=np.int64)
    pos = np.arange(tok.size)
    gram = np.repeat(np.arange(n_segs) * n_vocab, seg_len.reshape(n_segs, n_docs).sum(1))
    gram += tok
    for n in range(1, MAX_NGRAM_ORDER + 1):
        if n > 1:
            keep = left[pos] >= n
            pos = pos[keep]
            # Dense ids of the (n-1)-grams keep this pairing exact in int64.
            gram = rank[keep] * n_vocab + tok[pos + n - 1]
        if pos.size == 0:
            break
        doc = doc_of[pos]
        order = np.argsort(gram * n_docs + doc)
        sorted_gram, doc = gram[order], doc[order]
        new_group = np.empty(pos.size, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_gram[1:], sorted_gram[:-1], out=new_group[1:])
        new_run = new_group.copy()
        new_run[1:] |= doc[1:] != doc[:-1]
        run_start = np.flatnonzero(new_run)
        run_count = np.diff(run_start, append=pos.size)
        run_doc = doc[run_start]
        # The hypothesis (document 0) run of a (segment, n-gram) sorts first.
        first = np.flatnonzero(new_group[run_start])
        hyp_count = np.where(run_doc[first] == 0, run_count[first], 0)
        run_count[run_doc == 0] = 0
        clipped = np.minimum(hyp_count, np.maximum.reduceat(run_count, first))
        # gram // n_vocab is the segment (n = 1) or the (n-1)-gram's group.
        prefix = sorted_gram[new_group] // n_vocab
        group_seg = prefix if n == 1 else group_seg[prefix]
        matches[:, n - 1] = np.bincount(group_seg, weights=clipped, minlength=n_segs)
        rank = np.empty(pos.size, dtype=np.int64)
        rank[order] = np.cumsum(new_group) - 1
    return matches


def _stats_matrix(hyps: Document, refs: ReferenceSet, ignore_case: bool) -> np.ndarray:
    """Every segment's statistics as one row of :meth:`BleuStats.as_tuple`."""
    if len(hyps) != len(refs):
        raise ShapeError(
            f"hypothesis has {len(hyps)} segments but references have {len(refs)}"
        )
    if len(hyps) == 0:
        raise ValueError("cannot score an empty corpus")
    docs = (hyps, *refs.references)
    n_docs, n_segs = len(docs), len(hyps)
    lens = np.array([[len(seg.tokens) for seg in doc.segments] for doc in docs],
                    dtype=np.int64)
    vocab = _Ids()
    surfaces = [t.surface for segs in zip(*(doc.segments for doc in docs))
                for seg in segs for t in seg.tokens]
    tok = np.fromiter(map(vocab.__getitem__, surfaces), dtype=np.int64, count=len(surfaces))
    if ignore_case:
        folded = _Ids()
        fold = np.fromiter((folded[w.lower()] for w in vocab), dtype=np.int64,
                           count=len(vocab))
        tok, vocab = fold[tok], folded

    k = MAX_NGRAM_ORDER
    stats = np.empty((n_segs, 2 * k + 2), dtype=np.int64)
    stats[:, k:2 * k] = np.maximum(lens[0][:, None] - np.arange(k), 0)
    stats[:, -2] = lens[0]
    ref_lens = lens[1:]
    # Closest reference length, shorter on ties: least (distance, length).
    width = int(ref_lens.max()) + 1
    stats[:, -1] = (np.abs(ref_lens - lens[0]) * width + ref_lens).min(axis=0) % width
    ends = np.cumsum(lens.sum(axis=0))
    start = 0
    while start < n_segs:
        base = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, base + _BLOCK_TOKENS, "right")), start + 1)
        stats[start:stop, :k] = _clipped_matches(
            tok[base:ends[stop - 1]], lens[:, start:stop].T.ravel(), n_docs,
            max(len(vocab), 1))
        start = stop
    return stats


def _from_row(row: Sequence[int]) -> BleuStats:
    k = MAX_NGRAM_ORDER
    return BleuStats(tuple(row[:k]), tuple(row[k:2 * k]), row[-2], row[-1])


def corpus_stats(
    hyps: Document, refs: ReferenceSet, *, ignore_case: bool = False
) -> list[BleuStats]:
    """Per-segment statistics, equal to :func:`segment_bleu_stats` on each segment."""
    return [_from_row(row) for row in _stats_matrix(hyps, refs, ignore_case).tolist()]


def sum_stats(stats: Iterable[BleuStats]) -> BleuStats:
    total = BleuStats.zero()
    for s in stats:
        total = total + s
    return total


def corpus_bleu(
    hyps: Document,
    refs: ReferenceSet,
    *,
    ignore_case: bool = False,
    smooth: bool = False,
) -> BleuScore:
    total = _from_row(_stats_matrix(hyps, refs, ignore_case).sum(axis=0).tolist())
    return bleu_corpus_score(total, smooth=smooth)


def format_multi_bleu_line(b: BleuScore) -> str:
    """Render the familiar one-line report."""
    p = [x * 100.0 for x in b.precisions]
    ratio = b.hyp_len / b.ref_len if b.ref_len else 0.0
    return (
        f"BLEU = {b.score * 100.0:.2f}, {p[0]:.1f}/{p[1]:.1f}/{p[2]:.1f}/{p[3]:.1f} "
        f"(BP={b.brevity_penalty:.3f}, ratio={ratio:.3f}, "
        f"hyp_len={b.hyp_len}, ref_len={b.ref_len})"
    )
