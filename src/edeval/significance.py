"""Pairwise significance testing via approximate randomization, plus
bootstrap confidence intervals.

Both tests resample per-segment *sufficient statistics* and recompute the
corpus score from the resampled sums, so scores inside a trial are exactly
the corpus-level metric, never an average of segment scores.

Determinism contract: trials are generated from counter-based Philox
streams keyed by (seed, chunk index) over fixed-size chunks.  Every
statistic is an integer held in float64: BLEU's counts are integers, and
TER's (edits, denominator) pairs are multiplied by the least common
multiple of the denominators of all their fractions (an mTER denominator
is a mean over the references, so this divides the reference count).
A trial's sums are one matrix product of 0/1 swap masks or bootstrap
counts with these integers.  Below 2**53 every partial sum is exact, so
the sums cannot depend on summation order, BLAS build or thread count,
and results are bit-identical across runs, machines and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import bleu as _bleu
from . import ter as _ter
from .errors import ShapeError

__all__ = [
    "SignificanceResult",
    "TerSegmentStats",
    "approx_randomization",
    "ar_trial_diffs",
    "p_value_from_diffs",
    "bootstrap_ci",
    "METRICS",
]

TerSegmentStats = tuple[int, Fraction]

# The rows per chunk (`_chunk_rows`, from this size) and one draw per chunk
# define the random stream: changing either changes every p-value and
# interval.  Drawing a chunk in row pieces reproduces the stream only for
# some shapes, so each chunk is drawn whole and then worked in blocks.
_CHUNK_BYTES = 32 * 1024 * 1024
_BLOCK_BYTES = 2 * 1024 * 1024  # cap on one block's float64 masks or counts
_EXACT_LIMIT = 2.0 ** 53  # float64 holds every integer below this exactly
_AR_TAG = 0x6172  # domain separation of the two resamplers
_BOOT_TAG = 0x6273


@dataclass(frozen=True)
class SignificanceResult:
    metric: str
    observed_diff: float
    p_value: float
    trials: int
    seed: int
    score_a: float
    score_b: float


class _TerAdapter:
    name = "ter"

    @staticmethod
    def exact_score(stats: Sequence[TerSegmentStats]) -> float:
        return _ter.ter_corpus_score(stats).score

    @staticmethod
    def to_arrays(*systems: Sequence[TerSegmentStats]) -> tuple[list[np.ndarray], int]:
        """Each system's (edits, denominator) rows times one common integer
        scale, the lcm of every value's denominator; returns (arrays, scale)."""
        fractions = [[(Fraction(e), Fraction(d)) for e, d in stats] for stats in systems]
        scale = math.lcm(*{x.denominator for rows in fractions for row in rows for x in row})
        arrays = [
            np.array([[x.numerator * (scale // x.denominator) for x in row] for row in rows],
                     dtype=np.float64).reshape(-1, 2)
            for rows in fractions
        ]
        return arrays, scale

    @staticmethod
    def scores_from_sums(sums: np.ndarray, scale: int) -> np.ndarray:
        """Corpus TER of summed rows that were multiplied by `scale`."""
        denom = np.where(sums[:, 1] == 0.0, float(scale), sums[:, 1])
        return sums[:, 0] / denom


class _BleuAdapter:
    name = "bleu"

    @staticmethod
    def exact_score(stats: Sequence[_bleu.BleuStats]) -> float:
        return _bleu.bleu_corpus_score(_bleu.sum_stats(stats)).score

    @staticmethod
    def to_arrays(*systems: Sequence[_bleu.BleuStats]) -> tuple[list[np.ndarray], int]:
        arrays = [
            np.array([s.as_tuple() for s in stats], dtype=np.float64).reshape(-1, 10)
            for stats in systems
        ]
        return arrays, 1

    @staticmethod
    def scores_from_sums(sums: np.ndarray, scale: int) -> np.ndarray:
        """Corpus BLEU of summed rows; BLEU does not change under a scale."""
        matches = sums[:, 0:4]
        totals = sums[:, 4:8]
        hyp_len = sums[:, 8]
        ref_len = sums[:, 9]
        safe_totals = np.where(totals > 0.0, totals, 1.0)
        precisions = np.where(totals > 0.0, matches / safe_totals, 0.0)
        any_zero = (precisions == 0.0).any(axis=1)
        safe_p = np.where(precisions > 0.0, precisions, 1.0)
        geo = np.exp(np.log(safe_p).mean(axis=1))
        safe_hyp = np.where(hyp_len > 0.0, hyp_len, 1.0)
        bp = np.where(hyp_len >= ref_len, 1.0, np.exp(1.0 - ref_len / safe_hyp))
        bp = np.where(hyp_len == 0.0, 0.0, bp)
        return np.where(any_zero, 0.0, bp * geo)


METRICS = {a.name: a for a in (_TerAdapter, _BleuAdapter)}


def _adapter(metric: str):
    try:
        return METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}") from None


def _chunk_rows(n_segments: int, n_cols: int) -> int:
    per_row = max(1, n_segments * n_cols) * 8
    return max(1, min(8192, _CHUNK_BYTES // per_row))


def _chunk_rng(seed: int, tag: int, chunk_index: int) -> np.random.Generator:
    key = np.array([(seed ^ tag) & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(trials: int, n: int, k: int, seed: int, tag: int):
    """(first trial, trial count, generator) of each chunk of the stream."""
    rows = _chunk_rows(n, k)
    for index, start in enumerate(range(0, trials, rows)):
        yield start, min(rows, trials - start), _chunk_rng(seed, tag, index)


def _blocks(take: int, n: int):
    """Row ranges of a take × n chunk, each at most _BLOCK_BYTES as float64."""
    step = max(1, _BLOCK_BYTES // (8 * max(1, n)))
    for lo in range(0, take, step):
        yield lo, min(take, lo + step)


def _check_exact(bound: np.ndarray) -> None:
    if (bound >= _EXACT_LIMIT).any():
        raise ValueError(
            "segment statistics too large: a resampled total reaches 2**53, "
            "above which float64 sums are not exact"
        )


def ar_trial_diffs(a: Sequence, b: Sequence, metric: str, trials: int, seed: int) -> np.ndarray:
    """Score differences of `trials` independent per-segment swap resamples.

    A trial's 0/1 mask row swaps the segments it marks, so system A sums
    total_a + mask @ (B - A) and system B sums total_b - mask @ (B - A).
    """
    if len(a) != len(b):
        raise ShapeError(f"stat lists differ in length: {len(a)} vs {len(b)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    adapter = _adapter(metric)
    (arr_a, arr_b), scale = adapter.to_arrays(a, b)
    total_a = arr_a.sum(axis=0)
    total_b = arr_b.sum(axis=0)
    _check_exact(total_a + total_b)
    delta = arr_b - arr_a
    n, k = arr_a.shape
    diffs = np.empty(trials, dtype=np.float64)
    for start, take, rng in _chunks(trials, n, k, seed, _AR_TAG):
        mask = rng.integers(0, 2, size=(take, n), dtype=np.uint8)
        for lo, hi in _blocks(take, n):
            moved = mask[lo:hi].astype(np.float64) @ delta
            diffs[start + lo:start + hi] = (
                adapter.scores_from_sums(total_a + moved, scale)
                - adapter.scores_from_sums(total_b - moved, scale)
            )
    return diffs


def p_value_from_diffs(diffs: np.ndarray, observed_diff: float) -> float:
    """Add-one p-value: (trials with |diff| >= |observed| + 1) / (trials + 1).

    Monotone non-increasing in |observed_diff| for a fixed resample set.
    """
    exceed = int((np.abs(diffs) >= abs(observed_diff)).sum())
    return (exceed + 1) / (len(diffs) + 1)


def approx_randomization(
    a: Sequence,
    b: Sequence,
    metric: str,
    trials: int,
    seed: int,
) -> SignificanceResult:
    """Two-sided approximate randomization test on paired segment stats.

    Each trial independently swaps every segment's statistics between the
    two systems with probability 1/2 and recomputes both corpus scores
    from the summed statistics.  The p-value compares the trials with the
    difference computed the same way from the unswapped sums, so a trial
    that swaps nothing (or everything) ties with it exactly.
    """
    adapter = _adapter(metric)
    score_a = adapter.exact_score(a)
    score_b = adapter.exact_score(b)
    diffs = ar_trial_diffs(a, b, metric, trials, seed)
    (arr_a, arr_b), scale = adapter.to_arrays(a, b)
    scores = adapter.scores_from_sums(np.stack([arr_a.sum(axis=0), arr_b.sum(axis=0)]), scale)
    p_value = p_value_from_diffs(diffs, scores[0] - scores[1])
    return SignificanceResult(metric, score_a - score_b, p_value, trials, seed, score_a, score_b)


def _bootstrap_sums(arr: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Column sums of `trials` resamples of arr's rows with replacement.

    A trial's row draws become per-row counts (one `bincount` per block),
    and its sums are counts @ arr.
    """
    n, k = arr.shape
    _check_exact(n * arr.max(axis=0))
    sums = np.empty((trials, k), dtype=np.float64)
    for start, take, rng in _chunks(trials, n, k, seed, _BOOT_TAG):
        idx = rng.integers(0, n, size=(take, n))
        for lo, hi in _blocks(take, n):
            flat = (idx[lo:hi] + n * np.arange(hi - lo)[:, None]).ravel()
            counts = np.bincount(flat, minlength=(hi - lo) * n).reshape(hi - lo, n)
            sums[start + lo:start + hi] = counts.astype(np.float64) @ arr
    return sums


def bootstrap_ci(
    a: Sequence,
    metric: str,
    trials: int,
    seed: int,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap interval of a corpus score (segment resampling)."""
    if not a:
        raise ValueError("cannot bootstrap empty segment stats")
    if trials < 100:
        raise ValueError("bootstrap needs at least 100 trials")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    adapter = _adapter(metric)
    (arr,), scale = adapter.to_arrays(a)
    scores = adapter.scores_from_sums(_bootstrap_sums(arr, trials, seed), scale)
    low = float(np.percentile(scores, 100.0 * (1.0 - level) / 2.0))
    high = float(np.percentile(scores, 100.0 * (1.0 + level) / 2.0))
    return low, high
