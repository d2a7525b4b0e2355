import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from edeval.bleu import BleuStats, bleu_corpus_score, segment_bleu_stats, sum_stats
from edeval.errors import ShapeError
from edeval.significance import (
    METRICS,
    _bootstrap_sums,
    _chunk_rng,
    _chunk_rows,
    approx_randomization,
    ar_trial_diffs,
    bootstrap_ci,
    p_value_from_diffs,
)
from edeval.ter import ter_corpus_score

from helpers import seg
from oracles import exact_ar_p_value_ter

STATS_A = [(1, Fraction(5)), (2, Fraction(5)), (0, Fraction(5)), (3, Fraction(5)),
           (1, Fraction(5)), (0, Fraction(5)), (2, Fraction(5)), (1, Fraction(5))]
STATS_B = [(2, Fraction(5)), (1, Fraction(5)), (1, Fraction(5)), (2, Fraction(5)),
           (2, Fraction(5)), (1, Fraction(5)), (1, Fraction(5)), (2, Fraction(5))]


def test_identical_stats_p_is_one():
    for s in (0, 1, 99):
        result = approx_randomization(STATS_A, STATS_A, "ter", trials=500, seed=s)
        assert result.observed_diff == 0.0
        assert result.p_value == 1.0


def test_deterministic_given_seed():
    a = approx_randomization(STATS_A, STATS_B, "ter", trials=5000, seed=42)
    b = approx_randomization(STATS_A, STATS_B, "ter", trials=5000, seed=42)
    assert a == b
    c = approx_randomization(STATS_A, STATS_B, "ter", trials=5000, seed=43)
    assert c != a


def test_observed_diff_is_exact_corpus_difference():
    result = approx_randomization(STATS_A, STATS_B, "ter", trials=10, seed=0)
    expected = ter_corpus_score(STATS_A).score - ter_corpus_score(STATS_B).score
    assert result.observed_diff == expected
    assert result.score_a == ter_corpus_score(STATS_A).score


def test_agrees_with_exhaustive_enumeration():
    exact = exact_ar_p_value_ter(STATS_A, STATS_B)
    result = approx_randomization(STATS_A, STATS_B, "ter", trials=100_000, seed=7)
    assert result.p_value == pytest.approx(exact, abs=0.01)


def test_add_one_p_value_bounds():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(1, 8)
        a = [(rng.randrange(0, 5), Fraction(rng.randrange(1, 8))) for _ in range(n)]
        b = [(rng.randrange(0, 5), Fraction(rng.randrange(1, 8))) for _ in range(n)]
        result = approx_randomization(a, b, "ter", trials=200, seed=3)
        assert 0.0 < result.p_value <= 1.0


def test_bleu_metric_path():
    refs = [seg("a b c d e".split())]
    stats_a = [segment_bleu_stats(seg("a b c d e".split()), refs) for _ in range(4)]
    stats_b = [segment_bleu_stats(seg("a b c x y".split()), refs) for _ in range(4)]
    result = approx_randomization(stats_a, stats_b, "bleu", trials=2000, seed=5)
    exact_a = bleu_corpus_score(sum_stats(stats_a)).score
    exact_b = bleu_corpus_score(sum_stats(stats_b)).score
    assert result.score_a == exact_a
    assert result.score_b == exact_b
    assert result.observed_diff == exact_a - exact_b
    assert 0.0 < result.p_value <= 1.0


def test_bleu_agrees_with_enumeration():
    refs = [seg("a b c d e f".split())]
    rng = random.Random(8)
    vocab = "a b c d e f x y".split()

    def noisy():
        words = "a b c d e f".split()
        for _ in range(rng.randrange(0, 3)):
            words[rng.randrange(len(words))] = rng.choice(vocab)
        return segment_bleu_stats(seg(words), refs)

    stats_a = [noisy() for _ in range(6)]
    stats_b = [noisy() for _ in range(6)]

    def score(stats):
        return bleu_corpus_score(sum_stats(stats)).score

    observed = abs(score(stats_a) - score(stats_b))
    hits = 0
    for pattern in range(2 ** 6):
        sa = [stats_b[i] if (pattern >> i) & 1 else stats_a[i] for i in range(6)]
        sb = [stats_a[i] if (pattern >> i) & 1 else stats_b[i] for i in range(6)]
        if abs(score(sa) - score(sb)) >= observed:
            hits += 1
    exact = hits / 2 ** 6
    result = approx_randomization(stats_a, stats_b, "bleu", trials=50_000, seed=11)
    assert result.p_value == pytest.approx(exact, abs=0.015)


def test_p_monotone_in_observed_diff():
    diffs = ar_trial_diffs(STATS_A, STATS_B, "ter", trials=20_000, seed=2)
    thresholds = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
    p_values = [p_value_from_diffs(diffs, t) for t in thresholds]
    assert p_values == sorted(p_values, reverse=True)
    assert p_values[0] == 1.0
    assert all(0.0 < p <= 1.0 for p in p_values)


def test_argument_errors():
    with pytest.raises(ShapeError):
        approx_randomization(STATS_A, STATS_B[:4], "ter", trials=10, seed=0)
    with pytest.raises(ValueError):
        approx_randomization(STATS_A, STATS_B, "ter", trials=0, seed=0)
    with pytest.raises(ValueError, match="unknown metric"):
        approx_randomization(STATS_A, STATS_B, "meteor", trials=10, seed=0)


# -- bootstrap -------------------------------------------------------------------

def test_bootstrap_constant_stats_zero_width():
    stats = [(1, Fraction(4))] * 10
    low, high = bootstrap_ci(stats, "ter", trials=500, seed=1)
    assert low == high == 0.25


def test_bootstrap_deterministic():
    assert bootstrap_ci(STATS_A, "ter", trials=1000, seed=9) == bootstrap_ci(
        STATS_A, "ter", trials=1000, seed=9
    )


def test_bootstrap_contains_point_estimate():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 12)
        stats = [(rng.randrange(0, 6), Fraction(rng.randrange(1, 9))) for _ in range(n)]
        point = ter_corpus_score(stats).score
        low, high = bootstrap_ci(stats, "ter", trials=600, seed=rng.randrange(100), level=0.5)
        assert low - 1e-12 <= point <= high + 1e-12


def test_bootstrap_argument_errors():
    with pytest.raises(ValueError):
        bootstrap_ci([], "ter", trials=500, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci(STATS_A, "ter", trials=50, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci(STATS_A, "ter", trials=500, seed=0, level=1.5)


# -- exact integer resampling ------------------------------------------------------

AR_TAG = 0x6172
BOOT_TAG = 0x6273


def random_bleu_stats(rng, n):
    def one():
        hyp_len = rng.randrange(1, 30)
        totals = tuple(max(0, hyp_len - k) for k in range(4))
        matches = tuple(rng.randrange(0, t + 1) for t in totals)
        return BleuStats(matches, totals, hyp_len, rng.randrange(1, 30))
    return [one() for _ in range(n)]


def paired(kind, rng, n):
    """Two systems' stats.  TER systems share their denominators, as they do
    when both are scored against the same references: integers (one
    reference) or k/3 (the mean over three references)."""
    if kind == "bleu":
        return random_bleu_stats(rng, n), random_bleu_stats(rng, n)
    if kind == "thirds":
        denoms = [Fraction(rng.randrange(3, 90), 3) for _ in range(n)]
    else:
        denoms = [Fraction(rng.randrange(1, 30)) for _ in range(n)]
    return [(rng.randrange(0, 10), d) for d in denoms], [(rng.randrange(0, 10), d) for d in denoms]


def replay_masks(seed, trials, n, k):
    """The documented AR stream: one Philox draw per chunk of _chunk_rows rows."""
    rows = _chunk_rows(n, k)
    chunks = [
        _chunk_rng(seed, AR_TAG, i).integers(0, 2, size=(min(rows, trials - s), n), dtype=np.uint8)
        for i, s in enumerate(range(0, trials, rows))
    ]
    return np.concatenate(chunks)


def test_mter_thirds_tie_is_kept():
    a = [(1, Fraction(49, 3)), (5, Fraction(79, 3)), (7, Fraction(4))]
    b = [(3, Fraction(49, 3)), (7, Fraction(79, 3)), (1, Fraction(4))]
    result = approx_randomization(a, b, "ter", trials=4000, seed=1)
    assert result.p_value == 1.0
    assert result.p_value == exact_ar_p_value_ter(a, b)


def test_mter_thirds_sweep_matches_enumeration():
    rng = random.Random(2024)
    for case in range(400):
        a, b = paired("thirds", rng, rng.randrange(2, 8))
        exact = exact_ar_p_value_ter(a, b)
        p = approx_randomization(a, b, "ter", trials=4000, seed=case).p_value
        assert abs(p - exact) <= 0.05, (case, a, b, p, exact)


@pytest.mark.parametrize("kind", ["integer", "thirds"])
def test_ar_trial_diffs_equal_exact_replay(kind):
    rng = random.Random(kind)
    n = 6
    trials = _chunk_rows(n, 2) + 700
    a, b = paired(kind, rng, n)
    diffs = ar_trial_diffs(a, b, "ter", trials=trials, seed=13)
    for t, row in enumerate(replay_masks(13, trials, n, 2)):
        sa = [b[i] if row[i] else a[i] for i in range(n)]
        sb = [a[i] if row[i] else b[i] for i in range(n)]
        expected = (
            float(Fraction(sum(e for e, _ in sa), sum(d for _, d in sa)))
            - float(Fraction(sum(e for e, _ in sb), sum(d for _, d in sb)))
        )
        assert diffs[t] == expected, t


# Segment counts that make _chunk_rows about 1000, so T = 1500 trials cross a
# chunk boundary: 2000 TER segments (2 columns) and 400 BLEU segments (10).
METAMORPHIC = [("ter", "integer", 2000), ("ter", "thirds", 2000), ("bleu", "bleu", 400)]


@pytest.mark.parametrize("metric,kind,n", METAMORPHIC)
def test_ar_prefix_of_a_longer_run(metric, kind, n):
    a, b = paired(kind, random.Random(n), n)
    assert _chunk_rows(n, 2 if metric == "ter" else 10) < 1500
    short = ar_trial_diffs(a, b, metric, trials=1500, seed=5)
    long = ar_trial_diffs(a, b, metric, trials=15000, seed=5)
    assert np.array_equal(short, long[:1500])


@pytest.mark.parametrize("metric,kind,n", METAMORPHIC)
def test_ar_swapping_systems_negates_every_diff(metric, kind, n):
    a, b = paired(kind, random.Random(n + 1), n)
    d_ab = ar_trial_diffs(a, b, metric, trials=1500, seed=6)
    d_ba = ar_trial_diffs(b, a, metric, trials=1500, seed=6)
    assert np.array_equal(d_ba, -d_ab)


@pytest.mark.parametrize("metric,kind,n", METAMORPHIC)
def test_bootstrap_sums_equal_replayed_row_sums(metric, kind, n):
    stats, _ = paired(kind, random.Random(n + 2), n)
    (arr,), _ = METRICS[metric].to_arrays(stats)
    assert np.array_equal(arr, np.round(arr))
    trials = 1500
    rows = _chunk_rows(*arr.shape)
    assert rows < trials
    sums = _bootstrap_sums(arr, trials, seed=8)
    for i, start in enumerate(range(0, trials, rows)):
        idx = _chunk_rng(8, BOOT_TAG, i).integers(0, n, size=(min(rows, trials - start), n))
        for lo in range(0, len(idx), 256):
            expected = arr[idx[lo:lo + 256]].sum(axis=1)
            assert np.array_equal(sums[start + lo:start + lo + len(expected)], expected)


def test_mter_statistics_scale_to_integers():
    stats = [(2, Fraction(7, 3)), (1, Fraction(9, 2)), (0, Fraction(5))]
    (arr,), scale = METRICS["ter"].to_arrays(stats)
    assert scale == 6
    assert arr.tolist() == [[12.0, 14.0], [6.0, 27.0], [0.0, 30.0]]
    # a zero total denominator counts as 1 (ter_corpus_score), i.e. as the scale
    scores = METRICS["ter"].scores_from_sums(np.array([[12.0, 0.0], [12.0, 14.0]]), scale)
    assert scores.tolist() == [ter_corpus_score([(2, Fraction(0))]).score, 12 / 14]


def test_totals_at_2_to_53_are_rejected():
    big = [(0, Fraction(2 ** 52)), (1, Fraction(2 ** 52))]
    small = [(0, Fraction(1)), (1, Fraction(1))]
    with pytest.raises(ValueError, match="2\\*\\*53"):
        ar_trial_diffs(big, small, "ter", trials=10, seed=0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        bootstrap_ci(big, "ter", trials=100, seed=0)
    below = [(0, Fraction(2 ** 52)), (1, Fraction(2 ** 52 - 3))]
    assert len(ar_trial_diffs(below, small, "ter", trials=10, seed=0)) == 10


def test_ar_trial_diffs_memory_peak():
    a, b = paired("integer", random.Random(3), 3000)
    tracemalloc.start()
    try:
        ar_trial_diffs(a, b, "ter", trials=10_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024 * 1024, peak / 2 ** 20
