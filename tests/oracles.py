"""Independent reference implementations the real code is checked against.

Everything here favours obviousness over speed: plain lists, full
matrices, brute-force enumeration.  None of it imports the kernels under
test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

MAX_SHIFT_SIZE = 10
MAX_SHIFT_DIST = 50


def simple_edit_distance(a: Sequence, b: Sequence) -> int:
    """Textbook unit-cost Levenshtein distance, no shifts."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        curr = [i]
        for j, y in enumerate(b, 1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = curr
    return prev[-1]


def _dp_matrix(a: Sequence, b: Sequence) -> list[list[int]]:
    n, m = len(a), len(b)
    D = [[0] * (m + 1) for _ in range(n + 1)]
    for j in range(m + 1):
        D[0][j] = j
    for i in range(1, n + 1):
        D[i][0] = i
        for j in range(1, m + 1):
            D[i][j] = min(
                D[i - 1][j] + 1,
                D[i][j - 1] + 1,
                D[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return D


def matched_positions(a: Sequence, b: Sequence) -> list[bool]:
    """Positions of `a` aligned as matches, with the documented traceback
    preference (match, substitution, insertion, deletion)."""
    D = _dp_matrix(a, b)
    flags = [False] * len(a)
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and D[i][j] == D[i - 1][j - 1]:
            flags[i - 1] = True
            i -= 1
            j -= 1
        elif D[i][j] == D[i - 1][j - 1] + 1:
            i -= 1
            j -= 1
        elif D[i][j] == D[i][j - 1] + 1:
            j -= 1
        else:
            i -= 1
    return flags


def _block_occurs(block: list, ref: Sequence) -> bool:
    L = len(block)
    return any(list(ref[p:p + L]) == block for p in range(len(ref) - L + 1))


def greedy_shift_ter_oracle(hyp: Sequence, ref: Sequence) -> tuple[int, int]:
    """Brute-force greedy TER: every legal (block, destination) is tried at
    every round, scored with the plain DP above.  Returns (edits, shifts)."""
    if len(hyp) == 0 or len(ref) == 0:
        return max(len(hyp), len(ref)), 0
    cur = list(hyp)
    shifts = 0
    while True:
        ed = simple_edit_distance(cur, ref)
        if ed == 0:
            break
        matched = matched_positions(cur, ref)
        n = len(cur)
        best = None  # (new_ed, i, length, d, candidate)
        for i in range(n):
            for length in range(1, min(MAX_SHIFT_SIZE, n - i) + 1):
                block = cur[i:i + length]
                if all(matched[t] for t in range(i, i + length)):
                    continue
                if not _block_occurs(block, ref):
                    continue
                rest = cur[:i] + cur[i + length:]
                for d in range(len(rest) + 1):
                    if d == i or abs(d - i) > MAX_SHIFT_DIST:
                        continue
                    cand = rest[:d] + block + rest[d:]
                    e = simple_edit_distance(cand, ref)
                    if best is None or e < best[0]:
                        best = (e, i, length, d, cand)
        if best is None or best[0] >= ed:
            break
        cur = best[4]
        shifts += 1
    return simple_edit_distance(cur, ref) + shifts, shifts


def exact_block_move_ter(hyp: Sequence, ref: Sequence) -> int:
    """Least edits over every sequence of unrestricted block moves: the
    number of moves (one edit each) plus the edit distance of the order
    they reach.  Breadth-first over the reachable orders of the
    hypothesis, stopping once one more move cannot beat the best total.
    Exponential: meant for a handful of tokens."""
    level = [tuple(hyp)]
    seen = set(level)
    best = simple_edit_distance(hyp, ref)
    depth = 0
    while level and depth + 1 < best:
        depth += 1
        reached = []
        for seq in level:
            n = len(seq)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    rest = seq[:i] + seq[j:]
                    for d in range(len(rest) + 1):
                        cand = rest[:d] + seq[i:j] + rest[d:]
                        if cand not in seen:
                            seen.add(cand)
                            reached.append(cand)
                            best = min(best, depth + simple_edit_distance(cand, ref))
        level = reached
    return best


def exact_ar_p_value_ter(
    stats_a: list[tuple[int, Fraction]], stats_b: list[tuple[int, Fraction]]
) -> float:
    """Exhaustive randomization p-value over all 2^n swap patterns, with the
    pooled edits/denominator corpus score computed inline."""

    def score(stats):
        edits = sum(e for e, _ in stats)
        denom = sum((d for _, d in stats), start=Fraction(0))
        return float(Fraction(edits) / (denom if denom else Fraction(1)))

    n = len(stats_a)
    observed = abs(score(stats_a) - score(stats_b))
    hits = 0
    for pattern in range(2 ** n):
        sa = [stats_b[i] if (pattern >> i) & 1 else stats_a[i] for i in range(n)]
        sb = [stats_a[i] if (pattern >> i) & 1 else stats_b[i] for i in range(n)]
        if abs(score(sa) - score(sb)) >= observed:
            hits += 1
    return hits / 2 ** n
