"""Kernels for edit-distance alignment and greedy block-shift search.

Tokens reach this module as plain lists of integer ids, interned by the
caller; the kernels compare ids only, never the strings behind them.
Every step reads or writes one element at a time, which Python lists do
faster than numpy arrays, so the module uses no numpy.

:func:`align` is the one alignment in the package: the shift search takes
its matched positions from it, and :mod:`edeval.ter` builds every edit
script from it.  :func:`_lev_bounded` only scores candidate shifts; both
fill their tables with :func:`_next_row`.

:func:`edit_floor`, the bag-of-words bound ``max(n, m) - |H & R|``, is a
floor that no permutation of the hypothesis aligns below: the shift search
stops when its distance reaches it, and a greedy step stops at the first
candidate that reaches it, which wins the tie-break anyway.
:func:`edeval.ter.mter` prunes references by the same bound.
"""

from array import array
from collections import Counter

MAX_SHIFT_SIZE = 10   # longest block that may move (tercom default)
MAX_SHIFT_DIST = 50   # farthest a block may move (tercom default)

MATCH, SUBSTITUTION, INSERTION, DELETION = range(4)   # alignment op codes


def _next_row(prev, x, r):
    """Row i of the unit-cost edit-distance table of some h against r, from
    row i - 1 (``prev``) and x = h[i - 1].

    Neighbouring cells differ by at most 1, so a match takes the diagonal
    and any other cell is one more than the least of its three neighbours.
    """
    left = prev[0] + 1
    row = [left]
    for diag, up, y in zip(prev, prev[1:], r):
        if x != y:
            if up < diag:
                diag = up
            if left < diag:
                diag = left
            diag += 1
        row.append(diag)
        left = diag
    return row


def align(h, r):
    """Unit-cost edit-distance alignment of h against r: (distance, ops).

    ``ops`` lists ``(code, i, j)`` in alignment order, where ``code`` is
    MATCH, SUBSTITUTION, INSERTION or DELETION and ``i``/``j`` index h/r
    (-1 on the side an insertion or deletion lacks).  The traceback
    prefers match, substitution, insertion, deletion, in that order, so
    every alignment-dependent decision is deterministic.
    """
    n = len(h)
    m = len(r)
    D = [list(range(m + 1))]
    for x in h:
        D.append(_next_row(D[-1], x, r))
    ops = []
    i, j = n, m
    while i > 0 and j > 0:
        # equal keys always align as a match: D[i][j] == D[i-1][j-1] then
        if h[i - 1] == r[j - 1]:
            i -= 1
            j -= 1
            ops.append((MATCH, i, j))
        elif D[i][j] == D[i - 1][j - 1] + 1:
            i -= 1
            j -= 1
            ops.append((SUBSTITUTION, i, j))
        elif D[i][j] == D[i][j - 1] + 1:
            j -= 1
            ops.append((INSERTION, -1, j))
        else:
            i -= 1
            ops.append((DELETION, i, -1))
    ops.extend((DELETION, t, -1) for t in range(i - 1, -1, -1))
    ops.extend((INSERTION, -1, t) for t in range(j - 1, -1, -1))
    ops.reverse()
    return D[n][m], ops


def _lev_bounded(a, b, bound):
    """Edit distance of a vs b, early-abandoned once it cannot beat bound.

    Returns the exact distance when it is < bound, otherwise bound.
    """
    if abs(len(a) - len(b)) >= bound:
        return bound
    row = list(range(len(b) + 1))
    for x in a:
        row = _next_row(row, x, b)
        if min(row) >= bound:
            return bound
    return row[-1]


def edit_floor(h, r):
    """Lower bound on the greedy-shift edits of h against r.

    Shifts only permute the hypothesis, and a unit-cost alignment of any
    permutation needs at least max(n, m) minus its matches edits, while
    matches cannot exceed the multiset intersection of the keys.  The
    greedy result (final distance plus one per shift) is never below that.
    Works on any hashable keys, ids or strings.
    """
    common = sum((Counter(h) & Counter(r)).values())
    return max(len(h), len(r)) - common


def _shifted(seq, i, j, d):
    """seq with its block seq[i:j] moved to position d of the rest."""
    rest = seq[:i] + seq[j:]
    return rest[:d] + seq[i:j] + rest[d:]


def greedy_shift_ter(h, r):
    """Greedy-shift TER core: returns (edits, shifts, order, moved).

    Starting from the minimum-edit alignment, repeatedly applies the legal
    block shift with the largest edit-distance reduction; ties are broken
    by leftmost origin, then shortest block, then leftmost destination
    (guaranteed by enumeration order plus strict improvement).  A block
    may move only if it exactly matches a contiguous reference span, it
    contains at least one currently misaligned token, its length is at
    most MAX_SHIFT_SIZE and its displacement at most MAX_SHIFT_DIST.  The
    search ends once the distance reaches :func:`edit_floor`.

    h and r are sequences of integer ids (anything with ``tolist()`` is
    read through it).  ``order`` (``array('i')``) maps final position ->
    original hypothesis index; ``moved`` (``array('B')``) flags original
    indices that took part in any applied shift.
    """
    cur = h.tolist() if hasattr(h, "tolist") else list(h)
    r = r.tolist() if hasattr(r, "tolist") else list(r)
    order = list(range(len(cur)))
    moved = array("B", bytes(len(cur)))
    floor = edit_floor(cur, r)
    cur_ed, ops = align(cur, r)
    shifts = 0
    while cur_ed > floor:
        best = _best_shift(cur, r, ops, cur_ed, floor)
        if best is None:
            break
        for t in order[best[0]:best[1]]:
            moved[t] = 1
        cur = _shifted(cur, *best)
        order = _shifted(order, *best)
        shifts += 1
        cur_ed, ops = align(cur, r)
    return cur_ed + shifts, shifts, array("i", order), moved


def _best_shift(cur, r, ops, cur_ed, floor):
    """First legal shift (i, j, d) of cur[i:j] to d with the least distance
    below cur_ed, or None; ``ops`` is the alignment of cur against r."""
    n = len(cur)
    m = len(r)
    matched = [False] * n
    for code, t, _ in ops:
        if code == MATCH:
            matched[t] = True
    best_ed = cur_ed
    best = None
    for i in range(n):
        # reference positions where the block cur[i:j + 1] starts
        x = cur[i]
        starts = [p for p in range(m) if r[p] == x]
        if not starts:
            continue
        err = not matched[i]
        for j in range(i, min(i + MAX_SHIFT_SIZE, n)):
            if j > i:
                if not matched[j]:
                    err = True
                k = j - i
                x = cur[j]
                starts = [p for p in starts if p + k < m and r[p + k] == x]
                if not starts:
                    break
            if not err:
                continue
            block = cur[i:j + 1]
            removed = cur[:i] + cur[j + 1:]
            hi = min(len(removed), i + MAX_SHIFT_DIST)
            for d in range(max(0, i - MAX_SHIFT_DIST), hi + 1):
                if d == i:
                    continue
                e = _lev_bounded(removed[:d] + block + removed[d:], r, best_ed)
                if e < best_ed:
                    best_ed = e
                    best = (i, j + 1, d)
                    if e == floor:
                        return best
    return best
