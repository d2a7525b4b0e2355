"""Numeric kernels for edit-distance alignment and greedy block-shift search.

Tokens are interned to int32 ids before they reach this module; the
kernels compare ids only, never the strings behind them.

:func:`align` is the one alignment in the package: the shift search takes
its matched positions from it, and :mod:`edeval.ter` builds every edit
script from it.  :func:`_lev_bounded` only scores candidate shifts.
"""

import numpy as np

MAX_SHIFT_SIZE = 10   # longest block that may move (tercom default)
MAX_SHIFT_DIST = 50   # farthest a block may move (tercom default)

MATCH, SUBSTITUTION, INSERTION, DELETION = range(4)   # alignment op codes


def align(h, r):
    """Unit-cost edit-distance alignment of h against r: (distance, ops).

    ``ops`` lists ``(code, i, j)`` in alignment order, where ``code`` is
    MATCH, SUBSTITUTION, INSERTION or DELETION and ``i``/``j`` index h/r
    (-1 on the side an insertion or deletion lacks).  The traceback
    prefers match, substitution, insertion, deletion, in that order, so
    every alignment-dependent decision is deterministic.
    """
    n = h.shape[0]
    m = r.shape[0]
    cols = np.arange(m + 1, dtype=np.int32)
    D = np.empty((n + 1, m + 1), dtype=np.int32)
    D[0] = cols
    for i in range(n):
        row = D[i + 1]
        row[0] = i + 1
        np.minimum(D[i, :-1] + (r != h[i]), D[i, 1:] + 1, out=row[1:])
        # close over insertions: row[j] = min over k <= j of row[k] + (j - k)
        row[:] = np.minimum.accumulate(row - cols) + cols
    D = D.tolist()
    hl = h.tolist()
    rl = r.tolist()
    ops = []
    i, j = n, m
    while i > 0 and j > 0:
        # equal keys always align as a match: D[i][j] == D[i-1][j-1] then
        if hl[i - 1] == rl[j - 1]:
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


def _lev_bounded(a, n, b, bound, row0, row1):
    """Edit distance of a[:n] vs b, early-abandoned once it cannot beat bound.

    Returns the exact distance when it is < bound, otherwise bound.
    """
    m = b.shape[0]
    if n - m >= bound or m - n >= bound:
        return bound
    for j in range(m + 1):
        row0[j] = j
    for i in range(1, n + 1):
        row1[0] = i
        ai = a[i - 1]
        rmin = i
        for j in range(1, m + 1):
            c = row0[j - 1] + (0 if ai == b[j - 1] else 1)
            d = row0[j] + 1
            if d < c:
                c = d
            e = row1[j - 1] + 1
            if e < c:
                c = e
            row1[j] = c
            if c < rmin:
                rmin = c
        if rmin >= bound:
            return bound
        tmp = row0
        row0 = row1
        row1 = tmp
    return row0[m]


def greedy_shift_ter(h, r):
    """Greedy-shift TER core: returns (edits, shifts, order, moved).

    Starting from the minimum-edit alignment, repeatedly applies the legal
    block shift with the largest edit-distance reduction; ties are broken
    by leftmost origin, then shortest block, then leftmost destination
    (guaranteed by enumeration order plus strict improvement).  A block
    may move only if it exactly matches a contiguous reference span, it
    contains at least one currently misaligned token, its length is at
    most MAX_SHIFT_SIZE and its displacement at most MAX_SHIFT_DIST.

    ``order`` maps final position -> original hypothesis index; ``moved``
    flags original indices that took part in any applied shift.
    """
    n = h.shape[0]
    m = r.shape[0]
    order = np.arange(n).astype(np.int32)
    moved = np.zeros(n, dtype=np.uint8)
    if n == 0 or m == 0:
        return max(n, m), 0, order, moved
    cur = h.copy()
    cur_ed, ops = align(cur, r)
    shifts = 0
    starts = np.empty(m, dtype=np.int32)
    cand = np.empty(n, dtype=np.int32)
    removed = np.empty(n, dtype=np.int32)
    removed_order = np.empty(n, dtype=np.int32)
    row0 = np.empty(m + 2, dtype=np.int32)
    row1 = np.empty(m + 2, dtype=np.int32)
    # cur_ed <= 1 cannot be improved: a shift reaching 0 would mean hyp and
    # ref are equal as multisets, which forces a no-shift distance >= 2.
    while cur_ed >= 2:
        matched = [False] * n
        for code, t, _ in ops:
            if code == MATCH:
                matched[t] = True
        best_ed = cur_ed
        best_i = -1
        best_len = 0
        best_d = -1
        for i in range(n):
            ns = 0
            for p in range(m):
                if r[p] == cur[i]:
                    starts[ns] = p
                    ns += 1
            if ns == 0:
                continue
            err = not matched[i]
            max_len = min(MAX_SHIFT_SIZE, n - i)
            for blk in range(1, max_len + 1):
                j = i + blk - 1
                if blk > 1:
                    if not matched[j]:
                        err = True
                    k = 0
                    for s in range(ns):
                        p = starts[s]
                        if p + blk - 1 < m and r[p + blk - 1] == cur[j]:
                            starts[k] = p
                            k += 1
                    ns = k
                    if ns == 0:
                        break
                if not err:
                    continue
                nl = n - blk
                idx = 0
                for t in range(n):
                    if t < i or t > j:
                        removed[idx] = cur[t]
                        idx += 1
                lo = i - MAX_SHIFT_DIST
                if lo < 0:
                    lo = 0
                hi_d = i + MAX_SHIFT_DIST
                if hi_d > nl:
                    hi_d = nl
                for d in range(lo, hi_d + 1):
                    if d == i:
                        continue
                    for t in range(d):
                        cand[t] = removed[t]
                    for t in range(blk):
                        cand[d + t] = cur[i + t]
                    for t in range(d, nl):
                        cand[blk + t] = removed[t]
                    e = _lev_bounded(cand, n, r, best_ed, row0, row1)
                    if e < best_ed:
                        best_ed = e
                        best_i = i
                        best_len = blk
                        best_d = d
        if best_i < 0:
            break
        i = best_i
        blk = best_len
        j = i + blk - 1
        d = best_d
        idx = 0
        for t in range(n):
            if t < i or t > j:
                removed[idx] = cur[t]
                removed_order[idx] = order[t]
                idx += 1
        new_cur = np.empty(n, dtype=cur.dtype)
        new_order = np.empty(n, dtype=np.int32)
        for t in range(d):
            new_cur[t] = removed[t]
            new_order[t] = removed_order[t]
        for t in range(blk):
            new_cur[d + t] = cur[i + t]
            new_order[d + t] = order[i + t]
            moved[order[i + t]] = 1
        for t in range(d, n - blk):
            new_cur[blk + t] = removed[t]
            new_order[blk + t] = removed_order[t]
        cur = new_cur
        order = new_order
        shifts += 1
        cur_ed, ops = align(cur, r)
    return cur_ed + shifts, shifts, order, moved

