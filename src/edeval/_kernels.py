"""Numeric kernels for edit-distance alignment and greedy block-shift search.

Tokens are interned to int32 ids before they reach this module; the
kernels compare ids only, never the strings behind them.
"""

import numpy as np

MAX_SHIFT_SIZE = 10   # longest block that may move (tercom default)
MAX_SHIFT_DIST = 50   # farthest a block may move (tercom default)


def _fill_dp(h, r, D):
    """Unit-cost edit-distance table of h vs r; returns the distance."""
    n = h.shape[0]
    m = r.shape[0]
    for j in range(m + 1):
        D[0, j] = j
    for i in range(1, n + 1):
        D[i, 0] = i
        hi = h[i - 1]
        for j in range(1, m + 1):
            c = D[i - 1, j - 1] + (0 if hi == r[j - 1] else 1)
            d = D[i - 1, j] + 1
            if d < c:
                c = d
            e = D[i, j - 1] + 1
            if e < c:
                c = e
            D[i, j] = c
    return D[n, m]


def _matched_flags(h, r, D, matched):
    """Mark hypothesis positions aligned as exact key matches.

    Traceback preference is fixed (match, substitution, insertion,
    deletion) so alignment-dependent decisions are deterministic.
    """
    i = h.shape[0]
    j = r.shape[0]
    for t in range(i):
        matched[t] = 0
    while i > 0 and j > 0:
        if h[i - 1] == r[j - 1] and D[i, j] == D[i - 1, j - 1]:
            matched[i - 1] = 1
            i -= 1
            j -= 1
        elif D[i, j] == D[i - 1, j - 1] + 1:
            i -= 1
            j -= 1
        elif D[i, j] == D[i, j - 1] + 1:
            j -= 1
        else:
            i -= 1


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
    D = np.empty((n + 1, m + 1), dtype=np.int32)
    cur_ed = _fill_dp(cur, r, D)
    shifts = 0
    matched = np.zeros(n, dtype=np.uint8)
    starts = np.empty(m, dtype=np.int32)
    cand = np.empty(n, dtype=np.int32)
    removed = np.empty(n, dtype=np.int32)
    removed_order = np.empty(n, dtype=np.int32)
    row0 = np.empty(m + 2, dtype=np.int32)
    row1 = np.empty(m + 2, dtype=np.int32)
    # cur_ed <= 1 cannot be improved: a shift reaching 0 would mean hyp and
    # ref are equal as multisets, which forces a no-shift distance >= 2.
    while cur_ed >= 2:
        _matched_flags(cur, r, D, matched)
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
            err = matched[i] == 0
            max_len = min(MAX_SHIFT_SIZE, n - i)
            for blk in range(1, max_len + 1):
                j = i + blk - 1
                if blk > 1:
                    if matched[j] == 0:
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
        cur_ed = _fill_dp(cur, r, D)
    return cur_ed + shifts, shifts, order, moved

