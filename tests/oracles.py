"""Independent oracles and frozen corpora shared across test modules.

Nothing here touches the implementation under test beyond plain Python;
the DTW oracle enumerates every monotone warp path explicitly, the
FastDTW window oracle widens the window one path cell at a time, the
FastDTW oracle is a frozen copy of the scalar kernel with ranges as
tuples and a min() backtrace, and the recurrent oracle steps the cell
equations one gate at a time.
"""

import numpy as np


def enumerate_dtw_distance(a, b) -> float:
    """Minimum alignment cost by exhaustive enumeration of warp paths.

    Walks the full tree of monotone, continuous index paths from (0, 0)
    to (len(a)-1, len(b)-1) and keeps the cheapest total |a_i - b_j|.
    Only usable for short sequences; path counts grow exponentially.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    m, n = len(a), len(b)
    best = [float("inf")]

    def walk(i, j, acc):
        acc = acc + abs(a[i] - b[j])
        if i == m - 1 and j == n - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def brute_force_window(coarse_path, m, n, radius):
    """FastDTW's per-row column ranges at the doubled resolution, built
    cell by cell: every coarse path cell widens the ranges of the fine
    rows under the coarse rows within the radius of it."""
    lo = [n] * m
    hi = [-1] * m
    for pi, pj in coarse_path:
        jlo = max(0, 2 * (pj - radius))
        jhi = min(n - 1, 2 * (pj + radius) + 1)
        for ci in range(pi - radius, pi + radius + 1):
            for ii in (2 * ci, 2 * ci + 1):
                if 0 <= ii < m:
                    lo[ii] = min(lo[ii], jlo)
                    hi[ii] = max(hi[ii], jhi)
    return list(zip(lo, hi))


def _reference_dtw_dp(a, b, ranges):
    """Windowed DTW over per-row inclusive column ranges (lo, hi) with
    non-decreasing lo; ties go to the diagonal, then up, then left.
    Returns (distance, path)."""
    inf = float("inf")
    m, n = len(a), len(b)
    rows, offs = [[0.0, inf]], [-1]
    for i in range(m):
        lo, hi = ranges[i]
        above, off_a = rows[-1], offs[-1]
        short = hi + 1 - off_a - len(above)
        if short > 0:
            above.extend([inf] * short)
        left = inf
        row = [left]
        k = lo - off_a
        for j in range(lo, hi + 1):
            best = above[k - 1]
            up = above[k]
            if up < best:
                best = up
            if left < best:
                best = left
            left = abs(a[i] - b[j]) + best
            row.append(left)
            k += 1
        row.append(inf)
        rows.append(row)
        offs.append(lo - 1)
    distance = rows[m][n - 1 - offs[m]]
    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        above, k_a = rows[i], j - offs[i]
        diag = above[k_a - 1]
        up = above[k_a]
        left = rows[i + 1][j - offs[i + 1] - 1]
        best = min(diag, up, left)
        if diag == best:
            i, j = i - 1, j - 1
        elif up == best:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return distance, path


def reference_fastdtw(a, b, radius):
    """FastDTW as (distance, path): halve both curves by averaging
    adjacent pairs, recurse, and refine inside brute_force_window around
    the coarse path; curves no longer than radius + 2 are solved over the
    full matrix."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    m, n = len(a), len(b)
    if m <= radius + 2 or n <= radius + 2:
        return _reference_dtw_dp(a, b, [(0, n - 1)] * m)

    def halve(seq):
        half = [(seq[2 * k] + seq[2 * k + 1]) / 2.0
                for k in range(len(seq) // 2)]
        return half + seq[len(seq) // 2 * 2:]

    _, coarse_path = reference_fastdtw(halve(a), halve(b), radius)
    return _reference_dtw_dp(a, b,
                             brute_force_window(coarse_path, m, n, radius))


def short_pair_corpus(seed=11, count=200, max_len=6):
    """Seeded random pairs short enough for the enumeration oracle."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        la, lb = rng.integers(1, max_len + 1, size=2)
        pairs.append((rng.standard_normal(la), rng.standard_normal(lb)))
    return pairs


def long_pair_corpus(seed=42, count=1000, max_len=64):
    """Seeded random pairs for FastDTW-versus-exact comparisons."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        la, lb = rng.integers(1, max_len + 1, size=2)
        pairs.append((rng.standard_normal(la), rng.standard_normal(lb)))
    return pairs


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def textbook_stack_forward(cell, layers, w_out, b_out, head, inputs):
    """Eval-mode stacked LSTM/GRU forward, one gate and one step at a time.

    Written from the cell equations in the network module's docstring,
    with nothing shared with that module. layers holds a (W, U, b) triple
    of plain arrays per layer, each holding one column block of width H
    per gate: LSTM i, f, o, g and GRU z, r, h. inputs is [T, B, F].
    Returns (predictions [T, B], hidden sequence [T, B, H] per layer).
    """
    x_seq = np.asarray(inputs, dtype=np.float64)
    hidden = []
    for w, u, b in layers:
        width = u.shape[0]

        def gate(k, x, h):
            cols = slice(k * width, (k + 1) * width)
            return x @ w[:, cols] + h @ u[:, cols] + b[cols]

        h = np.zeros((x_seq.shape[1], width))
        c = np.zeros_like(h)
        outs = []
        for x in x_seq:
            if cell == "lstm":
                i = _logistic(gate(0, x, h))
                f = _logistic(gate(1, x, h))
                o = _logistic(gate(2, x, h))
                g = np.tanh(gate(3, x, h))
                c = f * c + i * g
                h = o * np.tanh(c)
            else:
                z = _logistic(gate(0, x, h))
                r = _logistic(gate(1, x, h))
                cols = slice(2 * width, 3 * width)
                hc = np.tanh(x @ w[:, cols] + (r * h) @ u[:, cols] + b[cols])
                h = z * h + (1.0 - z) * hc
            outs.append(h)
        x_seq = np.stack(outs)
        hidden.append(x_seq)
    pre = x_seq @ w_out[0] + b_out[0]
    if head == "sigmoid":
        pre = _logistic(pre)
    elif head == "tanh":
        pre = np.tanh(pre)
    return pre, hidden
