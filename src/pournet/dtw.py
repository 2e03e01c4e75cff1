"""Exact dynamic time warping and the FastDTW approximation.

A warp path is a list of (i, j) index pairs that starts at (0, 0), ends
at (len(a) - 1, len(b) - 1) and advances i, j or both by exactly one per
step. The pointwise cost is the absolute difference, so distances stay
in the units of the compared curves (lbf for weight curves).

FastDTW follows the classic multiresolution scheme: halve both series
by averaging adjacent pairs (an odd tail element is carried through),
solve the coarse problem recursively, then refine the alignment inside
a radius-bounded window around the projected coarse path. Series no
longer than radius + 2 are solved exactly.

Two kernels fill the dynamic program, with the same float operations per
cell and the same tie-break, so they agree bit for bit on distance and
path (full-radius FastDTW equals exact DTW):

- ``dtw_exact`` fills anti-diagonals with numpy, a block of 32 at a
  time, each block in one reused contiguous array, and keeps two bits
  of backtrace per cell in two bit-planes. At 2000 x 2000 steps it
  takes 0.020 s and 2.8 MB, against 0.023 s and 6.9 MB with one byte
  per cell; at 8000 x 8000, 23 MB against 75 MB (2-vCPU Xeon VM,
  fastest of 40 calls, tracemalloc peak). A matrix of Python floats
  took 1.4 s and 128 MB.
- FastDTW's windows are a few cells wide, so ``_dtw_dp`` loops over them
  in Python and stores only each row's window. A coarse row's two fine
  rows share one window, so one loop fills both, column by column, and
  pays the per-row set-up (about 1 us, against about 125 ns per cell)
  once per pair. At radius 1 that takes 0.17-0.28 ms per pair of the
  30-50-step curves that ``eval-dtw`` scores, against 0.18-0.34 ms with
  one loop per row, and 46 against 55 ms for eight random-walk pairs of
  200-2000 steps (same VM, medians of alternating runs). The block
  kernel, at about 3.0 us per diagonal over the 110-190 diagonals of
  FastDTW's levels, would take 0.3-0.6 ms on those short curves.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_INF = float("inf")


class DistanceOverflowError(RuntimeError):
    """A DTW distance beyond float64's range. score_testset sets pair to
    the index of the pair whose distance it is."""

    pair = None


@dataclass
class DTWResult:
    """Alignment distance plus the warp path that realizes it."""

    distance: float
    path: list  # of (i, j) tuples


def validate_warp_path(path, len_a: int, len_b: int) -> None:
    """Raise ValueError unless path satisfies the warp-path invariants."""
    if not path:
        raise ValueError("warp path is empty")
    if path[0] != (0, 0):
        raise ValueError(f"warp path must start at (0, 0), got {path[0]}")
    if path[-1] != (len_a - 1, len_b - 1):
        raise ValueError(f"warp path must end at ({len_a - 1}, {len_b - 1}), "
                         f"got {path[-1]}")
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        di, dj = i1 - i0, j1 - j0
        if not (di in (0, 1) and dj in (0, 1) and di + dj >= 1):
            raise ValueError(f"illegal warp step ({i0},{j0}) -> ({i1},{j1})")


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _dtw_dp(a, b, los, his) -> DTWResult:
    """Windowed DTW dynamic program over row pairs; rows 2p and 2p + 1
    both span the inclusive columns los[p]..his[p].

    Cells outside the window act as +inf. The backtrace breaks ties by
    preferring the diagonal, then the i-decrement, then the j-decrement.
    The lower bounds must not decrease from pair to pair, as they do not
    in full windows and FastDTW's projected windows.

    One loop fills both rows of a pair, column by column: row 2p's cell j
    is the next cell's diag and row 2p + 1's up. When len(a) is odd, the
    last pair's second row is a phantom copy of a's last value, dropped
    before the distance is read.

    Only the window of each row is stored: ``rows[i + 1]`` holds row i at
    columns ``offs[i + 1]`` onward, with an +inf sentinel at each end, and
    ``rows[0]`` is a virtual row -1 that is 0.0 at column -1 and +inf
    elsewhere, so the origin needs no special case.
    """
    m, n = len(a), len(b)
    a_odd = a[1::2] + a[m - 1:] if m % 2 else a[1::2]
    above, off_a = [0.0, _INF], -1
    rows, offs = [above], [off_a]
    for a0, a1, lo, hi in zip(a[::2], a_odd, los, his):
        short = hi + 1 - off_a - len(above)
        if short > 0:
            above.extend([_INF] * short)
        left0 = left1 = _INF
        row0, row1 = [left0], [left1]
        append0, append1 = row0.append, row1.append
        k = lo - off_a
        # each cell's up is the next cell's diag, and row 2p's cell is
        # row 2p + 1's up there and its diag one column on
        diag = above[k - 1]
        for bj, up in zip(b[lo:hi + 1], above[k:]):
            best = diag
            if up < best:
                best = up
            if left0 < best:
                best = left0
            best1 = left0
            left0 = abs(a0 - bj) + best
            append0(left0)
            if left0 < best1:
                best1 = left0
            if left1 < best1:
                best1 = left1
            left1 = abs(a1 - bj) + best1
            append1(left1)
            diag = up
        append0(_INF)
        append1(_INF)
        above, off_a = row1, lo - 1
        rows += row0, row1
        offs += off_a, off_a
    above = rows[m]
    distance = above[n - 1 - off_a]
    if not distance < _INF:  # every window holds a path; nan is inf - inf
        raise DistanceOverflowError("DTW distance overflows float64")

    # Comparisons stand in for min(diag, up, left), which takes the first
    # minimum, only when no cell is nan. A finite end cell rules nan out:
    # an inf input value would make the cost of every path inf or nan.
    # On the first row and column only one move is legal.
    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    row, off = above, off_a
    above, off_a = rows[i], offs[i]
    while i > 0 and j > 0:
        k = j - off_a
        diag, up, left = above[k - 1], above[k], row[j - off - 1]
        if left < diag and left < up:
            j -= 1
        else:
            if diag <= up:
                j -= 1
            i -= 1
            row, off = above, off_a
            above, off_a = rows[i], offs[i]
        path.append((i, j))
    path.extend((i, jj) for jj in range(j - 1, -1, -1))
    path.extend((ii, j) for ii in range(i - 1, -1, -1))
    path.reverse()
    return DTWResult(distance=distance, path=path)


# anti-diagonals that dtw_exact fills per block
_BLOCK = 32


# float64 overflow is reported once, from the end cell, not per diagonal
@np.errstate(over="ignore")
def dtw_exact(a, b) -> DTWResult:
    """Full dynamic program; optimal distance over all warp paths.

    The fill runs over anti-diagonals, ``_BLOCK`` at a time, each block in
    one reused C-contiguous array. A block's costs take two numpy calls
    and its backtrace choices, two bits per cell, four more; each
    diagonal takes three (min, min, add). Memory is about
    len(a) * len(b) / 4 bytes plus ``2 * _BLOCK + 5`` diagonals of floats
    and two choice buffers of ``_BLOCK`` diagonals of bytes.
    """
    a = _as_float_array(a, "a")
    b = _as_float_array(b, "b")
    m, n = len(a), len(b)
    K = _BLOCK
    fmin, add = np.fmin, np.add
    # a_pad[i + 1] is a[i]; a_pad[0] pairs with row -1, whose costs are
    # reset to +inf
    a_pad = np.concatenate(([0.0], a))
    # b[j] is rb[n + K - 1 - j], zero for the columns j in [1 - K, -1]
    # and [n, n + K - 1] that blocks reach off the matrix. Row s of toep
    # is rb[s:s + m + 1]; rb is long enough that every row a block
    # reads lies inside it.
    rb = np.zeros(n + K + m)
    rb[K:K + n] = b[::-1]
    toep = sliding_window_view(rb, m + 1)
    # Block arrays R, in the one flat buffer, are [k_n + 2, L]
    # with L = width + 1: row k + 2 holds diagonal d0 + k, rows 0 and 1
    # the two diagonals before it, and column c cell (i0 + c - 1,
    # d - i0 - c + 1). Every diagonal of a block is computed over the
    # block's rows i0 - 1..i1, so cells off the matrix are filled too.
    # Column 0 is reset to +inf: it is row -1 when i0 == 0, and otherwise
    # holds only cells with j >= n, which no cell of the matrix reads.
    # Cells with j < 0 stay +inf: they read only such cells, row -1, and
    # rows past the previous block's i1, which the carry sets to +inf.
    flat = np.empty((K + 2) * (m + 1))
    # min(diag, up) of each cell, rows of length L too; filled, so that
    # its unused last column holds no nan
    du_flat = np.zeros(K * (m + 1))
    # min(diag, up, left) of one diagonal
    best = np.empty(m + 1)
    # the two bit-planes of a block's backtrace choices
    ne_lt = np.empty((2, K * (m + 1)), np.bool_)
    # the last two diagonals of the block before, in its columns; a
    # virtual block before the first holds diagonals -1 and 0
    carry = np.full((2, m + 1), _INF)
    carry[1, 1], prev_i0, prev_L = abs(a[0] - b[0]), 0, 2

    # the choices of diagonal d, one bit per cell from row i0 of its
    # block in each plane, are planes[d]; cell (i, d - i) is at bit
    # offset base[d] + i
    planes, base = [(b"", b"")], [0]
    for d0 in range(1, m + n - 1, K):
        k_n = min(K, m + n - 1 - d0)
        i0, i1 = max(0, d0 - n + 1), min(m - 1, d0 + k_n - 1)
        L = i1 - i0 + 2
        R = flat[:(k_n + 2) * L].reshape(k_n + 2, L)
        # carry the previous block's last two diagonals, shifted to this
        # block's rows
        shift = i0 - prev_i0
        kept = min(L, prev_L - shift)
        R[:2, :kept] = carry[:, shift:shift + kept]
        R[:2, kept:] = _INF
        # row k, column c of b_view is b[d0 + k - i0 - c + 1]
        s = n + K - 1 - d0 - k_n + i0
        b_view = toep[s:s + k_n, :L][::-1]
        cost = R[2:]
        # a - b with a contiguous second operand: copying the reversed
        # view first is cheaper than subtracting from it
        np.copyto(cost, b_view)
        np.subtract(a_pad[i0:i0 + L], cost, out=cost)
        np.abs(cost, out=cost)
        cost[:, 0] = _INF
        du = du_flat[:k_n * L].reshape(k_n, L)
        best_k = best[:L - 1]
        at_i, after_i = list(R[:, :-1]), list(R[:, 1:])
        # fmin equals minimum here, as no operand is nan: the inputs are
        # finite and every cell is +inf or a sum of non-negative costs.
        # Unlike minimum, fmin takes out positionally, which is cheaper.
        for diag, up, du_k, left, cell in zip(at_i, at_i[1:], du[:, :-1],
                                              after_i[1:], after_i[2:]):
            fmin(diag, up, du_k)
            fmin(du_k, left, best_k)
            add(cell, best_k, cell)
        # The first minimum in the order diag, up, left: diag unless ne,
        # else left if lt, else up. ne is diag != min(diag, up, left),
        # which is diag != du or lt. Entry k * L + c of each operand
        # belongs to the cell in column c + 1 of row k + 2.
        span = k_n * L - 1
        ne, lt = ne_lt[:, :span]
        np.not_equal(flat[:span], du_flat[:span], out=ne)
        np.less(flat[L + 1:L + 1 + span], du_flat[:span], out=lt)
        np.logical_or(ne, lt, out=ne)
        bits = np.packbits(ne_lt[:, :span], axis=1, bitorder="little")
        planes.extend([(bits[0].tobytes(), bits[1].tobytes())] * k_n)
        base.extend(range(-i0, k_n * L - i0, L))
        carry[:, :L], prev_i0, prev_L = R[k_n:], i0, L
    distance = float(carry[1, m - prev_i0])
    if distance == _INF:
        raise DistanceOverflowError("DTW distance overflows float64")

    # On the first row and column only one move is legal, so the choices
    # stored there are never read.
    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 and j > 0:
        d = i + j
        o = base[d] + i
        ne_d, lt_d = planes[d]
        bit = 1 << (o & 7)
        if not ne_d[o >> 3] & bit:
            i, j = i - 1, j - 1
        elif lt_d[o >> 3] & bit:
            j -= 1
        else:
            i -= 1
        path.append((i, j))
    path.extend((i, jj) for jj in range(j - 1, -1, -1))
    path.extend((ii, j) for ii in range(i - 1, -1, -1))
    path.reverse()
    return DTWResult(distance=distance, path=path)


def fastdtw(a, b, radius: int = 1) -> DTWResult:
    """Multiresolution DTW; distance is an upper bound on the exact one.
    radius is a non-negative integer (a Python or numpy int, not a bool)."""
    if isinstance(radius, bool) or not isinstance(radius, numbers.Integral):
        raise ValueError(f"radius must be an integer, got {radius!r}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a = _as_float_array(a, "a").tolist()
    b = _as_float_array(b, "b").tolist()
    return _fastdtw_rec(a, b, int(radius))


def _fastdtw_rec(a, b, radius) -> DTWResult:
    min_size = radius + 2
    m, n = len(a), len(b)
    if m <= min_size or n <= min_size:
        pairs = (m + 1) // 2
        return _dtw_dp(a, b, [0] * pairs, [n - 1] * pairs)
    coarse = _fastdtw_rec(_halve(a), _halve(b), radius)
    return _dtw_dp(a, b, *_expanded_window(coarse.path, n, radius))


def _halve(seq):
    half = [(x + y) / 2.0 for x, y in zip(seq[::2], seq[1::2])]
    if len(seq) % 2:
        half.append(seq[-1])
    return half


def _expanded_window(coarse_path, n: int, radius: int):
    """Per-coarse-row column bounds (los, his) at the doubled resolution:
    the coarse path dilated by the radius at the coarse resolution, then
    projected onto the columns that coarse row c's fine rows 2c and
    2c + 1 share.

    The path is monotone, so the widest columns within the radius of
    coarse row c are the first column of row c - radius and the last of
    row c + radius.
    """
    top = coarse_path[-1][0]
    first, last = [0] * (top + 1), [0] * (top + 1)
    for pi, pj in reversed(coarse_path):
        first[pi] = pj
    for pi, pj in coarse_path:
        last[pi] = pj
    r = min(radius, top)
    los = [max(0, 2 * (j - radius)) for j in first[:1] * r + first[:top + 1 - r]]
    his = [min(n - 1, 2 * (j + radius) + 1) for j in last[r:] + last[-1:] * r]
    return los, his


def score_testset(pairs, radius: int = 1) -> list:
    """fastdtw's DTWResult for each (predicted, actual) pair, in order."""
    results = []
    for k, (pred, actual) in enumerate(pairs):
        try:
            results.append(fastdtw(pred, actual, radius))
        except DistanceOverflowError as exc:
            exc.pair = k
            raise
    return results


def export_alignment(result: DTWResult, a, b, path_out) -> None:
    """Write the aligned value pairs along the warp path as CSV.

    Columns are i, j, a, b, cost; the cost column sums to the distance.
    result must be what fastdtw or dtw_exact returned for these curves:
    only the path's end is checked, so its steps are written unchecked.
    """
    a = _as_float_array(a, "a").tolist()
    b = _as_float_array(b, "b").tolist()
    end = (len(a) - 1, len(b) - 1)
    if result.path[-1:] != [end]:
        raise ValueError(f"warp path does not end at {end}")
    with open(path_out, "w", encoding="utf-8") as fh:
        fh.write("i,j,a,b,cost\n")
        for i, j in result.path:
            fh.write(f"{i},{j},{a[i]!r},{b[j]!r},{abs(a[i] - b[j])!r}\n")
