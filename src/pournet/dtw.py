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

- ``dtw_exact`` fills anti-diagonals with numpy, a block of them at a
  time, and keeps one byte of backtrace per cell: 0.045 s and 5.3 MB at
  2000 x 2000 steps, against 0.08 s and 4.3 MB with eight numpy calls per
  diagonal, and 1.4 s and 128 MB for the Python list matrix before that
  (2-vCPU Xeon VM, tracemalloc peak).
- FastDTW's windows are a few cells wide, so ``_dtw_dp`` loops over them
  in Python and stores only each row's window. On the 30-50-step curves
  that ``eval-dtw`` scores, the block kernel costs about 4 us per
  diagonal and FastDTW's levels add up to 110-190 diagonals: 0.4-0.8 ms
  per pair against 0.3-0.6 ms for the scalar loop (same VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean, median

import numpy as np
from numpy.lib.stride_tricks import as_strided

_INF = float("inf")


@dataclass
class DTWResult:
    """Alignment distance plus the warp path that realizes it."""

    distance: float
    path: list  # of (i, j) tuples


@dataclass
class TestsetScore:
    """Per-pair FastDTW results plus summary statistics of their distances."""

    results: list  # of DTWResult, one per pair
    mean: float
    median: float
    min: float
    max: float

    @property
    def distances(self) -> list:
        return [r.distance for r in self.results]


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


def _dtw_dp(a, b, ranges) -> DTWResult:
    """Windowed DTW dynamic program over per-row inclusive column ranges.

    Cells outside the window act as +inf. The backtrace breaks ties by
    preferring the diagonal, then the i-decrement, then the j-decrement.
    The lower bounds of the ranges must not decrease from row to row, as
    they do not in full windows and FastDTW's projected windows.

    Only the window of each row is stored: ``rows[i + 1]`` holds row i at
    columns ``offs[i + 1]`` onward, with an +inf sentinel at each end, and
    ``rows[0]`` is a virtual row -1 that is 0.0 at column -1 and +inf
    elsewhere, so the origin needs no special case.
    """
    m, n = len(a), len(b)
    rows, offs = [[0.0, _INF]], [-1]
    for i in range(m):
        lo, hi = ranges[i]
        above, off_a = rows[-1], offs[-1]
        short = hi + 1 - off_a - len(above)
        if short > 0:
            above.extend([_INF] * short)
        ai = a[i]
        left = _INF
        row = [left]
        k = lo - off_a
        for j in range(lo, hi + 1):
            best = above[k - 1]
            up = above[k]
            if up < best:
                best = up
            if left < best:
                best = left
            left = abs(ai - b[j]) + best
            row.append(left)
            k += 1
        row.append(_INF)
        rows.append(row)
        offs.append(lo - 1)
    distance = rows[m][n - 1 - offs[m]]
    if not distance < _INF:  # every window holds a path; nan is inf - inf
        raise RuntimeError("DTW distance overflows float64")

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
    return DTWResult(distance=distance, path=path)


# anti-diagonals that dtw_exact fills per block
_BLOCK = 16


# float64 overflow is reported once, from the end cell, not per diagonal
@np.errstate(over="ignore")
def dtw_exact(a, b) -> DTWResult:
    """Full dynamic program; optimal distance over all warp paths.

    The fill runs over anti-diagonals, ``_BLOCK`` at a time. A block's
    costs take two numpy calls and its backtrace choices, one byte per
    cell, three more; each diagonal takes three (min, min, add). Memory
    is about len(a) * len(b) bytes plus ``_BLOCK + 2`` diagonals.
    """
    a = _as_float_array(a, "a")
    b = _as_float_array(b, "b")
    m, n = len(a), len(b)
    K = _BLOCK
    # Ring row k + 2 holds diagonal d0 + k of the block that starts at d0,
    # and rows 0 and 1 the two diagonals before it. Column i + 1 holds
    # cell (i, d - i) and column 0 the +inf row -1. Every diagonal of a
    # block is computed over the block's rows i0..i1, so cells off the
    # matrix are filled too. Those with j < 0 stay +inf: they read only
    # such cells, row -1, and columns past i1 + 1, which no block has
    # reached yet. Those with j >= n are never read by a cell of the
    # matrix.
    ring = np.full((K + 2, m + 1), _INF)
    ring[1, 1] = abs(a[0] - b[0])
    # b[j] is rb[n + K - 2 - j], zero for the columns j in [1 - K, -1]
    # and [n, n + K - 2] that blocks reach off the matrix
    rb = np.zeros(n + 2 * K - 2)
    rb[K - 1:K - 1 + n] = b[::-1]
    step = rb.strides[0]
    # min(diag, up) and min(diag, up, left) of each cell of a block
    diag_up_buf, best_buf = np.empty((K, m)), np.empty((K, m))

    # the choices of diagonal d, one byte per cell from row i0 of its
    # block, are chunks[d]; cell (i, d - i) is at offset base[d] + i
    chunks, base = [b""], [0]
    for d0 in range(1, m + n - 1, K):
        k_n = min(K, m + n - 1 - d0)
        i0, i1 = max(0, d0 - n + 1), min(m - 1, d0 + k_n - 1)
        width = i1 - i0 + 1
        diag_up = diag_up_buf[:k_n, :width]
        best = best_buf[:k_n, :width]
        # each diagonal's costs go where its cells will be; row k, column
        # l of b_view is b[d0 + k - i0 - l]
        cost = ring[2:k_n + 2, i0 + 1:i0 + width + 1]
        s = n + K - 1 - d0 - k_n + i0
        b_view = as_strided(rb[s:], (k_n, width), (step, step))[::-1]
        np.subtract(a[i0:i0 + width], b_view, out=cost)
        np.abs(cost, out=cost)
        at_i = list(ring[:k_n + 2, i0:i0 + width])
        after_i = list(ring[:k_n + 2, i0 + 1:i0 + width + 1])
        for k, (du, bst) in enumerate(zip(diag_up, best)):
            np.minimum(at_i[k], at_i[k + 1], out=du)
            np.minimum(du, after_i[k + 1], out=bst)
            np.add(after_i[k + 2], bst, out=after_i[k + 2])
        # 0 diag, 1 up, 2 left: 0 when diag is a minimum, else 1 plus 1
        # more when left is below both diag and up, so the first minimum
        # in the order diag, up, left
        diag = ring[:k_n, i0:i0 + width]
        left = ring[1:k_n + 1, i0 + 1:i0 + width + 1]
        choice = np.add((diag != best).view(np.uint8),
                        (left < diag_up).view(np.uint8)).tobytes()
        chunks.extend([choice] * k_n)
        base.extend(range(-i0, k_n * width - i0, width))
        ring[:2] = ring[k_n:k_n + 2]
    distance = float(ring[1, m])
    if distance == _INF:
        raise RuntimeError("DTW distance overflows float64")

    # On the first row and column only one move is legal, so the choices
    # stored there are never read.
    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 and j > 0:
        d = i + j
        move = chunks[d][base[d] + i]
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.extend((i, jj) for jj in range(j - 1, -1, -1))
    path.extend((ii, j) for ii in range(i - 1, -1, -1))
    path.reverse()
    return DTWResult(distance=distance, path=path)


def fastdtw(a, b, radius: int = 1) -> DTWResult:
    """Multiresolution DTW; distance is an upper bound on the exact one."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a = _as_float_array(a, "a").tolist()
    b = _as_float_array(b, "b").tolist()
    return _fastdtw_rec(a, b, int(radius))


def _fastdtw_rec(a, b, radius) -> DTWResult:
    min_size = radius + 2
    if len(a) <= min_size or len(b) <= min_size:
        return _dtw_dp(a, b, [(0, len(b) - 1)] * len(a))
    coarse = _fastdtw_rec(_halve(a), _halve(b), radius)
    ranges = _expanded_window(coarse.path, len(a), len(b), radius)
    return _dtw_dp(a, b, ranges)


def _halve(seq):
    half = [(seq[2 * k] + seq[2 * k + 1]) / 2.0 for k in range(len(seq) // 2)]
    if len(seq) % 2:
        half.append(seq[-1])
    return half


def _expanded_window(coarse_path, m: int, n: int, radius: int):
    """Per-row column ranges: the coarse path dilated by the radius at the
    coarse resolution, then projected onto the doubled resolution.

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
    return [(max(0, 2 * (first[max(0, ii // 2 - radius)] - radius)),
             min(n - 1, 2 * (last[min(top, ii // 2 + radius)] + radius) + 1))
            for ii in range(m)]


def score_testset(pairs, radius: int = 1) -> TestsetScore:
    """FastDTW result for each (predicted, actual) pair plus aggregates."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one curve pair to score")
    results = [fastdtw(pred, actual, radius) for pred, actual in pairs]
    distances = [r.distance for r in results]
    return TestsetScore(results=results, mean=fmean(distances),
                        median=float(median(distances)),
                        min=min(distances), max=max(distances))


def export_alignment(result: DTWResult, a, b, path_out) -> None:
    """Write the aligned value pairs along the warp path as CSV.

    Columns are i, j, a, b, cost; the cost column sums to the distance.
    """
    a = _as_float_array(a, "a").tolist()
    b = _as_float_array(b, "b").tolist()
    validate_warp_path(result.path, len(a), len(b))
    _write_alignment(result.path, a, b, path_out)


def _write_alignment(warp_path, a, b, path_out) -> None:
    """Write export_alignment's rows for a warp path already checked
    against the float lists a and b, as the one that fastdtw or
    dtw_exact returned for them."""
    with open(path_out, "w", encoding="utf-8") as fh:
        fh.write("i,j,a,b,cost\n")
        for i, j in warp_path:
            fh.write(f"{i},{j},{a[i]!r},{b[j]!r},{abs(a[i] - b[j])!r}\n")
