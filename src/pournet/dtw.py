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
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

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


def _as_float_list(x, name: str):
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr.tolist()


def _dtw_dp(a, b, ranges) -> DTWResult:
    """Windowed DTW dynamic program over per-row inclusive column ranges.

    Cells outside the window act as +inf. The backtrace breaks ties by
    preferring the diagonal, then the i-decrement, then the j-decrement.
    """
    m, n = len(a), len(b)
    dist = [[_INF] * n for _ in range(m)]
    for i in range(m):
        lo, hi = ranges[i]
        row = dist[i]
        above = dist[i - 1] if i > 0 else None
        ai = a[i]
        for j in range(lo, hi + 1):
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = _INF
                if above is not None:
                    if j > 0 and above[j - 1] < best:
                        best = above[j - 1]
                    if above[j] < best:
                        best = above[j]
                if j > 0 and row[j - 1] < best:
                    best = row[j - 1]
            row[j] = abs(ai - b[j]) + best
    if dist[m - 1][n - 1] == _INF:
        raise RuntimeError("search window admits no complete warp path")

    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        diag = dist[i - 1][j - 1] if i > 0 and j > 0 else _INF
        up = dist[i - 1][j] if i > 0 else _INF
        left = dist[i][j - 1] if j > 0 else _INF
        best = min(diag, up, left)
        if diag == best:
            i, j = i - 1, j - 1
        elif up == best:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return DTWResult(distance=dist[m - 1][n - 1], path=path)


def dtw_exact(a, b) -> DTWResult:
    """Full dynamic program; optimal distance over all warp paths."""
    a = _as_float_list(a, "a")
    b = _as_float_list(b, "b")
    full = (0, len(b) - 1)
    return _dtw_dp(a, b, [full] * len(a))


def fastdtw(a, b, radius: int = 1) -> DTWResult:
    """Multiresolution DTW; distance is an upper bound on the exact one."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a = _as_float_list(a, "a")
    b = _as_float_list(b, "b")
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
    coarse resolution, then projected onto the doubled resolution."""
    lo = [n] * m
    hi = [-1] * m
    for pi, pj in coarse_path:
        jlo = max(0, 2 * (pj - radius))
        jhi = min(n - 1, 2 * (pj + radius) + 1)
        for ci in range(pi - radius, pi + radius + 1):
            for ii in (2 * ci, 2 * ci + 1):
                if 0 <= ii < m:
                    if jlo < lo[ii]:
                        lo[ii] = jlo
                    if jhi > hi[ii]:
                        hi[ii] = jhi
    return list(zip(lo, hi))


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
    a = _as_float_list(a, "a")
    b = _as_float_list(b, "b")
    validate_warp_path(result.path, len(a), len(b))
    with open(path_out, "w", encoding="utf-8") as fh:
        fh.write("i,j,a,b,cost\n")
        for i, j in result.path:
            fh.write(f"{i},{j},{a[i]!r},{b[j]!r},{abs(a[i] - b[j])!r}\n")
