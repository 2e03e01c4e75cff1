"""DTW distances, warp paths, and the FastDTW approximation."""

import tracemalloc
import warnings

import numpy as np
import pytest

import pournet.dtw
from oracles import (brute_force_window, enumerate_dtw_distance,
                     long_pair_corpus, reference_fastdtw, short_pair_corpus)
from pournet.dtw import (DistanceOverflowError, DTWResult, _dtw_dp,
                         _expanded_window, dtw_exact, export_alignment,
                         fastdtw, score_testset, validate_warp_path)

# finite curves whose pointwise differences overflow float64
OVERFLOW_A = [1e308, -1e308, 0.0]
OVERFLOW_B = [-1e308, 1e308, 0.0]


class TestDTWExact:
    def test_identity_distance_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(1, 40))
            result = dtw_exact(a, a)
            assert result.distance == 0.0
            validate_warp_path(result.path, len(a), len(a))

    def test_constant_offset(self):
        assert dtw_exact([0, 0, 0], [1, 1, 1]).distance == 3.0

    def test_repeated_value_aligns_free(self):
        assert dtw_exact([1, 2, 3], [1, 2, 2, 3]).distance == 0.0

    def test_matches_enumeration_oracle(self):
        for a, b in short_pair_corpus(seed=11, count=200):
            assert dtw_exact(a, b).distance == enumerate_dtw_distance(a, b)

    def test_matches_enumeration_up_to_length_eight(self):
        for a, b in short_pair_corpus(seed=12, count=40, max_len=8):
            assert dtw_exact(a, b).distance == enumerate_dtw_distance(a, b)

    def test_symmetric_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(rng.integers(1, 30))
            b = rng.standard_normal(rng.integers(1, 30))
            assert dtw_exact(a, b).distance == dtw_exact(b, a).distance

    def test_path_invariants_and_cost_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal(rng.integers(1, 30))
            b = rng.standard_normal(rng.integers(1, 30))
            result = dtw_exact(a, b)
            validate_warp_path(result.path, len(a), len(b))
            resum = sum(abs(a[i] - b[j]) for i, j in result.path)
            assert resum == pytest.approx(result.distance, rel=1e-12, abs=1e-12)

    def test_singleton_vs_sequence(self):
        result = dtw_exact([2.0], [1.0, 2.0, 4.0])
        assert result.distance == 3.0
        assert result.path == [(0, 0), (0, 1), (0, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_exact([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dtw_exact([np.nan], [1.0])

    def test_overflow_reported_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflows float64"):
                dtw_exact(OVERFLOW_A, OVERFLOW_B)

    def test_memory_bounded_on_long_input(self):
        """The backtrace takes two bits per cell (1 MB here) and the whole
        call peaks at about 2.8 MB; a matrix of Python floats took 128 MB."""
        peak = traced_peak_of_exact(2000)
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("size, bound", [(2000, 4_000_000), (4000, 10_000_000)])
    def test_backtrace_takes_two_bits_per_cell(self, size, bound):
        """The call peaks at about 2.8 MB at 2000 x 2000 and 7.6 MB at
        4000 x 4000; one byte of backtrace per cell took 6.9 and 21.7 MB."""
        peak = traced_peak_of_exact(size)
        assert peak < bound, f"peak {peak / 1e6:.1f} MB"

    def test_tie_heavy_pairs_across_byte_and_block_edges(self):
        """Integer curves make ties between diag, up and left common, and
        lengths 1-80 put the cells of a diagonal's bit-planes across byte
        boundaries and block ends on every edge. Distance and path equal
        the full-window scalar kernel's, and the distance equals
        enumeration where that is small enough to run."""
        rng = np.random.default_rng(20)
        lengths = [(m, int(n)) for m in range(1, 81)
                   for n in rng.integers(1, 81, 3)]
        for m, n in lengths + [(n, m) for m, n in lengths]:
            a = rng.integers(-2, 3, m).astype(float)
            b = rng.integers(-2, 3, n).astype(float)
            exact = dtw_exact(a, b)
            pairs = (m + 1) // 2
            full = _dtw_dp(a.tolist(), b.tolist(), [0] * pairs,
                           [n - 1] * pairs)
            assert (exact.distance, exact.path) == (full.distance, full.path)
            if m + n <= 12:
                assert exact.distance == enumerate_dtw_distance(a, b)


def traced_peak_of_exact(size):
    """tracemalloc peak of dtw_exact on two random walks of size steps."""
    rng = np.random.default_rng(13)
    a = np.cumsum(rng.standard_normal(size))
    b = np.cumsum(rng.standard_normal(size))
    tracemalloc.start()
    try:
        dtw_exact(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_full_radius_equals_exact(a, b):
    exact = dtw_exact(a, b)
    fast = fastdtw(a, b, radius=max(len(a), len(b)))
    assert fast.distance == exact.distance
    assert fast.path == exact.path


def random_warp_path(rng, m, n):
    """A monotone warp path over an m x n matrix, each step drawn from
    diagonal, down and right, sliding along the edge once it is reached."""
    i = j = 0
    path = [(0, 0)]
    while (i, j) != (m - 1, n - 1):
        move = rng.integers(3)  # 0 diagonal, 1 down, 2 right
        di = i < m - 1 and (move != 2 or j == n - 1)
        dj = j < n - 1 and (move != 1 or i == m - 1)
        i, j = i + di, j + dj
        path.append((i, j))
    return path


class TestFastDTW:
    """Full-radius FastDTW runs the scalar windowed kernel over the whole
    matrix, so it cross-checks the anti-diagonal kernel of dtw_exact."""

    def test_full_radius_equals_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(1, 65))
            b = rng.standard_normal(rng.integers(1, 65))
            assert_full_radius_equals_exact(a, b)

    def test_full_radius_equals_exact_on_integer_curves(self):
        """Ties between diag, up and left are everywhere, so both kernels
        must take the first minimum in that order."""
        rng = np.random.default_rng(14)
        for _ in range(200):
            a = rng.integers(-3, 4, rng.integers(1, 41)).astype(float)
            b = rng.integers(-3, 4, rng.integers(1, 41)).astype(float)
            assert_full_radius_equals_exact(a, b)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 9), (9, 1)])
    def test_full_radius_equals_exact_on_single_row_or_column(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        assert_full_radius_equals_exact(rng.standard_normal(m),
                                        rng.standard_normal(n))

    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    def test_full_radius_equals_exact_at_block_edges(self, block,
                                                     monkeypatch):
        """dtw_exact fills blocks of anti-diagonals; lengths at and around
        multiples of the block size put block ends on every matrix edge."""
        if block is not None:
            monkeypatch.setattr(pournet.dtw, "_BLOCK", block)
        k = pournet.dtw._BLOCK
        lengths = sorted({1, k - 1, k, k + 1, 2 * k + 1, 3 * k} - {0})
        rng = np.random.default_rng(16)
        for m in lengths:
            for n in lengths:
                assert_full_radius_equals_exact(rng.standard_normal(m),
                                                rng.standard_normal(n))
                assert_full_radius_equals_exact(
                    rng.integers(-2, 3, m).astype(float),
                    rng.integers(-2, 3, n).astype(float))

    @pytest.mark.parametrize("block", sorted({1, 2, 3, 16, pournet.dtw._BLOCK}))
    def test_exact_equals_reference_on_one_column(self, block, monkeypatch):
        """With n = 1 the first block starts below row 0, so its carried
        diagonals come from the virtual start block at a column shift."""
        monkeypatch.setattr(pournet.dtw, "_BLOCK", block)
        rng = np.random.default_rng(18)
        for m in sorted({1, block - 1, block, block + 1, 2 * block + 1,
                         3 * block} - {0}):
            for a, b in ((rng.standard_normal(m), rng.standard_normal(1)),
                         (rng.standard_normal(1), rng.standard_normal(m))):
                exact = dtw_exact(a, b)
                assert ((exact.distance, exact.path)
                        == reference_fastdtw(a, b, max(len(a), len(b))))

    @pytest.mark.parametrize("m, n", [(1500, 40), (40, 1500),
                                      (2 * pournet.dtw._BLOCK + 1, 700)])
    def test_exact_equals_reference_on_thin_pairs(self, m, n):
        """A thin matrix puts many blocks on narrow rows, and most of each
        block's cells, and of the cost view's rows, off the matrix."""
        rng = np.random.default_rng(m + n)
        a = np.cumsum(rng.standard_normal(m))
        b = np.cumsum(rng.standard_normal(n))
        exact = dtw_exact(a, b)
        assert (exact.distance, exact.path) == reference_fastdtw(a, b, max(m, n))

    def test_equals_frozen_reference(self):
        """Gaussian, random-walk and tie-heavy integer curves of 1-300
        steps at radius 0-5 give the frozen scalar kernel's distance and
        path."""
        rng = np.random.default_rng(19)
        curves = (rng.standard_normal,
                  lambda k: np.cumsum(rng.standard_normal(k)),
                  lambda k: rng.integers(-3, 4, k).astype(float))
        for case in range(90):
            draw = curves[case % 3]
            m, n = (int(v) for v in rng.integers(1, 301, size=2))
            a, b = draw(m), draw(n)
            radius = case % 6
            fast = fastdtw(a, b, radius)
            assert ((fast.distance, fast.path)
                    == reference_fastdtw(a, b, radius)), (case, m, n)

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_equals_frozen_reference_on_short_pairs(self, radius):
        """Every length pair of 1-5, 7 and 8 steps: odd lengths at each
        level make _dtw_dp fill a phantom row after a's last one, and
        short ones take the base case."""
        rng = np.random.default_rng(21 + radius)
        lengths = (1, 2, 3, 4, 5, 7, 8)
        for m in lengths:
            for n in lengths:
                for a, b in ((rng.standard_normal(m), rng.standard_normal(n)),
                             (rng.integers(-2, 3, m).astype(float),
                              rng.integers(-2, 3, n).astype(float))):
                    fast = fastdtw(a, b, radius)
                    assert ((fast.distance, fast.path)
                            == reference_fastdtw(a, b, radius)), (m, n)

    def test_full_radius_equals_exact_on_long_random_walks(self):
        rng = np.random.default_rng(15)
        assert_full_radius_equals_exact(np.cumsum(rng.standard_normal(300)),
                                        np.cumsum(rng.standard_normal(257)))

    def test_window_equals_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m, n = (int(v) for v in rng.integers(1, 120, size=2))
            coarse = random_warp_path(rng, (m + 1) // 2, (n + 1) // 2)
            radius = int(rng.integers(0, 4))
            los, his = _expanded_window(coarse, n, radius)
            # coarse row p's bounds are those of fine rows 2p and 2p + 1
            assert len(los) == len(his) == (m + 1) // 2
            fine = [bounds for bounds in zip(los, his) for _ in range(2)]
            assert fine[:m] == brute_force_window(coarse, m, n, radius)

    def test_identity_any_radius(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(50)
        for radius in (0, 1, 3, 10):
            assert fastdtw(a, a, radius).distance == 0.0

    def test_never_below_exact(self):
        for a, b in long_pair_corpus(seed=42, count=300):
            assert fastdtw(a, b, 1).distance >= dtw_exact(a, b).distance

    def test_radius_one_equal_rate_regression(self):
        """Frozen regression threshold: measured 37.3% exact-equality on
        this corpus (radius 1, white noise); the bound guards against
        quality regressions, not against the approximation itself."""
        pairs = long_pair_corpus(seed=42, count=1000)
        equal = sum(fastdtw(a, b, 1).distance == dtw_exact(a, b).distance
                    for a, b in pairs)
        assert equal / len(pairs) >= 0.35

    def test_path_always_valid(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.standard_normal(rng.integers(1, 80))
            b = rng.standard_normal(rng.integers(1, 80))
            result = fastdtw(a, b, 1)
            validate_warp_path(result.path, len(a), len(b))
            resum = sum(abs(a[i] - b[j]) for i, j in result.path)
            assert resum == pytest.approx(result.distance, rel=1e-12, abs=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            fastdtw([1.0], [1.0], -1)

    @pytest.mark.parametrize("radius", [1.5, 1.0, True, np.float64(2.0)],
                             ids=repr)
    def test_non_integer_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            fastdtw([1.0, 2.0], [1.0], radius)
        with pytest.raises(ValueError, match="radius"):
            score_testset([([1.0, 2.0], [1.0])], radius)

    @pytest.mark.parametrize("radius", [np.int64(2), np.uint8(2)], ids=repr)
    def test_numpy_integer_radius_accepted(self, radius):
        a, b = [0.0, 1.0, 3.0, 2.0, 5.0], [0.5, 2.0, 2.5, 4.0]
        assert fastdtw(a, b, radius) == fastdtw(a, b, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fastdtw([1.0], [], 1)

    @pytest.mark.parametrize("scale", [1, 10])
    def test_overflow_reported(self, scale):
        # at ten times the length, halving averages 1e308 pairs to +inf
        # and a coarse level meets inf - inf
        a = [v for v in OVERFLOW_A for _ in range(scale)]
        b = [v for v in OVERFLOW_B for _ in range(scale)]
        with pytest.raises(RuntimeError, match="overflows float64"):
            fastdtw(a, b, 1)


class TestScoreTestset:
    def test_perfect_predictions(self):
        curves = [np.linspace(1.0, 0.4, n) for n in (5, 9, 13)]
        results = score_testset([(c, c) for c in curves], radius=1)
        assert [r.distance for r in results] == [0.0, 0.0, 0.0]

    def test_single_pair(self):
        results = score_testset([([0.0, 0.0], [1.0, 1.0])], radius=1)
        assert [r.distance for r in results] == [2.0]

    def test_results_are_fastdtw_in_pair_order(self):
        rng = np.random.default_rng(10)
        pairs = [(rng.standard_normal(12), rng.standard_normal(15))
                 for _ in range(9)]
        results = score_testset(iter(pairs), radius=2)
        assert results == [fastdtw(a, b, 2) for a, b in pairs]

    def test_empty_gives_empty_list(self):
        assert score_testset([], radius=1) == []

    def test_overflow_names_the_pair(self):
        pairs = [([0.0, 1.0], [1.0, 1.0]), (OVERFLOW_A, OVERFLOW_B),
                 ([2.0], [3.0])]
        with pytest.raises(DistanceOverflowError,
                           match="overflows float64") as caught:
            score_testset(pairs, radius=1)
        assert caught.value.pair == 1


class TestExportAlignment:
    def test_identity_pair(self, tmp_path):
        a = [1.0, 0.8, 0.6, 0.5]
        result = dtw_exact(a, a)
        out = tmp_path / "align.csv"
        export_alignment(result, a, a, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,a,b,cost"
        assert len(lines) == 1 + len(result.path)
        costs = [float(line.split(",")[4]) for line in lines[1:]]
        assert costs == [0.0] * len(result.path)

    def test_cost_column_sums_to_distance(self, tmp_path):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(20)
        b = rng.standard_normal(26)
        result = fastdtw(a, b, 1)
        out = tmp_path / "align.csv"
        export_alignment(result, a, b, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(result.path)
        total = sum(float(r[4]) for r in rows)
        assert total == pytest.approx(result.distance, rel=1e-12, abs=1e-12)

    def test_inconsistent_result_rejected(self, tmp_path):
        a = [1.0, 2.0]
        result = dtw_exact(a, a)
        with pytest.raises(ValueError):
            export_alignment(result, a, [1.0, 2.0, 3.0], tmp_path / "x.csv")

    @pytest.mark.parametrize("path", [[], [(0, 0), (1, 0)]],
                             ids=["empty", "short of b"])
    def test_path_not_ending_at_the_last_cell_refused(self, path, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=r"does not end at \(1, 1\)"):
            export_alignment(DTWResult(0.0, path), [1.0, 2.0], [1.0, 2.0],
                             out)
        assert not out.exists()

    def test_unwritable_path_raises(self, tmp_path):
        a = [1.0, 2.0]
        result = dtw_exact(a, a)
        with pytest.raises(OSError):
            export_alignment(result, a, a, tmp_path)  # a directory
