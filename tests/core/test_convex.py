"""Unit tests for the O'Rourke feasible-region fitter."""

import numpy as np
import pytest

from repro.core.convex import RangeLineFitter


def brute_force_feasible(points):
    """Exhaustively check if a line stabs all (t, lo, hi) ranges.

    LP-free check: a stabbing line exists iff for no pair of points does the
    max slope forced by one pair undercut the min slope forced by another.
    We simply try a dense family of candidate lines through range endpoints.
    """
    for ti, loi, hii in points:
        for yi in (loi, hii):
            for tj, loj, hij in points:
                if tj == ti:
                    continue
                for yj in (loj, hij):
                    m = (yj - yi) / (tj - ti)
                    q = yi - m * ti
                    if all(lo - 1e-9 <= m * t + q <= hi + 1e-9
                           for t, lo, hi in points):
                        return True
    # Horizontal candidates through each endpoint.
    for _, lo, hi in points:
        for y in (lo, hi):
            if all(l - 1e-9 <= y <= h + 1e-9 for _, l, h in points):
                return True
    return False


class TestBasics:
    def test_empty_fitter_raises(self):
        with pytest.raises(ValueError):
            RangeLineFitter().line()

    def test_single_range(self):
        f = RangeLineFitter()
        assert f.add(1.0, 2.0, 4.0)
        m, q = f.line()
        assert 2.0 <= m * 1.0 + q <= 4.0

    def test_two_ranges(self):
        f = RangeLineFitter()
        assert f.add(1.0, 0.0, 1.0)
        assert f.add(2.0, 10.0, 11.0)
        m, q = f.line()
        assert 0.0 <= m + q <= 1.0
        assert 10.0 <= 2 * m + q <= 11.0

    def test_non_increasing_t_raises(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.add(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.add(0.5, 0.0, 1.0)

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            RangeLineFitter().add(1.0, 2.0, 1.0)

    def test_chain_keeps_the_errors_of_extend(self):
        f = RangeLineFitter()
        with pytest.raises(ValueError, match="empty range"):
            f.chain([1.0, 2.0, 3.0], [0.0, 0.0, 2.0], [1.0, 1.0, 1.0], [False] * 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            f.chain([1.0, 2.0, 2.0], [0.0] * 3, [1.0] * 3, [False] * 3)

    def test_rejection_leaves_state_usable(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        f.add(2.0, 0.0, 1.0)
        # An impossible range: far above any feasible line.
        assert not f.add(3.0, 100.0, 101.0)
        m, q = f.line()  # still works for the accepted prefix
        assert 0.0 <= m * 1 + q <= 1.0
        assert 0.0 <= m * 2 + q <= 1.0


class TestFeasibility:
    def test_exact_line_always_accepted(self):
        f = RangeLineFitter()
        for x in range(1, 200):
            assert f.add(float(x), 3 * x + 7, 3 * x + 7)
        m, q = f.line()
        assert m == pytest.approx(3.0)
        assert q == pytest.approx(7.0)

    def test_noisy_line_within_eps(self):
        rng = np.random.default_rng(0)
        eps = 5.0
        f = RangeLineFitter()
        xs = np.arange(1, 300, dtype=np.float64)
        ys = -2.0 * xs + 50 + rng.uniform(-4.9, 4.9, len(xs))
        for x, y in zip(xs, ys):
            assert f.add(x, y - eps, y + eps)
        m, q = f.line()
        assert np.all(np.abs(m * xs + q - ys) <= eps + 1e-9)

    def test_line_through_returned_region_is_feasible(self):
        # After many adds, the returned line must satisfy every constraint.
        rng = np.random.default_rng(1)
        f = RangeLineFitter()
        accepted = []
        t = 0.0
        for _ in range(500):
            t += float(rng.uniform(0.1, 2.0))
            mid = float(rng.normal(0, 50))
            half = float(rng.uniform(0.5, 20))
            if f.add(t, mid - half, mid + half):
                accepted.append((t, mid - half, mid + half))
            else:
                break
        m, q = f.line()
        for t_, lo, hi in accepted:
            val = m * t_ + q
            assert lo - 1e-6 <= val <= hi + 1e-6

    def test_matches_brute_force_on_small_inputs(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            pts = []
            t = 0.0
            for _ in range(int(rng.integers(2, 7))):
                t += float(rng.uniform(0.5, 2.0))
                mid = float(rng.normal(0, 10))
                half = float(rng.uniform(0.1, 5))
                pts.append((t, mid - half, mid + half))
            f = RangeLineFitter()
            ok = all(f.add(*p) for p in pts)
            assert ok == brute_force_feasible(pts), pts


class TestSlopeRange:
    def test_slope_range_narrows(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 10.0)
        f.add(2.0, 0.0, 10.0)
        lo1, hi1 = f.slope_range()
        f.add(3.0, 0.0, 10.0)
        lo2, hi2 = f.slope_range()
        assert lo2 >= lo1 - 1e-12
        assert hi2 <= hi1 + 1e-12

    def test_slope_range_contains_true_slope(self):
        f = RangeLineFitter()
        for x in range(1, 50):
            f.add(float(x), 5 * x - 1, 5 * x + 1)
        lo, hi = f.slope_range()
        assert lo <= 5.0 <= hi

    def test_single_point_slope_unbounded(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        lo, hi = f.slope_range()
        assert lo == float("-inf") and hi == float("inf")


class TestMaximality:
    def test_fitter_extends_as_long_as_feasible(self):
        # The greedy fragment must not stop early: compare against brute force.
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = 30
            ys = np.cumsum(rng.normal(0, 3, n)) + 100
            eps = 2.5
            f = RangeLineFitter()
            stopped = n
            for i in range(n):
                if not f.add(float(i + 1), ys[i] - eps, ys[i] + eps):
                    stopped = i
                    break
            # Brute force: the prefix of length `stopped` is feasible...
            pts = [(float(i + 1), ys[i] - eps, ys[i] + eps) for i in range(stopped)]
            if len(pts) >= 2:
                assert brute_force_feasible(pts)
            # ...and adding one more point makes it infeasible.
            if stopped < n:
                pts1 = pts + [(float(stopped + 1), ys[stopped] - eps, ys[stopped] + eps)]
                assert not brute_force_feasible(pts1)
