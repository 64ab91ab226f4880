"""O'Rourke's online algorithm for fitting a line through vertical ranges.

This module is the computational engine behind Theorem 1 of the paper.  After
the per-model change of variables (Table I), *every* supported function kind
reduces to the same geometric problem: given points arriving online with
strictly increasing abscissae ``t_k`` and vertical feasibility ranges
``[lo_k, hi_k]``, maintain whether a single line ``b(t) = m*t + q`` exists
with ``lo_k <= m*t_k + q <= hi_k`` for all points seen so far, and report one
such ``(m, q)`` when asked.

The feasible set of ``(m, q)`` pairs is a convex polygon; O'Rourke [36] showed
it can be maintained in amortised O(1) per point because each new point only
clips the polygon with two half-planes whose slopes are more extreme than all
previous ones.  We implement the equivalent *primal* formulation popularised
by the PGM-index: two convex hulls (of the lower and upper range endpoints)
plus the current extreme-slope supporting pairs, stored as the four corners of
the feasible "rectangle".

All arithmetic is float64.  The caller (``repro.core.models``) is responsible
for providing transformed coordinates; the encoder re-validates residuals, so
a borderline accept/reject here affects only optimality by a hair, never
correctness of the compressed output.
"""

from __future__ import annotations

from array import array

__all__ = ["RangeLineFitter"]


class RangeLineFitter:
    """Incrementally decide whether a line stabs all vertical ranges so far.

    Usage::

        fitter = RangeLineFitter()
        end = fitter.extend(t, lo, hi, start, len(t))   # ranges [start, end)
        m, q = fitter.line()          # a feasible line for the accepted ranges
        fitter.reset()                # ready for the next fragment

    ``extend`` stops at the first range that no line can stab together with
    every previously accepted one and leaves the state untouched by it; the
    caller then closes the current fragment.  ``add`` is the one-range form.
    :meth:`chain` runs the same loop over a whole series, opening the next
    fragment where each one is rejected.
    """

    __slots__ = (
        "_upper",
        "_lower",
        "_upper_start",
        "_lower_start",
        "_rect",
        "_count",
        "_last_t",
    )

    def __init__(self) -> None:
        self._upper: list[tuple[float, float]] = []
        self._lower: list[tuple[float, float]] = []
        self._upper_start = 0
        self._lower_start = 0
        # Corners (x0, y0, ..., x3, y3) of the feasible region in primal
        # space: corners 0-2 realise the minimum slope, corners 1-3 the max.
        self._rect = (0.0,) * 8
        self._count = 0
        self._last_t = float("-inf")

    @property
    def count(self) -> int:
        """Number of ranges accepted so far."""
        return self._count

    def reset(self) -> None:
        """Forget every accepted range, keeping the hull lists for reuse."""
        self._upper.clear()
        self._lower.clear()
        self._count = 0
        self._last_t = float("-inf")

    def add(self, t: float, lo: float, hi: float) -> bool:
        """Try to extend the feasible set with the range ``[lo, hi]`` at ``t``.

        Returns ``True`` if a stabbing line still exists (range accepted).
        """
        return self._walk((t,), (lo,), (hi,), 0, 1, None, None) == 1

    def extend(self, t, lo, hi, start: int, stop: int) -> int:
        """Add the ranges ``[lo[k], hi[k]]`` at ``t[k]`` for ``k`` in ``[start, stop)``.

        Returns the index of the first range rejected because no line can
        stab it together with every range accepted so far, or ``stop`` when
        all are accepted.  Abscissae must be strictly increasing.
        """
        return self._walk(t, lo, hi, start, stop, None, None)

    def chain(self, t, lo, hi, two) -> array[int]:
        """The ends of the greedy chain over all the ranges.

        The chain's first fragment starts at range 0 and each next one at
        the range that rejected the previous one, every fragment as long as
        :meth:`extend` from its start allows: the result is what ``reset``
        plus ``extend`` from each start would give.  ``two[k]`` is true when
        the longest fragment from ``k`` is known to be ``[k, k + 2)`` (see
        :func:`repro.core.transforms.two_point_starts`); such a fragment is
        skipped without running the step.
        """
        ends = array("q")
        self.reset()
        self._walk(t, lo, hi, 0, len(t), two, ends)
        return ends

    def _walk(self, t, lo, hi, start: int, stop: int, two, ends) -> int:
        """O'Rourke's step over ``[start, stop)``: the one loop behind
        :meth:`extend` (``ends`` None: stop at the first rejected range) and
        :meth:`chain` (append each closed fragment's end to ``ends`` and start
        the next fragment at the rejected range)."""
        upper, lower = self._upper, self._lower
        us, ls = self._upper_start, self._lower_start
        x0, y0, x1, y1, x2, y2, x3, y3 = self._rect
        count, last = self._count, self._last_t
        # Directions of the min-slope (corners 0-2) and max-slope (1-3) lines.
        min_dx, min_dy, max_dx, max_dy = x2 - x0, y2 - y0, x3 - x1, y3 - y1
        k = start
        try:
            while k < stop:
                if count > 1:
                    # O'Rourke's step on each range until one is rejected or
                    # invalid; the code after this loop tells which.
                    first = k
                    while k < stop:
                        tk = t[k]
                        lk = lo[k]
                        hk = hi[k]
                        if lk > hk or tk <= last:
                            break
                        # The new upper endpoint must lie above the min-slope
                        # line and the new lower endpoint below the max-slope
                        # line; otherwise the feasible polygon would be empty.
                        if (hk - y2) * min_dx < min_dy * (tk - x2) or (
                            max_dy * (tk - x3) < (lk - y3) * max_dx
                        ):
                            break
                        # Does the upper endpoint sharpen the max slope?  The
                        # lower-hull point that, paired with it, minimises the
                        # slope becomes the new max-slope support.
                        if (hk - y1) * max_dx < max_dy * (tk - x1):
                            # Index loops, here and below: most scans stop at
                            # their first candidate, and a range() object
                            # would cost more than that step.
                            best = ls
                            x1, y1 = lower[best]
                            bx = x1 - tk
                            by = y1 - hk
                            j = best + 1
                            size = len(lower)
                            while j < size:
                                px, py = lower[j]
                                cx = px - tk
                                cy = py - hk
                                if by * cx < cy * bx:
                                    break
                                bx, by = cx, cy
                                x1, y1 = px, py
                                best = j
                                j += 1
                            x3, y3 = tk, hk
                            max_dx, max_dy = x3 - x1, y3 - y1
                            ls = best
                            end = len(upper)
                            while end >= us + 2:
                                ox, oy = upper[end - 2]
                                ax, ay = upper[end - 1]
                                if (ax - ox) * (hk - oy) - (ay - oy) * (tk - ox) <= 0:
                                    end -= 1
                                else:
                                    break
                            del upper[end:]
                            upper.append((tk, hk))
                        # Does the lower endpoint sharpen the min slope?
                        if min_dy * (tk - x0) < (lk - y0) * min_dx:
                            best = us
                            x0, y0 = upper[best]
                            bx = x0 - tk
                            by = y0 - lk
                            j = best + 1
                            size = len(upper)
                            while j < size:
                                px, py = upper[j]
                                cx = px - tk
                                cy = py - lk
                                if cy * bx < by * cx:
                                    break
                                bx, by = cx, cy
                                x0, y0 = px, py
                                best = j
                                j += 1
                            x2, y2 = tk, lk
                            min_dx, min_dy = x2 - x0, y2 - y0
                            us = best
                            end = len(lower)
                            while end >= ls + 2:
                                ox, oy = lower[end - 2]
                                ax, ay = lower[end - 1]
                                if (ax - ox) * (lk - oy) - (ay - oy) * (tk - ox) >= 0:
                                    end -= 1
                                else:
                                    break
                            del lower[end:]
                            lower.append((tk, lk))
                        last = tk
                        k += 1
                    count += k - first
                    if k == stop:
                        break
                tk = t[k]
                lk = lo[k]
                hk = hi[k]
                if lk > hk:
                    raise ValueError(f"empty range [{lk}, {hk}] at t={tk}")
                if count and tk <= last:
                    raise ValueError("abscissae must be strictly increasing")
                if count > 1:
                    # Range k is valid, so the step rejected it.
                    if ends is None:
                        break
                    # Close the fragment at k; range k opens the next one.
                    ends.append(k)
                    upper.clear()
                    lower.clear()
                    count = 0
                if count:
                    x2, y2, x3, y3 = tk, lk, tk, hk
                    min_dx, min_dy, max_dx, max_dy = x2 - x0, y2 - y0, x3 - x1, y3 - y1
                    upper.append((tk, hk))
                    lower.append((tk, lk))
                else:
                    if ends is not None and two[k]:
                        k += 2
                        ends.append(k)
                        continue
                    x0, y0, x1, y1 = tk, hk, tk, lk
                    upper.append((tk, hk))
                    lower.append((tk, lk))
                    us = ls = 0
                count += 1
                last = tk
                k += 1
            if ends is not None and count:
                ends.append(k)
        finally:
            self._upper_start, self._lower_start = us, ls
            self._rect = (x0, y0, x1, y1, x2, y2, x3, y3)
            self._count, self._last_t = count, last
        return k

    def line(self) -> tuple[float, float]:
        """Return a feasible ``(slope, intercept)`` for all accepted ranges.

        With two or more points, we return the line through the intersection
        of the two extreme-slope supports with the average extreme slope: a
        point strictly inside the feasible polygon, which maximises the float
        safety margin on both sides.
        """
        if self._count == 0:
            raise ValueError("no ranges accepted")
        x0, y0, x1, y1, x2, y2, x3, y3 = self._rect
        if self._count == 1:
            return 0.0, (y0 + y1) / 2.0

        min_dx = x2 - x0
        min_dy = y2 - y0
        max_dx = x3 - x1
        max_dy = y3 - y1
        # Degenerate supports: at extreme value scales float rounding can
        # collapse a diagonal onto a single abscissa (dx == 0).  Fall back to
        # the other support's slope anchored at the pinch midpoint — the
        # encoder re-measures residuals, so a slightly suboptimal line only
        # costs bits, never correctness.
        if min_dx == 0.0 and max_dx == 0.0:
            return 0.0, (y0 + y2) / 2.0
        if min_dx == 0.0:
            slope = max_dy / max_dx
            return slope, (y0 + y2) / 2.0 - slope * x0
        if max_dx == 0.0:
            slope = min_dy / min_dx
            return slope, (y1 + y3) / 2.0 - slope * x1
        min_slope = min_dy / min_dx
        max_slope = max_dy / max_dx
        slope = (min_slope + max_slope) / 2.0

        # Intersection of the two diagonal support lines.
        denom = min_dx * max_dy - min_dy * max_dx
        if abs(denom) < 1e-300:
            # Parallel supports: the polygon is (numerically) a segment; any
            # support point works.
            px, py = x0, y0
        else:
            s = ((x1 - x0) * max_dy - (y1 - y0) * max_dx) / denom
            px = x0 + s * min_dx
            py = y0 + s * min_dy
        return slope, py - slope * px

    def slope_range(self) -> tuple[float, float]:
        """The current feasible slope interval ``[min_slope, max_slope]``."""
        if self._count == 0:
            raise ValueError("no ranges accepted")
        if self._count == 1:
            return float("-inf"), float("inf")
        x0, y0, x1, y1, x2, y2, x3, y3 = self._rect
        return (y2 - y0) / (x2 - x0), (y3 - y1) / (x3 - x1)
