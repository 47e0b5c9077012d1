"""Tests for the rational simplex core."""

from fractions import Fraction

import pytest

from repro.smt.simplex import Bound, Conflict, Simplex


def _fraction(value):
    return Fraction(value)


class TestDirectBounds:
    def test_single_variable_window(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, _fraction(3), "lo"))
        simplex.assert_bound(Bound(x, False, _fraction(5), "hi"))
        assert simplex.check()
        assert 3 <= simplex.value(x) <= 5

    def test_contradictory_bounds_conflict(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, _fraction(7), "lo"))
        with pytest.raises(Conflict) as info:
            simplex.assert_bound(Bound(x, False, _fraction(2), "hi"))
        tags = {bound.tag for bound in info.value.bounds}
        assert tags == {"lo", "hi"}

    def test_strongest_bound_wins(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, _fraction(1), "weak"))
        simplex.assert_bound(Bound(x, True, _fraction(4), "strong"))
        assert simplex.check()
        assert simplex.value(x) >= 4


class TestSlacks:
    def test_sum_constraint_feasible(self):
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: Fraction(1), y: Fraction(1)})
        simplex.assert_bound(Bound(s, True, _fraction(10), "sum"))
        simplex.assert_bound(Bound(x, False, _fraction(4), "xcap"))
        assert simplex.check()
        assert simplex.value(x) + simplex.value(y) >= 10
        assert simplex.value(x) <= 4

    def test_infeasible_system_explains(self):
        # x + y >= 10, x <= 4, y <= 4.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: Fraction(1), y: Fraction(1)})
        simplex.assert_bound(Bound(s, True, _fraction(10), "sum"))
        simplex.assert_bound(Bound(x, False, _fraction(4), "xcap"))
        simplex.assert_bound(Bound(y, False, _fraction(4), "ycap"))
        with pytest.raises(Conflict) as info:
            simplex.check()
        tags = {bound.tag for bound in info.value.bounds}
        assert tags == {"sum", "xcap", "ycap"}

    def test_slack_of_basic_combination(self):
        # A slack referencing another slack must expand through the tableau.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s1 = simplex.new_slack({x: Fraction(1), y: Fraction(1)})
        s2 = simplex.new_slack({s1: Fraction(2), x: Fraction(-1)})
        # s2 = 2(x + y) - x = x + 2y.
        simplex.assert_bound(Bound(s2, True, _fraction(6), "s2"))
        simplex.assert_bound(Bound(x, False, _fraction(0), "x"))
        simplex.assert_bound(Bound(y, False, _fraction(3), "y"))
        assert simplex.check()
        value = simplex.value(x) + 2 * simplex.value(y)
        assert value >= 6

    def test_equality_via_two_bounds(self):
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: Fraction(1), y: Fraction(-1)})
        simplex.assert_bound(Bound(s, True, _fraction(2), "eq-lo"))
        simplex.assert_bound(Bound(s, False, _fraction(2), "eq-hi"))
        assert simplex.check()
        assert simplex.value(x) - simplex.value(y) == 2

    def test_rational_solution(self):
        # 2x >= 1, 2x <= 1  =>  x = 1/2 over the rationals.
        simplex = Simplex()
        x = simplex.new_var()
        s = simplex.new_slack({x: Fraction(2)})
        simplex.assert_bound(Bound(s, True, _fraction(1), "lo"))
        simplex.assert_bound(Bound(s, False, _fraction(1), "hi"))
        assert simplex.check()
        assert simplex.value(x) == Fraction(1, 2)


class TestChains:
    def test_difference_chain_feasible(self):
        # x1 <= x2 <= x3, x3 - x1 >= 0 is feasible.
        simplex = Simplex()
        xs = [simplex.new_var() for _ in range(3)]
        for a, b in zip(xs, xs[1:]):
            s = simplex.new_slack({b: Fraction(1), a: Fraction(-1)})
            simplex.assert_bound(Bound(s, True, _fraction(0), f"{a}<{b}"))
        assert simplex.check()
        values = [simplex.value(v) for v in xs]
        assert values == sorted(values)

    def test_cyclic_strict_chain_infeasible(self):
        # x1 - x2 >= 1, x2 - x3 >= 1, x3 - x1 >= 1 sums to 0 >= 3.
        simplex = Simplex()
        xs = [simplex.new_var() for _ in range(3)]
        pairs = [(0, 1), (1, 2), (2, 0)]
        for a, b in pairs:
            s = simplex.new_slack({xs[a]: Fraction(1), xs[b]: Fraction(-1)})
            simplex.assert_bound(Bound(s, True, _fraction(1), f"edge{a}{b}"))
        with pytest.raises(Conflict):
            simplex.check()


class TestBoundTrail:
    def test_backtrack_restores_earlier_bounds(self):
        # x + y >= 10 with x <= 4: feasible; adding y <= 4 above a mark
        # conflicts, and backtracking to the mark makes it feasible again.
        simplex = Simplex()
        x, y = simplex.new_var(), simplex.new_var()
        s = simplex.new_slack({x: 1, y: 1})
        simplex.assert_bound(Bound(s, True, 10, "sum"))
        simplex.assert_bound(Bound(x, False, 4, "xcap"))
        assert simplex.check()
        mark = simplex.mark()
        simplex.assert_bound(Bound(y, False, 4, "ycap"))
        with pytest.raises(Conflict) as info:
            simplex.check()
        assert "ycap" in {bound.tag for bound in info.value.bounds}
        simplex.backtrack(mark)
        assert simplex.check()
        assert simplex.value(x) + simplex.value(y) >= 10
        assert simplex.value(x) <= 4

    def test_backtrack_restores_a_tightened_bound(self):
        simplex = Simplex()
        x = simplex.new_var()
        simplex.assert_bound(Bound(x, True, 1, "weak"))
        mark = simplex.mark()
        simplex.assert_bound(Bound(x, True, 5, "strong"))
        simplex.assert_bound(Bound(x, False, 6, "cap"))
        simplex.backtrack(mark)
        # The strong bound is gone, the weak one is back: x <= 2 now fits.
        simplex.assert_bound(Bound(x, False, 2, "low-cap"))
        assert simplex.check()
        assert 1 <= simplex.value(x) <= 2
        with pytest.raises(Conflict) as info:
            simplex.assert_bound(Bound(x, False, 0, "too-low"))
        assert {bound.tag for bound in info.value.bounds} == {"weak", "too-low"}
