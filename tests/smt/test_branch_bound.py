"""Tests for the integer (branch-and-bound) layer, with brute-force oracles."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt.branch_bound import BudgetExceeded, LiaTableau, check_lia
from repro.smt.linear import LinExpr


def _holds(constraints, env):
    return all(expr.evaluate(env) >= 0 for expr, _ in constraints)


def _brute_force(constraints, names, radius=10):
    for values in itertools.product(range(-radius, radius + 1), repeat=len(names)):
        env = dict(zip(names, values))
        if _holds(constraints, env):
            return True
    return False


class TestBasics:
    def test_empty_is_sat(self):
        feasible, model = check_lia([])
        assert feasible and model == {}

    def test_trivially_false_constant(self):
        feasible, core = check_lia([(LinExpr({}, -1), "bad")])
        assert not feasible and core == ["bad"]

    def test_simple_window(self):
        constraints = [
            (LinExpr({"x": 1}, -3), "lo"),  # x >= 3
            (LinExpr({"x": -1}, 5), "hi"),  # x <= 5
        ]
        feasible, model = check_lia(constraints)
        assert feasible and 3 <= model["x"] <= 5

    def test_integer_gap_unsat(self):
        # 3x >= 1 and 3x <= 2: rationally feasible, integrally not.
        constraints = [
            (LinExpr({"x": 3}, -1), "lo"),
            (LinExpr({"x": -3}, 2), "hi"),
        ]
        feasible, core = check_lia(constraints)
        assert not feasible
        assert set(core) == {"lo", "hi"}

    def test_multi_variable_model(self):
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),  # x + y >= 10
            (LinExpr({"x": -1}, 4), "xcap"),  # x <= 4
            (LinExpr({"y": -1}, 7), "ycap"),  # y <= 7
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert model["x"] + model["y"] >= 10
        assert model["x"] <= 4 and model["y"] <= 7

    def test_unsat_core_is_jointly_infeasible(self):
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),
            (LinExpr({"x": -1}, 4), "xcap"),
            (LinExpr({"y": -1}, 4), "ycap"),
            (LinExpr({"x": 1}, 0), "irrelevant"),  # x >= 0 (not needed)
        ]
        feasible, core = check_lia(constraints)
        assert not feasible
        assert {"sum", "xcap", "ycap"} <= set(core)

    def test_parity_gap(self):
        # 2x = 7 is integrally unsat.
        constraints = [
            (LinExpr({"x": 2}, -7), "lo"),
            (LinExpr({"x": -2}, 7), "hi"),
        ]
        feasible, _ = check_lia(constraints)
        assert not feasible

    def test_diophantine_combination(self):
        # 2x + 3y = 1 has integer solutions.
        constraints = [
            (LinExpr({"x": 2, "y": 3}, -1), "lo"),
            (LinExpr({"x": -2, "y": -3}, 1), "hi"),
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert 2 * model["x"] + 3 * model["y"] == 1


_small_expr = st.builds(
    LinExpr,
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(-4, 4), max_size=2),
    st.integers(-8, 8),
)


@given(st.lists(st.tuples(_small_expr, st.integers()), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_check_lia_agrees_with_brute_force(raw_constraints):
    from hypothesis import assume

    from repro.smt.branch_bound import BudgetExceeded

    constraints = [
        (expr, f"c{i}") for i, (expr, _) in enumerate(raw_constraints)
    ]
    try:
        feasible, payload = check_lia(constraints, max_nodes=3000)
    except BudgetExceeded:
        assume(False)  # skip adversarially slow instances
        return
    expected = _brute_force(constraints, ["x", "y"])
    if feasible:
        env = {name: payload.get(name, 0) for name in ("x", "y")}
        assert _holds(constraints, env)
    else:
        assert not expected, f"solver said unsat, brute force found a model"
        # The reported core must itself be infeasible (within the box).
        by_tag = dict((tag, expr) for expr, tag in constraints)
        core_constraints = [(by_tag[tag], tag) for tag in payload]
        assert not _brute_force(core_constraints, ["x", "y"])


_pool_expr = st.builds(
    LinExpr,
    st.dictionaries(
        st.sampled_from(["x", "y"]), st.integers(-4, 4), min_size=1, max_size=2
    ),
    st.integers(-8, 8),
)
#: A branch as a pair of pool constraints: ``v <= k`` and ``v >= k + 1``.
_branch = st.tuples(st.sampled_from(["x", "y"]), st.integers(-6, 6))


@given(
    st.lists(_pool_expr, min_size=2, max_size=6),
    st.lists(_branch, max_size=2),
    st.lists(st.lists(st.booleans(), min_size=10, max_size=10), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_shared_tableau_agrees_with_brute_force(pool, branches, picks):
    # One tableau drives a sequence of checks on subsets of its pool, the
    # way core minimisation's deletion trials do; the pool's branch pairs
    # push a bound (and its opposite) on top of other constraints.
    constraints = [(expr, f"c{i}") for i, expr in enumerate(pool)]
    for j, (name, k) in enumerate(branches):
        constraints.append((LinExpr({name: -1}, k), f"b{j}-low"))  # v <= k
        constraints.append((LinExpr({name: 1}, -k - 1), f"b{j}-high"))  # v >= k+1
    tableau = LiaTableau(constraints)
    by_tag = {tag: expr for expr, tag in constraints}
    for keep in picks:
        subset = [c for c, chosen in zip(constraints, keep) if chosen]
        try:
            feasible, payload = check_lia(subset, 500, None, tableau)
        except BudgetExceeded:
            continue  # the trail must still be clean for the next trial
        expected = _brute_force(subset, ["x", "y"])
        if feasible:
            env = {name: payload.get(name, 0) for name in ("x", "y")}
            assert _holds(subset, env), "model violates its subset"
        else:
            assert not expected, "shared tableau said unsat, brute force found a model"
            core = [(by_tag[tag], tag) for tag in payload]
            assert set(payload) <= {tag for _, tag in subset}
            assert not _brute_force(core, ["x", "y"]), "core is satisfiable"
        # A fresh tableau gives the same status (when it decides in budget).
        try:
            assert check_lia(subset, 500)[0] == feasible
        except BudgetExceeded:
            pass


class TestBudgets:
    def test_node_budget_exhaustion_raises(self):
        import pytest

        from repro.smt.branch_bound import BudgetExceeded

        constraints = [
            (LinExpr({"x": 1, "y": 1}, -10), "sum"),
            (LinExpr({"x": -2, "y": 3}, 1), "c2"),
            (LinExpr({"x": 3, "y": -2}, 1), "c3"),
        ]
        with pytest.raises(BudgetExceeded):
            check_lia(constraints, max_nodes=0)

    def test_deadline_raises(self):
        import time

        import pytest

        from repro.smt.branch_bound import BudgetExceeded, check_lia as check

        constraints = [(LinExpr({"x": 3}, -1), "lo"), (LinExpr({"x": -3}, 2), "hi")]
        with pytest.raises(BudgetExceeded):
            check(constraints, max_nodes=100000, deadline=time.monotonic() - 1)

    def test_ray_dive_stops_at_the_depth_limit(self):
        # Rationally unbounded along a ray; branching low first walks it one
        # integer step per level.  The search must give up at the depth
        # limit (bounded memory) long before the node budget runs out.
        import pytest

        from repro.smt.branch_bound import _MAX_DEPTH

        constraints = [
            (LinExpr({"y1": -1, "y2": 1}, -1), "a"),  # y2 >= y1 + 1
            (LinExpr({"y2": -1, "y3": 1}, -1), "b"),  # y3 >= y2 + 1
            (LinExpr({"k": -1, "y1": 1}, -1), "c"),  # y1 >= k + 1
            (LinExpr({"k": 2, "y1": -1, "y2": -1, "y3": -2}, 0), "d"),
            (LinExpr({"y1": -2, "y2": 2, "y3": 1}, -1), "e"),
        ]
        with pytest.raises(BudgetExceeded, match="depth"):
            check_lia(constraints, max_nodes=50 * _MAX_DEPTH)

    def test_duplicate_linear_forms_share_slacks(self):
        # The same multi-variable form used twice must not blow up the
        # tableau (exercises the slack cache).
        constraints = [
            (LinExpr({"x": 1, "y": 1}, -4), "a"),   # x + y >= 4
            (LinExpr({"x": 1, "y": 1}, -7), "b"),   # x + y >= 7 (stronger)
            (LinExpr({"x": -1, "y": -1}, 9), "c"),  # x + y <= 9
        ]
        feasible, model = check_lia(constraints)
        assert feasible
        assert 7 <= model["x"] + model["y"] <= 9
