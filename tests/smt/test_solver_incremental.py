"""Assumption solving, unsat cores and push/pop scoping at the SMT level.

Also pins the ``_minimize_core`` deadline-forwarding bugfix with a regression
test that fails on the pre-fix code.
"""

import time

import pytest

from repro.lang import (
    add,
    and_,
    bool_const,
    bool_var,
    eq,
    evaluate,
    ge,
    implies,
    le,
    lt,
    int_var,
    not_,
    or_,
)
from repro.smt import SmtSolver, Status

x, y = int_var("x"), int_var("y")
p, q = bool_var("p"), bool_var("q")


class TestSolveUnderAssumptions:
    def test_sat_with_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        result = solver.solve(assumptions=[ge(x, 10), le(x, 12)])
        assert result.is_sat
        assert 10 <= result.model["x"] <= 12

    def test_assumptions_not_retained(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        assert solver.solve(assumptions=[lt(x, 0)]).is_unsat
        # The assumption died with the call.
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[ge(x, 5)]).is_sat

    def test_unsat_core_identifies_guilty_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        bound = le(x, 3)
        unrelated = ge(y, 100)
        result = solver.solve(assumptions=[unrelated, bound, ge(x, 7)])
        assert result.is_unsat
        assert bound in result.unsat_core
        assert unrelated not in result.unsat_core

    def test_core_reproduces_unsat(self):
        solver = SmtSolver()
        solver.add(ge(add(x, y), 10))
        assumptions = [le(x, 2), le(y, 2), ge(y, -100)]
        result = solver.solve(assumptions=assumptions)
        assert result.is_unsat
        assert result.unsat_core
        assert solver.solve(assumptions=list(result.unsat_core)).is_unsat

    def test_assertion_level_unsat_gives_empty_core(self):
        solver = SmtSolver()
        solver.add(ge(x, 1))
        solver.add(le(x, 0))
        result = solver.solve(assumptions=[ge(y, 0)])
        assert result.is_unsat
        assert result.unsat_core == ()

    def test_boolean_assumptions(self):
        solver = SmtSolver()
        solver.add(implies(p, ge(x, 10)))
        solver.add(implies(q, le(x, 5)))
        assert solver.solve(assumptions=[p]).is_sat
        assert solver.solve(assumptions=[q]).is_sat
        result = solver.solve(assumptions=[p, q])
        assert result.is_unsat
        assert set(result.unsat_core) == {p, q}

    def test_constant_assumptions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        assert solver.solve(assumptions=[bool_const(True)]).is_sat
        result = solver.solve(assumptions=[bool_const(False)])
        assert result.is_unsat
        assert len(result.unsat_core) == 1

    def test_non_bool_assumption_rejected(self):
        solver = SmtSolver()
        with pytest.raises(ValueError):
            solver.solve(assumptions=[add(x, 1)])

    def test_model_satisfies_assumptions(self):
        solver = SmtSolver()
        solver.add(or_(ge(x, 5), le(y, -5)))
        formula = and_(lt(x, 5), ge(y, -100))
        result = solver.solve(assumptions=[formula])
        assert result.is_sat
        env = {"x": 0, "y": 0}
        env.update(result.model)
        assert evaluate(formula, env)
        assert env["y"] <= -5

    def test_lemma_reuse_across_assumption_calls(self):
        solver = SmtSolver()
        solver.add(ge(add(x, y), 10))
        first = solver.solve(assumptions=[le(x, 2), le(y, 2)])
        assert first.is_unsat
        # Second call over the same theory space: lemmas learned in the
        # first call are still in the clause database.
        lemmas_before = solver.stats.lemmas
        second = solver.solve(assumptions=[le(x, 1), le(y, 2)])
        assert second.is_unsat
        assert solver.stats.lemmas >= lemmas_before


class TestPushPop:
    def test_pop_retracts_scoped_assertions(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        solver.push()
        solver.add(ge(x, 10))
        assert solver.solve(assumptions=[le(x, 5)]).is_unsat
        solver.pop()
        assert solver.solve(assumptions=[le(x, 5)]).is_sat

    def test_nested_scopes(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        solver.push()
        solver.add(le(x, 100))
        solver.push()
        solver.add(ge(x, 200))
        assert solver.solve().is_unsat
        solver.pop()
        assert solver.num_scopes == 1
        assert solver.solve().is_sat
        result = solver.solve(assumptions=[ge(x, 150)])
        assert result.is_unsat  # inner scope gone, outer le(x, 100) remains
        solver.pop()
        assert solver.solve(assumptions=[ge(x, 150)]).is_sat

    def test_pop_without_push_raises(self):
        solver = SmtSolver()
        with pytest.raises(ValueError):
            solver.pop()

    def test_false_inside_scope_dies_with_it(self):
        solver = SmtSolver()
        solver.add(ge(x, 0))
        solver.push()
        solver.add(bool_const(False))
        assert solver.solve().is_unsat
        solver.pop()
        assert solver.solve().is_sat

    def test_scoped_model_respects_scope(self):
        solver = SmtSolver()
        solver.push()
        solver.add(and_(ge(x, 7), le(x, 7)))
        result = solver.solve()
        assert result.is_sat and result.model["x"] == 7

    def test_reset_clears_scopes(self):
        solver = SmtSolver()
        solver.push()
        solver.add(bool_const(False))
        solver.reset()
        assert solver.num_scopes == 0
        assert solver.solve().is_sat
        with pytest.raises(ValueError):
            solver.pop()


class TestMinimizeCoreDeadlineRegression:
    def test_minimize_core_forwards_deadline(self, monkeypatch):
        # Regression: _minimize_core invoked check_lia with the default
        # deadline (None), so core shrinking ignored a near-expired solver
        # deadline entirely.
        import repro.smt.solver as solver_module

        from repro.smt.branch_bound import LiaTableau

        seen = []
        real_check_lia = solver_module.check_lia

        def spy(constraints, max_nodes=20000, deadline=None, tableau=None):
            seen.append((deadline, tableau))
            return real_check_lia(constraints, max_nodes, None, tableau)

        monkeypatch.setattr(solver_module, "check_lia", spy)
        deadline = time.monotonic() + 3600
        solver = SmtSolver(deadline=deadline)
        # Call the helper directly with a 6-element core (the minimiser only
        # engages for cores of 5..24 literals).
        from repro.lang.builders import int_const
        from repro.smt.linear import term_to_linexpr

        exprs = []
        for i in range(6):
            expr = term_to_linexpr(x) - term_to_linexpr(int_const(i))
            exprs.append((expr, i + 1))
        tableau = LiaTableau(exprs)
        solver._minimize_core(exprs, [i + 1 for i in range(6)], tableau)
        assert seen, "minimiser should have called check_lia"
        # Every deletion trial gets the deadline and runs on the round's
        # tableau.
        assert all(d == deadline and t is tableau for d, t in seen)
