"""Tests for resumable fixed-height sessions."""

import time

import pytest

from repro.lang import and_, eq, ge, int_var, or_
from repro.lang.sorts import INT
from repro.sygus.grammar import clia_grammar
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.cegis import CegisTimeout
from repro.synth.config import SynthConfig
from repro.synth.fixed_height import FixedHeightSession, fixed_height

x, y = int_var("x"), int_var("y")


def _max2_problem():
    fun = SynthFun("f", (x, y), INT, clia_grammar((x, y)))
    fx = fun.apply((x, y))
    spec = and_(ge(fx, x), ge(fx, y), or_(eq(fx, x), eq(fx, y)))
    return SygusProblem(fun, spec, (x, y), name="max2")


class TestSessionLifecycle:
    def test_solves_in_one_run(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2, SynthConfig())
        body = session.run([])
        assert body is not None
        ok, _ = problem.verify(body)
        assert ok

    def test_exhaustion_is_sticky(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 1, SynthConfig())
        assert session.run([]) is None
        assert session.exhausted
        # The parked session no longer holds its solver's clause database.
        assert session.solver is None
        # Re-running an exhausted session is a cheap no-op.
        assert session.run([]) is None

    def test_preemption_then_resume(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2, SynthConfig())
        examples = []
        with pytest.raises(CegisTimeout):
            session.run(examples, deadline=time.monotonic() - 1)
        assert not session.exhausted
        # Resume with a real budget: the session completes from saved state.
        body = session.run(examples, deadline=time.monotonic() + 120)
        assert body is not None

    def test_examples_survive_preemption(self):
        problem = _max2_problem()
        session = FixedHeightSession(problem, 2, SynthConfig())
        examples = []
        # Give it a tiny but nonzero budget a few times.
        for _ in range(3):
            try:
                body = session.run(examples, deadline=time.monotonic() + 0.05)
            except CegisTimeout:
                continue
            if body is not None:
                break
        # Whatever happened, collected counterexamples are in the shared list
        # and the CEGIS round counter is monotone.
        assert session.rounds >= 0
        body = session.run(examples, deadline=time.monotonic() + 120)
        assert body is not None


class TestSessionStore:
    def test_fixed_height_reuses_stored_session(self):
        problem = _max2_problem()
        store = {}
        body = fixed_height(
            problem, 1, SynthConfig(), examples=[], session_store=store
        )
        assert body is None
        assert 1 in store and store[1].exhausted
        # A second call at the same height reuses the exhausted session and
        # returns immediately.
        start = time.monotonic()
        assert (
            fixed_height(problem, 1, SynthConfig(), examples=[], session_store=store)
            is None
        )
        assert time.monotonic() - start < 0.5

    def test_without_store_sessions_are_fresh(self):
        problem = _max2_problem()
        assert fixed_height(problem, 2, SynthConfig(), examples=[]) is not None
