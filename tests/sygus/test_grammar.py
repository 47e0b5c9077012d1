"""Tests for expression grammars and membership."""

from repro.lang import add, apply_fn, eq, ge, int_const, int_var, ite, lt, sub
from repro.lang.sorts import BOOL, INT
from repro.sygus.grammar import (
    Grammar,
    InterpretedFunction,
    any_const,
    clia_grammar,
    expand_interpreted,
    nonterminal,
    qm_grammar,
    qm_function,
)

x, y = int_var("x"), int_var("y")


class TestCliaGrammar:
    def test_membership_of_params_and_constants(self):
        grammar = clia_grammar((x, y))
        assert grammar.generates(x)
        assert grammar.generates(int_const(42))  # via (Constant Int)
        assert grammar.generates(add(x, y))
        assert grammar.generates(sub(x, 1))

    def test_membership_of_ite(self):
        grammar = clia_grammar((x, y))
        assert grammar.generates(ite(ge(x, y), x, y))

    def test_non_member_rejected(self):
        grammar = clia_grammar((x, y))
        z = int_var("z")
        assert not grammar.generates(z)
        assert not grammar.generates(apply_fn("mystery", [x], INT))

    def test_bool_start_for_inv_track(self):
        grammar = clia_grammar((x,), start_sort=BOOL)
        assert grammar.start_sort is BOOL
        assert grammar.generates(ge(x, 0))
        assert not grammar.generates(x)

    def test_nary_flattened_terms_still_members(self):
        # The builders flatten x + y + 1 into a 3-ary node; the binary
        # production S + S must still match.
        grammar = clia_grammar((x, y))
        assert grammar.generates(add(x, y, 1))


class TestQmGrammar:
    def test_qm_membership(self):
        grammar = qm_grammar((x, y))
        solution = add(x, apply_fn("qm", (sub(y, x), int_const(0)), INT))
        assert grammar.generates(solution)

    def test_ite_not_in_qm_grammar(self):
        grammar = qm_grammar((x, y))
        assert not grammar.generates(ite(ge(x, y), x, y))

    def test_constants_restricted(self):
        grammar = qm_grammar((x,))
        assert grammar.generates(int_const(0))
        assert grammar.generates(int_const(1))
        assert not grammar.generates(int_const(5))

    def test_qm_semantics(self):
        qm = qm_function()
        assert qm.instantiate((int_const(-1), int_const(9))) is ite(
            lt(int_const(-1), 0), int_const(9), int_const(-1)
        )


class TestGrammarExtension:
    def test_with_interpreted_adds_production(self):
        grammar = qm_grammar((x, y))
        x1, x2 = int_var("x1"), int_var("x2")
        aux = InterpretedFunction(
            "aux", (x1, x2), add(x1, apply_fn("qm", (sub(x2, x1), int_const(0)), INT))
        )
        extended = grammar.with_interpreted(aux)
        assert "aux" in extended.interpreted
        assert extended.generates(apply_fn("aux", (x, y), INT))
        # The original grammar is unchanged.
        assert not grammar.generates(apply_fn("aux", (x, y), INT))

    def test_with_interpreted_rejects_self_call(self):
        import pytest

        grammar = qm_grammar((x, y))
        x1 = int_var("x1")
        loop = InterpretedFunction("loop", (x1,), apply_fn("loop", (x1,), INT))
        with pytest.raises(ValueError, match="'loop'"):
            grammar.with_interpreted(loop)

    def test_with_extra_production(self):
        grammar = qm_grammar((x,))
        extended = grammar.with_extra_production("S", int_const(7))
        assert extended.generates(int_const(7))
        assert not grammar.generates(int_const(7))


class TestExpandInterpreted:
    def test_nested_expansion(self):
        x1, x2 = int_var("x1"), int_var("x2")
        qm = qm_function()
        aux = InterpretedFunction(
            "aux", (x1, x2), add(x1, apply_fn("qm", (sub(x2, x1), int_const(0)), INT))
        )
        term = apply_fn("aux", (x, y), INT)
        expanded = expand_interpreted(term, {"qm": qm, "aux": aux})
        from repro.lang.traversal import contains_app

        assert not contains_app(expanded, "aux")
        assert not contains_app(expanded, "qm")

    def test_expansion_preserves_semantics(self):
        from repro.lang import evaluate

        x1, x2 = int_var("x1"), int_var("x2")
        qm = qm_function()
        aux = InterpretedFunction(
            "aux", (x1, x2), add(x1, apply_fn("qm", (sub(x2, x1), int_const(0)), INT))
        )
        funcs = {"qm": (qm.params, qm.body), "aux": (aux.params, aux.body)}
        term = apply_fn("aux", (x, y), INT)
        expanded = expand_interpreted(term, {"qm": qm, "aux": aux})
        for a in range(-3, 4):
            for b in range(-3, 4):
                env = {"x": a, "y": b}
                assert evaluate(expanded, env) == evaluate(term, env, funcs) == max(a, b)


class TestStructure:
    def test_unknown_start_symbol_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            Grammar({"S": INT}, "T", {"S": [x]})

    def test_signature_rendering(self):
        grammar = qm_grammar((x,))
        signature = grammar.production_signature()
        assert "S ->" in signature and "qm" in signature
