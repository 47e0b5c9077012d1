"""Divide-and-conquer strategies (Section 4, Figure 4).

Each strategy inspects a problem and yields :class:`Split` objects.  A split
carries the Type-A subproblem plus a callback that, given the A-solution,
either immediately produces the parent's solution or yields the Type-B
subproblem together with a combiner (Algorithm 1 routes both cases).

Implemented strategies:

- **Subterm** (Section 4.1): synthesize an auxiliary function equivalent to a
  subexpression of the reference specification, then re-synthesize the target
  with the auxiliary function added to the grammar.
- **FixedTerm** (Section 4.2): pick a term ``e`` compared against ``f`` in the
  spec; synthesize a ``g`` that only needs to work when ``e`` does not, and
  combine as ``ite(Phi[e/f], e, g)``.
- **WeakerSpec** (Section 4.3): drop a conjunct of an invariant-style spec
  and re-attack the remainder; combine with conjunction/disjunction
  (instantiating the rule's functor ``(+)`` at ``and``/``or``, for which the
  three conditions of Definition 4.1 hold by monotonicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.lang.ast import Kind, Term
from repro.obs import forensics
from repro.lang.builders import and_, eq, ge, implies, ite, le, not_, or_, var
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL, INT
from repro.lang.traversal import (
    app_occurrences,
    contains_app,
    free_vars,
    fresh_name,
    subexpressions,
    substitute,
    substitute_apps,
)
from repro.sygus.grammar import Grammar, InterpretedFunction
from repro.sygus.problem import SygusProblem, SynthFun
from repro.synth.config import SynthConfig

#: Result of resolving a split with an A-solution: either the parent's
#: solution body, or a Type-B problem plus a combiner for its solution.
Resolution = Union[
    Tuple[str, Term],  # ("solution", body)
    Tuple[str, SygusProblem, Callable[[Term], Term]],  # ("problem", b, combine)
]


@dataclass
class Split:
    """A divide-and-conquer division of a parent problem."""

    strategy: str
    subproblem: SygusProblem  # Type-A

    #: Maps the A-solution body to the parent's resolution.
    resolve: Callable[[Term], Optional[Resolution]] = None  # type: ignore[assignment]


def _reject(parent: SygusProblem, strategy: str, reason: str) -> None:
    """Emit a ``divide.reject`` forensics event keyed by the parent node.

    Resolvers are closures over problems, not graph nodes, so the stable
    node ID is recomputed here (lazy import — the graph module imports this
    one for :class:`Split`).
    """
    if not forensics.enabled():
        return
    from repro.synth.graph import stable_node_id

    forensics.emit(
        forensics.DIVIDE_REJECT,
        node=stable_node_id(parent),
        strategy=strategy,
        reason=reason,
    )


def propose_splits(problem: SygusProblem, config: SynthConfig) -> List[Split]:
    """All applicable divisions of ``problem``, best candidates first."""
    splits: List[Split] = []
    splits.extend(weaker_spec_splits(problem))
    splits.extend(subterm_splits(problem, config))
    splits.extend(fixed_term_splits(problem, config))
    return splits[: config.max_subproblems]


# ---------------------------------------------------------------------------
# Subterm-based division (Section 4.1)
# ---------------------------------------------------------------------------


def _candidate_subterms(problem: SygusProblem, limit: int) -> List[Term]:
    """Interesting f-free Int subterms of the spec, larger first.

    Terms that are directly compared against an invocation of ``f`` are
    excluded: synthesizing an auxiliary equal to the full right-hand side of
    the reference specification is the original problem over again.
    """
    fun_name = problem.fun_name
    excluded = set()
    for sub in subexpressions(problem.spec):
        if sub.kind in (Kind.GE, Kind.GT, Kind.LE, Kind.LT, Kind.EQ):
            left, right = sub.args
            if contains_app(left, fun_name):
                excluded.add(right)
            if contains_app(right, fun_name):
                excluded.add(left)
    seen = []
    for sub in subexpressions(problem.spec):
        if sub.sort is not INT:
            continue
        if sub.height < 2 or sub.kind is Kind.APP:
            continue
        if sub in excluded or contains_app(sub, fun_name):
            continue
        variables = free_vars(sub)
        if not variables:
            continue
        seen.append(sub)
    # Larger subterms shave more height off the parent problem.
    seen.sort(key=lambda t: (-t.size, repr(t)))
    return seen[:limit]


def subterm_splits(problem: SygusProblem, config: SynthConfig) -> List[Split]:
    """The Subterm rule: aux(y) = e' as Type-A, grammar + aux as Type-B."""
    splits: List[Split] = []
    grammar = problem.synth_fun.grammar
    if problem.synth_fun.return_sort is not INT:
        return splits
    for index, subterm in enumerate(
        _candidate_subterms(problem, config.max_subproblems)
    ):
        aux_params = tuple(sorted(free_vars(subterm), key=lambda v: v.payload))
        if len(aux_params) > len(problem.synth_fun.params):
            _reject(problem, "subterm", "aux-params-exceed")
            continue
        # A Type-B problem keeps its parent's function name and grammar, so
        # splitting it again must not reuse an auxiliary's name.
        aux_name = fresh_name(f"aux{index}!{problem.fun_name}", grammar.interpreted)
        aux_grammar = Grammar(
            dict(grammar.nonterminals),
            grammar.start,
            {n: list(ps) for n, ps in grammar.productions.items()},
            dict(grammar.interpreted),
            aux_params,
        )
        aux_grammar = _restrict_params(aux_grammar, problem.synth_fun.params, aux_params)
        aux_fun = SynthFun(aux_name, aux_params, INT, aux_grammar)
        aux_spec = eq(aux_fun.apply(aux_params), subterm)
        subproblem = SygusProblem(
            aux_fun,
            aux_spec,
            tuple(aux_params),
            track=problem.track,
            name=f"{problem.name}/subterm{index}",
        )
        splits.append(
            Split(
                "subterm",
                subproblem,
                _make_subterm_resolver(problem, aux_fun),
            )
        )
    return splits


def _restrict_params(
    grammar: Grammar, old_params: Tuple[Term, ...], new_params: Tuple[Term, ...]
) -> Grammar:
    """Drop parameter productions that the aux function does not receive."""
    allowed = set(new_params)
    dropped = [p for p in old_params if p not in allowed]
    productions = {
        nt: [rhs for rhs in rules if rhs not in dropped]
        for nt, rules in grammar.productions.items()
    }
    return Grammar(
        dict(grammar.nonterminals),
        grammar.start,
        productions,
        dict(grammar.interpreted),
        new_params,
    )


def _make_subterm_resolver(
    parent: SygusProblem, aux_fun: SynthFun
) -> Callable[[Term], Optional[Resolution]]:
    def resolve(aux_body: Term) -> Optional[Resolution]:
        aux_interpreted = InterpretedFunction(aux_fun.name, aux_fun.params, aux_body)
        extended = parent.synth_fun.grammar.with_interpreted(aux_interpreted)
        type_b = parent.with_grammar(extended, name_suffix="/with-aux")

        def combine(b_body: Term) -> Term:
            # Inline the auxiliary so the final solution is a member of the
            # parent's original grammar (cf. inlining (4.1) into (4.2)).
            return simplify(
                substitute_apps(b_body, aux_fun.name, aux_fun.params, aux_body)
            )

        return ("problem", type_b, combine)

    return resolve


# ---------------------------------------------------------------------------
# Fixed-term-based division (Section 4.2)
# ---------------------------------------------------------------------------


def fixed_term_splits(problem: SygusProblem, config: SynthConfig) -> List[Split]:
    """The FixedTerm rule, for single-invocation Int problems."""
    splits: List[Split] = []
    if problem.synth_fun.return_sort is not INT:
        return splits
    invocations = problem.invocations()
    if len(invocations) != 1:
        return splits
    invocation = invocations[0]
    candidates = _compared_terms(problem, invocation, config.max_subproblems)
    for index, term in enumerate(candidates):
        condition = simplify(substitute(problem.spec, {invocation: term}))
        if contains_app(condition, problem.fun_name):
            continue
        g_name = f"g{index}!{problem.fun_name}"
        g_fun = SynthFun(
            g_name,
            problem.synth_fun.params,
            INT,
            problem.synth_fun.grammar,
        )
        g_spec = or_(
            condition,
            _rename_fun(problem.spec, invocation, g_fun),
        )
        subproblem = SygusProblem(
            g_fun,
            simplify(g_spec),
            problem.variables,
            track=problem.track,
            name=f"{problem.name}/fixedterm{index}",
        )
        splits.append(
            Split(
                "fixed-term",
                subproblem,
                _make_fixed_term_resolver(problem, condition, term),
            )
        )
    return splits


def _compared_terms(
    problem: SygusProblem, invocation: Term, limit: int
) -> List[Term]:
    """Terms ``e`` with ``f(y) ~ e`` occurring in the spec (the rule's side
    condition), deduplicated, smaller first."""
    fun_name = problem.fun_name
    found: List[Term] = []
    for sub in subexpressions(problem.spec):
        if sub.kind not in (Kind.GE, Kind.GT, Kind.LE, Kind.LT, Kind.EQ):
            continue
        left, right = sub.args
        other: Optional[Term] = None
        if left is invocation:
            other = right
        elif right is invocation:
            other = left
        if other is None or contains_app(other, fun_name):
            continue
        if other.sort is not INT:
            continue
        if other not in found:
            found.append(other)
    found.sort(key=lambda t: (t.size, repr(t)))
    return found[:limit]


def _rename_fun(spec: Term, invocation: Term, g_fun: SynthFun) -> Term:
    replacement = g_fun.apply(invocation.args)
    return substitute(spec, {invocation: replacement})


def _make_fixed_term_resolver(
    parent: SygusProblem, condition: Term, term: Term
) -> Callable[[Term], Optional[Resolution]]:
    def resolve(g_body: Term) -> Optional[Resolution]:
        # Q = λy. ite(Phi[e/f], e, g(y)); the B problem is solved by
        # construction (the rule's Q synthesis has a syntactic solution in
        # any ite-capable grammar).
        body = simplify(ite(condition, term, g_body))
        if not parent.synth_fun.grammar.generates(body):
            from repro.synth.deduction import match_rewrite

            rewritten = match_rewrite(body, parent.synth_fun.grammar)
            if rewritten is None or not parent.synth_fun.grammar.generates(rewritten):
                _reject(parent, "fixed-term", "not-in-grammar")
                return None
            body = rewritten
        return ("solution", body)

    return resolve


# ---------------------------------------------------------------------------
# Weaker-spec-based division (Section 4.3)
# ---------------------------------------------------------------------------


def weaker_spec_splits(problem: SygusProblem) -> List[Split]:
    """The WeakerSpec rule instantiated at ``and``/``or`` for predicates.

    For an invariant-style spec ``Phi ∧ Delta ∧ Psi`` (pre / inductive /
    post), both ``Phi ∧ Delta`` (combine with ∧) and ``Delta ∧ Psi``
    (combine with ∨) satisfy Definition 4.1's three conditions, because
    implications into ``inv`` are closed under disjunction on the left and
    implications out of ``inv`` are closed under conjunction.
    """
    splits: List[Split] = []
    if problem.synth_fun.return_sort is not BOOL:
        return splits
    if problem.invariant is None:
        return splits
    conjuncts = _spec_conjuncts(problem.spec)
    if len(conjuncts) != 3:
        return splits
    pre_part, inductive_part, post_part = conjuncts
    splits.append(
        _weaker_split(problem, and_(pre_part, inductive_part), "and", "/weaker-pre-ind")
    )
    splits.append(
        _weaker_split(problem, and_(inductive_part, post_part), "or", "/weaker-ind-post")
    )
    return splits


def _spec_conjuncts(spec: Term) -> List[Term]:
    if spec.kind is Kind.AND:
        return list(spec.args)
    return [spec]


def _weaker_split(
    problem: SygusProblem, weaker: Term, combinator: str, suffix: str
) -> Split:
    subproblem = problem.with_spec(weaker, name_suffix=suffix)

    def resolve(p_body: Term) -> Optional[Resolution]:
        if p_body.kind is Kind.CONST:
            # A trivial A-solution (true/false) makes the B problem identical
            # to the parent: no progress, reject the division.
            _reject(problem, "weaker-spec", "trivial-a-solution")
            return None
        g_name = f"g!{problem.fun_name}"
        g_fun = SynthFun(
            g_name,
            problem.synth_fun.params,
            BOOL,
            problem.synth_fun.grammar,
        )
        params = problem.synth_fun.params

        def combined_body(g_term: Term) -> Term:
            if combinator == "and":
                return and_(p_body, g_term)
            return or_(p_body, g_term)

        g_app = g_fun.apply(params)
        # Spec for g: Phi[λy. P(y) (+) g(y) / f].
        b_spec = substitute_apps(
            problem.spec,
            problem.fun_name,
            params,
            combined_body(g_app),
        )
        type_b = SygusProblem(
            g_fun,
            simplify(b_spec),
            problem.variables,
            track=problem.track,
            name=problem.name + suffix + "/b",
            invariant=None,
        )

        def combine(g_body: Term) -> Term:
            return simplify(combined_body(g_body))

        return ("problem", type_b, combine)

    return Split("weaker-spec", subproblem, resolve)
