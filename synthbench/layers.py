"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry point of each layer (the
``BOUNDARIES`` table), records one span per wrapped call and keeps exact
work counters at the same boundaries.  Nothing is added to ``src/``: the
wrappers are installed with ``setattr`` on entry and the originals restored
on exit, so untraced passes in the same process run the program unchanged.

A span is ``(layer, start, end, parent)``, ``parent`` being the index of
the enclosing span; spans stay in memory and are written out once, after
measuring.  A layer's self time is its
spans' durations minus the part covered by their child spans; the time no
span covers is the ``untraced`` remainder, so per-layer self times plus that
remainder partition the traced solve time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

_RAISED = object()


def _smt_pre(args):
    stats = args[0].stats
    return stats.rounds, stats.lemmas


def _smt_post(counters, args, token, result):
    stats = args[0].stats
    counters["smt.solver.rounds"] += stats.rounds - token[0]
    counters["smt.solver.lemmas"] += stats.lemmas - token[1]


def _sat_pre(args):
    return args[0].num_conflicts, args[0].num_decisions


def _sat_post(counters, args, token, result):
    counters["smt.sat.conflicts"] += args[0].num_conflicts - token[0]
    counters["smt.sat.decisions"] += args[0].num_decisions - token[1]


def _lia_post(counters, args, token, result):
    if result is not _RAISED and result[0]:
        counters["smt.branch_bound.feasible"] += 1


def _deduct_post(counters, args, token, result):
    if result is not _RAISED and result.solution is not None:
        counters["synth.deduction.solved"] += 1


def _verify_post(counters, args, token, result):
    if result is not _RAISED and not result[0]:
        counters["sygus.problem.counterexamples"] += 1


def _count(name):
    def post(counters, args, token, result):
        counters[name] += 1

    return post


#: (layer, module, class or None, attribute, pre hook, post hook, span?)
#: ``propose_splits`` and ``fixed_height`` are patched where
#: ``repro.synth.cooperative`` binds them, ``extract_implicant`` and
#: ``check_lia`` where ``repro.smt.solver`` binds them, and ``compile_term``
#: both in its module and where the enumerative baseline imported it.
BOUNDARIES = (
    ("synth.cooperative", "repro.synth.cooperative", "CooperativeSynthesizer",
     "synthesize", None, None, True),
    ("synth.deduction", "repro.synth.deduction", "Deducer", "deduct",
     None, _deduct_post, True),
    ("synth.divide", "repro.synth.cooperative", None, "propose_splits",
     None, None, True),
    ("synth.fixed_height", "repro.synth.cooperative", None, "fixed_height",
     None, None, True),
    ("sygus.problem", "repro.sygus.problem", "SygusProblem", "verify",
     None, _verify_post, True),
    ("smt.solver", "repro.smt.solver", "SmtSolver", "solve",
     _smt_pre, _smt_post, True),
    ("smt.tseitin", "repro.smt.tseitin", "CnfEncoder", "assert_formula",
     None, None, True),
    ("smt.sat", "repro.smt.sat", "SatSolver", "solve",
     _sat_pre, _sat_post, True),
    ("smt.implicant", "repro.smt.solver", None, "extract_implicant",
     None, None, True),
    ("smt.branch_bound", "repro.smt.solver", None, "check_lia",
     None, _lia_post, True),
    ("smt.simplex", "repro.smt.simplex", "Simplex", "check",
     None, None, True),
    ("lang.compile", "repro.lang.compile", None, "compile_term",
     None, None, True),
    ("lang.compile", "repro.baselines.eusolver", None, "compile_term",
     None, None, True),
    ("lang.compile", "repro.lang.compile", None, "compile_spec",
     None, None, True),
    ("baselines.eusolver", "repro.baselines.eusolver", "TermEnumerator",
     "terms", None, None, True),
    ("baselines.eusolver", "repro.baselines.eusolver", "EnumerativeSolver",
     "synthesize_from_examples", None, None, True),
    # Counting only: tableaus built and rows (slack variables) created.
    ("smt.simplex", "repro.smt.simplex", "Simplex", "__init__",
     None, _count("smt.simplex.tableaus"), False),
    ("smt.simplex", "repro.smt.simplex", "Simplex", "new_slack",
     None, _count("smt.simplex.rows"), False),
)

LAYERS = tuple(dict.fromkeys(b[0] for b in BOUNDARIES if b[6]))


class LayerTracer:
    """Span recorder and counter set over :data:`BOUNDARIES`.

    Use as a context manager around the calls to trace; the wrappers are
    installed on entry and removed on exit.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counters: Counter = Counter()
        self.spans: List[Optional[Tuple]] = []
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, module, owner, attr, pre, post, span in BOUNDARIES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            wrapper = self._wrap(layer, original, pre, post, span)
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn, pre, post, span):
        enter, leave, counters = self._enter, self._leave, self.counters

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                post(counters, args, None, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            result = _RAISED
            enter(layer)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave()
                if post is not None:
                    post(counters, args, token, result)

        return traced

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self.calls[layer] += 1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, layer, time.perf_counter(), 0.0])

    def _leave(self) -> None:
        end = time.perf_counter()
        span_id, layer, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        parent = None
        if self._stack:
            frame = self._stack[-1]
            frame[3] += duration
            parent = frame[0]
        self.spans[span_id] = (layer, start, end, parent)

    def work(self) -> Counter:
        """Calls per layer plus every counter, as one tally."""
        tally = Counter({f"{layer}.calls": n for layer, n in self.calls.items()})
        tally.update(self.counters)
        return tally
