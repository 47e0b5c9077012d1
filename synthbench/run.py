"""The synthesis benchmark: one workload, one problem at a time.

Usage, from the repository root::

    python3 synthbench/run.py --workload demo-2s --seed 1 --seconds 20 --trace 0

A run is a closed loop with one client: it solves the workload's problems
one after another, each in its own forked process after
``reset_default_memo()`` and ``repro.lang.compile.clear_caches()``, so that
a problem's time and work do not depend on the problems before it.
``--seed`` shuffles the order.  Whole passes over the workload repeat while
another one fits in ``--seconds``.  Every answer is checked outside the
timed region (see ``check.py``).  Set-ups (``probe_setup.py``) are timed in
fresh interpreters at the start, every few seconds between problems and at
the end, so that ``setup_s``, their median, samples the whole run.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes (see ``layers.py``)
and reports per-layer calls, self times, work counters and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it, starting with ``#``, are the human-readable report.
``--out PATH`` also writes the full result, with the host fingerprint and
every problem's record, as JSON.

Outcome classes: ``solved`` (answer passed both checks), ``unsolved``
(budget ran out or the search gave up), ``error`` (an exception) and
``wrong`` (an answer a check rejected).  ``error`` and ``wrong`` are
counted in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".synthbench_out")

#: Another set-up is timed before a problem once this many seconds have
#: passed since the last one, so the set-ups sample the whole run.
SETUP_EVERY_S = 2.0
#: Fewest set-ups a run times; ``setup_s`` is their median.
SETUP_MIN = 9
#: Problems that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: A problem's process that has not answered after this many budgets (plus
#: a minute) is killed and its problem counted as an error.
HANG_FACTOR = 3

from workloads import BY_NAME, FRONTIER  # noqa: E402  (imports no repro module)


@dataclass
class ProblemRecord:
    name: str
    status: str  # solved | unsolved | error | wrong
    wall_s: float
    par1_s: float
    #: The run hit the budget, so its work counts depend on host speed.
    budget_bound: bool
    size: Optional[int] = None
    answer: Optional[str] = None
    detail: str = ""
    #: ``ru_maxrss`` of the problem's process.
    rss_mb: float = 0.0
    work: Counter = field(default_factory=Counter)
    #: Traced passes: per-layer self time and the spans.
    self_s: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Obs passes: obs spans and stack samples recorded, and the time to
    #: export the spans.
    obs_spans: int = 0
    obs_samples: int = 0
    export_s: float = 0.0


@dataclass
class Pass:
    mode: str  # plain | traced | obs
    records: List[ProblemRecord]

    @property
    def solve_time_s(self) -> float:
        return sum(r.par1_s for r in self.records)

    def total(self, attr) -> float:
        return sum(getattr(r, attr) for r in self.records)

    def self_s(self, layer) -> float:
        return sum(r.self_s.get(layer, 0.0) for r in self.records)


# -- set-up ------------------------------------------------------------------


class SetupProbe:
    """Times set-ups: ``probe_setup.py`` in fresh interpreters.

    Bytecode is cached under ``.synthbench_out/`` (``-X pycache_prefix``,
    with ``-E`` so that ``PYTHONDONTWRITEBYTECODE`` does not apply) and an
    untimed first set-up fills that cache.  Every timed set-up then imports
    from the same warm cache, whatever the environment or the checkout's
    ``__pycache__`` directories hold.
    """

    def __init__(self, workload):
        self.command = [
            sys.executable, "-E",
            "-X", f"pycache_prefix={os.path.join(OUT_DIR, 'pycache')}",
            os.path.join(HERE, "probe_setup.py"), workload.name,
        ]
        self.times: List[float] = []
        self.last = 0.0
        self._run()  # untimed: fills the bytecode cache
        self.sample()

    def _run(self) -> float:
        done = subprocess.run(
            self.command, capture_output=True, text=True, timeout=120,
            check=True,
        )
        self.last = time.perf_counter()
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self) -> None:
        self.times.append(self._run())

    def between_problems(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()

    def finish(self) -> List[float]:
        while len(self.times) < SETUP_MIN:
            self.sample()
        return self.times


def fingerprint() -> Dict[str, object]:
    """Host and code identity; results from different hosts never compare."""
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "repro_commit": commit,
        "repro_source_sha256": digest.hexdigest(),
    }


# -- running -------------------------------------------------------------------


def solve_one(benchmark, workload, mode, verified) -> ProblemRecord:
    """Solve one problem from cold caches, then check the answer.

    Runs in the problem's own process (see :func:`run_isolated`).
    """
    from dataclasses import fields

    from check import check_answer
    from layers import LayerTracer
    from repro.bench.runner import make_solver
    from repro.lang.compile import clear_caches
    from repro.lang.printer import to_sexpr
    from repro.smt.memo import default_memo, reset_default_memo
    from repro.smt.simplex import pivots_total

    reset_default_memo()
    clear_caches()
    problem = benchmark.problem()
    solver = make_solver(workload.solver, workload.budget_s)
    tracer = LayerTracer() if mode == "traced" else None
    recorder = sampler = None
    outcome, detail = None, ""
    with contextlib.ExitStack() as stack:
        if mode == "obs":
            from repro import obs
            from repro.obs.sampler import StackSampler

            recorder = stack.enter_context(obs.recording())
            sampler = StackSampler(recorder=recorder)
            stack.callback(sampler.stop)
            sampler.start()
        if tracer is not None:
            stack.enter_context(tracer)
        pivots_before = pivots_total()
        start = time.perf_counter()
        try:
            outcome = solver.synthesize(problem)
        except Exception as exc:  # noqa: BLE001 - an exception is the 'error' outcome
            detail = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        pivots = pivots_total() - pivots_before

    memo = default_memo().stats()
    work = Counter({
        "smt.simplex.pivots": pivots,
        "smt.memo.hits": memo["hits"],
        "smt.memo.misses": memo["misses"],
    })
    if outcome is not None:
        for spec in fields(outcome.stats):
            work[f"stats.{spec.name}"] = int(getattr(outcome.stats, spec.name))
        # ``subproblems_solved`` counts the root problem too.
        work["synth.divide.children_solved"] = (
            outcome.stats.subproblems_solved - int(outcome.solved)
        )
    record = ProblemRecord(
        benchmark.name, "error" if outcome is None else "unsolved", wall,
        workload.budget_s,
        wall >= workload.budget_s or bool(outcome and outcome.timed_out),
        detail=detail, work=work,
    )
    if tracer is not None:
        work.update(tracer.work())
        record.self_s = tracer.self_s
        record.spans = tracer.spans
    if recorder is not None:
        from repro.obs.export import write_spans_jsonl

        record.obs_spans = len(recorder.spans) + recorder.dropped
        record.obs_samples = sampler.profile.samples
        os.makedirs(OUT_DIR, exist_ok=True)
        start = time.perf_counter()
        write_spans_jsonl(
            recorder, os.path.join(OUT_DIR, f"{workload.name}.obs.jsonl")
        )
        record.export_s = time.perf_counter() - start
    record.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if outcome is not None and outcome.solved:
        body = outcome.solution.body
        record.size, record.answer = body.size, to_sexpr(body)
        rejection = None
        if verified.get(benchmark.name) != record.answer:
            rejection = check_answer(problem, body)
        if rejection is None:
            record.status, record.par1_s = "solved", wall
        else:
            record.status, record.detail = "wrong", rejection
    return record


def _worker(sender, *args) -> None:
    try:
        sender.send(solve_one(*args))
    finally:
        sender.close()


def run_isolated(benchmark, workload, mode, verified) -> ProblemRecord:
    """Run :func:`solve_one` in a forked child, as the CLI runs one problem
    per process: no memo, compile cache, interned term or garbage carries
    over from one problem to the next.  The parent runs no threads, so
    forking is safe."""
    # Frozen objects are left alone by the child's collector, so it does
    # not copy the parent's heap page by page.
    gc.freeze()
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(
        target=_worker,
        args=(sender, benchmark, workload, mode, verified),
    )
    worker.start()
    sender.close()
    try:
        if receiver.poll(HANG_FACTOR * workload.budget_s + 60):
            return receiver.recv()
        detail = "no result: the problem's process hung"
    except EOFError:
        worker.join()
        detail = f"no result: the problem's process exited with {worker.exitcode}"
    finally:
        receiver.close()
        worker.join(10)
        if worker.is_alive():
            worker.kill()
            worker.join()
    return ProblemRecord(
        benchmark.name, "error", workload.budget_s, workload.budget_s, True,
        detail=detail,
    )


def run_pass(benchmarks, workload, mode, rng, verified, setups) -> Pass:
    """One pass over the workload in a seeded order, timing set-ups
    between problems.

    An ``obs`` pass leaves out the frontier problems: their timeouts would
    hide the telemetry's cost.
    """
    order = [
        b for b in benchmarks if mode != "obs" or b.name not in FRONTIER
    ]
    rng.shuffle(order)
    records = []
    for b in order:
        setups.between_problems()
        records.append(run_isolated(b, workload, mode, verified))
    for r in records:
        if r.status == "solved":
            verified[r.name] = r.answer
    return Pass(mode, records)


# -- metrics --------------------------------------------------------------------


def per_problem_median(passes, attr) -> Dict[str, float]:
    samples = defaultdict(list)
    for p in passes:
        for r in p.records:
            samples[r.name].append(getattr(r, attr))
    return {name: statistics.median(v) for name, v in samples.items()}


def tail(values) -> Optional[tuple]:
    """``(percentile, value)`` of the highest percentile with
    :data:`TAIL_BEYOND` values beyond it, or None with too few values."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < len(ordered) / 2:
        return None
    return round(100 * k / len(ordered)), ordered[k - 1]


def end_to_end(passes, setups) -> Dict[str, tuple]:
    """Name -> (value, unit) over the untraced passes."""
    verdict_s = per_problem_median(passes, "par1_s")
    sizes = {
        r.name: r.size for p in passes for r in p.records
        if r.status == "solved"
    }
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solved": (statistics.median(
            sum(r.status == "solved" for r in p.records) for p in passes
        ), "count"),
        # PAR-1 of a pass in which every problem takes its median time.
        "solve_time_s": (sum(verdict_s.values()), "s"),
        "solution_size_p50": (
            statistics.median(sizes.values()) if sizes else 0, "nodes"
        ),
        "peak_rss_mb": (
            max(r.rss_mb for p in passes for r in p.records), "MB"
        ),
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def exact_work(p: Pass) -> Counter:
    """Work summed over the problems that ended before their budget."""
    total = Counter()
    for r in p.records:
        if not r.budget_bound:
            total.update(r.work)
    return total


def per_layer(passes) -> Dict[str, tuple]:
    """Name -> (value, unit) from the traced passes."""
    from layers import LAYERS

    traced = [p for p in passes if p.mode == "traced"]
    plain = [p for p in passes if p.mode == "plain"]
    observed = [p for p in passes if p.mode == "obs"]

    def med(values):
        return statistics.median(list(values))

    def med_or_0(values):
        values = list(values)
        return statistics.median(values) if values else 0

    works = [exact_work(p) for p in traced]
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (med(w[f"{layer}.calls"] for w in works), "count")
        metrics[f"{layer}.self_s"] = (med(p.self_s(layer) for p in traced), "s")
    metrics["untraced.self_s"] = (med(
        p.total("wall_s") - sum(p.self_s(layer) for layer in LAYERS)
        for p in traced
    ), "s")
    metrics["trace.overhead_ratio"] = (_ratio(
        med(p.solve_time_s for p in traced), med(p.solve_time_s for p in plain)
    ), "ratio")

    def counter(name, key, unit="count"):
        metrics[name] = (med(w[key] for w in works), unit)

    def ratio(name, num, den):
        metrics[name] = (med(_ratio(w[num], w[den]) for w in works), "ratio")

    counter("smt.simplex.tableaus", "smt.simplex.tableaus")
    counter("smt.simplex.rows", "smt.simplex.rows")
    counter("smt.simplex.pivots", "smt.simplex.pivots")
    ratio("smt.branch_bound.calls_per_round", "smt.branch_bound.calls",
          "smt.solver.rounds")
    ratio("smt.branch_bound.feasible_ratio", "smt.branch_bound.feasible",
          "smt.branch_bound.calls")
    counter("smt.sat.conflicts", "smt.sat.conflicts")
    counter("smt.sat.decisions", "smt.sat.decisions")
    counter("smt.solver.rounds", "smt.solver.rounds")
    counter("smt.solver.lemmas", "smt.solver.lemmas")
    metrics["smt.memo.hit_ratio"] = (med(
        _ratio(w["smt.memo.hits"], w["smt.memo.hits"] + w["smt.memo.misses"])
        for w in works
    ), "ratio")
    ratio("synth.deduction.solved_ratio", "synth.deduction.solved",
          "synth.deduction.calls")
    ratio("synth.divide.useful_ratio", "synth.divide.children_solved",
          "stats.subproblems_created")
    counter("synth.fixed_height.cegis_iterations", "stats.cegis_iterations")
    counter("synth.fixed_height.heights_tried", "stats.heights_tried")
    ratio("sygus.problem.cex_ratio", "sygus.problem.counterexamples",
          "sygus.problem.calls")

    # Workloads without an obs pass record nothing: counts 0, ratio 1.
    metrics["obs.spans"] = (med_or_0(p.total("obs_spans") for p in observed), "count")
    metrics["obs.samples"] = (med_or_0(p.total("obs_samples") for p in observed), "count")
    metrics["obs.export_s"] = (med_or_0(p.total("export_s") for p in observed), "s")
    observed_names = {r.name for p in observed for r in p.records}
    metrics["obs.overhead_ratio"] = (_ratio(
        med(p.solve_time_s for p in observed),
        med(sum(r.par1_s for r in p.records if r.name in observed_names)
            for p in plain),
    ) if observed else 1.0, "ratio")
    metrics["work.budget_bound"] = (len(
        {r.name for p in passes for r in p.records if r.budget_bound}
    ), "count")
    metrics["work.repeat_mismatches"] = (len(repeat_mismatches(passes)), "count")
    return metrics


def repeat_mismatches(passes) -> List[str]:
    """Problems whose exact work counts differ between two passes.

    Passes run the problems in different orders, so this also checks that
    work does not depend on order.  Problems that hit their budget are left
    out: their counts measure host speed.  Two passes are compared on the
    counts both have (only traced passes have per-layer counts).
    """
    by_name = defaultdict(list)
    for p in passes:
        for r in p.records:
            by_name[r.name].append(r)
    return [
        name for name, records in by_name.items()
        if not any(r.budget_bound for r in records) and any(
            a.work[k] != b.work[k]
            for a, b in itertools.combinations(records, 2)
            for k in a.work.keys() & b.work.keys()
        )
    ]


def write_spans(passes, path) -> None:
    """Write every traced span as one JSON line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as handle:
        for index, p in enumerate(passes):
            for r in p.records:
                for span_id, (layer, start, end, parent) in enumerate(r.spans):
                    handle.write(json.dumps({
                        "pass": index, "problem": r.name, "id": span_id,
                        "name": layer, "start": start, "end": end,
                        "parent": parent,
                    }) + "\n")


# -- report --------------------------------------------------------------------


def report(workload, args, host, passes, setups, e2e, layers) -> None:
    """The human-readable report: every line starts with ``#``."""
    plain = [p for p in passes if p.mode == "plain"]
    records = [r for p in passes for r in p.records]
    failed = [r for r in records if r.status in ("error", "wrong")]
    verdicts = per_problem_median(plain, "par1_s")
    tail_at = tail(verdicts.values())
    tail_text = (
        f"{1000 * tail_at[1]:.6g} ms at p{tail_at[0]} of {len(verdicts)} problems"
        if tail_at else f"n/a ({len(verdicts)} problems)"
    )
    mismatches = repeat_mismatches(passes)
    lines = [
        f"host: {json.dumps(host)}",
        f"workload {workload.name}: {workload.solver}, {workload.budget_s:g} s "
        f"budget, {len(plain[0].records)} problems",
        f"why: {workload.why}",
        f"seed {args.seed}: {len(passes)} passes "
        f"({', '.join(p.mode for p in passes)}); "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s",
        f"failed: {len(failed)}/{len(records)} attempts",
        f"verdict_p50_ms: {1000 * statistics.median(verdicts.values()):.6g} ms",
        f"verdict_gmean_ms: "
        f"{1000 * statistics.geometric_mean(verdicts.values()):.6g} ms",
        f"verdict_tail_ms: {tail_text}",
    ]
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines += [f"{r.status} {r.name}: {r.detail}" for r in failed]
    lines += [
        f"unsolved {name}"
        for name in sorted({r.name for r in records if r.status == "unsolved"})
    ]
    lines.append(
        "work counts repeat across passes: "
        + ("yes" if not mismatches else "NO: " + ", ".join(mismatches))
    )
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in layers.items()]
    for line in lines:
        print(f"# {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    probe = SetupProbe(workload)
    sys.path.insert(0, SRC)
    host = fingerprint()

    benchmarks = workload.benchmarks()
    rng = random.Random(args.seed)
    modes = ["plain"]
    if args.trace:
        modes.append("traced")
        if workload.obs_pass:
            modes.append("obs")
    verified: Dict[str, str] = {}
    passes: List[Pass] = []
    # Whole cycles of passes, as many as fit in --seconds (at least one):
    # another cycle starts only if one as long as the last still fits.
    start = time.perf_counter()
    cycle_s = 0.0
    while not passes or time.perf_counter() - start + cycle_s <= args.seconds:
        cycle_start = time.perf_counter()
        for mode in modes:
            passes.append(
                run_pass(benchmarks, workload, mode, rng, verified, probe)
            )
        cycle_s = time.perf_counter() - cycle_start
    setups = probe.finish()
    e2e = end_to_end([p for p in passes if p.mode == "plain"], setups)
    layers = per_layer(passes) if args.trace else {}
    if args.trace:
        write_spans(passes, os.path.join(
            OUT_DIR, f"{workload.name}-seed{args.seed}.spans.jsonl"
        ))
    report(workload, args, host, passes, setups, e2e, layers)
    metrics = layers if args.trace else e2e

    records = [r for p in passes for r in p.records]
    summary = {
        "correct": not any(r.status == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r.status in ("error", "wrong") for r in records),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                **summary,
                "host": host,
                "workload": workload.name,
                "why": workload.why,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "setups_s": setups,
                "end_to_end": {name: value for name, (value, _) in e2e.items()},
                "passes": [
                    {"mode": p.mode, "problems": [
                        {**vars(r), "work": dict(r.work), "spans": len(r.spans)}
                        for r in p.records
                    ]} for p in passes
                ],
            }, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
