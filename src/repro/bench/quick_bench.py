"""Quick-bench smoke run: the demo subset under a small per-problem budget.

A CI-sized benchmark pass (``python -m repro.bench.quick_bench``) that runs
one solver over the 85-problem demo subset — the generated suite minus four
slow-but-solved stragglers — and writes two artifacts:

- ``quick_bench.jsonl``: one JSON record per problem (solved, wall time,
  and the SMT-substrate counters: DPLL(T) rounds, theory lemmas,
  assumption-core skips, learnt clauses deleted);
- ``quick_bench_summary.json``: the aggregate totals.

The point is per-PR perf visibility: a regression in the incremental SMT
core shows up as a jump in cumulative rounds or a drop in solved count
right in the workflow artifact, without waiting for a full campaign.

``--telemetry`` records the whole pass under the :mod:`repro.obs` layer;
``--metrics-out`` dumps the merged registry as Prometheus text (the CI
metrics artifact).  ``--min-solved N`` turns the run into a simple gate:
exit non-zero when fewer than N problems solve.  CI's actual gate is the
richer ``dryadsynth bench-compare`` (see :mod:`repro.bench.history`), which
reuses this run's artifacts and compares them against the committed
``BENCH_history.jsonl`` trailing baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict
from typing import Dict, List

from repro.bench.runner import make_solver
from repro.bench.suite import full_suite
from repro.synth.result import SynthesisOutcome, SynthesisStats

#: Excluded from the demo subset: solvable but slow enough to dominate a
#: smoke run's wall clock (see docs/SERVICE.md "Measured behaviour").
EXCLUDED = frozenset({"qm-floor0", "qm-max2", "range-init-64", "step2-64"})


def demo_subset():
    """The 85-problem demo subset of the generated suite."""
    return [b for b in full_suite() if b.name not in EXCLUDED]


def run_quick_bench(
    solver_name: str = "dryadsynth",
    timeout: float = 2.0,
    telemetry: bool = False,
    smt_corpus: str = None,
    sample: bool = False,
) -> Dict:
    """Run the demo subset; returns ``{"records": [...], "summary": {...}}``.

    With ``telemetry`` the pass runs under an ambient span recorder, which
    is returned as ``"recorder"`` so callers can export spans/metrics.
    With ``smt_corpus`` every SMT query is captured into one
    ``<benchmark>.smtq.jsonl`` per problem in that directory (replay with
    ``dryadsynth smt-replay``).  With ``sample`` (implies telemetry) a
    wall-clock stack sampler runs over the whole pass; the profile is
    attached to the recorder (so span dumps carry it) and returned as
    ``"profile"``, and the summary gains a ``rusage`` block either way.
    """
    from repro.obs import rusage

    usage_before = rusage.snapshot()
    if telemetry or sample:
        from repro import obs
        from repro.obs.sampler import StackSampler

        with obs.recording() as recorder:
            sampler = None
            if sample:
                sampler = StackSampler(recorder=recorder).start()
            try:
                result = _run_quick_bench_impl(
                    solver_name, timeout, smt_corpus
                )
            finally:
                if sampler is not None:
                    sampler.stop()
        if sampler is not None:
            recorder.profile = sampler.profile
            result["profile"] = sampler.profile
            recorder.metrics.counter("obs.stack_samples").inc(
                sampler.profile.samples
            )
        result["recorder"] = recorder
        result["summary"]["rusage"] = rusage.delta(usage_before)
        return result
    result = _run_quick_bench_impl(solver_name, timeout, smt_corpus)
    result["summary"]["rusage"] = rusage.delta(usage_before)
    return result


def _run_quick_bench_impl(
    solver_name: str, timeout: float, smt_corpus: str = None
) -> Dict:
    import contextlib

    records: List[Dict] = []
    totals = SynthesisStats()
    solved = 0
    start = time.monotonic()
    for benchmark in demo_subset():
        problem = benchmark.problem()
        solver = make_solver(solver_name, timeout)
        if smt_corpus:
            from repro.smt.capture import capturing

            capture_ctx = capturing(smt_corpus, benchmark.name)
        else:
            capture_ctx = contextlib.nullcontext()
        bench_start = time.monotonic()
        error = None
        try:
            with capture_ctx:
                outcome = solver.synthesize(problem)
        except Exception as exc:
            outcome = SynthesisOutcome(None, SynthesisStats())
            error = f"{type(exc).__name__}: {exc}"
        wall = time.monotonic() - bench_start
        stats = outcome.stats
        totals.merge(stats)
        solved += int(outcome.solved)
        records.append(
            {
                "benchmark": benchmark.name,
                "track": benchmark.track,
                "solver": solver_name,
                "solved": outcome.solved,
                "timed_out": outcome.timed_out,
                "error": error,
                "wall_seconds": round(wall, 4),
                "smt_checks": stats.smt_checks,
                "smt_rounds": stats.smt_rounds,
                "theory_lemmas": stats.theory_lemmas,
                "assumption_core_skips": stats.assumption_core_skips,
                "learnt_clauses_deleted": stats.learnt_clauses_deleted,
            }
        )
    summary = {
        "solver": solver_name,
        "timeout_seconds": timeout,
        "problems": len(records),
        "solved": solved,
        "wall_seconds": round(time.monotonic() - start, 2),
        "stats": asdict(totals),
    }
    return {"records": records, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the demo-subset quick bench and write JSONL artifacts."
    )
    parser.add_argument("--solver", default="dryadsynth")
    parser.add_argument(
        "--timeout", type=float, default=2.0, help="per-problem budget (s)"
    )
    parser.add_argument(
        "--out", default="quick-bench", help="output directory for artifacts"
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record the pass with repro.obs (implied by --metrics-out)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's merged metrics as Prometheus text to PATH",
    )
    parser.add_argument(
        "--spans-out",
        metavar="PATH",
        default=None,
        help="write the run's span stream as JSONL to PATH (implies "
        "--telemetry; render with `dryadsynth profile` or "
        "`dryadsynth explain`)",
    )
    parser.add_argument(
        "--analytics-out",
        metavar="PATH",
        default=None,
        help="fold the run's forensics into one per-node analytics record "
        "and append it to PATH (implies --telemetry; query with "
        "`dryadsynth history --store PATH`)",
    )
    parser.add_argument(
        "--smt-corpus",
        metavar="DIR",
        default=None,
        help="capture every SMT query into one <benchmark>.smtq.jsonl per "
        "problem in DIR (replay with `dryadsynth smt-replay DIR`)",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="run a wall-clock stack sampler over the whole pass (implies "
        "--telemetry; render with `dryadsynth flame`)",
    )
    parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        default=None,
        help="write the sampled profile as FlameGraph/speedscope "
        "collapsed-stack text to PATH (implies --sample)",
    )
    parser.add_argument(
        "--min-solved",
        type=int,
        default=None,
        metavar="N",
        help="fail (exit 1) when fewer than N problems solve",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="emit structured JSON log lines (repro-log/1) to PATH, "
        "or to stderr with '-'",
    )
    args = parser.parse_args(argv)
    if args.log_json:
        from repro.obs.log import configure_json_logging, remove_json_logging

        handler = configure_json_logging(args.log_json)
        try:
            return _main_impl(args)
        finally:
            remove_json_logging(handler)
    return _main_impl(args)


def _main_impl(args) -> int:
    sample = bool(args.sample or args.collapsed_out)
    telemetry = bool(
        args.telemetry
        or args.metrics_out
        or args.spans_out
        or args.analytics_out
        or sample
    )
    result = run_quick_bench(
        args.solver,
        args.timeout,
        telemetry=telemetry,
        smt_corpus=args.smt_corpus,
        sample=sample,
    )
    os.makedirs(args.out, exist_ok=True)
    jsonl_path = os.path.join(args.out, "quick_bench.jsonl")
    with open(jsonl_path, "w") as handle:
        for record in result["records"]:
            handle.write(json.dumps(record) + "\n")
    summary_path = os.path.join(args.out, "quick_bench_summary.json")
    with open(summary_path, "w") as handle:
        json.dump(result["summary"], handle, indent=2)
        handle.write("\n")
    summary = result["summary"]
    stats = summary["stats"]
    print(
        f"quick-bench: {summary['solved']}/{summary['problems']} solved "
        f"in {summary['wall_seconds']}s "
        f"(rounds={stats['smt_rounds']} lemmas={stats['theory_lemmas']} "
        f"core_skips={stats['assumption_core_skips']} "
        f"deleted={stats['learnt_clauses_deleted']})"
    )
    print(f"wrote {jsonl_path} and {summary_path}")
    if args.metrics_out:
        from repro.obs.export import write_metrics_text

        write_metrics_text(result["recorder"].metrics, args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if args.spans_out:
        from repro.obs.export import write_spans_jsonl

        write_spans_jsonl(result["recorder"], args.spans_out)
        print(f"wrote {args.spans_out}")
    if args.analytics_out:
        from repro.bench.analytics import append_analytics, record_from_run

        recorder = result["recorder"]
        record = record_from_run(
            recorder.spans,
            recorder.events,
            solver=args.solver,
            timeout=args.timeout,
            context={"suite": "quick-bench"},
        )
        append_analytics(args.analytics_out, record)
        print(
            f"appended {len(record['nodes'])} node record(s) to "
            f"{args.analytics_out}"
        )
    if args.collapsed_out:
        from repro.obs.sampler import write_collapsed

        profile = result.get("profile")
        if profile is not None and profile.samples:
            write_collapsed(profile, args.collapsed_out)
            print(
                f"wrote {args.collapsed_out} "
                f"({profile.samples} stack samples)"
            )
        else:
            print(
                "warning: no stack samples collected; "
                f"{args.collapsed_out} not written"
            )
    if args.smt_corpus:
        print(f"wrote SMT query corpus into {args.smt_corpus}/")
    if args.min_solved is not None and summary["solved"] < args.min_solved:
        print(
            f"quick-bench gate FAILED: solved {summary['solved']} < "
            f"required {args.min_solved}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
