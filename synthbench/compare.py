"""Compare two results written by ``run.py --out``.

Usage::

    python3 synthbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two results come from different hosts: the CPU
model, CPU count or Python version differ.  Otherwise prints each metric's
change and checks that every problem both runs finished before its budget
did exactly the same work (exit 1 when one did not).  Two runs of one
commit with different ``--seed`` values check that work does not depend on
problem order.
"""

from __future__ import annotations

import json
import sys

HOST_KEYS = ("cpu", "nproc", "python")


def problem_work(result) -> dict:
    """Problem name -> work counts of one attempt that ended within its
    budget; a traced one where there is one, as it counts more."""
    work = {}
    for p in sorted(result["passes"], key=lambda p: p["mode"] != "traced"):
        for r in p["problems"]:
            if not r["budget_bound"]:
                work.setdefault(r["name"], r["work"])
    return work


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    hosts = [{k: r["host"][k] for k in HOST_KEYS} for r in (base, new)]
    if hosts[0] != hosts[1]:
        print(f"refused: different hosts {hosts[0]} and {hosts[1]}",
              file=sys.stderr)
        return 2
    if base["workload"] != new["workload"]:
        print("refused: different workloads", file=sys.stderr)
        return 2
    for section in ("end_to_end", "metrics"):
        for name, value in base[section].items():
            value = value["value"] if isinstance(value, dict) else value
            other = new[section].get(name)
            other = other["value"] if isinstance(other, dict) else other
            if other is None:
                continue
            change = f"{(other - value) / value:+.1%}" if value else "n/a"
            print(f"{name}: {value:.6g} -> {other:.6g} ({change})")
    base_work, new_work = problem_work(base), problem_work(new)
    differ = []
    for name in sorted(base_work.keys() & new_work.keys()):
        a, b = base_work[name], new_work[name]
        if any(a[k] != b[k] for k in a.keys() & b.keys()):
            differ.append(name)
    compared = len(base_work.keys() & new_work.keys())
    print(f"work counts: {compared - len(differ)}/{compared} problems identical"
          + (f"; differ: {', '.join(differ)}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
