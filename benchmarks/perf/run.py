"""The repo's performance benchmark — one command, every metric by name.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace 0|1] [--json OUT] [--smoke]

Runs the closed-loop workloads of ``BENCHMARK.json`` (all of them, each in a
child process of its own, when ``--workload`` is omitted), checks every reply
against its reference, prints every metric with its unit and sample count,
and ends each workload with one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from perfharness.bootstrap import bootstrap


def main() -> int:
    bootstrap()
    from perfharness import spec
    from perfharness.session import record_expected_compile, run_workload

    declared = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also append the full records to this file")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny models and inputs: exercises every code path, measures nothing",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="rewrite expected/compile_zoo.json (for a PR that changes the search on purpose)",
    )
    args = parser.parse_args()
    if args.record_expected:
        record_expected_compile(args.seed)
        return 0

    if args.workload is None:
        # One child per workload: a workload's peak RSS must not inherit the
        # heap the previous one left behind in this process.
        for workload in declared["workloads"]:
            code = subprocess.call(
                [sys.executable, __file__, "--workload", workload["name"]] + sys.argv[1:]
            )
            if code:
                return code
        return 0

    record = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), smoke=args.smoke,
    )
    print(spec.render(record, declared))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    records = [record]
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        if args.json.exists():
            records = json.loads(args.json.read_text(encoding="utf-8")) + records
        args.json.write_text(json.dumps(records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
