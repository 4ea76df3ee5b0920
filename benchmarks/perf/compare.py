"""Compare two sets of benchmark records: ``compare.py A.json B.json``.

Each file is what ``run.py --json`` wrote (it appends, so one file can hold
several runs and both passes; several runs collapse into their median).
Prints, per workload, every end-to-end metric's change from A to B against
its bound — regression / within bound / improved — with the per-layer
changes underneath, and exits non-zero on any regression.
"""

from __future__ import annotations

import sys

from perfharness import spec


def compare(before_records, after_records, declared) -> "tuple[str, int]":
    """The delta table and the number of regressions in it."""
    lines = []
    regressions = 0
    before = spec.medians(before_records, traced=False)
    after = spec.medians(after_records, traced=False)
    before_layers = spec.medians(before_records, traced=True)
    after_layers = spec.medians(after_records, traced=True)
    failed_before = sum(r["failed"] for r in before_records)
    failed_after = sum(r["failed"] for r in after_records)
    for workload in (w["name"] for w in declared["workloads"]):
        if workload not in before or workload not in after:
            continue
        lines.append(f"== {workload} ==")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = before[workload][name], after[workload][name]
            worse = spec.worsening(a, b, metric["better"])
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -metric["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            lines.append(
                f"  {name:<20s} {a:>12.4f} -> {b:>12.4f} {metric['unit']:<5s}"
                f" {(b - a) / a:>+8.1%} (bound {metric['bound']:.0%}, {metric['better']} is better) {verdict}"
            )
        layers_a = before_layers.get(workload, {})
        layers_b = after_layers.get(workload, {})
        for metric in declared["per_layer"]:
            name = metric["name"]
            a, b = layers_a.get(name, 0.0), layers_b.get(name, 0.0)
            if a == 0.0 and b == 0.0:
                continue  # a layer this workload never enters
            change = f"{(b - a) / a:>+8.1%}" if a else "     new"
            lines.append(f"    {name:<34s} {a:>12.4f} -> {b:>12.4f} {metric['unit']:<5s} {change}")
    if failed_after > failed_before:
        regressions += 1
        lines.append(f"REGRESSION: failed ops rose from {failed_before} to {failed_after}")
    return "\n".join(lines), regressions


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = spec.load()
    table, regressions = compare(
        spec.load_records(argv[:1]), spec.load_records(argv[1:]), declared
    )
    print(table)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
