"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 benchmarks/perf/aa_check.py [N]      (default 6)

Runs the whole untraced benchmark N times (seed = run number), splits the
runs odd/even, and prints for every end-to-end metric x workload the two
medians, their gap and the bound.  Exits non-zero if a gap exceeds its
bound.  If a pairing fails, lengthen the window or fix the estimator — a
wider bound only hides the problem.
"""

from __future__ import annotations

import subprocess
import sys

from perfharness import spec
from perfharness.bootstrap import OUT_DIR, PERF_DIR


def main(argv) -> int:
    runs = int(argv[0]) if argv else 6
    declared = spec.load()
    out = OUT_DIR / "aa"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in range(1, runs + 1):
        path = out / f"run_{run}.json"
        path.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, str(PERF_DIR / "run.py"), "--seed", str(run), "--json", str(path)],
            check=True, stdout=subprocess.DEVNULL,
        )
        paths.append(path)
        print(f"run {run}/{runs} done", flush=True)
    odd = spec.medians(spec.load_records(paths[0::2]), traced=False)
    even = spec.medians(spec.load_records(paths[1::2]), traced=False)
    failures = 0
    print(f"{'workload':<22s} {'metric':<18s} {'odd runs':>12s} {'even runs':>12s} {'gap':>7s} {'bound':>6s}")
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = odd[workload][name], even[workload][name]
            gap = abs(b - a) / min(a, b)
            verdict = "" if gap <= metric["bound"] else "  EXCEEDS BOUND"
            failures += bool(verdict)
            print(
                f"{workload:<22s} {name:<18s} {a:>12.4f} {b:>12.4f} "
                f"{gap:>7.1%} {metric['bound']:>6.0%}{verdict}"
            )
    print(f"{failures} pairing(s) outside their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
