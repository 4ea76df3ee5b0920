"""What ``BENCHMARK.json`` declares, and how a record is shown to a reader."""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from .bootstrap import PERF_DIR, REPO_ROOT

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: Which layer each per-layer metric belongs to and which end-to-end metric,
#: on which workload, it should move (``BENCHMARK.json`` has no room for it).
INTERACTIONS_JSON = PERF_DIR / "interactions.json"


def load() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def load_interactions() -> Dict[str, dict]:
    return json.loads(INTERACTIONS_JSON.read_text(encoding="utf-8"))


def units(declared: dict) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def as_metrics(values: Dict[str, float], names: List[str], unit_of: Dict[str, str]) -> dict:
    """``values`` in the result-line shape, in declaration order.  A declared
    name the pass did not produce is a bug in the pass, not a zero."""
    missing = [name for name in names if name not in values]
    extra = [name for name in values if name not in names]
    if missing or extra:
        raise KeyError(f"metrics out of step with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": unit_of[name]} for name in names}


def render(record: dict, declared: dict) -> str:
    """A record as the text block ``run.py`` prints above its JSON line."""
    lines = [
        f"== {record['workload']} (seed {record['seed']}, "
        f"{'traced' if record['traced'] else 'untraced'}"
        f"{', smoke' if record['smoke'] else ''}) =="
    ]
    for phase, counts in record["phases"].items():
        lines.append(
            f"  {phase:<12s} attempted {counts['attempted']:>6d}  "
            f"succeeded {counts['attempted'] - counts['failed']:>6d}  failed {counts['failed']:>4d}"
        )
    lines.append(f"  error_rate {record['failed'] / record['attempted']:.6f} (ratio)")
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<36s} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in record["context"].items():
        lines.append(f"  ({name:<34s} {value:>14.4f})")
    lines.append(f"  samples: {record['sample_counts']}")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    return "\n".join(lines)


def load_records(paths) -> List[dict]:
    """Records from one or more ``run.py --json`` files."""
    records: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.load(handle))
    return records


def medians(records: List[dict], traced: bool) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: median over the records' values}}`` of one pass
    kind; several runs of a workload collapse into their median."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record["traced"] != traced:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return {
        workload: {name: statistics.median(samples) for name, samples in per_metric.items()}
        for workload, per_metric in values.items()
    }


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``
    (negative when it improved), in the metric's own direction."""
    change = (after - before) / before
    return change if better == "lower" else -change
