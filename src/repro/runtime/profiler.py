"""Profiling helpers: the per-operator latency breakdown.

Formats the :class:`LatencyReport` produced by the cost model into the
per-operator tables that guide optimization work (which convolutions
dominate, how much time goes into layout transforms).
"""

from __future__ import annotations

from ..costmodel.graph_cost import LatencyReport

__all__ = ["format_report"]


def format_report(report: LatencyReport, k: int = 15) -> str:
    """Human-readable per-operator profile table."""
    lines = [
        f"Profile of {report.graph_name} on {report.cpu_name} "
        f"({report.num_threads} threads) — total {report.total_ms:.3f} ms",
        f"{'node':<40s}{'op':<20s}{'ms':>10s}  {'category':<10s}",
    ]
    ordered = sorted(report.node_costs, key=lambda cost: cost.time_s, reverse=True)
    for cost in ordered[:k]:
        lines.append(
            f"{cost.name:<40s}{cost.op:<20s}{cost.time_s * 1e3:>10.4f}  {cost.category:<10s}"
        )
    by_category = report.by_category()
    lines.append("-" * 82)
    for category in sorted(by_category):
        lines.append(f"{'':<40s}{category:<20s}{by_category[category] * 1e3:>10.4f}")
    return "\n".join(lines)
