"""Evaluation harness: regenerate every table and figure of the paper."""

from .figure4 import FIGURE4_CONFIGS, Figure4Result, ScalabilityCurve, run_figure4
from .reporting import format_latency_table, format_table, speedup_summary
from .table1 import TABLE1_ROWS, FeatureRow, format_table1, run_table1
from .table2 import PAPER_NEOCPU_MS, Table2Result, run_table2
from .table3 import (
    PAPER_TABLE3_SPEEDUPS,
    TABLE3_MODELS,
    Table3Result,
    run_table3,
)

__all__ = [
    "FIGURE4_CONFIGS",
    "FeatureRow",
    "Figure4Result",
    "PAPER_NEOCPU_MS",
    "PAPER_TABLE3_SPEEDUPS",
    "ScalabilityCurve",
    "TABLE1_ROWS",
    "TABLE3_MODELS",
    "Table2Result",
    "Table3Result",
    "format_latency_table",
    "format_table",
    "format_table1",
    "run_figure4",
    "run_table1",
    "run_table2",
    "run_table3",
    "speedup_summary",
]
