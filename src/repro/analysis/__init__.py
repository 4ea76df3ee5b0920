"""Static analysis for the repro stack: lint rules and the graph verifier.

Two tools share this package:

* the **convention linter** (:class:`LintEngine`, ``python -m repro.analysis``,
  ``repro.cli analyze``) — six AST rules, each kept because it caught a real
  defect or flags a re-introduced historical bug: REP001..REP003 (the
  determinism, durability and symbolic-batch conventions), the lockset
  data-race rule REP006 (:mod:`repro.analysis.concurrency`), and the
  serving-tier rules REP009 (resource lifetime) and REP011 (unbounded
  blocking);
* the **graph-IR verifier** (:func:`verify_graph`) — semantic checks over a
  built :class:`~repro.graph.graph.Graph`, wired into compilation under
  ``CompileConfig.verify_ir`` and into ``repro.cli verify --deep``.

The linter half is importable without the numeric stack; the verifier half
needs the graph IR (and therefore numpy), so it is imported lazily via
``__getattr__``.
"""

from __future__ import annotations

from .engine import (
    LintEngine,
    LintReport,
    ModuleSource,
    ProjectRule,
    Rule,
    RULE_REGISTRY,
    default_rules,
    register_rule,
)
from .findings import Finding

__all__ = [
    "Finding",
    "GraphProblem",
    "GraphVerificationError",
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "RULE_REGISTRY",
    "assert_valid_graph",
    "default_rules",
    "register_rule",
    "verify_graph",
]

_VERIFIER_EXPORTS = {
    "GraphProblem",
    "GraphVerificationError",
    "assert_valid_graph",
    "verify_graph",
}


def __getattr__(name: str):
    if name in _VERIFIER_EXPORTS:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
