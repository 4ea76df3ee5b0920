"""The lint engine: file collection, rule dispatch, suppression, reporting.

The engine is deliberately framework-free (standard-library ``ast`` only) so
it can run in CI, in ``repro.cli analyze`` on a deployed host, and inside the
test suite's self-clean gate without pulling in the numeric stack.

Rules are pluggable.  A rule subclasses :class:`Rule` (one file at a time) or
:class:`ProjectRule` (all files at once, for analyses that cross module
boundaries, such as REP006's project-wide lockset model), declares
``rule_id``/``summary``/``rationale``, and registers itself with
:func:`register_rule`.  The engine instantiates the default registry
unless handed explicit rule instances, which is how tests run a single rule
against a fixture.

The AST helpers every rule shares live here too: :func:`dotted_name`,
:func:`iter_functions` and the own-scope walker :func:`scope_walk`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .findings import Finding, is_suppressed, line_suppressions, sort_findings

__all__ = [
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "RULE_REGISTRY",
    "default_rules",
    "dotted_name",
    "iter_functions",
    "register_rule",
    "scope_walk",
]


@dataclass
class ModuleSource:
    """One parsed python file, as seen by every rule."""

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, path: Path, display_path: Optional[str] = None) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            display_path=display_path or str(path),
            text=text,
            tree=tree,
            lines=text.splitlines(),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(module: ModuleSource) -> Iterator[Tuple[str, str, ast.AST]]:
    """Yield ``(qualname, owner_class, node)`` for every function in a module."""
    stack: List[Tuple[ast.AST, str, str]] = [(module.tree, "", "")]
    while stack:
        node, prefix, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, owner, child
                stack.append((child, qual + ".", owner))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", child.name))
            else:
                stack.append((child, prefix, owner))


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but stopping at nested function definitions.

    Each function is its own scope and gets its own pass; walking it again
    from the enclosing scope would double-report every finding.  Class
    bodies and lambdas are descended: they belong to the enclosing scope.
    """
    stack: List[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(child)


class Rule:
    """Base class for single-file lint rules.

    Subclasses set the three class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  ``rationale`` is the *why* shown by
    ``--list-rules`` — every rule exists because a past (or plausible) bug
    slipped past review, and the catalog should say which.
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.rule_id}>"


class ProjectRule(Rule):
    """A rule over every module at once."""

    def check_project(self, modules: Sequence[ModuleSource]) -> Iterable[Finding]:
        raise NotImplementedError


#: rule id -> rule class; populated by :func:`register_rule` at import time.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def default_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the registered rule set (optionally a named subset).

    Raises ``KeyError`` for an unknown rule id — a CI filter with a typo
    must fail loudly, not silently lint with nothing.
    """
    # Importing the rule modules registers them; done lazily so importing
    # the engine alone (e.g. for the Finding type) stays dependency-free.
    from . import (  # noqa: F401  (import-for-registration)
        boundaries,
        concurrency,
        resources,
        rules,
    )

    if only is None:
        ids = sorted(RULE_REGISTRY)
    else:
        ids = []
        for rule_id in only:
            rule_id = rule_id.strip().upper()
            if rule_id not in RULE_REGISTRY:
                raise KeyError(
                    f"unknown rule {rule_id!r}; known: {sorted(RULE_REGISTRY)}"
                )
            ids.append(rule_id)
    return [RULE_REGISTRY[rule_id]() for rule_id in ids]


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No unsuppressed findings and every file parsed."""
        return not self.findings and not self.errors

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {error}" for error in self.errors)
        lines.append(
            f"{len(self.findings)} finding(s), {len(self.suppressed)} "
            f"suppressed, {len(self.files)} file(s) checked"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "files_checked": len(self.files),
            "errors": list(self.errors),
            "clean": self.clean,
        }


def collect_files(paths: Sequence["str | Path"]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` file list."""
    seen = set()
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            candidates = [path]
        for candidate in candidates:
            key = str(candidate.resolve()) if candidate.exists() else str(candidate)
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


class LintEngine:
    """Run a rule set over a file tree and fold in the suppressions."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()

    def run(self, paths: Sequence["str | Path"]) -> LintReport:
        report = LintReport()
        modules: List[ModuleSource] = []
        for path in collect_files(paths):
            try:
                module = ModuleSource.parse(path)
            except (OSError, SyntaxError, ValueError) as error:
                report.errors.append(f"{path}: {error}")
                continue
            modules.append(module)
            report.files.append(module.display_path)

        raw: List[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(modules))
            else:
                for module in modules:
                    raw.extend(rule.check(module))

        suppressions = {
            module.display_path: line_suppressions(module.lines) for module in modules
        }
        for finding in raw:
            if is_suppressed(finding, suppressions.get(finding.path, {})):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
        report.findings = sort_findings(report.findings)
        report.suppressed = sort_findings(report.suppressed)
        return report
