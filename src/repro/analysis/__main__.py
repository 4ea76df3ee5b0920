"""Command-line front end: ``python -m repro.analysis [options] [paths...]``.

Exit codes: 0 clean, 1 unsuppressed findings (or verify problems, or — under
``--suppressions`` — a justification-free pragma), 2 usage or I/O errors.
``repro.cli analyze`` is built from :func:`build_parser` and runs
:func:`run`, so both entry points declare their flags once and behave
identically.  ``--format sarif`` renders the same report as SARIF 2.1.0 for CI
annotation; the JSON schema of ``--format json`` is unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import LintEngine, LintReport, collect_files, default_rules
from .findings import Suppression, iter_suppressions

__all__ = ["build_parser", "main", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint the tree against the repro stack's conventions.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, summary, rationale) and exit",
    )
    parser.add_argument(
        "--verify-zoo",
        action="store_true",
        help="also run the graph verifier over every model in the zoo",
    )
    parser.add_argument(
        "--suppressions",
        action="store_true",
        help=(
            "report every '# repro: noqa' pragma with its rule list and "
            "justification instead of linting; exit 1 on any pragma without "
            "a '-- justification'"
        ),
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        lines.append(f"{rule.rule_id}: {rule.summary}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _sarif_payload(report: LintReport, rules) -> dict:
    """Render a report as SARIF 2.1.0 (what CI uploads for PR annotation).

    Suppressed findings are included with an ``inSource`` suppression object
    — SARIF viewers then show them greyed out instead of hiding the history.
    """

    def _result(finding, suppressed: bool) -> dict:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": max(1, finding.col),
                        },
                    }
                }
            ],
        }
        if suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        return result

    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule.rule_id,
                                "shortDescription": {"text": rule.summary},
                                "fullDescription": {"text": rule.rationale},
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": [
                    *(_result(f, suppressed=False) for f in report.findings),
                    *(_result(f, suppressed=True) for f in report.suppressed),
                ],
            }
        ],
    }


def _suppressions_report(paths: Sequence[str], as_json: bool) -> int:
    """The ``--suppressions`` mode: audit every pragma in the tree."""
    suppressions: List[Suppression] = []
    errors: List[str] = []
    for path in collect_files(paths):
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as error:
            errors.append(f"{path}: {error}")
            continue
        suppressions.extend(iter_suppressions(str(path), lines))
    unjustified = [s for s in suppressions if not s.justified]
    if as_json:
        print(
            json.dumps(
                {
                    "suppressions": [s.to_dict() for s in suppressions],
                    "unjustified": len(unjustified),
                    "errors": errors,
                    "clean": not unjustified and not errors,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for suppression in suppressions:
            print(suppression.render())
        for error in errors:
            print(f"error: {error}")
        print(
            f"{len(suppressions)} suppression(s), "
            f"{len(unjustified)} missing a justification"
        )
    if errors:
        return 2
    return 1 if unjustified else 0


def _verify_zoo() -> List[str]:
    """Verify every zoo model's graph; returns rendered problem lines."""
    from ..graph.shape_infer import infer_shapes
    from ..models.zoo import get_model, list_models
    from .verifier import verify_graph

    problems: List[str] = []
    for name in list_models():
        graph = infer_shapes(get_model(name))
        for problem in verify_graph(graph):
            problems.append(f"zoo:{name}: {problem.render()}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Lint with already-parsed :func:`build_parser` arguments."""
    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        rules = default_rules(args.rules.split(",")) if args.rules else None
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    paths = list(args.paths)
    if not paths:
        # Default: lint the installed package itself (works from any cwd).
        paths = [str(Path(__file__).resolve().parent.parent)]

    if args.suppressions:
        if args.format == "sarif":
            print("error: --suppressions supports text/json only", file=sys.stderr)
            return 2
        return _suppressions_report(paths, as_json=args.format == "json")

    engine = LintEngine(rules)
    report = engine.run(paths)

    zoo_problems: List[str] = []
    if args.verify_zoo:
        zoo_problems = _verify_zoo()

    if args.format == "json":
        payload = report.to_dict()
        if args.verify_zoo:
            payload["zoo_problems"] = zoo_problems
            payload["clean"] = payload["clean"] and not zoo_problems
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(_sarif_payload(report, engine.rules), indent=2))
        for line in zoo_problems:
            print(f"zoo problem: {line}", file=sys.stderr)
    else:
        print(report.render_text())
        for line in zoo_problems:
            print(line)
        if args.verify_zoo:
            print(f"{len(zoo_problems)} graph problem(s) across the zoo")

    if report.errors:
        return 2
    if report.findings or zoo_problems:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
