"""Use-path census: which functions in ``src/`` does a real use reach?

    python tests/tools/census.py

Runs every use path of the repository once -- the examples, the CLI
(``build``, ``inspect``, ``verify``, ``check``, ``list``, ``gc``, ``serve``,
``trace``, ``analyze``), the paper's tables and Figure 4, and the perf
benchmark's smoke run with and without its per-node walk -- and then the
tier-1 tests, all under the ``census_hook/sitecustomize.py`` profile hook,
which records every function of ``src/repro`` that runs in any process.

It prints three lists, each function with its line count:

- *use path*: reached by at least one use path;
- *test-only*: reached only by the tests;
- *unreached*: reached by nothing.

A function reached by no use path fails the census (exit 1) unless it is
exempt by rule or named in ``census_allow.txt`` with a reason.  Exempt by
rule: dunder methods (the data model calls them), abstract methods (a body
that only raises ``NotImplementedError`` or is ``...``), and any function
the frozen perf harness (``benchmarks/perf``) names: each of its references
that starts at an import from ``repro`` is resolved to the object it names,
so a local variable or a numpy call that shares a method's name exempts
nothing.

Stdlib only.  The test run's own result is not checked here (the tier-1
job does that); it only tells test-only functions from unreached ones.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
PACKAGE = SRC / "repro"
HOOK_DIR = Path(__file__).resolve().parent / "census_hook"
ALLOWLIST = Path(__file__).resolve().parent / "census_allow.txt"
PERF_DIR = REPO / "benchmarks" / "perf"

Site = Tuple[str, int]  # (real path, first line of the code object)


@dataclass(frozen=True)
class Function:
    name: str  # dotted: repro.pkg.module.Class.method
    path: str
    first: int  # first line, decorators included (= code.co_firstlineno)
    lines: int
    abstract: bool

    @property
    def site(self) -> Site:
        return (self.path, self.first)

    @property
    def short(self) -> str:
        return self.name.rsplit(".", 1)[-1]


# --------------------------------------------------------------------------- #
# inventory
# --------------------------------------------------------------------------- #
def _is_abstract(node: ast.AST) -> bool:
    """A body (past its docstring) of ``...`` or ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def inventory(root: Path) -> List[Function]:
    """Every module-level function and every method (of classes at any
    nesting) under *root*; functions nested in functions are part of
    their parent."""
    functions: List[Function] = []
    base = root.parent

    def walk(body: Iterable[ast.stmt], prefix: str, path: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                functions.append(Function(
                    f"{prefix}.{node.name}", path, first,
                    node.end_lineno - first + 1, _is_abstract(node),
                ))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}.{node.name}", path)

    for file in sorted(root.rglob("*.py")):
        module = ".".join(file.relative_to(base).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        walk(tree.body, module, os.path.realpath(file))
    return functions


def read_sites(directory: Path) -> Set[Site]:
    """The ``(path, first line)`` of every function the hook recorded."""
    sites: Set[Site] = set()
    for file in directory.glob("*.txt"):
        for line in file.read_text(encoding="utf-8").splitlines():
            path, _, lineno = line.rpartition(":")
            if path:
                sites.add((path, int(lineno)))
    return sites


def load_allowlist(path: Path) -> Dict[str, str]:
    """``<dotted name> <reason>`` per line; ``#`` starts a comment line.
    A line with no reason is an error: the list exists to hold reasons."""
    allowed: Dict[str, str] = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"{path.name}:{number}: {name} has no reason")
        if name in allowed:
            raise ValueError(f"{path.name}:{number}: {name} is listed twice")
        allowed[name] = reason.strip()
    return allowed


def _repro_imports(tree: ast.AST) -> Dict[str, List[str]]:
    """Local name -> ``[module, attribute...]`` it is bound to, for every
    import from ``repro`` in *tree*."""
    bound: Dict[str, List[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                bound[alias.asname or alias.name] = [node.module, alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound[alias.asname or "repro"] = [alias.name if alias.asname else "repro"]
    return bound


def _chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for anything but names and
    attributes all the way down."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _resolve(path: List[str]) -> object:
    """The object module ``path[0]`` then the attributes ``path[1:]`` name
    (static lookups, so no property runs; a submodule is imported when it
    is not an attribute yet); None if they name none."""
    try:
        obj = importlib.import_module(path[0])
        for part in path[1:]:
            try:
                obj = inspect.getattr_static(obj, part)
            except AttributeError:
                if not inspect.ismodule(obj):
                    raise
                obj = importlib.import_module(f"{obj.__name__}.{part}")
    except (AttributeError, ImportError):
        return None
    return obj


def _function_name(obj: object) -> Optional[str]:
    """*obj*'s dotted name as :func:`inventory` spells it, for a function,
    method, classmethod, staticmethod or property of ``repro``."""
    if isinstance(obj, property):
        obj = obj.fget
    obj = getattr(obj, "__func__", obj)
    module = getattr(obj, "__module__", None) or ""
    if not inspect.isfunction(obj) or module.split(".")[0] != "repro":
        return None
    return f"{module}.{obj.__qualname__}"


def perf_references(directory: Path) -> Set[str]:
    """The ``repro`` functions the Python files under *directory* name,
    each reference resolved from its import to the object it names."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names: Set[str] = set()
    for file in directory.rglob("*.py"):
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        bound = _repro_imports(tree)
        for node in ast.walk(tree):
            chain = _chain(node)
            if chain and chain[0] in bound:
                name = _function_name(_resolve(bound[chain[0]] + chain[1:]))
                if name:
                    names.add(name)
    return names


# --------------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------------- #
@dataclass
class Census:
    use: List[Function]
    test_only: List[Function]
    unreached: List[Function]
    exempt: Dict[str, str]  # name -> why it does not fail the census

    @property
    def failures(self) -> List[Function]:
        return [f for f in self.test_only + self.unreached if f.name not in self.exempt]


def classify(
    functions: List[Function],
    use_sites: Set[Site],
    test_sites: Set[Site],
    allowed: Dict[str, str],
    perf_refs: Set[str],
) -> Census:
    census = Census([], [], [], {})
    for function in functions:
        if function.site in use_sites:
            census.use.append(function)
            continue
        (census.test_only if function.site in test_sites else census.unreached).append(function)
        short = function.short
        if function.name in allowed:
            census.exempt[function.name] = f"allowed: {allowed[function.name]}"
        elif short.startswith("__") and short.endswith("__"):
            census.exempt[function.name] = "dunder"
        elif function.abstract:
            census.exempt[function.name] = "abstract"
        elif function.name in perf_refs:
            census.exempt[function.name] = "named by benchmarks/perf"
    return census


def report(census: Census) -> None:
    def section(title: str, functions: List[Function]) -> None:
        total = sum(f.lines for f in functions)
        print(f"\n{title}: {len(functions)} functions, {total} lines")
        for function in sorted(functions, key=lambda f: f.name):
            note = census.exempt.get(function.name)
            suffix = f"  [{note}]" if note else ""
            print(f"  {function.name} ({function.lines}){suffix}")

    section("use path", census.use)
    section("test-only", census.test_only)
    section("unreached", census.unreached)
    failures = census.failures
    print(
        f"\n{len(census.use)} on a use path, {len(census.test_only)} test-only, "
        f"{len(census.unreached)} unreached, {len(census.exempt)} exempt; "
        f"{len(failures)} fail the census",
    )
    for function in failures:
        print(f"FAIL {function.name} ({function.lines} lines): reached by no use path")


# --------------------------------------------------------------------------- #
# the use paths
# --------------------------------------------------------------------------- #
TABLES = """
from repro.evaluation import (FIGURE4_CONFIGS, TABLE3_MODELS, format_table1,
    run_figure4, run_table1, run_table2, run_table3)
from repro.models import EVALUATION_MODELS
from repro.core.tuning_db import TuningDatabase
db = TuningDatabase()
run_table1(); print(format_table1())
for target in ("intel-skylake", "amd-epyc", "arm-cortex-a72"):
    result = run_table2(target=target, models=EVALUATION_MODELS, tuning_db=db)
    print(result.format()); result.neocpu_wins(); result.speedups_vs_best_baseline()
result = run_table3(target="intel-skylake", models=TABLE3_MODELS, tuning_db=db)
print(result.format()); result.speedups()
for config in FIGURE4_CONFIGS:
    result = run_figure4(label_model_target=config, thread_step=1, tuning_db=db)
    print(result.format())
    for curve in result.curves.values():
        curve.peak_throughput, curve.speedup_at(curve.threads[-1])
"""

STREAM = """
import sys
import numpy as np
from repro.api import DaemonClient
rng = np.random.default_rng(0)
with DaemonClient("127.0.0.1", int(sys.argv[1])) as client:
    futures = [client.submit({"data": rng.standard_normal((1, 3, 224, 224)).astype(np.float32)},
                             priority=("interactive", "normal", "bulk")[i % 3]) for i in range(6)]
    for future in futures:
        future.result(timeout=600.0)
    client.run({"data": rng.standard_normal((1, 3, 224, 224)).astype(np.float32)})
"""


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


SERVE = "serve + client stream + SIGINT"


def use_paths(work: Path) -> List[Tuple[str, List[str]]]:
    """Every use path as ``(label, argv)``, in order: a later command may
    use what an earlier one built, and ``{bundle}`` stands for the
    resnet-18 bundle the first ``build`` writes.  The :data:`SERVE` entry
    is :func:`run_serve`."""
    trace = str(work / "trace")
    ssd = str(work / "repo" / "modules" / "ssd.neocpu")
    densenet = str(work / "repo" / "modules" / "densenet.neocpu")
    py = sys.executable
    paths = [(path.name, [py, str(path)]) for path in sorted((REPO / "examples").glob("*.py"))]
    cli = [
        ("analyze", "src/"),
        ("analyze", "--suppressions", "src/"),
        ("analyze", "--suppressions", "--format", "json", "src/"),
        ("analyze", "--list-rules"),
        ("analyze", "--format", "sarif", "src/"),
        ("analyze", "--rules", "REP006", "--format", "json", "src/", "tests/test_scheduler.py"),
        ("build", "resnet-18", "--targets", "skylake,epyc"),
        ("list",),
        ("inspect", "{bundle}"),
        ("verify", "{bundle}"),
        ("verify", "--deep"),
        ("check", "{bundle}", "--host", "skylake"),
        ("check", "{bundle}", "--host", "epyc", "--batch", "2"),
        ("check", "{bundle}"),
        ("build", "resnet-18", "--targets", "arm", "--output", str(work / "repo" / "modules" / "arm.neocpu")),
        ("build", "ssd-resnet-50", "--targets", "skylake", "--output", ssd),
        ("check", ssd, "--host", "skylake"),
        ("build", "densenet-121", "--targets", "skylake", "--output", densenet),
        ("check", densenet, "--host", "skylake"),
        ("trace", "record", "{bundle}", "--out", trace, "--host", "skylake",
         "--workers", "2", "--requests", "12", "--gap-ms", "0"),
        ("trace", "record", "{bundle}", "--out", trace + "-auto", "--host", "skylake",
         "--workers", "1", "--requests", "8", "--batch-timeout-ms", "auto"),
        ("trace", "replay", trace, "--check", "100"),
        ("trace", "replay", trace, "--json"),
        ("trace", "whatif", trace, "--workers", "1,2", "--max-batch-size", "1,8"),
        ("trace", "whatif", trace, "--batch-timeout-ms", "1,auto", "--json"),
    ]
    paths += [(" ".join(Path(a).name for a in args), _cli(*args)) for args in cli]
    paths += [
        ("python -m repro.analysis --verify-zoo",
         [py, "-m", "repro.analysis", "--format", "json", "--verify-zoo", "src/"]),
        (SERVE, []),
        ("gc --dry-run", _cli("gc", "--max-bytes", "0", "--dry-run")),
        ("gc", _cli("gc", "--max-bytes", "1")),
        ("tables 1-3, figure 4", [py, "-c", TABLES]),
        ("perf smoke", [py, "benchmarks/perf/run.py", "--smoke", "--seconds", "1"]),
        ("perf smoke --trace 1",
         [py, "benchmarks/perf/run.py", "--smoke", "--seconds", "1", "--trace", "1"]),
    ]
    return paths


def _bundle(work: Path) -> str:
    return str(next((work / "repo" / "modules").glob("resnet18-*.neocpu")))


def run_serve(env: Dict[str, str], work: Path) -> int:
    """``serve`` with two workers and a stats line, a client stream, then
    SIGINT -- the way an operator stops it."""
    log = work / "serve.log"
    with open(log, "w") as sink:
        daemon = subprocess.Popen(
            _cli("serve", _bundle(work), "--workers", "2", "--port", "0",
                 "--host", "skylake", "--stats-interval", "0.2"),
            cwd=REPO, env=env, stdout=sink, stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 300
        port = None
        while port is None and time.monotonic() < deadline and daemon.poll() is None:
            for line in log.read_text().splitlines():
                if line.startswith("serving "):
                    port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1]
            time.sleep(0.2)
        if port is None:
            print(log.read_text(), file=sys.stderr)
            return 1
        code = subprocess.call([sys.executable, "-c", STREAM, port], cwd=REPO, env=env)
        time.sleep(0.5)  # one more stats line
        return code
    finally:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def _env(sites: Path, work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(SRC)]),
        CENSUS_DIR=str(sites),
        CENSUS_ROOT=str(PACKAGE),
        REPRO_CACHE_DIR=str(work / "repo"),
    )
    env.pop("REPRO_HOST_TARGET", None)  # `check` without --host detects the host
    return env


def record_use(work: Path) -> Set[Site]:
    sites = work / "use"
    sites.mkdir()
    env = _env(sites, work)
    for label, command in use_paths(work):
        started = time.monotonic()
        if label == SERVE:
            code, err = run_serve(env, work), ""
        else:
            if "{bundle}" in command:
                command = [_bundle(work) if part == "{bundle}" else part for part in command]
            result = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
            code, err = result.returncode, result.stderr
        print(f"  {time.monotonic() - started:6.1f}s  exit {code}  {label}", file=sys.stderr)
        if code:
            sys.stderr.write(err[-4000:])
            raise SystemExit(f"census: use path failed: {label}")
    return read_sites(sites)


def record_tests(work: Path) -> Set[Site]:
    sites = work / "tests"
    sites.mkdir()
    env = _env(sites, work)
    env["REPRO_CACHE_DIR"] = str(work / "tests-repo")
    started = time.monotonic()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests", "benchmarks"],
        cwd=REPO, env=env, stdout=subprocess.DEVNULL,
    )
    print(f"  {time.monotonic() - started:6.1f}s  tier-1 tests", file=sys.stderr)
    return read_sites(sites)


def main() -> int:
    allowed = load_allowlist(ALLOWLIST)
    functions = inventory(PACKAGE)
    unknown = sorted(set(allowed) - {f.name for f in functions})
    if unknown:
        print(f"census: allowlist names no function in src/: {', '.join(unknown)}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        use = record_use(work)
        tests = record_tests(work)
    census = classify(functions, use, tests, allowed, perf_references(PERF_DIR))
    report(census)
    stale = sorted(f.name for f in census.use if f.name in allowed)
    for name in stale:
        print(f"note: allowlisted {name} is on a use path; drop its entry", file=sys.stderr)
    return 1 if census.failures else 0


if __name__ == "__main__":
    sys.exit(main())
