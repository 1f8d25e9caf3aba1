#!/usr/bin/env python
"""Report the functions of ``src/repro`` that a population never enters.

A census runs *population commands* in this interpreter under a
``sys.settrace`` / ``threading.settrace`` call tracer, then prints, per
module under the given prefixes, every function (``def`` or method, at
any nesting depth) whose code object was never called.  That list is the
deletion queue of ROADMAP item 12: code that nothing the system is used
for reaches.  Lambdas and class bodies are not counted.

A population command is one of:

* ``pytest ARGS...`` — ``pytest.main(ARGS)`` in this process;
* ``PATH.py ARGS...`` — the script run as ``__main__`` (``runpy``) with
  ``sys.argv = [PATH, *ARGS]``; a ``SystemExit`` ends it, not the census.

Relative paths are resolved against the repository root, which is also
where the commands run.  With no ``--run`` the default population is
used: the four examples, every ``bench_fig*`` / ``bench_table*`` paper
bench plus ``bench_backend_parity`` and ``bench_planner_auto``, and all
five ledger workloads in a timed and a traced pass (``cold_bsdj_wire``
and ``zipf_served_http`` are the ones that enter the router, client and
wire code).  Set
``REPRO_BENCH_SCALE=0.2 REPRO_BENCH_QUERIES=2`` to keep the benches
small; under tracing the default population takes about ten minutes, so
the census is a tool, not a CI step.  Helper subprocesses a command
spawns are not traced.

Usage::

    python tools/census.py rdb/ storage/ index/ core/store/minidb.py
    python tools/census.py rdb/ --run "pytest tests/test_rdb_table.py -q"
    python tools/census.py rdb/ --json census.json

Prefixes are paths under ``src/repro``.  Exits 0; the report is the
output.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import shlex
import sys
import threading
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

LEDGER_WORKLOADS = ("cold_bsdj_minidb", "cold_bseg_sqlite",
                    "segtable_build_sqlite", "cold_bsdj_wire",
                    "zipf_served_http")


def default_population() -> List[str]:
    """The census of ROADMAP item 12: examples, paper benches, ledger."""
    commands = [str(path.relative_to(REPO_ROOT))
                for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    benches = sorted(
        path for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        if path.stem.startswith(("bench_fig", "bench_table"))
        or path.stem in ("bench_backend_parity", "bench_planner_auto"))
    # pytest-benchmark pauses sys.settrace while it times a bench;
    # --benchmark-disable runs each bench once, untimed and traced.
    commands.append("pytest -q -p no:cacheprovider --benchmark-disable " + " ".join(
        str(path.relative_to(REPO_ROOT)) for path in benches))
    for workload in LEDGER_WORKLOADS:
        for trace in (0, 1):
            commands.append(f"benchmarks/ledger/run.py --workload {workload} "
                            f"--seed 11 --seconds 20 --trace {trace}")
    return commands


def module_functions(path: Path) -> Dict[int, str]:
    """``first line -> qualified name`` for every function in ``path``.

    A decorated function is keyed by its ``def`` line *and* its first
    decorator line, since interpreters differ on which one a code
    object's ``co_firstlineno`` names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions: Dict[int, str] = {}

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION_DEFS):
                name = ".".join(scope + (child.name,))
                for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                    functions[line] = name
                visit(child, scope + (child.name, "<locals>"))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return functions


def census_modules(prefixes: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``src/repro`` that one of ``prefixes`` names."""
    modules: Set[Path] = set()
    for prefix in prefixes:
        target = PACKAGE_ROOT / prefix
        if target.is_file():
            modules.add(target.resolve())
        elif target.is_dir():
            modules.update(path.resolve() for path in target.rglob("*.py"))
        else:
            raise SystemExit(f"census: no module or package {prefix!r} "
                             f"under {PACKAGE_ROOT}")
    return sorted(modules)


def run_command(command: str) -> None:
    """Run one population command in this interpreter."""
    argv = shlex.split(command)
    print(f"census: running {command}", file=sys.stderr, flush=True)
    if argv[0] == "pytest":
        import pytest
        pytest.main(argv[1:])
        return
    script = str(REPO_ROOT / argv[0])
    saved_argv = sys.argv
    sys.argv = [script] + argv[1:]
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = saved_argv


def trace_population(commands: Sequence[str]) -> Set[Tuple[str, int]]:
    """Run ``commands`` under a call tracer; returns the ``(file, first
    line)`` of every code object entered."""
    entered: Set[object] = set()

    def tracer(frame, event, _arg):
        entered.add(frame.f_code)
        # No local trace function: only call events are wanted.

    os.chdir(REPO_ROOT)
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        for command in commands:
            run_command(command)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in entered}


def never_entered(modules: Sequence[Path],
                  entered: Set[Tuple[str, int]]) -> Dict[str, List[str]]:
    """Per module (path relative to ``src/repro``), the functions whose
    code object never ran, in source order."""
    report: Dict[str, List[str]] = {}
    for module in modules:
        functions = module_functions(module)
        reached = {functions[line] for path, line in entered
                   if path == str(module) and line in functions}
        missing: List[str] = []
        for line in sorted(functions):
            name = functions[line]
            if name not in reached and name not in missing:
                missing.append(name)
        report[str(module.relative_to(PACKAGE_ROOT.resolve()))] = missing
    return report


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/census.py",
        description="List the functions under the given src/repro prefixes "
                    "that the population commands never enter.")
    parser.add_argument("prefixes", nargs="+",
                        help="module or package paths under src/repro")
    parser.add_argument("--run", action="append", dest="commands",
                        metavar="COMMAND",
                        help="a population command (repeatable); default: "
                             "examples, paper benches and ledger workloads")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON to PATH")
    args = parser.parse_args(list(argv))
    modules = census_modules(args.prefixes)
    commands = args.commands or default_population()
    report = never_entered(modules, trace_population(commands))
    print(f"\nnever entered by {len(commands)} population command(s):")
    for module, missing in report.items():
        print(f"{module}: {len(missing)}")
        for name in missing:
            print(f"    {name}")
    if args.json:
        document = {"prefixes": list(args.prefixes), "commands": list(commands),
                    "never_entered": report}
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
