#!/usr/bin/env python
"""Dependency-free line-coverage gate for the test suite.

Runs pytest in-process under a ``sys.settrace`` line tracer restricted
to one package and fails when the executed-line percentage drops below
a pinned floor. Exists because the CI image (and the dev container)
carry no ``coverage``/``pytest-cov``; measuring and gating with the
same in-repo tool keeps the pinned number meaningful.

Usage::

    PYTHONPATH=src python tools/coverage_gate.py \
        --package repro --fail-under 80 -- -q -m "not slow"

Everything after ``--`` goes to pytest verbatim.

Method (and its limits):

* *executable lines* come from compiling every ``*.py`` under the
  package and collecting ``co_lines()`` line numbers over all nested
  code objects — the same universe ``coverage.py`` starts from;
* *executed lines* are recorded by a trace function that prunes
  non-package frames at call time (returns no local tracer), so the
  overhead lands only on package code;
* worker threads are traced via ``threading.settrace``; **child
  processes are not traced**, so lines that only a subprocess runs
  (e.g. a CLI the tests launch with ``subprocess``) count as missed;
* ``# pragma: no cover`` excludes that physical line.

Numbers from this tool are not comparable with ``coverage.py`` to the
decimal — pin the gate with *this* tool's own measurement.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections import defaultdict
from pathlib import Path

PRAGMA = "pragma: no cover"


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler can attribute code to, minus pragmas."""
    source = path.read_text(encoding="utf-8")
    try:
        code = compile(source, str(path), "exec")
    except SyntaxError:
        return set()
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for const in obj.co_consts:
            if type(const).__name__ == "code":
                stack.append(const)
        lines.update(line for _, _, line in obj.co_lines()
                     if line is not None)
    src_lines = source.splitlines()
    skip = {i + 1 for i, text in enumerate(src_lines) if PRAGMA in text}
    # module/def/class lines for the file's own header constants show up
    # at line 0/None already filtered; drop pragma'd lines
    return {line for line in lines if line not in skip
            and 1 <= line <= len(src_lines)}


def collect_universe(pkg_dir: Path) -> dict[str, set[int]]:
    return {str(p): executable_lines(p)
            for p in sorted(pkg_dir.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run pytest under a package-scoped line tracer "
                    "and gate on coverage %")
    parser.add_argument("--package", default="repro",
                        help="top-level package to measure (default repro)")
    parser.add_argument("--src", default="src",
                        help="source root containing the package")
    parser.add_argument("--fail-under", type=float, required=True,
                        help="minimum line coverage percent")
    parser.add_argument("--report", type=int, default=15, metavar="N",
                        help="print the N least-covered modules")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments after -- go to pytest")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    src_root = (repo_root / args.src).resolve()
    pkg_dir = src_root / args.package
    if not pkg_dir.is_dir():
        parser.error(f"package dir not found: {pkg_dir}")
    if str(src_root) not in sys.path:
        sys.path.insert(0, str(src_root))

    universe = collect_universe(pkg_dir)
    executed: dict[str, set[int]] = defaultdict(set)
    prefix = str(pkg_dir) + "/"

    def tracer(frame, event, arg):
        # prune at call time: non-package frames get no local tracer,
        # so their lines never pay the tracing cost
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hit = executed[filename]

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        if event == "line":       # first line of the call
            hit.add(frame.f_lineno)
        return local

    import pytest
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        exit_code = pytest.main(list(args.pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    if exit_code != 0:
        print(f"coverage-gate: pytest failed (exit {exit_code}); "
              f"not evaluating coverage", file=sys.stderr)
        return int(exit_code)

    total = sum(len(lines) for lines in universe.values())
    covered = sum(len(universe[f] & executed.get(f, set()))
                  for f in universe)
    percent = 100.0 * covered / total if total else 100.0

    rows = sorted(
        ((100.0 * len(universe[f] & executed.get(f, set()))
          / len(universe[f]) if universe[f] else 100.0,
          f) for f in universe))
    print("\ncoverage-gate: least-covered modules")
    for pct, f in rows[:args.report]:
        rel = Path(f).relative_to(src_root)
        print(f"  {pct:6.1f}%  {rel}")
    print(f"coverage-gate: TOTAL {covered}/{total} lines = "
          f"{percent:.2f}% (floor {args.fail_under:.2f}%)")
    if percent < args.fail_under:
        print(f"coverage-gate: FAIL - coverage {percent:.2f}% fell below "
              f"the {args.fail_under:.2f}% floor", file=sys.stderr)
        return 3
    print("coverage-gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
