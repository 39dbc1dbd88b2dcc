#!/usr/bin/env python3
"""Lint: no bare ``print(`` in library code; no naked clock calls.

Library layers report through structured logging (:mod:`repro.log`) and
telemetry (:mod:`repro.obs`); a stray ``print`` bypasses both and spams
host applications. The CLI is the program edge and prints by design, so
it is allowlisted.

Second check: no naked ``time.time()`` / ``time.monotonic()`` *calls*
inside ``src/repro/serve`` and ``src/repro/obs``. Those trees are the
flight recorder and the cluster it observes — every timestamp must flow
through an injectable clock seam (``self._clock``, a ``clock=``
constructor parameter) or the deterministic-simulation harness and the
byte-stable telemetry artifacts silently break. Default arguments like
``clock: Callable = time.monotonic`` are references, not calls, and
stay legal: they *are* the seam. The chaos drill module is allowlisted
because it measures real subprocesses with real wall clocks on purpose.

AST-based, so strings and docstrings that merely mention ``print(`` do
not trip the check. Exits non-zero listing each offending call site.

Usage: ``python tools/check_no_print.py [root]`` (default: ``src/repro``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Program-edge modules that print to the user on purpose.
ALLOWLIST = frozenset({
    "src/repro/cli.py",
    "src/repro/__main__.py",
})

#: Trees where wall-clock reads must go through an injectable seam.
CLOCK_SCOPE = ("src/repro/serve/", "src/repro/obs/")

#: Modules inside the clock scope that legitimately read the wall clock
#: (the chaos drill times real subprocess lifecycles).
CLOCK_ALLOWLIST = frozenset({
    "src/repro/serve/chaos.py",
})

_CLOCK_ATTRS = frozenset({"time", "monotonic"})


def find_prints(path: Path) -> list:
    """(line, col) of every ``print(...)`` call in *path*."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        print(f"{path}: syntax error: {exc}", file=sys.stderr)
        return [(exc.lineno or 0, exc.offset or 0)]
    sites = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            sites.append((node.lineno, node.col_offset))
    return sites


def find_naked_clock_calls(path: Path) -> list:
    """(line, col, name) of every ``time.time()``/``time.monotonic()``
    *call* in *path* (attribute references — default args — are fine)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError:
        return []
    sites = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
            and node.func.attr in _CLOCK_ATTRS
        ):
            sites.append(
                (node.lineno, node.col_offset, f"time.{node.func.attr}()")
            )
    return sites


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    repo = Path.cwd()
    failures = 0
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(repo).as_posix() if path.is_absolute() else (
            path.as_posix()
        )
        if rel not in ALLOWLIST:
            for line, col in find_prints(path):
                print(f"{rel}:{line}:{col}: bare print() in library code "
                      "(use repro.log / repro.obs)")
                failures += 1
        if (
            rel.startswith(CLOCK_SCOPE)
            and rel not in CLOCK_ALLOWLIST
        ):
            for line, col, name in find_naked_clock_calls(path):
                print(f"{rel}:{line}:{col}: naked {name} call "
                      "(thread an injectable clock seam instead)")
                failures += 1
    if failures:
        print(f"{failures} lint failure(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
