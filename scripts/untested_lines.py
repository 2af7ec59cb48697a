"""List every statement of src/lpgreeks that a test run never executes.

Usage: PYTHONPATH=src python scripts/untested_lines.py [PYTEST ARGS...]

Runs pytest in-process (the tier-1 suite by default) under a sys.settrace line tracer, in every
thread, with pytest's own output sent to stderr. Then prints to stdout `path:line: source` for
each line that starts a statement in the compiled code of src/lpgreeks and never ran, and their
count. The bodies of `if TYPE_CHECKING:` blocks never run at all and are left out, so every line
listed is one a test could run. Exits with pytest's status. Standard library and pytest only.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "lpgreeks")


def statement_lines(code) -> set[int]:
    """Lines where a statement of a code object or of any code nested in it begins."""
    lines = {line for _, line in dis.findlinestarts(code) if line}  # a module's RESUME is line 0
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= statement_lines(const)
    return lines


def type_checking_lines(tree: ast.Module) -> set[int]:
    """Lines of the bodies of `if TYPE_CHECKING:` blocks, imports only a type checker reads."""
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for stmt in node.body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def main(argv: list[str]) -> int:
    ran: set[tuple[str, int]] = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        with redirect_stdout(sys.stderr):
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = []
    for path in sorted(Path(SRC).glob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        text = source.splitlines()
        executed = {line for filename, line in ran if filename == str(path)}
        never_run = type_checking_lines(ast.parse(source))
        missing += [f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
                    for line in sorted(statement_lines(code) - executed - never_run)]
    print("\n".join([*missing, f"{len(missing)} statements of src/lpgreeks never ran"]))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
