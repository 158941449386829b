"""List the statements of ``src/jkl`` that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
without ``tests/test_acceptance.py::test_07_enzyme_sensitivity`` (the
one slow run), and prints each statement no test reached as
``file:line: text``, then a count on stderr.  Standard library and
pytest only; code that runs only in forked ensemble workers is not seen.

    python tools/line_census.py [extra pytest arguments]

A statement counts as run when any line of its own (for a compound
statement, its header lines) produced a line event; statements that
compile to no line of code (docstrings, ``global``) are not counted.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "jkl")
SLOW = "tests/test_acceptance.py::test_07_enzyme_sensitivity"


def _code_lines(code) -> set[int]:
    """Lines that start an instruction in ``code`` or a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines that belong to ``node`` itself, not to a statement nested in it."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def _statements(path: str) -> list[tuple[int, set[int]]]:
    """(first line, own executable lines) of each statement of one module."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = _code_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = executable.intersection(_own_lines(node))
            if lines:
                out.append((node.lineno, lines))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        hits.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", SLOW, *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        seen = hits.get(path, set())
        for first, lines in _statements(path):
            if not lines & seen:
                unrun += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{unrun} unrun statements; pytest exit status {int(status)}", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
