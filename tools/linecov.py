"""List the lines of micerank that a pytest run never executes.

Usage::

    python tools/linecov.py [--src PATH] [PYTEST_ARGS ...]

Runs pytest in this process (``PYTEST_ARGS`` default to the ``tests``
directory of this checkout) with a line tracer installed through
``sys.settrace`` and ``threading.settrace``, so the threads of the rerank
scorer pool are traced too. Then it prints every executable line of
``--src``'s ``micerank/`` package that no test ran, as ``path:line: source``,
and a per-module count. Executable lines are the lines the compiled code
objects name in ``co_lines()``, less docstrings.

Only this process is traced: lines that run only in child processes (tests
that start ``python -m micerank`` or a tool as a subprocess) show as
unexecuted.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """Line numbers of ``path`` that its code objects name, less docstrings."""
    source = path.read_text()
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


class LineTracer:
    """Records ``(filename, line)`` for every line run in files under ``root``."""

    def __init__(self, root: Path):
        self.root = os.path.join(root, "")
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._ours: dict[object, bool] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = code.co_filename.startswith(self.root)
        if not ours:
            return None
        hits = self.hits[code.co_filename]
        hits.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(repo / "src"),
                        help="directory micerank is imported from")
    args, pytest_args = parser.parse_known_args()
    src = Path(args.src).resolve()
    package = src / "micerank"
    if not (package / "__init__.py").is_file():
        parser.error(f"--src {src} holds no micerank/__init__.py")
    sys.path.insert(0, str(src))
    import pytest

    tracer = LineTracer(package)
    tracer.start()
    try:
        code = pytest.main(pytest_args or [str(repo / "tests")])
    finally:
        tracer.stop()
    imported = sys.modules.get("micerank")
    if imported is not None and not Path(imported.__file__).resolve().is_relative_to(src):
        parser.error(f"micerank was imported from {imported.__file__}, not from --src {src}")

    counts = []
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - tracer.hits.get(str(path), set()))
        text = path.read_text().splitlines()
        name = path.relative_to(src).as_posix()
        for line in missed:
            print(f"{name}:{line}: {text[line - 1].strip()}")
        counts.append((name, len(missed), len(lines)))
    print()
    for name, missed, total in counts:
        print(f"{name:<28} {missed:5d} of {total:5d} lines not run")
    print(f"{'total':<28} {sum(c[1] for c in counts):5d} of {sum(c[2] for c in counts):5d}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
