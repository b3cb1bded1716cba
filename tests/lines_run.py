"""List every line of the package that the tests never run in their own process.

Run from anywhere, with pytest and hypothesis installed::

    python3 tests/lines_run.py [pytest arguments]

It runs the test suite with ``--hypothesis-seed=0`` under `sys.settrace`,
then prints each line of ``src/multiagm/*.py`` that some code object of the
file lists (``co_lines()``) but no frame ran.  Lines that only a
subprocess started by a test runs are allowed; `SUBPROCESS_LINES` names the
test for each.  Exits 1 when the tests fail or a line is listed, so a line
that stops being run, or a new line no test runs, fails here.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "multiagm"

# (file, line) -> the test whose subprocess runs it
SUBPROCESS_LINES = {
    ("cli.py", 437): "test_cli.py::test_closed_stdout_pipe_exits_1_quietly",  # main re-raises BrokenPipeError
    ("cli.py", 450): "test_cli.py::test_closed_stdout_pipe_exits_1_quietly",  # console_main's EPIPE recipe
    ("cli.py", 451): "test_cli.py::test_closed_stdout_pipe_exits_1_quietly",
    ("cli.py", 456): "test_cli.py::TestSharedParser::test_a_call_carries_nothing_to_the_next",  # python -m multiagm.cli
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` list, nested ones included."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The exit code of pytest over ``args`` and the lines each package file ran."""
    ran = {str(path): set() for path in SRC.glob("*.py")}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None
        # a call's line: the def line of a new frame, or where a generator resumes
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS), *argv])
    unrun = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(executable_lines(path) - ran[str(path)])
        if (path.name, line) not in SUBPROCESS_LINES
    ]
    print(f"{len(unrun)} line(s) of {SRC} not run in process (allowed: {len(SUBPROCESS_LINES)} run by subprocesses)")
    for where in unrun:
        print(f"  {where}")
    return 1 if code or unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
