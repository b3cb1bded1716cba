"""List every line of the package that the tests never run in their own process.

Run from anywhere, with pytest and hypothesis installed::

    python3 tests/lines_run.py [pytest arguments]

It runs the test suite with ``--hypothesis-seed=0`` under `sys.settrace`,
then prints each line of ``src/multiagm/*.py`` that some code object of the
file lists (``co_lines()``) but no frame ran.  Lines that only a
subprocess started by a test runs are allowed; `SUBPROCESS_LINES` names each
by its source text, which must be that of exactly one line of its file, and
names the test that runs it.  Exits 1 when such a text names no line or
several, when the tests fail, or when a line is listed, so a line that stops
being run, or a new line no test runs, fails here.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "multiagm"

# (file, stripped source text of one line) -> the test whose subprocess runs that line
SUBPROCESS_LINES = {
    # main re-raises BrokenPipeError
    ("cli.py", "raise"): "test_cli.py::test_closed_stdout_pipe_exits_1_quietly",
    # console_main's EPIPE recipe
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): (
        "test_cli.py::test_closed_stdout_pipe_exits_1_quietly"
    ),
    ("cli.py", "sys.exit(1)"): "test_cli.py::test_closed_stdout_pipe_exits_1_quietly",
    # python -m multiagm.cli
    ("cli.py", "console_main()"): "test_cli.py::TestSharedParser::test_a_call_carries_nothing_to_the_next",
}


def allowed_lines() -> tuple[set[tuple[str, int]], list[str]]:
    """The ``(file, line)`` of each entry of `SUBPROCESS_LINES`, and a message for each text of no line or several."""
    allowed, errors = set(), []
    for (name, text), test in SUBPROCESS_LINES.items():
        lines = (SRC / name).read_text(encoding="utf-8").splitlines()
        found = [number for number, line in enumerate(lines, 1) if line.strip() == text]
        if len(found) == 1:
            allowed.add((name, found[0]))
        else:
            errors.append(f"{name}: {len(found)} lines read {text!r}, not 1 (allowed for {test})")
    return allowed, errors


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
    allowed, errors = allowed_lines()
    if errors:
        print("\n".join(errors))
        return 1
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS), *argv])
    unrun = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(executable_lines(path) - ran[str(path)])
        if (path.name, line) not in allowed
    ]
    print(f"{len(unrun)} line(s) of {SRC} not run in process (allowed: {len(allowed)} run by subprocesses)")
    for where in unrun:
        print(f"  {where}")
    return 1 if code or unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
