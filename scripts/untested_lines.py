"""List the lines of src/qgplab that no test runs.

Usage: python scripts/untested_lines.py [PYTEST ARGS]

Runs pytest in this process under the standard library's ``trace`` module
(every thread it starts included) and prints ``path:line: source`` for each
executable line of ``src/qgplab/*.py`` that no test ran.  Executable lines
are those the compiled code objects map instructions to (``co_lines``).

Tests that run the program in a subprocess are not traced: the lines only
they reach are listed as untested.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgplab"


def executable_lines(code) -> set[int]:
    """Line numbers of every instruction of ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    # the package must be imported under the tracer, or its module-level
    # lines would read as untested
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    package = str(PACKAGE) + "/"

    def globaltrace(frame, why, arg):
        # count lines in the package only; pytest and numpy run untraced
        if frame.f_code.co_filename.startswith(package):
            return tracer.localtrace
        return None

    tracer.globaltrace = globaltrace
    threading.settrace(globaltrace)
    try:
        status = tracer.runfunc(pytest.main, argv)
    finally:
        threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for (filename, line) in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        untested = sorted(lines - ran.get(path, set()))
        total, missed = total + len(lines), missed + len(untested)
        for line in untested:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(
        f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} not run; "
        "tests run in subprocesses are not traced",
        file=sys.stderr,
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
