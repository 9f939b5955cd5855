"""Line coverage of ``src/qweinstein`` under the tier-1 tests, with the stdlib only.

    python3 tools/linecov.py [PYTEST_ARGS...]     # run from the repository root

Runs pytest on ``tests/`` in this process under ``sys.settrace``, recording
every line of the package that runs, and lists per module the executable
lines (those the compiler gives bytecode) that never ran.  It exits 1 if the
tests fail or if a line outside ``EXEMPT`` never ran, and 0 otherwise.  Tests
that run the package in a subprocess are not seen, and a line that only a
hypothesis draw reaches may run in one test run and not the next, so each
line needs a fixed example.  Extra arguments go to pytest; with ``-k`` or a
narrower path the report covers only what those tests run.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qweinstein"

# (module, the line's text without indentation) -> why no test runs it
EXEMPT = {
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m qweinstein.cli`; the tests call main() directly",
}


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> set[int]:
    return _code_lines(compile(path.read_text(), str(path), "exec"))


def main(argv: list[str]) -> int:
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in modules}
    locals_: dict[str, object] = {}   # filename -> its line tracer, None outside the package

    def local_for(filename: str):
        ran = hits.get(filename)
        if ran is None:
            return None
        add = ran.add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return locals_[filename]
        except KeyError:
            tracer = locals_[filename] = local_for(filename)
            return tracer

    assert "qweinstein" not in sys.modules, "the package must first be imported under the tracer"
    import pytest

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        replaced = sys.gettrace() is not trace_calls
        sys.settrace(None)
    if replaced:
        print("linecov: a test replaced the tracer; the counts are incomplete", file=sys.stderr)
        return 1

    total = ran = missed = 0
    print("\nlines of src/qweinstein that no test ran (x: exempt)")
    for filename, path in modules.items():
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        ran += len(lines & hits[filename])
        for line in sorted(lines - hits[filename]):
            src = text[line - 1].strip()
            reason = EXEMPT.get((path.name, src))
            missed += reason is None
            print(f"{'x' if reason else ' '} {path.name}:{line}: {src}")
            if reason:
                print(f"      {reason}")
    print(f"{ran} of {total} executable lines ran; {missed} not run and not exempt")
    if status != 0:
        print(f"linecov: pytest exited {int(status)}", file=sys.stderr)
        return 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
