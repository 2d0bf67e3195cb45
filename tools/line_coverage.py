"""List the lines of src/capax that an in-process Tier-1 run never executes.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
records the lines executed in src/capax, and compares them with every code
object's ``co_lines()``. Prints each unvisited line, and exits 1 when the
tests fail or a line outside ``ALLOW`` is unvisited. Extra arguments go to
pytest. Needs nothing beyond the standard library and pytest::

    PYTHONPATH=src python tools/line_coverage.py -q
"""
import os
import sys
import threading

import pytest

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src", "capax"))
# (file, stripped source line) of the lines that only tests in a subprocess reach
ALLOW = {("cli.py", "sys.exit(main())")}
visited = {}


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(ROOT + os.sep):
        return None
    lines = visited.setdefault(frame.f_code.co_filename, set())

    def _line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return _line

    return _line


def _executable(code):
    """Line numbers of ``code`` and its nested code objects, minus def headers."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def main(args):
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    bad = 0
    for name in sorted(f for f in os.listdir(ROOT) if f.endswith(".py")):
        path = os.path.join(ROOT, name)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        for n in sorted(_executable(compile(source, path, "exec")) - visited.get(path, set())):
            allowed = (name, text[n - 1].strip()) in ALLOW
            bad += not allowed
            print(f"unvisited: src/capax/{name}:{n}{' (allowed)' if allowed else ''}")
    print(f"{bad} unvisited lines outside the allowlist")
    return status or int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
