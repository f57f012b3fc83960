"""List every line of ``src/vtcamo`` that the Tier-1 suite never runs.

Runs Tier-1 in this process through ``pytest.main``, under a line tracer
(``sys.settrace`` and ``threading.settrace``) that follows only frames of
files under ``src/vtcamo``. The tracer is installed before ``vtcamo`` is
first imported, so module-level lines count too. A module's executable
lines are the ``co_lines()`` of every code object compiled from it; a
statement the compiler drops, such as one straight after a ``return``,
has none. Each line that never ran is printed as ``file:line: text``::

    python3 tools/line_check.py

Exit status: 0 when the lines that never ran are exactly the ones that
``ALLOWED`` names; 1 when another line never ran, when an ``ALLOWED``
entry matches no such line, or when Tier-1 fails. Standard library only,
apart from the pytest that Tier-1 itself needs. Traced, Tier-1 takes
about 2.5 times as long.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vtcamo"

#: (file, enclosing function, line text) -> why Tier-1 cannot run it;
#: a ``None`` field matches any value, so edits elsewhere in the file
#: keep an entry valid
ALLOWED = {
    ("__main__.py", None, None):
        "runs only as `python -m vtcamo`, in the child interpreters of "
        "test_python_m_runs and test_python_m_error_is_one_json_line",
    ("device.py", "_worst_delay", "raise"):
        "runs only if CellModel.delay collapses where CellModel.detail "
        "returns on every row; test_delay_collapses_exactly_when_detail_does "
        "pins that they agree",
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of ``path`` that compiles to an instruction, with the
    name of the innermost function (or ``<module>``) that holds it."""
    scopes = {}

    def walk(code):
        named = not code.co_name.startswith("<")  # not a comprehension
        for _, _, line in code.co_lines():
            if line is not None and (named or line not in scopes):
                scopes[line] = getattr(code, "co_qualname", code.co_name)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    source = path.read_text(encoding="utf-8")
    walk(compile(source, str(path), "exec"))
    scopes.pop(0, None)  # a module's first instruction sits on line 0
    return scopes


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status and, per real file path, the lines that ran."""
    import pytest

    prefix = os.path.realpath(PACKAGE) + os.sep
    follow, ran = {}, {}

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = follow.get(name)
        if lines is None:
            real = os.path.realpath(name)
            lines = follow[name] = (ran.setdefault(real, set())
                                    if real.startswith(prefix) else False)
        if lines is False:
            return None
        add = lines.add

        def trace_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_line
        return trace_line

    if "vtcamo" in sys.modules:
        raise RuntimeError("vtcamo was imported before the tracer")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def allowance(path: Path, scope: str, text: str):
    """The ``ALLOWED`` key that matches an unrun line, or None."""
    name = path.relative_to(PACKAGE).as_posix()
    return next((key for key in ALLOWED
                 if key[0] == name and key[1] in (None, scope)
                 and key[2] in (None, text)), None)


def main() -> int:
    status, ran = traced_tier1()
    used, stray = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = ran.get(os.path.realpath(path), set())
        for line, scope in sorted(executable_lines(path).items()):
            if line in hit:
                continue
            text = linecache.getline(str(path), line).strip()
            where = f"{path.relative_to(ROOT).as_posix()}:{line}: {text}"
            print(where)
            key = allowance(path, scope, text)
            if key is None:
                stray.append(where)
            else:
                used.add(key)
    stale = [key for key in ALLOWED if key not in used]
    for where in stray:
        print(f"not allowed: {where}")
    for key in stale:
        print(f"allowed but ran: {key}")
    if status:
        print(f"Tier-1 failed (pytest exit status {status})")
    ok = not (stray or stale or status)
    print("unrun lines match ALLOWED" if ok else "line check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
