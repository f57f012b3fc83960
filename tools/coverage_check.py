"""List each line of ``src/vtcamo`` that Tier-1 never runs, and each
branch there that it takes only one way.

Runs Tier-1 in this process through ``pytest.main``, under PEP 669
``sys.monitoring`` ``LINE`` and ``BRANCH`` events on ``COVERAGE_ID``,
registered before ``vtcamo`` is first imported, so module-level lines
count too. A callback turns its event off where it has nothing more to
learn: outside ``src/vtcamo``, on a line at its first hit, and at a
branch site once it has gone both ways::

    python3 tools/coverage_check.py

A module's executable lines are the ``co_lines()`` of every code object
compiled from it. A branch site is a conditional jump (``POP_JUMP_IF_*``
or ``FOR_ITER``) that ran, as (code object, offset). Sites are grouped
by the jump's source position (``co_positions()``), so the compiled
copies of one ``while`` test form one group and each operand of ``a and
b`` its own; a group passes when it was seen both to jump and to fall
through. Left out are the jump after ``CHECK_EXC_MATCH`` (an ``except``
clause's match) and the loop exit of a generator expression, whose
consumer (``next``, ``any``) may stop early. Each unrun line, and each
one-way group with the way it went, is printed as ``file:line: text``.

Exit status: 0 when each of them is allowed by an ``ALLOWED`` entry and
each entry is used; 1 when one is not, when an entry matches nothing,
or when Tier-1 fails; 2 on an interpreter other than 3.12 or 3.13,
before any test runs (3.11 has no ``sys.monitoring``; 3.14 splits
``BRANCH`` into ``BRANCH_LEFT`` and ``BRANCH_RIGHT``). Standard library
only, apart from the pytest that Tier-1 needs. Monitored, Tier-1 takes
about 1.1 times as long.
"""

from __future__ import annotations

import dis
import linecache
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vtcamo"
SUPPORTED = ((3, 12), (3, 13))

#: (file, enclosing function, line text) -> why Tier-1 cannot run the
#: line, or take the branch at it both ways; a ``None`` field matches any
#: value, so edits elsewhere in the file keep an entry valid
ALLOWED = {
    ("__main__.py", None, None):
        "runs only as `python -m vtcamo`, in the child interpreters of "
        "test_python_m_runs and test_python_m_error_is_one_json_line",
    ("cli.py", "_write_atomic", "if os.path.exists(tmp):"):
        "cleanup after a failed write or rename, when tmp still exists; "
        "it is gone only if an interrupt lands just after os.replace "
        "moved it, which no test provokes; the guard stays as safety code",
    ("device.py", "_worst_delay", "for row in rows:"):
        "the collapse walk never runs out: the worst row that collapsed "
        "is one of rows, and CellModel.detail raises on it "
        "(_delay_agrees_with_detail pins the loop to detail)",
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


def monitored_tier1() -> tuple[int, dict[str, set[int]], dict]:
    """Tier-1's exit status; per real file path, the lines that ran; and
    per (code object, offset) of a jump, the destinations it reached."""
    import pytest

    mon = sys.monitoring
    tool, events = mon.COVERAGE_ID, mon.events
    prefix = os.path.realpath(PACKAGE) + os.sep
    follow, ran, dests = {}, {}, {}

    def ours(code):
        name = code.co_filename
        if name not in follow:
            real = os.path.realpath(name)
            follow[name] = real if real.startswith(prefix) else None
        return follow[name]

    def on_line(code, line):
        real = ours(code)
        if real is not None:
            ran.setdefault(real, set()).add(line)
        return mon.DISABLE

    def on_branch(code, offset, dest):
        if ours(code) is None:
            return mon.DISABLE
        seen = dests.setdefault((code, offset), set())
        seen.add(dest)
        return mon.DISABLE if len(seen) > 1 else None

    if "vtcamo" in sys.modules:
        raise RuntimeError("vtcamo was imported before monitoring began")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    mon.use_tool_id(tool, "coverage_check")
    mon.register_callback(tool, events.LINE, on_line)
    mon.register_callback(tool, events.BRANCH, on_branch)
    mon.set_events(tool, events.LINE | events.BRANCH)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        mon.set_events(tool, events.NO_EVENTS)
        mon.free_tool_id(tool)
    return int(status), ran, dests


def one_way_groups(dests: dict) -> dict[tuple, str]:
    """(real path, position) -> the way each one-way group went, for the
    groups of sites that are not left out."""
    ways, codes = {}, {}
    for code, offset in dests:
        codes.setdefault(code, set()).add(offset)
    for code, offsets in codes.items():
        listing = list(dis.get_instructions(code))
        positions = list(code.co_positions())
        for before, jump, after in zip(listing, listing[1:], listing[2:]):
            if jump.offset not in offsets:
                continue
            if (before.opname == "CHECK_EXC_MATCH"
                    or code.co_name == "<genexpr>"
                    and jump.opname == "FOR_ITER"):
                continue
            key = (os.path.realpath(code.co_filename),
                   positions[jump.offset // 2])
            way = ways.setdefault(key, set())
            way.update("falls through" if d == after.offset else "jumps"
                       for d in dests[code, jump.offset])
    return {key: f"only {way.pop()}" for key, way in ways.items()
            if len(way) == 1}


def allowance(path: Path, scope: str, text: str):
    """The ``ALLOWED`` key that matches an unrun line or one-way group,
    or None."""
    name = path.relative_to(PACKAGE).as_posix()
    return next((key for key in ALLOWED
                 if key[0] == name and key[1] in (None, scope)
                 and key[2] in (None, text)), None)


def main() -> int:
    if sys.version_info[:2] not in SUPPORTED:
        print(f"coverage_check.py supports Python 3.12 and 3.13 only, "
              f"not {sys.version.split()[0]}")
        return 2
    status, ran, dests = monitored_tier1()
    one_way = one_way_groups(dests)
    used, stray = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        scopes = executable_lines(path)
        hit = ran.get(real, set())
        found = [(line, "") for line in sorted(scopes) if line not in hit]
        found += sorted((pos[0], f"  ({way})") for (file, pos), way
                        in one_way.items() if file == real)
        for line, way in found:
            text = linecache.getline(str(path), line).strip()
            where = f"{path.relative_to(ROOT).as_posix()}:{line}: {text}{way}"
            print(where)
            key = allowance(path, scopes.get(line), text)
            if key is None:
                stray.append(where)
            else:
                used.add(key)
    stale = [key for key in ALLOWED if key not in used]
    for where in stray:
        print(f"not allowed: {where}")
    for key in stale:
        print(f"allowed but matches nothing: {key}")
    if status:
        print(f"Tier-1 failed (pytest exit status {status})")
    ok = not (stray or stale or status)
    print("unchecked lines and branches match ALLOWED" if ok
          else "coverage check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
