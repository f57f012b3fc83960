"""Regenerate the golden fixtures and diff them against ``tests/golden``.

Runs under any supported interpreter with the standard library alone
(pytest need not be installed), so the byte-identical promise of the
fixtures can be checked on every Python version::

    python3 tools/golden_check.py
    /path/to/python3.12 tools/golden_check.py

It imports ``vtcamo`` from ``src/`` and the generators of
``tests/test_golden.py``, writes the four fixtures into a temporary
directory with ``COLUMNS=80``, and names every entry that differs. The
usage texts are compared with the fixture of the running interpreter's
argparse behaviour (``test_golden.USAGE_FIXTURE``: ``cli_usage.json``
before Python 3.13, ``cli_usage_py313.json`` from 3.13 on, with
``_unquoted`` before ``.json`` for an argparse that does not quote the
choices of an invalid-choice error); a behaviour with no fixture is
named as missing. Exit status: 0 when every fixture is byte-identical,
1 otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _label(entry, index) -> str:
    if isinstance(entry, dict) and "argv" in entry:
        return f"[{index}] {' '.join(entry['argv']) or '(no arguments)'}"
    return f"[{index}]"


def differences(fresh, pinned, path: str = "") -> list[str]:
    """Paths of the entries where ``fresh`` and ``pinned`` differ."""
    if isinstance(fresh, dict) and isinstance(pinned, dict):
        found = [f"{path}/{k}: only in one of the two"
                 for k in sorted(fresh.keys() ^ pinned.keys())]
        for k in sorted(fresh.keys() & pinned.keys()):
            found += differences(fresh[k], pinned[k], f"{path}/{k}")
        return found
    if (isinstance(fresh, list) and isinstance(pinned, list)
            and len(fresh) == len(pinned)):
        found = []
        for i, (a, b) in enumerate(zip(fresh, pinned)):
            found += differences(a, b, f"{path}{_label(b, i)}")
        return found
    return [] if fresh == pinned else [path or "/"]


def main() -> int:
    os.environ["COLUMNS"] = "80"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_golden import write_fixtures

    print(f"Python {platform.python_version()}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        for fresh in sorted(Path(tmp).glob("*.json")):
            pinned = GOLDEN / fresh.name
            if not pinned.is_file():
                failed = True
                print(f"{pinned.name}: missing, no fixture pins this "
                      f"interpreter's behaviour")
                continue
            if fresh.read_bytes() == pinned.read_bytes():
                print(f"{pinned.name}: byte-identical")
                continue
            failed = True
            found = differences(json.loads(fresh.read_text()),
                                json.loads(pinned.read_text()))
            print(f"{pinned.name}: differs in {len(found)} entries")
            for line in found or ["(same JSON, different bytes)"]:
                print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
