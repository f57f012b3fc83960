"""Run the CLI matrix and compare each run's digest with ``tests/golden``.

The matrix is every subcommand on the bundled benches: ``parse`` and
``report`` of each bench; ``lock`` over 3 flavors x 4 strategies x
budgets 0.2/0.5/1.0 x seeds 0/5 on ``c17`` and ``synth_mix``, and
budget 0.2 on ``synth_wide``; then ``report --key``, exhaustive
``equiv``, and brute and sensitization ``attack`` on each locked
output; plus ``sim``, ``sidechannel``, ``sweep``, ``bias-opt``,
``estimate`` and the option-rule refusals. Standard library only, like
``tools/golden_check.py``, whose helpers it uses::

    python3 tools/cli_matrix.py           # compare with the fixture
    python3 tools/cli_matrix.py --write   # re-pin the fixture

Every run calls ``vtcamo.cli.main`` in this process with
``--no-timestamp``, inside a temporary directory that is the working
directory, with relative paths, so no absolute path reaches a digest.
A run's digest covers its exit code, stdout, stderr and every file it
wrote. The fixture is ``tests/golden/cli_matrix.json``; each argv whose
digest differs from it is named. Exit status: 0 when every digest
matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
import warnings
from pathlib import Path

from golden_check import GOLDEN, ROOT, differences

FIXTURE = GOLDEN / "cli_matrix.json"
BENCHES = ("c17", "synth_mix", "synth_wide")
FLAVORS = ("camo8", "cmos3a", "cmos3b")
STRATEGIES = ("random", "xor-seq", "off-critical", "greedy-effort")


def _locks():
    """(stem, lock argv tail, locked bench, key) for every lock run."""
    for stem in BENCHES:
        budgets = ("0.2",) if stem == "synth_wide" else ("0.2", "0.5", "1.0")
        for flavor in FLAVORS:
            for strategy in STRATEGIES:
                for budget in budgets:
                    for seed in ("0", "5"):
                        name = f"{stem}_{flavor}_{strategy}_{budget}_{seed}"
                        yield (stem, ["--flavor", flavor, "--strategy",
                                      strategy, "--budget", budget,
                                      "--seed", seed],
                               f"{name}.bench", f"{name}.key")


def matrix() -> list[list[str]]:
    """Every argv of the matrix, in run order (locks before their uses)."""
    runs = []
    for stem in BENCHES:
        runs += [["parse", f"{stem}.bench"], ["report", f"{stem}.bench"]]
    for stem, options, locked, key in _locks():
        runs += [
            ["lock", f"{stem}.bench", *options, "--out-bench", locked,
             "--out-key", key],
            ["report", locked, "--key", key],
            ["equiv", f"{stem}.bench", locked, "--key-b", key],
            ["attack", locked, "--key", key, "--method", "brute"],
            ["attack", locked, "--key", key, "--method", "sensitization"],
        ]
    locked, key = "c17_camo8_random_0.5_0.bench", "c17_camo8_random_0.5_0.key"
    runs += [
        ["sim", "c17.bench", "--inputs", "00000", "--inputs", "10101"],
        ["sim", locked, "--key", key, "--inputs", "00000", "--inputs",
         "11111", "--inputs", "01101"],
        ["sim", "synth_mix.bench", "--inputs", "10110"],
        ["attack", locked, "--key", key, "--method", "brute",
         "--pattern-source", "random", "--budget", "9", "--seed", "4"],
        ["attack", locked, "--key", key, "--no-flavor-knowledge"],
        ["equiv", "c17.bench", locked, "--key-b", key, "--mode", "random",
         "--vectors", "50", "--seed", "2"],
        # each option that applies under one value of another, given with
        # another value
        ["lock", "c17.bench", "--delay-budget", "0.1", "--out-bench",
         "refused.bench", "--out-key", "refused.key"],
        ["equiv", "c17.bench", "c17.bench", "--vectors", "5"],
        ["attack", locked, "--key", key, "--method", "brute",
         "--no-flavor-knowledge"],
        ["attack", locked, "--key", key, "--pattern-source", "random"],
    ]
    for locked, key in (("c17_cmos3a_random_0.5_0.bench",
                         "c17_cmos3a_random_0.5_0.key"),
                        ("synth_mix_camo8_random_0.2_5.bench",
                         "synth_mix_camo8_random_0.2_5.key")):
        runs += [["sidechannel", locked, "--key", key],
                 ["sidechannel", locked, "--key", key, "--mode",
                  "aggregate-only", "--bias-policy", "thermal-compensated",
                  "--noise", "0.05", "--seed", "7"]]
    runs += [
        ["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4"],
        ["sweep", "--hvt", "0.25:0.45", "--lvt", "0.2:0.4", "--step", "0.1",
         "--vg-n", "0.36", "--t", "350"],
        ["bias-opt"],
        ["bias-opt", "--window", "0.05", "--t", "330"],
        ["estimate", "--inputs", "32", "--gates", "40"],
        ["estimate", "--inputs", "5", "--gates", "3", "--functions", "3",
         "--freq", "1e6"],
    ]
    return runs


def _snapshot() -> dict[str, tuple[int, int, int]]:
    """Identity, change time and size of each file; a write replaces the
    file by rename, so a written file always changes its entry."""
    return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir() if e.is_file()}


def digest(argv: list[str]) -> str:
    """Run ``argv`` in the working directory; hash what it leaves."""
    from vtcamo import cli

    before = _snapshot()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # as in a fresh process
        try:
            code = cli.main([*argv, "--no-timestamp"])
        except SystemExit as exc:
            code = exc.code
    written = {name: Path(name).read_text(encoding="utf-8")
               for name, stat in sorted(_snapshot().items())
               if before.get(name) != stat}
    blob = json.dumps({"exit": code, "stdout": out.getvalue(),
                       "stderr": err.getvalue(), "files": written},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_matrix() -> dict:
    """Run the matrix in a temporary directory; its fixture document."""
    sys.path.insert(0, str(ROOT / "src"))
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for stem in BENCHES:
                bench = ROOT / "src" / "vtcamo" / "benches" / f"{stem}.bench"
                Path(f"{stem}.bench").write_bytes(bench.read_bytes())
            runs = [{"argv": argv, "digest": digest(argv)}
                    for argv in matrix()]
        finally:
            os.chdir(old)
    return {"runs": runs}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    print(f"Python {platform.python_version()}")
    start = time.perf_counter()
    fresh = run_matrix()
    took = time.perf_counter() - start
    print(f"{len(fresh['runs'])} runs in {took:.1f} s")
    text = json.dumps(fresh, indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        FIXTURE.write_text(text)
        print(f"wrote {FIXTURE.name}")
        return 0
    if argv:
        print("usage: cli_matrix.py [--write]", file=sys.stderr)
        return 2
    if not FIXTURE.is_file():
        print(f"{FIXTURE.name}: missing")
        return 1
    if text == FIXTURE.read_text():
        print(f"{FIXTURE.name}: byte-identical")
        return 0
    found = differences(fresh, json.loads(FIXTURE.read_text()))
    print(f"{FIXTURE.name}: differs in {len(found)} entries")
    for line in found or ["(same JSON, different bytes)"]:
        print(f"  {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
