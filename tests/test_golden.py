"""Golden outputs: attack reports and CLI JSON pinned byte for byte.

The attack and CLI fixtures in ``tests/golden/`` were written by the
scalar per-vector simulators that the bit-parallel core replaced, so these
tests show that the core reproduces the old answers exactly: query counts,
transcripts, candidate-space figures and every ``--no-timestamp`` report.
The device fixtures (``sweep``, ``bias-opt`` and ``sidechannel``) were
written by the per-point device code, before the operating-point currents
were hoisted out of the cell-delay and signature loops; the two
contention-collapse cases (a ``bias-opt`` grid that skips collapsing
points and a ``sweep`` that exits 1) were written before the nominal
core currents were hoisted out of the grids. The
``greedy-effort``, ``off-critical`` and ``report --key`` CLI runs were
written by the full-pass timing code (one ``critical_path`` per greedy
trial) that the incremental cone check replaced. ``cli_usage.json`` pins
the argparse usage, help and error texts (with ``COLUMNS=80``) and the
``parse`` and ``estimate`` runs, written before the subcommand table
replaced the hand-written parser; Python 3.13's argparse wraps usage
lines differently, so it reads ``cli_usage_py313.json``, written under
3.13.0, which differs only in those wrapped texts. Later 3.13 releases
(3.13.13 among them) no longer quote the choices in an invalid-choice
error, so an argparse that does not is probed for and reads a fixture with
``_unquoted`` in its name: ``cli_usage_py313_unquoted.json``, written
under 3.13.13, differs from ``cli_usage_py313.json`` in those two error
texts. An argparse with no fixture for its behaviour fails the usage
tests, naming the fixture it lacks. Four ``status`` fields of
random-source brute force (``brute_random`` for ``c17_mutual_mask`` and
``random_6``, and the ``--pattern-source random`` CLI runs on ``c17``
and ``synth_mix``) were re-pinned from ``equivalent_class`` to
``budget_exhausted`` when the joint step stopped calling a random run's
survivors settled without proof.

``PYTHONPATH=src python tests/test_golden.py`` writes the fixtures in
place from the code on the import path, under any interpreter and
without pytest; ``git status --porcelain -- tests/golden`` then stays
empty when every byte holds, and ``git diff`` shows each entry that
moved. Commit a moved fixture only when the output change is intended,
and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from netlists import bench_text, random_netlist
from vtcamo import cli
from vtcamo.attack import brute_force_attack, sensitization_attack
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import CellFlavor
from vtcamo.netlist import CountingOracle, parse_bench

GOLDEN = Path(__file__).with_name("golden")


def quotes_choices() -> bool:
    """Whether the running argparse quotes the choices of an invalid-choice
    error, as it did before the later 3.13 releases."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    try:
        parser.parse_args(["b"])
    except argparse.ArgumentError as exc:
        return "(choose from 'a')" in str(exc)
    return False


def usage_fixture(wraps_as_313: bool, quotes: bool) -> str:
    """The usage fixture of one argparse behaviour: how it wraps usage
    lines (3.13 and on, or before) and whether it quotes choices."""
    return (f"cli_usage{'_py313' if wraps_as_313 else ''}"
            f"{'' if quotes else '_unquoted'}.json")


#: The usage fixture of the running interpreter's argparse behaviour.
USAGE_FIXTURE = usage_fixture(sys.version_info >= (3, 13), quotes_choices())

MASKED = ("INPUT(a)\nINPUT(b)\nOUTPUT(x)\n"
          "g = NAND(a, b)\nx = XOR(g, g)\n")


def _bits(vec) -> str:
    return "".join(map(str, vec))


def _report_dict(report) -> dict:
    # long transcripts (exhaustive brute force) are pinned by their digest
    pairs = " ".join(f"{_bits(v)}:{_bits(o)}" for v, o in report.transcript)
    if len(report.transcript) > 64:
        pairs = "sha256:" + hashlib.sha256(pairs.encode()).hexdigest()
    return {
        "resolved": {gid: sorted(f.value for f in funcs)
                     for gid, funcs in sorted(report.resolved.items())},
        "status": report.status,
        "query_count": report.query_count,
        "transcript": pairs,
        "log2_initial": report.candidate_space_log2_initial,
        "log2_final": report.candidate_space_log2_final,
    }


def _attack_instances():
    """(name, locked netlist, key); the first two need the residue fallback."""
    c17 = parse_bench(bench_text("c17.bench"))
    yield ("c17_mutual_mask",
           *apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8))
    yield ("masked_xor",
           *apply_camouflage(parse_bench(MASKED), ["g"], CellFlavor.CAMO8))
    flavors = (CellFlavor.CAMO8, CellFlavor.CMOS3A, CellFlavor.CMOS3B)
    for i, width in enumerate((6, 7, 8, 13)):
        net = random_netlist(width, 2 * width + 4, seed=700 + i,
                             p_single=0.3)
        flavor = flavors[i % 3]
        eligible = eligible_gates(net, flavor)
        yield (f"random_{width}", *apply_camouflage(net, eligible[-3:], flavor,
                                                    decoy_seed=i))


def attack_cases() -> dict:
    cases = {}
    for name, locked, key in _attack_instances():
        def run(attack, **kw):
            return _report_dict(attack(locked, CountingOracle(locked, key),
                                       **kw))
        cases[name] = {
            "brute_exhaustive": run(brute_force_attack),
            "brute_random": run(brute_force_attack, pattern_source="random",
                                query_budget=12, seed=5),
            "sensitization": run(sensitization_attack),
            "sensitization_blind": run(sensitization_attack,
                                       flavor_knowledge=False),
            "sensitization_budget": run(sensitization_attack, query_budget=3),
        }
    return cases


def _cli_runs(stem: str) -> list[list[str]]:
    locked, key = f"{stem}_locked.bench", f"{stem}.key"
    width = len(parse_bench(bench_text(f"{stem}.bench")).inputs)
    vectors = ["0" * width, "1" * width, ("10" * width)[:width]]
    sim = [arg for v in vectors for arg in ("--inputs", v)]
    return [
        ["lock", f"{stem}.bench", "--budget", "0.5", "--seed", "3",
         "--out-bench", locked, "--out-key", key],
        ["sim", f"{stem}.bench", *sim],
        ["sim", locked, "--key", key, *sim],
        ["equiv", f"{stem}.bench", locked, "--key-b", key],
        ["equiv", f"{stem}.bench", f"{stem}_mutant.bench"],
        ["equiv", f"{stem}_mutant.bench", f"{stem}.bench", "--mode", "random",
         "--vectors", "40", "--seed", "4"],
        ["attack", locked, "--key", key, "--method", "brute"],
        ["attack", locked, "--key", key, "--method", "brute",
         "--pattern-source", "random", "--budget", "6", "--seed", "2"],
        ["attack", locked, "--key", key, "--method", "sensitization"],
        ["attack", locked, "--key", key, "--method", "sensitization",
         "--no-flavor-knowledge"],
        ["report", locked, "--key", key],
        ["lock", f"{stem}.bench", "--strategy", "greedy-effort", "--budget",
         "0.5", "--delay-budget", "0.4", "--out-bench", f"{stem}_greedy.bench",
         "--out-key", f"{stem}_greedy.key"],
        ["report", f"{stem}_greedy.bench", "--key", f"{stem}_greedy.key"],
        ["lock", f"{stem}.bench", "--flavor", "cmos3a", "--strategy",
         "greedy-effort", "--budget", "1.0", "--delay-budget", "0.2",
         "--out-bench", f"{stem}_greedy3a.bench",
         "--out-key", f"{stem}_greedy3a.key"],
        ["report", f"{stem}_greedy3a.bench", "--key", f"{stem}_greedy3a.key"],
        ["lock", f"{stem}.bench", "--strategy", "off-critical", "--budget",
         "0.5", "--out-bench", f"{stem}_offcrit.bench",
         "--out-key", f"{stem}_offcrit.key"],
        ["report", f"{stem}_offcrit.bench", "--key", f"{stem}_offcrit.key"],
    ]


_MUTANTS = {"c17": ("23 = NAND(16, 19)", "23 = NOR(16, 19)"),
            "synth_mix": ("y1 = OR(n8, n9)", "y1 = XOR(n8, n9)")}


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--no-timestamp"])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def cli_cases(workdir: Path) -> dict:
    """Run every golden CLI invocation inside ``workdir``."""
    cases = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for stem, (before, after) in _MUTANTS.items():
            text = bench_text(f"{stem}.bench")
            Path(f"{stem}.bench").write_text(text)
            Path(f"{stem}_mutant.bench").write_text(text.replace(before,
                                                                 after))
            runs = [_run_cli(argv) for argv in _cli_runs(stem)]
            cases[stem] = {
                "runs": runs,
                "locked_bench": Path(f"{stem}_locked.bench").read_text(),
                "key": Path(f"{stem}.key").read_text(),
            }
    finally:
        os.chdir(old)
    return cases


_DEVICE_RUNS = [
    ["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4"],
    ["sweep", "--hvt", "0.25:0.45", "--lvt", "0.2:0.4", "--step", "0.1",
     "--vg-n", "0.36", "--t", "330"],
    ["bias-opt"],
    ["bias-opt", "--window", "0.05"],
    # 625 points, 24 of them skipped on contention collapse
    ["bias-opt", "--window", "0.2", "--step", "0.1"],
    # exits 1: no VT split at the (0, 0) corner collapses the drive
    ["sweep", "--hvt", "0.0:0.1", "--lvt", "0.0:0.1"],
]

#: Lock flavor per bench, so per-gate templates cover two flavors.
_SIDE_FLAVORS = {"c17": "cmos3a", "synth_mix": "camo8"}


def _side_runs(stem: str) -> list[list[str]]:
    locked, key = f"{stem}_locked.bench", f"{stem}.key"
    runs = [["lock", f"{stem}.bench", "--flavor", _SIDE_FLAVORS[stem],
             "--budget", "0.5", "--seed", "3", "--out-bench", locked,
             "--out-key", key]]
    for mode in ("per-gate", "aggregate-only"):
        for policy in ("fixed", "thermal-compensated"):
            for noise in ([], ["--noise", "0.05", "--seed", "7"]):
                runs.append(["sidechannel", locked, "--key", key, "--mode",
                             mode, "--bias-policy", policy, *noise])
    runs.append(["sidechannel", locked, "--key", key, "--mode",
                 "aggregate-only", "--balance", "--temps", "200,300,400"])
    return runs


def device_cases(workdir: Path) -> dict:
    """Run every golden device-layer CLI invocation inside ``workdir``."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        cases = {"device": [_run_cli(argv) for argv in _DEVICE_RUNS]}
        for stem in _SIDE_FLAVORS:
            Path(f"{stem}.bench").write_text(bench_text(f"{stem}.bench"))
            cases[stem] = [_run_cli(argv) for argv in _side_runs(stem)]
    finally:
        os.chdir(old)
    return cases


#: Usage, help and argparse error texts; none of them reads a file.
_USAGE_ARGVS = [
    ["-h"],
    ["--help"],
    [],
    ["no-such-command"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["lock", "x.bench"],  # missing required options
    ["parse"],  # missing positional
    ["lock", "x.bench", "--flavor", "camo9", "--out-bench", "o",
     "--out-key", "k"],  # bad choice
    ["estimate", "--inputs", "four", "--gates", "2"],  # bad type
    ["bias-opt", "--jobs", "2"],  # extra arguments from here on
    ["report", "x", "--key", "k", "extra"],
    ["parse", "x.bench", "y.bench"],
    ["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4", "--jobs"],
]

#: Successful runs of the subcommands no other fixture runs.
_USAGE_RUNS = [
    ["parse", "c17.bench", "--no-timestamp"],
    ["estimate", "--inputs", "50", "--gates", "10", "--no-timestamp"],
]


def _run_usage(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def cli_usage_cases(workdir: Path) -> dict:
    """Usage texts and the otherwise unpinned runs, inside ``workdir``.

    argparse wraps help to ``COLUMNS``; callers set it to 80.
    """
    old = os.getcwd()
    os.chdir(workdir)
    try:
        Path("c17.bench").write_text(bench_text("c17.bench"))
        return {"usage": [_run_usage(argv) for argv in _USAGE_ARGVS],
                "runs": [_run_usage(argv) for argv in _USAGE_RUNS]}
    finally:
        os.chdir(old)


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def test_attack_reports_match_golden():
    golden = _load("attack_reports.json")
    fresh = json.loads(json.dumps(attack_cases()))
    assert fresh.keys() == golden.keys()
    for name in golden:
        for attack in golden[name]:
            assert fresh[name][attack] == golden[name][attack], (name, attack)


def test_cli_outputs_match_golden(tmp_path):
    golden = _load("cli_outputs.json")
    fresh = cli_cases(tmp_path)
    assert fresh.keys() == golden.keys()
    for stem in golden:
        assert fresh[stem]["locked_bench"] == golden[stem]["locked_bench"]
        assert fresh[stem]["key"] == golden[stem]["key"]
        for got, want in zip(fresh[stem]["runs"], golden[stem]["runs"],
                             strict=True):
            assert got == want, want["argv"]


def test_device_outputs_match_golden(tmp_path):
    golden = _load("device_outputs.json")
    fresh = device_cases(tmp_path)
    assert fresh.keys() == golden.keys()
    for name in golden:
        for got, want in zip(fresh[name], golden[name], strict=True):
            assert got == want, want["argv"]


def test_cli_usage_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = _load(USAGE_FIXTURE)
    fresh = cli_usage_cases(tmp_path)
    assert fresh.keys() == golden.keys()
    for name in golden:
        for got, want in zip(fresh[name], golden[name], strict=True):
            assert got == want, want["argv"]


def test_each_argparse_behaviour_reads_its_own_usage_fixture():
    assert [usage_fixture(wraps, quotes) for wraps in (False, True)
            for quotes in (True, False)] == [
        "cli_usage.json", "cli_usage_unquoted.json", "cli_usage_py313.json",
        "cli_usage_py313_unquoted.json"]
    assert USAGE_FIXTURE == usage_fixture(sys.version_info >= (3, 13),
                                          quotes_choices())
    for name in ("cli_usage.json", "cli_usage_py313.json",
                 "cli_usage_py313_unquoted.json"):
        assert (GOLDEN / name).is_file(), name
    # the pinned texts quote their choices as the probe says they would
    for name in ("cli_usage_py313.json", "cli_usage_py313_unquoted.json"):
        quoted = "choose from 'parse'" in json.dumps(_load(name))
        assert quoted == (name == "cli_usage_py313.json")
    # no fixture pins an argparse that wraps as before 3.13 and does not
    # quote: such an interpreter fails, naming the fixture it lacks
    import pytest  # here, so writing the fixtures needs no pytest
    missing = usage_fixture(False, False)
    with pytest.raises(FileNotFoundError, match=missing):
        _load(missing)


def test_every_subcommand_is_pinned():
    """Each subcommand in the table has a pinned -h text and a pinned run."""
    usage = _load(USAGE_FIXTURE)
    helped = {c["argv"][0] for c in usage["usage"] if c["argv"][1:] == ["-h"]}
    ran = {c["argv"][0] for c in usage["runs"] if c["exit"] == 0}
    for case in _load("cli_outputs.json").values():
        ran.update(c["argv"][0] for c in case["runs"] if c["exit"] == 0)
    for runs in _load("device_outputs.json").values():
        ran.update(c["argv"][0] for c in runs if c["exit"] == 0)
    assert set(cli.COMMANDS) <= helped
    assert set(cli.COMMANDS) <= ran


def write_fixtures(directory: Path) -> None:
    """Write the four fixtures, from the code on the import path, into
    ``directory`` (the usage one as ``USAGE_FIXTURE``); argparse wraps
    help to ``COLUMNS``, so set it to 80."""
    (directory / "attack_reports.json").write_text(
        json.dumps(attack_cases(), indent=1, sort_keys=True) + "\n")
    for name, cases in (("cli_outputs.json", cli_cases),
                        ("device_outputs.json", device_cases),
                        (USAGE_FIXTURE, cli_usage_cases)):
        with tempfile.TemporaryDirectory() as tmp:
            (directory / name).write_text(
                json.dumps(cases(Path(tmp)), indent=1, sort_keys=True)
                + "\n")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    write_fixtures(GOLDEN)
