"""Golden outputs: attack reports and CLI JSON pinned byte for byte.

The fixtures in ``tests/golden/`` were written by the scalar per-vector
simulators that the bit-parallel core replaced, so these tests show that
the core reproduces the old answers exactly: query counts, transcripts,
candidate-space figures and every ``--no-timestamp`` report.

Regenerate the fixtures from the code on the import path with
``PYTHONPATH=src python tests/test_golden.py``; do that only when an
output change is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from conftest import bench_text, random_netlist
from vtcamo import cli
from vtcamo.attack import (
    CountingOracle,
    brute_force_attack,
    sensitization_attack,
)
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import CellFlavor
from vtcamo.netlist import parse_bench

GOLDEN = Path(__file__).with_name("golden")

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
    ]


_MUTANTS = {"c17": ("23 = NAND(16, 19)", "23 = NOR(16, 19)"),
            "synth_mix": ("y1 = OR(n8, n9)", "y1 = XOR(n8, n9)")}


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
            runs = []
            for argv in _cli_runs(stem):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv + ["--no-timestamp"])
                runs.append({"argv": argv, "exit": code,
                             "stdout": out.getvalue(),
                             "stderr": err.getvalue()})
            cases[stem] = {
                "runs": runs,
                "locked_bench": Path(f"{stem}_locked.bench").read_text(),
                "key": Path(f"{stem}.key").read_text(),
            }
    finally:
        os.chdir(old)
    return cases


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


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "attack_reports.json").write_text(
        json.dumps(attack_cases(), indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "cli_outputs.json").write_text(
            json.dumps(cli_cases(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
