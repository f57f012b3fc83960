"""Run the CLI matrix and write one digest per run to ``tests/golden``.

The matrix is every subcommand on the bundled benches: ``parse`` and
``report`` of each bench; ``lock`` over 3 flavors x 4 strategies x
budgets 0.2/0.5/1.0 x seeds 0/5 on ``c17`` and ``synth_mix``, and
budget 0.2 on ``synth_wide``; then ``report --key``, exhaustive
``equiv``, and brute and sensitization ``attack`` on each locked
output; plus ``sim``, ``sidechannel``, ``sweep``, ``bias-opt``,
``estimate``, the option-rule refusals, a ``lock`` that names one file
twice, a ``lock`` of ``c17`` at the default budget (it selects no gate),
both attacks on ``c17`` with an empty key (no camouflaged cell) and on
an 8-cell ``synth_mix`` lock (the largest brute force); an ``equiv`` that
finds a counterexample, ``sidechannel --temps`` (read and refused),
``report --config`` (read and refused), a ``parse`` that names the line
and column of a syntax error, a ``sidechannel`` with no camouflaged
cell, a ``sim`` vector with a non-bit character and an ``estimate`` of
one function per gate; ``sidechannel``, ``sweep`` and ``bias-opt``
refused by their device currents (an infinite threshold, an overflowing
mobility factor, a temperature that is not positive, a temperature or
``t_ref`` so small that a factor underflows to 0); ``sidechannel`` in
both modes refused by an overflowing delay; ``lock`` and ``report``
refused by an overflowing overhead; ``bias-opt`` with a bias window
past both rails of a 0.4 V supply and ``sweep`` with ``--vg-n`` below 0
and above ``vdd``; then every ``vtcamo`` command of README's ``sh``
blocks.
It also runs README's ``python`` blocks, and names each printed line
that differs from the ``# `` comment line under it. Standard library
only; it takes no option::

    python3 tools/cli_matrix.py
    git status --porcelain -- tests/golden   # empty: every digest holds
    git diff -- tests/golden                 # the argv of each moved digest

Every run calls ``vtcamo.cli.main`` in this process with
``--no-timestamp``, inside a temporary directory that is the working
directory, with relative paths, so no absolute path reaches a digest.
The bundled benches sit there under their own names and under
``src/vtcamo/benches``, the paths README uses, beside ``c17_nor.bench``
(``c17`` with gate 22 a NOR) and the small files of ``FILES``. A run's
digest covers its exit code, stdout, stderr and every file it wrote.
The tool writes ``tests/golden/cli_matrix.json`` with one run per line,
so git compares it with the pinned one and shows each moved digest on
the line of its argv. Exit status: 1 when a README ``python`` line
prints other than what README says, 0 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import shlex
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "golden" / "cli_matrix.json"
README = ROOT / "README.md"
BENCHES = ("c17", "synth_mix", "synth_wide")
FLAVORS = ("camo8", "cmos3a", "cmos3b")
STRATEGIES = ("random", "xor-seq", "off-critical", "greedy-effort")
#: an empty key, run config files (one read, one refused, three whose
#: device currents are refused, one whose delays overflow, one whose
#: overhead overflows, one on a 0.4 V supply) and a .bench whose third
#: line does not parse
FILES = {"empty.key": "",
         "run.cfg": "device.vdd = 1.1\nseed = 3\n",
         "bad.cfg": "device.vdd = high\n",
         # vt(t) is infinite away from t_ref
         "kvt.cfg": "device.kvt = 1e308\n",
         # the mobility factor overflows at any supported temperature
         "tref.cfg": "device.t_ref = 1e300\n",
         # phi_t underflows to 0 at the default temperature, t_ref
         "tiny.cfg": "device.t_ref = 5e-324\n",
         # c_load * vdd / (2 * drive) overflows
         "cload.cfg": "device.c_load = 1e308\n",
         # 100 * extra area / gate count overflows
         "area.cfg": "cost.camo8.area = 1e308\n",
         # a 0.2 V bias window reaches past both rails of a 0.4 V supply
         "rails.cfg": "device.vdd = 0.4\ndevice.vtn0 = 0.25\n"
                      "device.vtp0_mag = 0.25\ndevice.delta_hvt = 0.1\n"
                      "device.delta_lvt = 0.05\n",
         "bad.bench": "INPUT(a)\nOUTPUT(y)\n  y = AND(a\n"}


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


def _fenced(lang: str) -> list[str]:
    """The body of each README code block fenced as ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)


def readme_argvs() -> list[list[str]]:
    """The argv of each ``vtcamo`` (or ``python -m vtcamo``) command in
    README's ``sh`` blocks; other commands are not the CLI's."""
    argvs = []
    for block in _fenced("sh"):
        for command in block.replace("\\\n", " ").splitlines():
            words = shlex.split(command, comments=True)
            while words and "=" in words[0]:  # VAR=value before a command
                words.pop(0)
            if words[:1] == ["vtcamo"]:
                argvs.append(words[1:])
            elif words[:3] == ["python", "-m", "vtcamo"]:
                argvs.append(words[3:])
    return argvs


def readme_python() -> list[str]:
    """Run README's ``python`` blocks in the working directory; name each
    printed line that differs from the ``# `` comment lines."""
    wrong = []
    for n, block in enumerate(_fenced("python"), 1):
        want = [line[2:] for line in block.splitlines()
                if line.startswith("# ")]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                exec(compile(block, f"README python block {n}", "exec"), {})
        except Exception as exc:  # named like a wrong line
            wrong.append(f"README python block {n} raised {exc!r}")
        got = out.getvalue().splitlines()
        wrong += [f"README python block {n}, line {i}: printed {g!r}, "
                  f"README says {w!r}"
                  for i, (g, w) in enumerate(itertools.zip_longest(got, want),
                                             1) if g != w]
    return wrong


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
        # two outputs in one file
        ["lock", "c17.bench", "--out-bench", "refused.bench", "--out-key",
         "refused.key", "--out", "refused.bench"],
        # a lock that would hide nothing: floor(0.05 * 6) gates of c17
        ["lock", "c17.bench", "--out-bench", "refused.bench", "--out-key",
         "refused.key"],
        # no camouflaged cell: both log2 figures are 0.0
        ["attack", "c17.bench", "--key", "empty.key", "--method", "brute"],
        ["attack", "c17.bench", "--key", "empty.key", "--method",
         "sensitization"],
    ]
    # the largest brute force: 8 CAMO8 cells, the MAX_BRUTE_GATES guard
    locked, key = "synth_mix_8cells.bench", "synth_mix_8cells.key"
    runs += [
        ["lock", "synth_mix.bench", "--flavor", "camo8", "--strategy",
         "random", "--budget", "0.73", "--seed", "0", "--out-bench", locked,
         "--out-key", key],
        ["attack", locked, "--key", key, "--method", "brute"],
        ["attack", locked, "--key", key, "--method", "sensitization"],
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
    locked, key = "c17_camo8_random_0.5_0.bench", "c17_camo8_random_0.5_0.key"
    runs += [
        ["equiv", "c17.bench", "c17_nor.bench"],
        ["sidechannel", locked, "--key", key, "--temps", "250,300,350,400"],
        ["sidechannel", locked, "--key", key, "--temps", "250,x"],
        ["report", "c17.bench", "--config", "run.cfg"],
        ["report", "c17.bench", "--config", "bad.cfg"],
        ["parse", "bad.bench"],
        # no camouflaged cell: an empty classification and no accuracy
        ["sidechannel", "c17.bench", "--key", "empty.key"],
        # a vector with a character other than 0/1
        ["sim", "c17.bench", "--inputs", "01a01"],
        # one function per gate: one candidate for any gate count
        ["estimate", "--inputs", "4", "--gates", "100000", "--functions",
         "1"],
    ]
    # device currents refused: each device's vgs/vds/vt checks come
    # before a bad temperature or an overflowing mobility factor
    sweep = ["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4"]
    runs += [
        ["sidechannel", locked, "--key", key, "--config", "kvt.cfg"],
        ["sidechannel", locked, "--key", key, "--config", "tref.cfg"],
        [*sweep, "--t", "350", "--config", "kvt.cfg"],
        [*sweep, "--config", "tref.cfg"],
        [*sweep, "--t", "350", "--config", "tref.cfg"],
        [*sweep, "--t", "nan"],
        ["bias-opt", "--t", "330", "--config", "kvt.cfg"],
        ["bias-opt", "--config", "tref.cfg"],
        ["bias-opt", "--t", "330", "--config", "tref.cfg"],
        ["bias-opt", "--t", "-5"],
        # t / t_ref or phi_t underflows to 0
        ["bias-opt", "--t", "5e-324"],
        [*sweep, "--t", "5e-324"],
        ["bias-opt", "--config", "tiny.cfg"],
    ]
    # an overflowing delay under a signature set, in both modes
    locked, key = ("synth_mix_camo8_random_0.2_5.bench",
                   "synth_mix_camo8_random_0.2_5.key")
    runs += [
        ["sidechannel", locked, "--key", key, "--config", "cload.cfg"],
        ["sidechannel", locked, "--key", key, "--mode", "aggregate-only",
         "--config", "cload.cfg"],
        # an overflowing overhead: the lock writes neither file
        ["lock", "src/vtcamo/benches/c17.bench", "--flavor", "camo8",
         "--budget", "1.0", "--out-bench", "L", "--out-key", "K", "--config",
         "area.cfg"],
        ["report", "c17_camo8_random_1.0_0.bench", "--config", "area.cfg"],
        # switch gate biases off the rails [0, vdd]
        ["bias-opt", "--window", "0.2", "--config", "rails.cfg"],
        ["sweep", "--hvt", "0.3:0.35", "--lvt", "0.3:0.35", "--vg-n", "-0.2"],
        ["sweep", "--hvt", "0.3:0.35", "--lvt", "0.3:0.35", "--vg-n", "1.5"],
    ]
    return runs + readme_argvs()


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


def run_matrix() -> tuple[list[dict], list[str]]:
    """Run the matrix in a temporary directory: each run's argv and
    digest, and each README ``python`` line that prints something else."""
    sys.path.insert(0, str(ROOT / "src"))
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            benches = Path("src", "vtcamo", "benches")
            benches.mkdir(parents=True)
            for stem in BENCHES:
                bench = ROOT / benches / f"{stem}.bench"
                Path(f"{stem}.bench").write_bytes(bench.read_bytes())
                (benches / f"{stem}.bench").write_bytes(bench.read_bytes())
            Path("c17_nor.bench").write_text(Path("c17.bench").read_text(
                ).replace("22 = NAND", "22 = NOR"))
            for name, text in FILES.items():
                Path(name).write_text(text)
            runs = [{"argv": argv, "digest": digest(argv)}
                    for argv in matrix()]
            wrong = readme_python()
        finally:
            os.chdir(old)
    return runs, wrong


def main() -> int:
    print(f"Python {platform.python_version()}")
    start = time.perf_counter()
    runs, wrong = run_matrix()
    print(f"{len(runs)} runs in {time.perf_counter() - start:.1f} s")
    for line in wrong:
        print(line)
    FIXTURE.write_text('{"runs": [\n' + ",\n".join(
        json.dumps(run, sort_keys=True) for run in runs) + "\n]}\n")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
