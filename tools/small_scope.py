"""Check every attack on every small net against the key's class.

The README promises three things of an attack report: the true key
survives; ``unique`` leaves one joint assignment, the key; and the
survivors of ``equivalent_class`` are exactly the key's class. This tool
checks them on every net of a small scope, not on samples.

A net of the scope has ``--gates`` gates over ``--inputs`` inputs. Each
gate is one of the six two-input functions on a pair of distinct
earlier nets, or NOT/BUFF on one earlier net; the gates that no gate
reads are the outputs. Each net is locked with every flavor on every
nonempty subset of its eligible gates, with a seedless decoy and, where
an INV/BUF cell takes one, with decoy seed 0 too. Each locked net is
attacked by:

- sensitization, with and without flavor knowledge, and exhaustive
  brute force, each with no budget and with budgets of 0, 1 and 2
  queries;
- random brute force with ``2 ** inputs`` queries and seeds 0, 1 and 2.

The key's class is every joint assignment, over the attacker's own
candidate sets (each cell's flavor set, or every camouflageable
function without flavor knowledge), whose output words over the whole
input space are the key's. Every report must keep the key in each
gate's set; a ``unique`` one must hold the key alone; an
``equivalent_class`` one must hold the class's per-gate projections,
with ``2 ** final_log2`` its size. A run that raises is a mismatch too.
Standard library only, like ``tools/cli_matrix.py``::

    python3 tools/small_scope.py                        # 3 inputs, 2 gates
    python3 tools/small_scope.py --inputs 2 --gates 3

Each mismatch is printed with the locked net's ``.bench`` text, its key,
the attack and the report or error; the last line counts nets, attack
runs, mismatches and seconds. Exit status: 0 with no mismatch, 1
otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from itertools import combinations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vtcamo import attack, camouflage, netlist  # noqa: E402
from vtcamo.cell import CAMOUFLAGEABLE, CellFlavor, GateFunction  # noqa: E402
from vtcamo.netlist import Gate, Netlist  # noqa: E402

F = GateFunction
TWO_INPUT = (F.AND, F.NAND, F.OR, F.NOR, F.XOR, F.XNOR)
BUDGETS = (None, 0, 1, 2)


def nets(inputs: int, gates: int):
    """Every net of the scope, gates in file order."""
    names = [f"i{k}" for k in range(inputs)]

    def grow(built: list[Gate], avail: list[str]):
        if len(built) == gates:
            read = {f for g in built for f in g.fanins}
            yield Netlist(tuple(names), tuple(g.gate_id for g in built
                                              if g.gate_id not in read),
                          tuple(built))
            return
        gid = f"g{len(built)}"
        choices = [Gate(gid, pair, func=f) for pair in combinations(avail, 2)
                   for f in TWO_INPUT]
        choices += [Gate(gid, (n,), func=f) for n in avail
                    for f in (F.NOT, F.BUFF)]
        for gate in choices:
            yield from grow([*built, gate], [*avail, gid])

    yield from grow([], names)


def locks(net: Netlist):
    """(locked net, key) for every flavor, subset and decoy choice."""
    for flavor in CellFlavor:
        eligible = camouflage.eligible_gates(net, flavor)
        for size in range(1, len(eligible) + 1):
            for chosen in combinations(eligible, size):
                decoy = any(net.gate(g).func in (F.NOT, F.BUFF)
                            for g in chosen)
                for seed in (None, 0) if decoy else (None,):
                    yield camouflage.apply_camouflage(net, chosen, flavor,
                                                      seed)


def outputs(locked: Netlist, assignment) -> tuple[int, ...]:
    """Output words over the whole input space under ``assignment``."""
    prog = locked._program()
    words, mask = netlist._block_words(len(locked.inputs), 0)
    may1 = netlist._run(netlist._resolve(locked, assignment), words, mask)[1]
    return tuple(may1[n] for n in prog.outputs)


def key_class(locked: Netlist, key, sets: dict) -> list[dict]:
    """The joint assignments over ``sets`` that behave as ``key`` does."""
    gids = sorted(sets)
    want = outputs(locked, [(g, key.entries[g].function) for g in gids])
    return [dict(zip(gids, funcs))
            for funcs in product(*(sorted(sets[g]) for g in gids))
            if outputs(locked, list(zip(gids, funcs))) == want]


def attacks(width: int):
    """(label, knowledge, run) per attack; ``run(net, oracle)``."""
    for budget in BUDGETS:
        for knows in (True, False):
            yield (f"sensitization knowledge={knows} budget={budget}", knows,
                   lambda net, oracle, k=knows, b=budget:
                   attack.sensitization_attack(net, oracle, k, b))
        yield (f"brute exhaustive budget={budget}", True,
               lambda net, oracle, b=budget: attack.brute_force_attack(
                   net, oracle, "exhaustive", b))
    for seed in (0, 1, 2):
        yield (f"brute random budget={1 << width} seed={seed}", True,
               lambda net, oracle, s=seed: attack.brute_force_attack(
                   net, oracle, "random", 1 << width, s))


def problem(report, key, klass: list[dict]) -> str | None:
    """What the report gets wrong about the key's class, if anything."""
    truth = {gid: e.function for gid, e in key.entries.items()}
    if any(f not in report.resolved[gid] for gid, f in truth.items()):
        return "the key did not survive"
    if report.status == "unique" and any(
            s != {truth[gid]} for gid, s in report.resolved.items()):
        return "unique, but not the key alone"
    if report.status == "equivalent_class":
        if any(s != {a[gid] for a in klass}
               for gid, s in report.resolved.items()):
            return f"sets are not the projections of {len(klass)} members"
        if report.candidate_space_log2_final != math.log2(len(klass)):
            return f"final log2 is not that of {len(klass)} members"
    return None


def check(inputs: int, gates: int) -> tuple[int, int, int]:
    """Run the scope; print each mismatch. Returns nets, runs, mismatches."""
    count = runs = bad = 0
    for net in nets(inputs, gates):
        count += 1
        for locked, key in locks(net):
            classes = {}  # by flavor knowledge
            for label, knows, run in attacks(inputs):
                if knows not in classes:
                    classes[knows] = key_class(locked, key, {
                        g.gate_id: g.flavor.function_set if knows
                        else CAMOUFLAGEABLE for g in locked.camo_gates()})
                runs += 1
                try:
                    report = run(locked, netlist.CountingOracle(locked, key))
                    wrong = problem(report, key, classes[knows])
                except Exception as exc:  # noqa: BLE001 - a run that raises
                    report, wrong = None, f"raised {exc!r}"
                if wrong:
                    bad += 1
                    print(f"MISMATCH {label}: {wrong}\n"
                          f"{netlist.serialize_bench(locked)}key:\n"
                          f"{key.serialize()}\nreport: {report}\n")
    return count, runs, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int, default=3)
    parser.add_argument("--gates", type=int, default=2)
    args = parser.parse_args(argv)
    if args.inputs < 1 or args.gates < 1:
        parser.error("--inputs and --gates must be at least 1")
    start = time.perf_counter()
    count, runs, bad = check(args.inputs, args.gates)
    print(f"{args.inputs} inputs, {args.gates} gates: {count} nets, "
          f"{runs} attack runs, {bad} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
