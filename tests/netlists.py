"""Netlist inputs for the tests: bundled bench texts and seeded random
DAGs. Plain Python, so the fixture writer ``tests/test_golden.py`` runs
without pytest; ``conftest.py`` re-exports both helpers."""

from __future__ import annotations

import random
from importlib.resources import files

from vtcamo.cell import GateFunction
from vtcamo.netlist import Gate, Netlist

_TWO_INPUT = (GateFunction.NAND, GateFunction.NOR, GateFunction.AND,
              GateFunction.OR, GateFunction.XOR, GateFunction.XNOR)
_ONE_INPUT = (GateFunction.NOT, GateFunction.BUFF)


def bench_text(name: str) -> str:
    return (files("vtcamo") / "benches" / name).read_text()


def random_netlist(n_inputs: int, n_gates: int, seed: int,
                   p_single: float = 0.15) -> Netlist:
    """Seeded random DAG of plain gates; sinks become the outputs."""
    rng = random.Random(seed)
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    nets = list(inputs)
    gates = []
    for k in range(n_gates):
        name = f"g{k:03d}"
        if rng.random() < p_single:
            func = rng.choice(_ONE_INPUT)
            fanins = (rng.choice(nets),)
        else:
            func = rng.choice(_TWO_INPUT)
            fanins = (rng.choice(nets), rng.choice(nets))
        gates.append(Gate(name, fanins, func=func))
        nets.append(name)
    driven = {f for g in gates for f in g.fanins}
    sinks = tuple(g.gate_id for g in gates if g.gate_id not in driven)
    outputs = sinks if sinks else (gates[-1].gate_id,)
    return Netlist(inputs, outputs, tuple(gates), (), ())
