"""The lock path's per-gate loops as they were before their fast
rewrites, kept as references for ``test_fast_paths.py``.

``reference_compile`` builds each gate's list of fanin op nets and folds
it, looking ops up by ``GateFunction`` member. ``reference_random_vectors``
calls ``randint(0, 1)`` once per bit. ``reference_overhead_report`` times
the netlist twice, once with unit delays and once with the cells' delay
multiples. ``reference_eligible_gates`` filters the gates through
``_camo_function``, which looked functions up by ``GateFunction`` member.
``reference_arrivals`` is ``IncrementalTiming``'s arrival pass with one
``_latest`` call per gate.
"""

from __future__ import annotations

import random

from vtcamo.camouflage import _CAMO_FOR_PLAIN, CostTable, OverheadReport
from vtcamo.cell import CellFlavor, GateFunction
from vtcamo.netlist import (_OPS, _PORT0, _UNKNOWN, Gate, IncrementalTiming,
                            Netlist, _Program)


def reference_compile(net: Netlist) -> _Program:
    width = len(net.inputs)
    index = list(range(width)) + [0] * len(net.gates)
    ops = []
    for n in net._order:
        g = net.gates[n - width]
        fanins = [index[f] for f in net._fanins[n]]
        if g.flavor is not None:
            code, inverted = _UNKNOWN, False
        else:
            code, inverted = _OPS[g.func]
            if len(fanins) == 1:  # NOT, BUFF or a one-input AND/OR/XOR
                code = _PORT0
        a = fanins[0]
        if len(fanins) > 2:  # fold left through temporary nets
            for b in fanins[1:-1]:
                ops.append((code, False, a, b))
                a = width + len(ops) - 1
        ops.append((code, inverted, a, fanins[-1]))
        index[n] = width + len(ops) - 1
    return _Program(width, index, tuple(ops),
                    tuple(index[net._index[n]] for n in net.outputs))


def reference_random_vectors(width: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.randint(0, 1) for _ in range(width))


def reference_overhead_report(net: Netlist,
                              cost_table: CostTable | None = None
                              ) -> OverheadReport:
    cost_table = cost_table or CostTable()
    per_gate = {}
    extra_area = extra_power = 0.0
    for g in net.camo_gates():
        m = cost_table.for_flavor(g.flavor)
        per_gate[g.gate_id] = m
        extra_area += m.area - 1.0
        extra_power += m.power - 1.0
    total = len(net.gates)
    base = IncrementalTiming(net).delay()
    with_camo = IncrementalTiming(net, [
        1.0 if g.flavor is None else cost_table.for_flavor(g.flavor).delay
        for g in net.gates]).delay()
    delay_pct = 0.0
    if base > 0:
        delay_pct = 100.0 * (with_camo - base) / base
    return OverheadReport(
        area_pct=100.0 * extra_area / total if total else 0.0,
        power_pct=100.0 * extra_power / total if total else 0.0,
        delay_pct=delay_pct,
        gate_total=total,
        camo_count=len(per_gate),
        per_gate=per_gate,
    )


def _camo_function(gate: Gate, flavor: CellFlavor) -> GateFunction | None:
    """Camouflaged function that preserves a plain gate, or None."""
    func = _CAMO_FOR_PLAIN.get(gate.func)  # None for a camouflaged gate
    if len(gate.fanins) > 2 or func not in flavor.function_set:
        return None
    return func


def reference_eligible_gates(net: Netlist, flavor: CellFlavor) -> list[str]:
    return [g.gate_id for g in net.gates
            if _camo_function(g, flavor) is not None]


def _latest(arrival: list[float], fanins) -> float:
    """The latest arrival over ``fanins`` (-inf for none)."""
    when = float("-inf")
    for f in fanins:
        if arrival[f] > when:
            when = arrival[f]
    return when


def reference_arrivals(net: Netlist, delays=None) -> list[float]:
    """Arrival per net number: inputs at 0.0, each gate its delay (one per
    gate in file order, unit by default) after its latest fanin."""
    delays = [0.0] * len(net.inputs) + ([1.0] * len(net.gates)
                                        if delays is None else list(delays))
    arrival = [0.0] * len(net._names)
    for n in net._order:
        arrival[n] = _latest(arrival, net._fanins[n]) + delays[n]
    return arrival
