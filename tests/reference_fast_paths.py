"""The lock path's per-gate loops as they were before their fast
rewrites, kept as references for ``test_fast_paths.py``.

``reference_compile`` builds each gate's list of fanin op nets and folds
it, looking ops up by ``GateFunction`` member. ``reference_random_vectors``
calls ``randint(0, 1)`` once per bit. ``reference_overhead_report`` times
the netlist twice, once with unit delays and once with the cells' delay
multiples. ``reference_eligible_gates`` filters the gates through
``_camo_function``, which looked functions up by ``GateFunction`` member.
``reference_arrivals`` is ``IncrementalTiming``'s arrival pass with one
``_latest`` call per gate. ``reference_distinguishing_set`` searches the
subsets of ``LOCAL_VECTORS`` by comparing response tuples read off the
behavior tables. ``reference_find_sensitizing_vector`` runs both forced
passes for its one pattern, from the first block, and reads the flips
of every output. ``reference_truth_table``, ``reference_behavior_table``
and ``reference_code`` build a cell function's tables from one lambda
per two-input function and a branch per one-input function, and
``reference_decode`` finds the selected function with a loop over
``SELECTION_LVT`` and the tie state with an if-chain.
``reference_brute_force_transcript`` is brute force's query loop as it
was before it became one inline loop: each draw asks a per-vector query
step, which returns a transcript hit, asks the oracle while the budget
lasts, or ends the loop.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import or_

from vtcamo.attack import SensitizingVector
from vtcamo.camouflage import _CAMO_FOR_PLAIN, CostTable, OverheadReport
from vtcamo.cell import (_TIE_OFF, _TIE_ON, CAMOUFLAGEABLE, LOCAL_VECTORS,
                         NUM_SWITCHES, SELECTION_LVT, VT, CamoConfig,
                         CellFlavor, GateFunction, behavior_table)
from vtcamo.errors import (AttackTooLargeError, IndistinguishableError,
                           InvalidParameterError, MalformedConfigError,
                           UnresolvedFaninError, UnsupportedFunctionError)
from vtcamo.netlist import (_OPS, _PORT0, _UNKNOWN, EXHAUSTIVE_INPUT_LIMIT,
                            Gate, IncrementalTiming, Netlist, _Program,
                            all_vectors, forced_rails, random_vectors)


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
    camo = net.camo_gates()
    extra_area = extra_power = 0.0
    for g in camo:
        m = cost_table.for_flavor(g.flavor)
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
        camo_count=len(camo),
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


def reference_distinguishing_set(candidates):
    cand = sorted(candidates, key=lambda f: f.value)
    if len(cand) < 2:
        raise UnsupportedFunctionError(
            "need at least two candidate functions to distinguish")
    tables = {}
    for f in cand:
        if f not in CAMOUFLAGEABLE and f not in (GateFunction.NOT,
                                                 GateFunction.BUFF):
            raise UnsupportedFunctionError(
                f"{f!r} has no two-input cell behavior")
        tables[f] = behavior_table(f)
    for i, f in enumerate(cand):
        for g in cand[i + 1:]:
            if tables[f] == tables[g]:
                raise IndistinguishableError(
                    f"{f!r} and {g!r} have identical truth tables")
    for size in range(1, len(LOCAL_VECTORS) + 1):
        for combo in combinations(LOCAL_VECTORS, size):
            responses = {tuple(tables[f][v] for v in combo) for f in cand}
            if len(responses) == len(cand):
                return combo
    raise IndistinguishableError("no distinguishing set exists")


_TWO_INPUT_EVAL = {
    GateFunction.NAND: lambda a, b: 1 - (a & b),
    GateFunction.AND: lambda a, b: a & b,
    GateFunction.NOR: lambda a, b: 1 - (a | b),
    GateFunction.OR: lambda a, b: a | b,
    GateFunction.XOR: lambda a, b: a ^ b,
    GateFunction.XNOR: lambda a, b: 1 - (a ^ b),
}


def reference_truth_table(func: GateFunction) -> dict[tuple[int, ...], int]:
    if func in (GateFunction.INV, GateFunction.NOT):
        return {(0,): 1, (1,): 0}
    if func in (GateFunction.BUF, GateFunction.BUFF):
        return {(0,): 0, (1,): 1}
    if func not in _TWO_INPUT_EVAL:
        raise UnsupportedFunctionError(f"no truth table for {func!r}")
    f = _TWO_INPUT_EVAL[func]
    return {(a, b): f(a, b) for a in (0, 1) for b in (0, 1)}


def reference_behavior_table(func: GateFunction) -> dict[tuple[int, int], int]:
    if func in (GateFunction.INV, GateFunction.NOT):
        return {(a, b): 1 - b for a in (0, 1) for b in (0, 1)}
    if func in (GateFunction.BUF, GateFunction.BUFF):
        return {(a, b): b for a in (0, 1) for b in (0, 1)}
    return reference_truth_table(func)


def reference_code(func: GateFunction) -> int:
    table = reference_behavior_table(func)
    return sum(table[v] << k for k, v in enumerate(LOCAL_VECTORS))


def reference_decode(config: CamoConfig) -> GateFunction:
    if len(config.switch_vt) != NUM_SWITCHES:
        raise MalformedConfigError(
            f"expected {NUM_SWITCHES} switches, got {len(config.switch_vt)}")
    lvt = {i for i in range(1, 11) if config.switch_vt[i - 1] is VT.LVT}
    base = None
    for func, members in SELECTION_LVT.items():
        if lvt == set(members):
            base = func
            break
    if base is None:
        raise MalformedConfigError(
            f"selection switches {sorted(lvt)} do not pick one function")
    tie_bits = config.switch_vt[10:14]
    if tie_bits == _TIE_ON:
        tie = True
    elif tie_bits == _TIE_OFF:
        tie = False
    else:
        raise MalformedConfigError("tie switches 11..14 are inconsistent")
    if tie:
        if base is GateFunction.XNOR:
            func = GateFunction.INV
        elif base is GateFunction.XOR:
            func = GateFunction.BUF
        else:
            raise MalformedConfigError(
                f"input tie combined with {base!r} selection")
    else:
        func = base
    if func not in config.flavor.function_set:
        raise MalformedConfigError(
            f"{func!r} decoded from a {config.flavor!r} cell")
    return func


def reference_find_sensitizing_vector(net: Netlist, partial_assignment,
                                      target_gate: str, local_pattern):
    gate = net.gate(target_gate)
    if not gate.is_camo:
        raise InvalidParameterError(f"{target_gate!r} is not camouflaged")
    if local_pattern not in LOCAL_VECTORS:
        raise InvalidParameterError(f"bad local pattern {local_pattern!r}")
    if len(net.inputs) > EXHAUSTIVE_INPUT_LIMIT:
        raise AttackTooLargeError(
            f"{len(net.inputs)} inputs exceeds the sensitization search "
            f"limit of {EXHAUSTIVE_INPUT_LIMIT}")
    cone = net.fanin_cone(target_gate)
    unresolved = [g.gate_id for g in net.camo_gates()
                  if g.gate_id in cone and g.gate_id != target_gate
                  and g.gate_id not in partial_assignment]
    if unresolved:
        raise UnresolvedFaninError(
            f"fanin cone of {target_gate!r} has unresolved camouflaged "
            f"gates {sorted(unresolved)}")
    p0, p1 = local_pattern
    for words, rails0, rails1 in forced_rails(
            net, partial_assignment, target_gate, gate.fanins + net.outputs):
        local = rails0[0][p0] & rails0[1][p1]
        flips = [(z0 & ~o0 & o1 & ~z1) | (o0 & ~z0 & z1 & ~o1)
                 for (z0, o0), (z1, o1) in zip(rails0[2:], rails1[2:])]
        hit = local & reduce(or_, flips, 0)
        if hit:
            j = (hit & -hit).bit_length() - 1
            i = next(i for i, flip in enumerate(flips) if flip >> j & 1)
            return SensitizingVector(tuple([w >> j & 1 for w in words]), i,
                                     rails0[2 + i][1] >> j & 1,
                                     rails1[2 + i][1] >> j & 1)
    return None


def reference_brute_force_transcript(net: Netlist, oracle, pattern_source,
                                     query_budget, seed):
    """The transcript brute force asks of ``oracle``, vector: reply, in
    query order."""
    width = len(net.inputs)
    if pattern_source == "exhaustive":
        vectors = all_vectors(width)
    else:
        vectors = random_vectors(width, query_budget, seed)
    transcript = {}

    def query(vector):
        out = transcript.get(vector)
        exhausted = (query_budget is not None
                     and len(transcript) >= query_budget)
        if out is None and not exhausted:
            out = transcript[vector] = tuple(oracle(vector))
        return out

    for vec in vectors:
        if len(transcript) == 1 << width or query(vec) is None:
            break
    return transcript
