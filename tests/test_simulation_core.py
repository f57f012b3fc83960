"""The bit-parallel dual-rail core against a scalar three-valued reference.

``reference_values`` evaluates one vector at a time with None for an
unknown value: a gate is known when every completion of its unknown
inputs gives the same output. Camouflaged cells use ``behavior_table``,
the cell's own truth table over its two physical ports. The properties
check ``simulate_words``, ``filter_assignments``, ``simulate`` and
``find_sensitizing_vector`` against it on generated locked netlists with
unresolved and forced gates.
"""

from __future__ import annotations

from itertools import product
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vtcamo import netlist
from vtcamo.attack import find_sensitizing_vector
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import CellFlavor, GateFunction, behavior_table
from vtcamo.errors import UnresolvedFaninError
from vtcamo.netlist import (
    Gate,
    Netlist,
    all_vectors,
    filter_assignments,
    simulate,
    simulate_words,
)

F = GateFunction
_PLAIN = {F.AND: all, F.OR: any, F.XOR: lambda bits: sum(bits) % 2,
          F.BUFF: lambda bits: bits[0]}
_NEGATED = {F.NAND: F.AND, F.NOR: F.OR, F.XNOR: F.XOR, F.NOT: F.BUFF}


def _gate_output(gate: Gate, func: GateFunction, bits) -> int:
    if gate.is_camo:
        return behavior_table(func)[tuple(bits)]
    base = _NEGATED.get(func, func)
    return int(_PLAIN[base](bits)) ^ (base is not func)


def reference_values(net: Netlist, vec, assignment, forced=None) -> dict:
    """Scalar three-valued value of every net for one vector."""
    values = dict(zip(net.inputs, vec))
    for g in net.topo_order:
        func = assignment.get(g.gate_id) if g.is_camo else g.func
        if forced and g.gate_id in forced:
            values[g.gate_id] = forced[g.gate_id]
        elif func is None:
            values[g.gate_id] = None
        else:
            options = [(0, 1) if values[f] is None else (values[f],)
                       for f in g.fanins]
            outs = {_gate_output(g, func, bits) for bits in product(*options)}
            values[g.gate_id] = outs.pop() if len(outs) == 1 else None
    return values


def reference_sensitizing(net, assignment, target, pattern):
    """First vector in counting order that observes one table entry."""
    f0, f1 = net.gate(target).fanins
    for vec in all_vectors(len(net.inputs)):
        v0 = reference_values(net, vec, assignment, {target: 0})
        if (v0[f0], v0[f1]) != pattern:
            continue
        v1 = reference_values(net, vec, assignment, {target: 1})
        for i, n in enumerate(net.outputs):
            a, b = v0[n], v1[n]
            if a is not None and b is not None and a != b:
                return vec, i, a, b
    return None


_FUNCS = (F.AND, F.OR, F.NAND, F.NOR, F.XOR, F.XNOR, F.NOT, F.BUFF)


@st.composite
def locked_cases(draw):
    """(locked netlist, key, partial assignment, forced gates)."""
    width = draw(st.integers(1, 6))
    nets = [f"i{k}" for k in range(width)]
    gates = []
    for k in range(draw(st.integers(1, 14))):
        func = draw(st.sampled_from(_FUNCS))
        arity = 1 if func in (F.NOT, F.BUFF) else draw(st.integers(2, 3))
        fanins = tuple(draw(st.sampled_from(nets)) for _ in range(arity))
        gates.append(Gate(f"g{k}", fanins, func=func))
        nets.append(f"g{k}")
    outputs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4,
                            unique=True))
    net = Netlist(tuple(nets[:width]), tuple(outputs), tuple(gates))
    flavor = draw(st.sampled_from(list(CellFlavor)))
    eligible = eligible_gates(net, flavor)
    chosen = draw(st.lists(st.sampled_from(eligible), unique=True,
                           max_size=5)) if eligible else []
    locked, key = apply_camouflage(net, chosen, flavor,
                                   decoy_seed=draw(st.none() | st.integers(0, 9)))
    functions = sorted(flavor.function_set, key=lambda f: f.value)
    assignment = {}
    for g in locked.camo_gates():
        func = draw(st.none() | st.sampled_from(functions))
        if func is not None:
            assignment[g.gate_id] = func
    forced = {}
    if draw(st.booleans()):
        forced[draw(st.sampled_from(nets[width:]))] = draw(st.integers(0, 1))
    return locked, key, assignment, forced


_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]))
def test_words_match_the_scalar_reference(case, block_log2):
    locked, _, assignment, forced = case
    vectors = list(all_vectors(len(locked.inputs)))
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        blocks = list(simulate_words(locked, assignment, forced))
    step = 1 << block_log2
    assert [first for first, _ in blocks] == list(range(0, len(vectors), step))
    for first, rails in blocks:
        for j, vec in enumerate(vectors[first:first + step]):
            want = reference_values(locked, vec, assignment, forced)
            for n, value in want.items():
                may0, may1 = rails[n][0] >> j & 1, rails[n][1] >> j & 1
                if value is None:
                    assert (may0, may1) == (1, 1), (n, vec)
                else:
                    assert (may0, may1) == (1 - value, value), (n, vec)


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]),
       st.randoms(use_true_random=False))
def test_filter_matches_the_scalar_reference(case, block_log2, rnd):
    locked, key, _, _ = case
    camo = locked.camo_gates()
    gate_ids = [g.gate_id for g in camo]
    spaces = [sorted(g.flavor.function_set, key=lambda f: f.value)
              for g in camo]
    space = list(product(*spaces))
    candidates = rnd.sample(space, min(12, len(space)))
    truth = {gid: e.function for gid, e in key.entries.items()}
    candidates.append(tuple(truth[gid] for gid in gate_ids))
    vectors = list(all_vectors(len(locked.inputs)))
    rnd.shuffle(vectors)
    vectors = vectors[:rnd.randint(1, len(vectors))]

    def outputs(assignment, vec):
        values = reference_values(locked, vec, assignment)
        return tuple(values[n] for n in locked.outputs)
    observed = [(vec, outputs(truth, vec)) for vec in vectors]
    want = [c for c in candidates
            if all(outputs(dict(zip(gate_ids, c)), vec) == out
                   for vec, out in observed)]
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        got = filter_assignments(locked, gate_ids, candidates, observed)
    assert got == want
    assert got[-1] == candidates[-1]


@_SETTINGS
@given(locked_cases())
def test_simulate_matches_the_reference_under_the_key(case):
    locked, key, _, _ = case
    assignment = {gid: e.function for gid, e in key.entries.items()}
    for vec in all_vectors(len(locked.inputs)):
        want = reference_values(locked, vec, assignment)
        assert simulate(locked, vec, key) == tuple(want[n]
                                                   for n in locked.outputs)


@_SETTINGS
@given(locked_cases(), st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
def test_sensitizing_vector_matches_the_scalar_search(case, pattern):
    locked, _, assignment, _ = case
    for g in locked.camo_gates():
        try:
            got = find_sensitizing_vector(locked, assignment, g.gate_id,
                                          pattern)
        except UnresolvedFaninError:
            continue
        want = reference_sensitizing(locked, assignment, g.gate_id, pattern)
        if want is None:
            assert got is None
        else:
            assert (got.vector, got.po_index, got.po_if_0,
                    got.po_if_1) == want
