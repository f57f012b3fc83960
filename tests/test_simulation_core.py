"""The bit-parallel dual-rail core against a scalar three-valued reference.

``reference_values`` evaluates one vector at a time with None for an
unknown value: a gate is known when every completion of its unknown
inputs gives the same output. Camouflaged cells use ``behavior_table``,
the cell's own truth table over its two physical ports. The properties
check ``forced_rails`` (every net, with a drawn gate forced to 0 and
to 1), ``OutputTables.replay``, ``simulate``, ``CountingOracle``,
``check_equivalence`` and ``find_sensitizing_vector`` against it on
generated locked netlists with unresolved gates, over blocks of 2, 4 and
4,096 vectors; the oracle is fed sequential, repeated and block-hopping
streams.

The depth-first joint replay behind ``OutputTables`` is also checked
against ``reference_filter``, the per-candidate filter it replaced: each
candidate's ops resolved on their own and the whole netlist run once per
candidate, over the product of per-gate choices of up to MAX_BRUTE_GATES
cells, also on whole-space transcripts in counting order (whose input
columns the replay does not pack) and shuffled. The table keeps its
candidates as mixed-radix indices in slot order, so survivors are
compared with the reference as sorted lists. Its program, sorted by
slot level, must stay topological and give every net the rails of the
compiled program; on a hand-built net, a group's run holds only the
logic its slot reaches, and a wrong output prunes a group before its
deeper slots run. The oracle refuses the same vectors before and after
its reply table fills, and a table hit is answered with no width or bit
check. Up to ``_BLOCK_LOG2`` inputs ``all_vectors`` hands out the tuples
of one shared table, which attacks leave as built; on either side of
that bound the oracle's table and the replay's three whole-space paths
agree with one-vector runs and the per-candidate filter.
"""

from __future__ import annotations

from itertools import product
from operator import is_
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vtcamo
from conftest import random_netlist
from vtcamo import attack, netlist
from vtcamo.attack import (MAX_BRUTE_GATES, brute_force_attack,
                           find_sensitizing_vector, sensitization_attack)
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import CellFlavor, GateFunction, behavior_table
from vtcamo.errors import InputWidthError, UnresolvedFaninError
from vtcamo.netlist import (
    CountingOracle,
    Gate,
    Netlist,
    OutputTables,
    all_vectors,
    check_equivalence,
    forced_rails,
    simulate,
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
def locked_cases(draw, max_cells=5):
    """(plain netlist, its locked copy, key, partial assignment, a gate)."""
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
                           max_size=max_cells)) if eligible else []
    locked, key = apply_camouflage(net, chosen, flavor,
                                   decoy_seed=draw(st.none() | st.integers(0, 9)))
    functions = sorted(flavor.function_set, key=lambda f: f.value)
    assignment = {}
    for g in locked.camo_gates():
        func = draw(st.none() | st.sampled_from(functions))
        if func is not None:
            assignment[g.gate_id] = func
    return net, locked, key, assignment, draw(st.sampled_from(nets[width:]))


_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]))
def test_words_match_the_scalar_reference(case, block_log2):
    _, locked, _, assignment, target = case
    nets = locked.inputs + tuple(g.gate_id for g in locked.gates)
    vectors = list(all_vectors(len(locked.inputs)))
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        blocks = list(forced_rails(locked, assignment, target, nets))
    step = min(1 << block_log2, len(vectors))
    assert len(blocks) == len(vectors) // step
    for k, (words, *forcings) in enumerate(blocks):
        # the input words decode to this block's vectors and no others
        assert len(words) == len(locked.inputs)
        assert all(w >> step == 0 for w in words)
        for j, vec in enumerate(vectors[k * step:(k + 1) * step]):
            assert tuple(w >> j & 1 for w in words) == vec
            for bit, rails in enumerate(forcings):
                want = reference_values(locked, vec, assignment,
                                        {target: bit})
                for n, (may0, may1) in zip(nets, rails):
                    value = want[n]
                    got = (may0 >> j & 1, may1 >> j & 1)
                    if value is None:
                        assert got == (1, 1), (n, vec, bit)
                    else:
                        assert got == (1 - value, value), (n, vec, bit)


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]),
       st.randoms(use_true_random=False))
def test_filter_matches_the_scalar_reference(case, block_log2, rnd):
    _, locked, key, _, _ = case
    truth = {gid: e.function for gid, e in key.entries.items()}
    choices, size = {}, 1
    for g in rnd.sample(locked.camo_gates(), len(locked.camo_gates())):
        others = sorted(g.flavor.function_set - {truth[g.gate_id]},
                        key=lambda f: f.value)
        picked = rnd.sample(others, rnd.randint(0, min(2, 16 // size - 1)))
        choices[g.gate_id] = [truth[g.gate_id], *picked]
        size *= len(choices[g.gate_id])
    gate_ids = list(choices)
    candidates = list(product(*choices.values()))
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
        got = sorted(OutputTables(locked, choices).replay(
            dict(observed)).survivors(gate_ids))
    assert got == sorted(want)
    assert candidates[0] in got  # the truth


@_SETTINGS
@given(locked_cases())
def test_simulate_matches_the_reference_under_the_key(case):
    _, locked, key, _, _ = case
    assignment = {gid: e.function for gid, e in key.entries.items()}
    for vec in all_vectors(len(locked.inputs)):
        want = reference_values(locked, vec, assignment)
        assert simulate(locked, vec, key) == tuple(want[n]
                                                   for n in locked.outputs)


@_SETTINGS
@given(locked_cases(), st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
       st.sampled_from([1, 2, 12]))
def test_sensitizing_vector_matches_the_scalar_search(case, pattern,
                                                      block_log2):
    _, locked, _, assignment, _ = case
    for g in locked.camo_gates():
        try:
            with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
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


def _streams(vectors, step):
    """Sequential, repeated and block-hopping orders of ``vectors``."""
    hopping = sorted(range(len(vectors)), key=lambda i: (i % step, i))
    return {"sequential": vectors,
            "repeated": [v for v in vectors for _ in range(9)],
            "hopping": [vectors[i] for i in hopping]}


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]))
def test_oracle_matches_the_reference_and_counts_every_call(case,
                                                            block_log2):
    _, locked, key, _, _ = case
    assignment = {gid: e.function for gid, e in key.entries.items()}
    vectors = list(all_vectors(len(locked.inputs)))
    want = {}
    for vec in vectors:
        values = reference_values(locked, vec, assignment)
        want[vec] = tuple(values[n] for n in locked.outputs)
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        for name, stream in _streams(vectors, 1 << block_log2).items():
            oracle = CountingOracle(locked, key)
            for vec in stream:
                assert oracle(vec) == want[vec], (name, vec)
            assert oracle(vectors[0]) == oracle(vectors[0])
            assert oracle.query_count == len(stream) + 2


def _run_masks(oracle, stream, want):
    """The mask of every _run call the oracle makes answering ``stream``."""
    with mock.patch.object(netlist, "_run", wraps=netlist._run) as run:
        for vec in stream:
            assert oracle(vec) == want[vec], vec
    return [call.args[2] for call in run.call_args_list]


def test_oracle_reads_a_table_only_when_one_block_is_the_whole_space(
        c17, synth_wide):
    # c17's 5 inputs fit in one block: the second query runs the whole
    # space once and every later one is a lookup
    vectors = list(all_vectors(len(c17.inputs)))
    want = {vec: simulate(c17, vec) for vec in vectors}
    oracle = CountingOracle(c17)
    assert _run_masks(oracle, vectors[::-1] * 2, want) == [1, (1 << 32) - 1]
    assert oracle.query_count == 64
    # with blocks of 4 vectors each query runs its one vector
    with mock.patch.object(netlist, "_BLOCK_LOG2", 2):
        oracle = CountingOracle(c17)
        assert _run_masks(oracle, vectors, want) == [1] * len(vectors)

    # synth_wide's 16 inputs span 16 blocks: every query, sparse or in a
    # row, runs its one vector, as it would without tables
    width = len(synth_wide.inputs)
    assert width > netlist._BLOCK_LOG2
    vectors = list(all_vectors(width))
    step = 1 << netlist._BLOCK_LOG2
    blocks = len(vectors) // step
    hopping = [vectors[(i % blocks) * step + i] for i in range(200)]
    in_a_row = vectors[3 * step:3 * step + 20]
    stream = hopping + in_a_row
    want = {vec: simulate(synth_wide, vec) for vec in stream}
    oracle = CountingOracle(synth_wide)
    assert _run_masks(oracle, stream, want) == [1] * len(stream)
    assert oracle.query_count == len(stream)


def test_one_oracle_class_and_simulate_is_its_one_call_case(c17):
    assert vtcamo.CountingOracle is netlist.CountingOracle
    assert not hasattr(attack, "CountingOracle")  # not re-exported
    # a fresh oracle per call: one one-vector run each, never a table
    vectors = list(all_vectors(len(c17.inputs)))
    want = {vec: reference_values(c17, vec, {}) for vec in vectors}
    with mock.patch.object(netlist, "_run", wraps=netlist._run) as run:
        for vec in vectors:
            assert simulate(c17, vec) == tuple(want[vec][n]
                                               for n in c17.outputs)
    assert [call.args[2] for call in run.call_args_list] == [1] * 32


def test_oracle_keeps_a_table_only_while_its_reply_dict_fits(c17):
    # c17's dict holds 32 vectors, each 64 bits per input and output bit
    # plus 20 words of overhead
    footprint = 64 * (5 + 2 + 20) << 5
    vectors = list(all_vectors(len(c17.inputs)))
    want = {vec: simulate(c17, vec) for vec in vectors}
    for bits, masks in ((footprint - 1, [1] * 64),
                        (footprint, [1, (1 << 32) - 1])):
        with mock.patch.object(netlist, "_TABLE_BITS", bits):
            oracle = CountingOracle(c17)
            assert _run_masks(oracle, vectors[::-1] * 2, want) == masks
        assert oracle.query_count == 64


#: c17 vectors the oracle refuses: an unhashable bit, a NaN bit, a short
#: vector and a 2 bit.
_REFUSED = [(1, [1], 0, 0, 0), (float("nan"), 0, 0, 0, 0), (0, 0, 0, 0),
            (0, 2, 0, 0, 0)]


def test_oracle_refuses_the_same_vectors_once_its_table_is_filled(c17):
    vectors = list(all_vectors(len(c17.inputs)))
    want = {vec: simulate(c17, vec) for vec in vectors}
    oracle = CountingOracle(c17)
    # no table yet, then the first run, then the second run fills it
    for filled, vec in ((0, None), (0, vectors[5]), (32, vectors[9])):
        if vec is not None:
            assert oracle(vec) == want[vec]
        assert len(oracle._replies) == filled
        for vector in _REFUSED:
            with pytest.raises(InputWidthError):
                oracle(vector)
    # True/False and 0.0/1.0 bits still answer, from the table
    for vec in vectors:
        assert oracle(tuple(map(bool, vec))) == want[vec]
        assert oracle(tuple(map(float, vec))) == want[vec]
    assert oracle.query_count == 3 * len(_REFUSED) + 2 + 2 * len(vectors)


def test_oracle_table_hit_makes_no_width_or_bit_check(c17):
    vectors = list(all_vectors(len(c17.inputs)))
    oracle = CountingOracle(c17)
    oracle(vectors[0])
    oracle(vectors[1])  # the second run fills the table
    # under a wrong width every width or bit check refuses: a hit makes none
    with mock.patch.object(oracle, "_width", 99):
        for vec in vectors:
            assert oracle(vec) == simulate(c17, vec)
        with pytest.raises(InputWidthError, match="^expected 99 input bits"):
            oracle((0, 2, 0, 0, 0))  # a miss is checked
    assert oracle.query_count == 3 + len(vectors)


_TOGGLED = {**_NEGATED, **{base: neg for neg, base in _NEGATED.items()}}


@_SETTINGS
@given(locked_cases(), st.sampled_from([1, 2, 12]), st.integers(0, 13))
def test_equivalence_matches_the_scalar_reference(case, block_log2, pick):
    net, locked, key, _, _ = case
    width = len(net.inputs)
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        verdict = check_equivalence(net, locked, None, key)
    assert verdict.equivalent and verdict.vectors_checked == 2 ** width

    # a plain copy with one gate's output negated: the counterexample is
    # the first vector where the scalar reference sees different outputs
    gates = list(net.gates)
    g = gates[pick % len(gates)]
    gates[pick % len(gates)] = Gate(g.gate_id, g.fanins, func=_TOGGLED[g.func])
    mutant = Netlist(net.inputs, net.outputs, tuple(gates))
    assignment = {gid: e.function for gid, e in key.entries.items()}
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        verdict = check_equivalence(mutant, locked, None, key)
    for count, vec in enumerate(all_vectors(width), start=1):
        a = reference_values(mutant, vec, {})
        b = reference_values(locked, vec, assignment)
        out_a = tuple(a[n] for n in net.outputs)
        out_b = tuple(b[n] for n in net.outputs)
        if out_a != out_b:
            assert (verdict.equivalent, verdict.vectors_checked,
                    verdict.counterexample, verdict.outputs_a,
                    verdict.outputs_b) == (False, count, vec, out_a, out_b)
            break
    else:
        assert verdict.equivalent and verdict.vectors_checked == 2 ** width


def reference_outputs(net, gate_ids, candidate, fixed, words, mask):
    """Output words of one candidate, its ops resolved and run on their own."""
    ops = netlist._resolve(net, [*fixed.items(), *zip(gate_ids, candidate)])
    may1 = netlist._run(ops, words, mask)[1]
    return [may1[i] for i in net._program().outputs]


def reference_filter(net, gate_ids, candidates, observations, fixed):
    """The per-candidate filter: every candidate runs the whole netlist once
    per block of packed observations; survivors keep their order."""
    survivors = list(candidates)
    for (_, words, mask), (_, expected, _) in zip(
            netlist._blocks(len(net.inputs), [v for v, _ in observations]),
            netlist._blocks(len(net.outputs), [o for _, o in observations])):
        survivors = [c for c in survivors if expected == reference_outputs(
            net, gate_ids, c, fixed, words, mask)]
    return survivors


@st.composite
def replay_cases(draw):
    """A locked netlist, gate ids, choices, fixed cells, observations.

    Up to MAX_BRUTE_GATES cells; each is a candidate slot, fixed or left
    unknown. ``choices`` maps each slot's gate to a draw from its function
    set, the gates in any order; ``gate_ids`` lists them in that order.
    Observed outputs are those of one candidate of the product of the
    choices, so some survive.
    """
    rnd = draw(st.randoms(use_true_random=False))
    width = draw(st.integers(1, 5))
    cells = draw(st.integers(0, MAX_BRUTE_GATES))
    nets = [f"i{k}" for k in range(width)]
    gates = []
    for k in range(3 * cells + draw(st.integers(1, 4))):
        func = rnd.choice(_FUNCS)
        arity = 1 if func in (F.NOT, F.BUFF) else 2
        gates.append(Gate(f"g{k}", tuple(rnd.choices(nets, k=arity)),
                          func=func))
        nets.append(f"g{k}")
    outputs = rnd.sample(nets, rnd.randint(1, min(4, len(nets))))
    net = Netlist(tuple(nets[:width]), tuple(outputs), tuple(gates))
    flavor = draw(st.sampled_from(list(CellFlavor)))
    eligible = eligible_gates(net, flavor)
    locked, key = apply_camouflage(
        net, rnd.sample(eligible, min(cells, len(eligible))), flavor,
        decoy_seed=rnd.randint(0, 9))
    gate_ids, fixed = [], {}
    for g in locked.camo_gates():
        role = rnd.choice(["candidate", "candidate", "fixed", "unknown"])
        if role == "candidate":
            gate_ids.append(g.gate_id)
        elif role == "fixed":
            fixed[g.gate_id] = key.entries[g.gate_id].function
    rnd.shuffle(gate_ids)
    choices, size = {}, 1
    for gid in gate_ids:
        funcs = sorted(locked.gate(gid).flavor.function_set,
                       key=lambda f: f.value)
        count = min(rnd.randint(1, 3), max(1, 512 // size))
        choices[gid] = rnd.sample(funcs, count)
        size *= count
    vectors = list(all_vectors(width))
    rnd.shuffle(vectors)
    vectors = vectors[:rnd.randint(1, len(vectors))]
    source = [rnd.choice(funcs) for funcs in choices.values()]
    observed = [(vec, tuple(reference_outputs(locked, gate_ids, source,
                                              fixed, vec, 1)))
                for vec in vectors]
    return locked, gate_ids, choices, fixed, observed


def replay_survivors(tables, gate_ids, observed) -> list:
    """Sorted survivors of a replay: the table orders items by slot."""
    return sorted(tables.replay(dict(observed)).survivors(gate_ids))


@_SETTINGS
@given(replay_cases(), st.sampled_from([1, 2, 12]))
def test_replay_matches_the_per_candidate_filter(case, block_log2):
    locked, gate_ids, choices, fixed, observed = case
    tables = OutputTables(locked, choices, fixed)
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        got = replay_survivors(tables, gate_ids, observed)
        want = reference_filter(locked, gate_ids,
                                product(*choices.values()), observed, fixed)
    assert got == sorted(want)
    assert got  # the candidate the outputs came from survives
    # one gate's survivors are its distinct functions, each once
    for k, gid in enumerate(gate_ids):
        assert sorted(tables.survivors([gid])) == sorted(
            {(c[k],) for c in want})


def test_a_fresh_table_is_a_range_and_keep_leaves_ascending_ints():
    net = _chain(9)  # eight two-input gates
    locked, _ = apply_camouflage(net, [g.gate_id for g in net.gates],
                                 CellFlavor.CAMO8)
    funcs = sorted(CellFlavor.CAMO8.function_set)
    gate_ids = [g.gate_id for g in net.gates]  # in slot order
    tables = OutputTables(locked, {g: funcs for g in gate_ids[::-1]})
    assert tables.items == range(8 ** 8)
    tables.keep(map({1, 8 ** 7 + 2, 8 ** 8 - 1}.__contains__, tables.items))
    assert tables.items == [1, 8 ** 7 + 2, 8 ** 8 - 1]
    # the first slot is the most significant digit
    first, second, third, last = *funcs[:3], funcs[-1]
    assert list(tables.survivors(gate_ids)) == [
        (first,) * 7 + (second,), (second,) + (first,) * 6 + (third,),
        (last,) * 8]
    assert list(tables.survivors(gate_ids[:1])) == [
        (first,), (second,), (last,)]


def reference_levels(prog, slots) -> list:
    """Per op: a slot's rank in ``slots`` (op order, from 1), else the
    deepest level among its fanins (an input's is 0)."""
    level = [0] * prog.width
    for k, (_, _, a, b) in enumerate(prog.ops):
        level.append(slots.index(k) + 1 if k in slots
                     else max(level[a], level[b]))
    return level[prog.width:]


@_SETTINGS
@given(replay_cases())
def test_leveled_program_keeps_every_nets_rails(case):
    """Under a full assignment, the head and one segment per slot are the
    program's ops sorted stably by level, still topological, and each net
    has the rails it has in the program as compiled."""
    locked, gate_ids, choices, fixed, _ = case
    prog, width = locked._program(), len(locked.inputs)
    slots = sorted(netlist._op(locked, gid) for gid in gate_ids)
    level = reference_levels(prog, slots)
    order = sorted(range(len(prog.ops)), key=level.__getitem__)
    tables = OutputTables(locked, choices, fixed)
    words, mask = netlist._block_words(width, 0)
    for i, candidate in zip(tables.items[:4], tables.survivors(gate_ids)):
        ops = [*tables._head]
        for segments, step in zip(tables._segments, tables._steps):
            ops += segments[i // step % len(segments)]
        for p, (_, _, a, b) in enumerate(ops):
            assert a < width + p and b < width + p
        want = netlist._resolve(locked, [*fixed.items(),
                                         *zip(gate_ids, candidate)])
        old = netlist._run(want, words, mask)
        new = netlist._run(ops, words, mask)
        for rails, was in zip(new, old):
            assert rails[:width] == was[:width]
            assert rails[width:] == [was[width + k] for k in order]
        assert [new[1][n] for n in tables._outputs] == [
            old[1][n] for n in prog.outputs]


def _cone_net() -> Netlist:
    """Two CAMO8 slots; after the second in file order, logic that reads
    only the first, ending in output y; z reads the second."""
    camo = CellFlavor.CAMO8
    return Netlist(("a", "b", "c"), ("y", "z"), (
        Gate("s1", ("a", "b"), flavor=camo),
        Gate("p", ("s1", "c"), func=F.AND),
        Gate("s2", ("b", "c"), flavor=camo),
        Gate("r", ("p", "c"), func=F.XOR),
        Gate("y", ("r", "a"), func=F.NAND),
        Gate("z", ("s2", "a"), func=F.OR)))


def test_each_group_runs_only_the_logic_its_slot_reaches():
    net = _cone_net()
    tables = OutputTables(net, {"s2": [F.AND, F.OR], "s1": [F.NAND, F.NOR]})
    cone = netlist.reachable(net._fanouts, net._index["s2"])
    # a=1, b=0, c=1: y is s1, so NOR's y is wrong; z is 1 for both s2s
    for expected, depths in ((None, [0, 1, 2, 2, 1, 2, 2]),
                             ([1, 1], [0, 1, 2, 2, 1])):
        with mock.patch.object(netlist, "_run", wraps=netlist._run) as run:
            rows = tables.run([1, 0, 1], 1, expected)
        sizes = [len(call.args[0]) for call in run.call_args_list]
        # the head is empty; the first segment holds s1, p, r and y, and
        # each leaf's segment only s2 and z, the fanout cone of s2
        assert sizes == [(0, 4, len(cone))[d] for d in depths]
        assert rows == ([[1, 1]] * 2 + [[0, 1]] * 2 if expected is None
                        else [True, True, False, False])


def _whole_space(locked, gate_ids, source, fixed) -> list:
    """Every vector in counting order, with ``source``'s outputs."""
    return [(vec, tuple(reference_outputs(locked, gate_ids, source, fixed,
                                          vec, 1)))
            for vec in all_vectors(len(locked.inputs))]


@_SETTINGS
@given(replay_cases(), st.sampled_from([1, 2, 12]),
       st.randoms(use_true_random=False))
def test_whole_space_replay_matches_the_per_candidate_filter(case,
                                                             block_log2, rnd):
    locked, gate_ids, choices, fixed, _ = case
    candidates = list(product(*choices.values()))
    observed = _whole_space(locked, gate_ids, rnd.choice(candidates), fixed)
    shuffled = rnd.sample(observed, len(observed))
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        for order in (observed, shuffled):
            got = replay_survivors(OutputTables(locked, choices, fixed),
                                   gate_ids, order)
            assert got == sorted(reference_filter(locked, gate_ids,
                                                  candidates, order, fixed))
            assert got


def _c17_tables(c17):
    """Tables over every assignment of two CAMO8 cells on c17, the true
    one and the whole space with its outputs."""
    locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
    gate_ids = sorted(key.entries)
    source = tuple(key.entries[g].function for g in gate_ids)
    tables = OutputTables(locked, {
        g: sorted(locked.gate(g).flavor.function_set) for g in gate_ids})
    return tables, gate_ids, source, _whole_space(locked, gate_ids, source,
                                                  {})


def test_whole_space_replay_packs_no_input_column(c17):
    for reverse, columns in ((False, 2), (True, 5 + 2)):
        tables, gate_ids, source, observed = _c17_tables(c17)
        with mock.patch.object(netlist, "_word", wraps=netlist._word) as word:
            tables.replay(dict(observed[::-1] if reverse else observed))
        assert word.call_count == columns
        assert source in tables.survivors(gate_ids)


@pytest.mark.parametrize("shuffled", [False, True])
def test_replay_refuses_a_reply_bit_of_2(c17, shuffled):
    tables, _, _, observed = _c17_tables(c17)
    if shuffled:
        observed = observed[7:] + observed[:7]
    vec, out = observed[12]
    observed[12] = vec, (out[0], 2)
    # one block: the error names the second output's column, last vector
    # first, as packing it always has
    column = tuple(out[1] for _, out in observed)[::-1]
    with pytest.raises(InputWidthError) as err:
        tables.replay(dict(observed))
    assert str(err.value) == f"bits must be 0/1: {column!r}"


@_SETTINGS
@given(replay_cases(), st.sampled_from([1, 2, 12]),
       st.randoms(use_true_random=False))
def test_tables_match_per_candidate_runs(case, block_log2, rnd):
    locked, gate_ids, choices, fixed, _ = case
    vectors = list(all_vectors(len(locked.inputs)))
    stream = vectors + rnd.sample(vectors, len(vectors))
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        tables = OutputTables(locked, choices, fixed)
        items = list(tables.survivors(gate_ids))
        assert sorted(items) == sorted(product(*choices.values()))
        for i, vec in enumerate(stream):
            want = [tuple(reference_outputs(locked, gate_ids, c, fixed,
                                            vec, 1)) for c in items]
            # each candidate's own reply, then one that no candidate gives
            absent = [r for r in product((0, 1), repeat=len(locked.outputs))
                      if r not in want][:1]
            for out in [*dict.fromkeys(want), *absent]:
                assert tables.matches(vec, out) == [w == out for w in want]
            if i == len(vectors):  # drop some candidates half way
                keep = [rnd.random() < 0.7 for _ in items]
                tables.keep(keep)
                items = [c for c, k in zip(items, keep) if k]
                assert list(tables.survivors(gate_ids)) == items
        rows = [tuple(tuple(reference_outputs(
            locked, gate_ids, c, fixed, words, mask)) for _, words, mask
            in netlist._blocks(len(locked.inputs))) for c in items]
        assert tables.agree(len(items)) == (len(set(rows)) <= 1)
        # survivors that agree on every vector: a reply keeps all or none,
        # and the tables know that no vector tells them apart
        same = [row == rows[0] for row in rows]
        tables.keep(same)
        items = [c for c, k in zip(items, same) if k]
        for vec in vectors if items else ():
            want = tuple(reference_outputs(locked, gate_ids, items[0], fixed,
                                           vec, 1))
            absent = next(r for r in product((0, 1), repeat=len(want))
                          if r != want)
            assert tables.matches(vec, want) == [True] * len(items)
            assert tables.matches(vec, absent) == [False] * len(items)
            assert tables._differ in (None, 0)


def _chain(width: int, outputs: int = 1) -> Netlist:
    """A netlist folding ``width`` inputs through alternating XOR/AND."""
    nets = [f"i{k}" for k in range(width)]
    gates, prev = [], nets[0]
    for k, n in enumerate(nets[1:]):
        func = (F.XOR, F.AND, F.OR)[k % 3]
        gates.append(Gate(f"g{k}", (prev, n), func=func))
        prev = f"g{k}"
    outs = [g.gate_id for g in gates][-outputs:] if outputs else []
    return Netlist(tuple(nets), tuple(outs), tuple(gates))


_BAD_BITS = (2, -1, None, 0.5, "1", (1,))


def _check_oracle(net, stream):
    """Replies equal simulate, every call counts, bad vectors raise."""
    want = {vec: simulate(net, vec) for vec in set(stream)}
    first = stream[0]
    bad = [(0, *first)]
    if first:
        bad += [first[1:], *((bit, *first[1:]) for bit in _BAD_BITS)]
    oracle = CountingOracle(net)
    for i, vec in enumerate(stream):
        if i < 2:  # before any reply, and once a table would be built
            for vector in bad:
                with pytest.raises(InputWidthError):
                    oracle(vector)
        # a list and a generator read as their tuple; the first two calls
        # are the one before a reply table and the one that builds it
        assert oracle(list(vec)) == want[vec], vec
        assert oracle(bit for bit in vec) == want[vec], vec
        assert oracle(vec) == want[vec], vec
        # True/False and 0.0/1.0 bits read as 0/1, as in simulate
        assert oracle(tuple(map(bool, vec))) == want[vec]
        assert oracle(tuple(map(float, vec))) == want[vec]
    assert oracle.query_count == 5 * len(stream) + 2 * len(bad)


@pytest.mark.parametrize("width, outputs", [
    (0, 0), (3, 0), (netlist._BLOCK_LOG2, 2), (netlist._BLOCK_LOG2 + 1, 1)],
    ids=["no-inputs", "no-outputs", "one-block", "two-blocks"])
def test_oracle_edge_cases_match_simulate(width, outputs):
    net = _chain(width, outputs) if width else Netlist((), (), ())
    vectors = list(all_vectors(width))
    _check_oracle(net, vectors[::-1] + vectors[:3])


def _ten_inputs():
    """A 10-input net with three CAMO8 cells, and its key."""
    net = random_netlist(10, 40, seed=7)
    return apply_camouflage(net, eligible_gates(net, CellFlavor.CAMO8)[:3],
                            CellFlavor.CAMO8)


def _counting(width: int) -> list:
    return list(product((0, 1), repeat=width))


@pytest.mark.parametrize("block_log2", [1, 2, 12])
def test_vectors_up_to_a_block_are_one_shared_table(c17, block_log2):
    nets = [apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8),
            _ten_inputs()]
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        for width in range(14):
            assert list(all_vectors(width)) == _counting(width)
            if width <= block_log2:  # the same tuple objects on every call
                assert all(map(is_, all_vectors(width), all_vectors(width)))
        for locked, key in nets:
            truth = {gid: e.function for gid, e in key.entries.items()}
            for report in (brute_force_attack(locked,
                                              CountingOracle(locked, key)),
                           sensitization_attack(locked,
                                                CountingOracle(locked, key))):
                assert all(truth[gid] in fs
                           for gid, fs in report.resolved.items())
    # the attacks read the shared tables and left them as built
    for width in range(13):
        assert list(netlist._vector_index(width).items()) == [
            (vec, i) for i, vec in enumerate(_counting(width))]


@pytest.mark.parametrize("block_log2", [9, 10, 12])
def test_oracle_and_replay_at_the_block_boundary(block_log2):
    locked, key = _ten_inputs()
    vectors = _counting(10)
    want = [simulate(locked, vec, key) for vec in vectors]  # one run each
    gate_ids = sorted(key.entries)
    choices = {g: sorted(CellFlavor.CAMO8.function_set) for g in gate_ids}
    candidates = list(product(*choices.values()))
    observed = list(zip(vectors, want))
    spaces = {"counting": (observed, 0), "reversed": (observed[::-1], 10),
              "one missing": (observed[:517] + observed[518:], 10)}
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        oracle = CountingOracle(locked, key)
        assert [oracle(vec) for vec in vectors] == want
        assert len(oracle._replies) == (1024 if block_log2 >= 10 else 0)
        for name, (space, columns) in spaces.items():
            tables = OutputTables(locked, choices)
            with mock.patch.object(netlist, "_word",
                                   wraps=netlist._word) as word:
                got = sorted(tables.replay(dict(space)).survivors(gate_ids))
            assert got == sorted(reference_filter(locked, gate_ids,
                                                  candidates, space, {}))
            # packed input columns tell the whole-space path from the others
            blocks = -(-len(space) >> block_log2)
            assert word.call_count == blocks * (columns + len(want[0])), name
