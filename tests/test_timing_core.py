"""The indexed timing pass and Kahn order against name-keyed references.

``reference_toposort`` is Kahn's algorithm over gate-id dicts,
``reference_critical_path`` the one-pass longest path that sorts each
gate's fanins on every call, and ``reference_greedy`` the quadratic
``greedy_effort`` loop that runs a full ``reference_critical_path`` for
every ranked gate. The properties check that ``topo_order``, the
``NetlistCycleError`` message, ``critical_path``, ``overhead_report`` and
``select_gates(strategy="greedy_effort")`` give exactly what the
references give. The depths ``_depths`` gives, the fanout lists
``_fanouts`` holds (the edges ``reachable`` walks), ``fanin_cone`` and
the decoys ``apply_camouflage`` wires are checked the same way against
the name-keyed dict code they replaced, and the numbering a locked netlist
inherits from its input against a fresh build of it. All run on
generated netlists with shuffled file order, interleaved net names (so
name order, file order and topological order all differ) and flop
cuts. ``critical_path`` runs under unit delays, which give many ties;
the greedy and overhead checks also weight the camouflaged gates by the
cost tables' delay multiples, inexact ones included.
"""

from __future__ import annotations

import math
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vtcamo.camouflage import (
    CostMultiples,
    CostTable,
    SelectionPolicy,
    apply_camouflage,
    eligible_gates,
    overhead_report,
    select_gates,
)
from vtcamo.cell import CellFlavor, GateFunction
from vtcamo.errors import NetlistCycleError
from vtcamo.netlist import (
    CriticalPath,
    Gate,
    Netlist,
    critical_path,
)

F = GateFunction
_FUNCS = (F.AND, F.OR, F.NAND, F.NOR, F.XOR, F.XNOR, F.NOT, F.BUFF)


def reference_toposort(gates) -> tuple[Gate, ...]:
    """Kahn's algorithm over gate-id dicts, FIFO in file order."""
    gate_map = {g.gate_id: g for g in gates}
    indeg = {}
    consumers: dict[str, list[str]] = {}
    for g in gates:
        indeg[g.gate_id] = sum(1 for f in g.fanins if f in gate_map)
        for f in g.fanins:
            if f in gate_map:
                consumers.setdefault(f, []).append(g.gate_id)
    ready = deque(g.gate_id for g in gates if indeg[g.gate_id] == 0)
    order = []
    while ready:
        gid = ready.popleft()
        order.append(gate_map[gid])
        for succ in consumers.get(gid, ()):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(gates):
        cyclic = sorted(gid for gid, d in indeg.items() if d > 0)
        raise NetlistCycleError(f"cycle through gates {cyclic}")
    return tuple(order)


def reference_reachable(edges: dict, start: str) -> set[str]:
    seen, stack = {start}, [start]
    while stack:
        for succ in edges.get(stack.pop(), ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def reference_levels(net: Netlist) -> dict[str, int]:
    lvl = {n: 0 for n in net.inputs}
    for g in reference_toposort(net.gates):
        lvl[g.gate_id] = 1 + max(lvl[f] for f in g.fanins)
    return lvl


def reference_fanout_map(net: Netlist) -> dict[str, list[str]]:
    fo: dict[str, list[str]] = {
        n: [] for n in (*net.inputs, *(g.gate_id for g in net.gates))}
    for g in net.gates:
        for f in g.fanins:
            fo[f].append(g.gate_id)
    return fo


def reference_pick_decoy(fanout, gate: Gate, levels, rng) -> str:
    cone = reference_reachable(fanout, gate.gate_id)
    candidates = [n for n in fanout if n not in cone]
    assert candidates  # no primary input is in a gate's fanout cone
    if rng is not None:
        return rng.choice(sorted(candidates))
    own = levels[gate.gate_id]
    return min(candidates, key=lambda n: abs(levels.get(n, 0) - own))


def reference_decoys(net: Netlist, chosen, seed) -> dict[str, str]:
    """Decoy per converted NOT/BUFF gate, picked over name-keyed dicts."""
    rng = random.Random(seed) if seed is not None else None
    levels, fanout = reference_levels(net), reference_fanout_map(net)
    decoys = {}
    for g in net.gates:
        if g.gate_id in chosen and g.func in (F.NOT, F.BUFF):
            decoys[g.gate_id] = reference_pick_decoy(fanout, g, levels, rng)
            fanout[decoys[g.gate_id]].append(g.gate_id)
    return decoys


def reference_critical_path(net: Netlist,
                            delay_model=lambda g: 1.0) -> CriticalPath:
    """Longest weighted path, fanins sorted by name at every gate."""
    if not net.gates:
        return CriticalPath((), 0.0)
    gate_map = {g.gate_id: g for g in net.gates}
    arrival: dict[str, float] = {n: 0.0 for n in net.inputs}
    best_pred: dict[str, str | None] = {}
    for g in reference_toposort(net.gates):
        pred, when = None, float("-inf")
        for f in sorted(g.fanins):
            t = arrival.get(f, 0.0)
            if t > when:
                when = t
                pred = f if f in gate_map else None
        arrival[g.gate_id] = when + delay_model(g)
        best_pred[g.gate_id] = pred
    outputs = set(net.outputs)
    ends = [g.gate_id for g in net.gates if g.gate_id in outputs]
    if not ends:
        ends = [g.gate_id for g in net.gates]
    end = min(ends, key=lambda gid: (-arrival[gid], gid))
    path = []
    cur: str | None = end
    while cur is not None:
        path.append(cur)
        cur = best_pred[cur]
    return CriticalPath(tuple(reversed(path)), arrival[end])


def reference_greedy(net: Netlist, policy: SelectionPolicy,
                     cost_table: CostTable, flavor: CellFlavor) -> list[str]:
    """The quadratic greedy_effort loop: a full pass per ranked gate."""
    eligible = eligible_gates(net, flavor)
    count = min(math.floor(policy.budget * len(net.gates) + 1e-9),
                len(eligible))
    if policy.budget == 1.0:
        count = len(eligible)
    base = reference_critical_path(net)
    limit = base.delay * (1.0 + policy.delay_budget)
    multiples = cost_table.for_flavor(flavor)
    overhead_norm = (multiples.area - 1.0) / multiples.area
    po_set = set(net.outputs)
    gains = math.log2(len(flavor.function_set))
    def metric(gid: str) -> float:
        observability = 0.5 if gid in po_set else 1.0
        return gains * observability - overhead_norm
    pos = {gid: i for i, gid in enumerate(eligible)}
    ranked = sorted(eligible, key=lambda g: (-metric(g), pos[g]))
    chosen: list[str] = []
    for gid in ranked:
        if len(chosen) >= count:
            break
        trial = set(chosen) | {gid}
        def model(g: Gate, _trial=trial) -> float:
            return multiples.delay if g.gate_id in _trial else 1.0
        if reference_critical_path(net, model).delay <= limit + 1e-12:
            chosen.append(gid)
    return sorted(chosen)


@st.composite
def netlist_args(draw, back_edge: bool = False):
    """Netlist arguments: plain gates in shuffled file order, flop cuts.

    Net names are ``w<k>`` over a drawn permutation, so "w10" sorts before
    "w2" and inputs, flop outputs and gates interleave in name order. Some
    draws have no gate among the outputs (every gate is then a timing
    end). With ``back_edge`` one fanin may point at a later gate, which
    can close a cycle.
    """
    width = draw(st.integers(1, 4))
    n_gates = draw(st.integers(0, 16))
    n_flops = draw(st.integers(0, min(2, n_gates)))
    names = [f"w{k}" for k in draw(st.permutations(
        range(width + n_flops + n_gates)))]
    ins = names[:width + n_flops]
    ids = names[width + n_flops:]
    gates = []
    for k, gid in enumerate(ids):
        func = draw(st.sampled_from(_FUNCS))
        arity = 1 if func in (F.NOT, F.BUFF) else draw(st.integers(2, 3))
        pool = ins + ids[:k]
        gates.append(Gate(gid, tuple(draw(st.sampled_from(pool))
                                     for _ in range(arity)), func=func))
    if back_edge and len(gates) > 1:
        k = draw(st.integers(0, len(gates) - 2))
        later = draw(st.sampled_from(ids[k:]))
        g = gates[k]
        gates[k] = Gate(g.gate_id, (later, *g.fanins[1:]), func=g.func)
    plain_in, flop_out = ins[:width], ins[width:]
    flop_data = draw(st.lists(st.sampled_from(ids), min_size=n_flops,
                              max_size=n_flops, unique=True)) if ids else []
    free = [n for n in plain_in + ids if n not in flop_data]
    outputs = draw(st.lists(st.sampled_from(free), max_size=4, unique=True))
    order = draw(st.permutations(gates))
    return (tuple(plain_in + flop_out), tuple(outputs + flop_data),
            tuple(order), tuple(flop_out), tuple(flop_data))


def netlists():
    return netlist_args().map(lambda args: Netlist(*args))


_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(netlist_args(back_edge=True))
def test_topo_order_and_cycle_message_match_name_keyed_kahn(args):
    try:
        want = reference_toposort(args[2])
    except NetlistCycleError as exc:
        with pytest.raises(NetlistCycleError) as got:
            Netlist(*args)
        assert str(got.value) == str(exc)
    else:
        assert Netlist(*args).topo_order == want


@_SETTINGS
@given(netlists(), st.none() | st.integers(0, 9), st.data())
def test_structure_and_decoys_match_name_keyed_references(net, seed, data):
    names = net._names
    assert dict(zip(names, net._depths())) == reference_levels(net)
    assert [(names[n], [names[s] for s in fo])
            for n, fo in enumerate(net._fanouts)] == list(
        reference_fanout_map(net).items())
    fanins = {g.gate_id: g.fanins for g in net.gates}
    for gid in fanins:
        assert net.fanin_cone(gid) == reference_reachable(fanins, gid)
    eligible = eligible_gates(net, CellFlavor.CAMO8)
    chosen = data.draw(st.lists(st.sampled_from(eligible), unique=True)
                       ) if eligible else []
    want = reference_decoys(net, chosen, seed)
    _, key = apply_camouflage(net, chosen, CellFlavor.CAMO8, seed)
    assert {gid: e.decoy_net for gid, e in key.entries.items()
            if e.decoy_net} == want


_NUMBERING = ("_index", "_names", "_fanins", "_fanouts", "_order", "_camo",
              "topo_order")


def _assert_numbered_as_built(locked: Netlist) -> None:
    fresh = Netlist(locked.inputs, locked.outputs, locked.gates,
                    locked.pseudo_inputs, locked.pseudo_outputs)
    for name in _NUMBERING:
        assert getattr(locked, name) == getattr(fresh, name), name


@_SETTINGS
@given(netlist_args(), st.none() | st.integers(0, 9), st.data())
def test_locked_numbering_equals_a_fresh_build(args, seed, data):
    """With INV/BUF cells (decoy edges, Kahn runs again) and without them
    (the input's order is kept), the locked netlist is numbered and
    ordered as a fresh build of it."""
    net, before = Netlist(*args), Netlist(*args)
    eligible = eligible_gates(net, CellFlavor.CAMO8)
    chosen = data.draw(st.lists(st.sampled_from(eligible), unique=True)
                       ) if eligible else []
    no_decoy = [gid for gid in chosen
                if net.gate(gid).func not in (F.NOT, F.BUFF)]
    locked, _ = apply_camouflage(net, no_decoy, CellFlavor.CAMO8, seed)
    _assert_numbered_as_built(locked)
    assert locked._order is net._order
    locked, _ = apply_camouflage(net, chosen, CellFlavor.CAMO8, seed)
    _assert_numbered_as_built(locked)
    for name in _NUMBERING:  # the input's own lists are untouched
        assert getattr(net, name) == getattr(before, name), name


@pytest.mark.parametrize("seed", [None, 0])
def test_a_decoy_that_is_already_a_fanin_is_read_twice(seed):
    # y's fanout cone holds y and z, so a is its only legal decoy
    net = Netlist(("a",), ("z",), (Gate("y", ("a",), func=F.NOT),
                                   Gate("z", ("y", "a"), func=F.AND)))
    locked, key = apply_camouflage(net, ["y"], CellFlavor.CAMO8, seed)
    assert key.entries["y"].decoy_net == "a"
    assert locked.gate("y").fanins == ("a", "a")
    assert locked._fanouts[0] == [1, 1, 2]
    _assert_numbered_as_built(locked)


@_SETTINGS
@given(netlists())
def test_critical_path_matches_the_sorted_fanin_reference(net):
    assert critical_path(net) == reference_critical_path(net)


#: The last two differ only in area, which greedy_effort's rank must ignore.
_TABLES = (CostTable(), CostTable({
    CellFlavor.CAMO8: CostMultiples(4.0, 4.0, 1.0),
    CellFlavor.CMOS3A: CostMultiples(2.0, 2.0, 1.3),
    CellFlavor.CMOS3B: CostMultiples(2.0, 2.0, 3.0),
}), *(CostTable({f: CostMultiples(area, 1.0, 1.5) for f in CellFlavor})
      for area in (1.0, 50.0)))


@_SETTINGS
@given(netlists(), st.sampled_from(list(CellFlavor)),
       st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.01, 1.0),
       st.sampled_from([0.0, 0.05, 0.1, 0.5, 2.0, math.inf]),
       st.sampled_from(_TABLES))
def test_greedy_effort_picks_the_quadratic_loops_gates(net, flavor, budget,
                                                       delay_budget, table):
    policy = SelectionPolicy(strategy="greedy_effort", budget=budget,
                             delay_budget=delay_budget)
    assert (select_gates(net, policy, table, flavor)
            == reference_greedy(net, policy, table, flavor))


@_SETTINGS
@given(netlists(), st.sampled_from(list(CellFlavor)), st.data())
def test_overhead_delay_matches_two_reference_passes(net, flavor, data):
    eligible = eligible_gates(net, flavor)
    chosen = data.draw(st.lists(st.sampled_from(eligible), unique=True,
                                max_size=6)) if eligible else []
    locked, _ = apply_camouflage(net, chosen, flavor)
    assert locked.topo_order == reference_toposort(locked.gates)
    table = _TABLES[1]
    base = reference_critical_path(locked)
    with_camo = reference_critical_path(
        locked, lambda g: table.for_flavor(g.flavor).delay if g.is_camo
        else 1.0)
    want = 0.0
    if base.delay > 0:
        want = 100.0 * (with_camo.delay - base.delay) / base.delay
    assert overhead_report(locked, table).delay_pct == want
