"""The lock path's fast loops against the code they replaced.

``_compile``, ``random_vectors``, ``overhead_report``, ``eligible_gates``
and ``IncrementalTiming``'s arrival pass must give exactly what the
references in ``reference_fast_paths.py`` give: the same ``_Program``, the
same vectors, the same report and arrivals (floats compared by
``float.hex``) and the same gate ids; ``levels`` must give the unit
arrivals as ``int``s. On the attack path, ``distinguishing_set`` must give
the reference's subset, or raise its error, for every candidate set. In
the cell library, the tables read off each function's output row must
equal the ones built from lambdas, and ``decode``'s table lookups must
give the reference's function, or raise its error, for every switch
pattern, flavor and tie flag. ``brute_force_attack`` must ask the same
vectors in the same order, and count the same queries, as the
per-vector query loop it replaced, for both pattern sources at budgets
from 0 past the size of the space.
Netlists are drawn in shuffled file order with gates of one to four
fanins (so one-input AND/OR/XOR gates built directly, and gates folded
through temporary nets), camouflaged cells built directly, and cells
added by ``apply_camouflage`` with and without INV/BUF decoys.
"""

from __future__ import annotations

from itertools import combinations, islice, product

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netlists import random_netlist
from reference_fast_paths import (
    reference_arrivals,
    reference_behavior_table,
    reference_brute_force_transcript,
    reference_code,
    reference_compile,
    reference_decode,
    reference_distinguishing_set,
    reference_eligible_gates,
    reference_overhead_report,
    reference_random_vectors,
    reference_truth_table,
)
from vtcamo import cell
from vtcamo.attack import CountingOracle, brute_force_attack
from vtcamo.camouflage import (CostMultiples, CostTable, apply_camouflage,
                               eligible_gates, overhead_report)
from vtcamo.cell import (NUM_SWITCHES, VT, CamoConfig, CellFlavor,
                         GateFunction, behavior_table, decode,
                         distinguishing_set, truth_table)
from vtcamo.errors import DecoySelectionError, VtcamoError
from vtcamo.netlist import (Gate, IncrementalTiming, Netlist, _compile,
                            random_vectors)

F = GateFunction
_KINDS = (F.AND, F.OR, F.NAND, F.NOR, F.XOR, F.XNOR, F.NOT, F.BUFF,
          *CellFlavor)

_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def netlists(draw):
    width = draw(st.integers(1, 4))
    names = [f"n{k}" for k in draw(st.permutations(
        range(width + draw(st.integers(0, 14)))))]
    ins, ids = names[:width], names[width:]
    gates = []
    for k, gid in enumerate(ids):
        kind = draw(st.sampled_from(_KINDS))
        if kind in (F.NOT, F.BUFF):
            arity = 1
        else:
            arity = draw(st.integers(1, 2 if kind in CellFlavor else 4))
        pool = ins + ids[:k]
        fanins = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        gates.append(Gate(gid, fanins, flavor=kind) if kind in CellFlavor
                     else Gate(gid, fanins, func=kind))
    outputs = draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
    return Netlist(tuple(ins), tuple(outputs),
                   tuple(draw(st.permutations(gates))))


@st.composite
def locked_netlists(draw):
    """A drawn netlist, with some of its eligible gates camouflaged."""
    net = draw(netlists())
    flavor = draw(st.sampled_from(list(CellFlavor)))
    eligible = eligible_gates(net, flavor)
    if not eligible:
        return net
    chosen = draw(st.lists(st.sampled_from(eligible), unique=True))
    try:
        return apply_camouflage(net, chosen, flavor,
                                draw(st.none() | st.integers(0, 9)))[0]
    except DecoySelectionError:
        return net


_TABLES = st.sampled_from([CostTable(), CostTable({
    CellFlavor.CAMO8: CostMultiples(4.0, 4.0, 1.0),
    CellFlavor.CMOS3A: CostMultiples(2.0, 2.0, 1.3),
    CellFlavor.CMOS3B: CostMultiples(2.0, 2.0, 3.0),
}), CostTable({
    CellFlavor.CAMO8: CostMultiples(1.1, 3.3, 1.7),
    CellFlavor.CMOS3A: CostMultiples(1.0, 1.0, 1.1),
    CellFlavor.CMOS3B: CostMultiples(7.0, 1.5, 2.3),
})])


@_SETTINGS
@given(locked_netlists())
def test_compile_matches_the_per_gate_fanin_lists(net):
    assert _compile(net) == reference_compile(net)


@_SETTINGS
@given(st.integers(0, 40), st.integers(0, 40), st.integers())
def test_random_vectors_match_per_bit_randint(width, count, seed):
    assert (list(random_vectors(width, count, seed))
            == list(reference_random_vectors(width, count, seed)))


def test_random_vectors_are_drawn_lazily():
    huge = 10 ** 12
    assert (list(islice(random_vectors(33, huge, 5), 3))
            == list(islice(reference_random_vectors(33, huge, 5), 3)))


def _floats_as_hex(report) -> tuple:
    return (report.area_pct.hex(), report.power_pct.hex(),
            report.delay_pct.hex(), report.gate_total, report.camo_count,
            report.per_gate)


@_SETTINGS
@given(locked_netlists(), _TABLES)
def test_overhead_report_matches_two_timing_passes(net, table):
    assert (_floats_as_hex(overhead_report(net, table))
            == _floats_as_hex(reference_overhead_report(net, table)))


@_SETTINGS
@given(locked_netlists())
def test_eligible_gates_match_the_camo_function_filter(net):
    for flavor in CellFlavor:
        assert (eligible_gates(net, flavor)
                == reference_eligible_gates(net, flavor))


#: Zero, inexact and unequal gate delays.
_DELAYS = st.sampled_from([0.0, 0.1, 0.3, 1.0, 1.7, 2.2]) | st.floats(1, 8)


@_SETTINGS
@given(locked_netlists(), st.data())
def test_arrivals_match_the_latest_fanin_loop(net, data):
    gates = st.lists(_DELAYS, min_size=len(net.gates),
                     max_size=len(net.gates))
    delays = data.draw(st.none() | gates)
    timing = IncrementalTiming(net, delays)
    want = reference_arrivals(net, delays)
    assert list(map(float.hex, timing.arrival)) == list(map(float.hex, want))
    levels = list(net.levels().values())
    assert all(type(d) is int for d in levels)
    assert levels == list(map(int, reference_arrivals(net)))
    if net.gates:  # a kept delay re-times exactly as a full pass does
        k = data.draw(st.integers(0, len(net.gates) - 1))
        new = data.draw(_DELAYS)
        assert timing.try_delay(net.gates[k].gate_id, new, float("inf"))
        delays = list(timing.delays[len(net.inputs):])
        assert delays[k] == new
        want = reference_arrivals(net, delays)
        assert (list(map(float.hex, timing.arrival))
                == list(map(float.hex, want)))


def _outcome(search, candidates):
    try:
        return search(candidates)
    except VtcamoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("extra", [(), (CellFlavor.CAMO8,)],
                         ids=["functions", "with-a-flavor"])
def test_distinguishing_set_matches_the_response_tuples(extra):
    # every subset of GateFunction: results, or error classes and messages
    # (the first identical pair in sorted order), must agree
    members = list(GateFunction)
    for size in range(len(members) + 1):
        for subset in combinations(members, size):
            candidates = frozenset(subset + extra)
            assert (_outcome(distinguishing_set, candidates)
                    == _outcome(reference_distinguishing_set, candidates))


@pytest.mark.parametrize("func", [*GateFunction, CellFlavor.CAMO8],
                         ids=repr)
def test_function_tables_match_the_lambdas(func):
    assert (_outcome(lambda f: list(truth_table(f).items()), func)
            == _outcome(lambda f: list(reference_truth_table(f).items()),
                        func))
    assert (_outcome(lambda f: list(behavior_table(f).items()), func)
            == _outcome(lambda f: list(reference_behavior_table(f).items()),
                        func))
    if isinstance(func, GateFunction):
        assert cell._CODES[func] == reference_code(func)


def test_decode_matches_the_loop_and_if_chain():
    # every switch pattern x flavor x tie flag, then wrong-length tuples
    decoded = 0
    for bits in product(VT, repeat=NUM_SWITCHES):
        for flavor in CellFlavor:
            for tie in (False, True):
                config = CamoConfig(bits, flavor, tie)
                got = _outcome(decode, config)
                assert got == _outcome(reference_decode, config)
                decoded += isinstance(got, GateFunction)
    assert decoded == sum(len(f.function_set) for f in CellFlavor)
    nand = cell.config_for(GateFunction.NAND, CellFlavor.CAMO8).switch_vt
    for n in (*range(NUM_SWITCHES), NUM_SWITCHES + 1, 2 * NUM_SWITCHES):
        for bits in ((VT.HVT,) * n, (VT.LVT,) * n, (nand * 2)[:n]):
            config = CamoConfig(bits, CellFlavor.CAMO8, False)
            assert (_outcome(decode, config)
                    == _outcome(reference_decode, config))


@pytest.mark.parametrize("source", ["exhaustive", "random"])
@pytest.mark.parametrize("width", [3, 5])
def test_brute_force_asks_what_the_per_vector_query_loop_asks(width, source):
    net = random_netlist(width, 3 * width, seed=width)
    locked, key = apply_camouflage(
        net, eligible_gates(net, CellFlavor.CAMO8)[:2], CellFlavor.CAMO8)
    space = 1 << width
    budgets = [0, 1, space - 1, space, 10 ** 9]
    for budget in budgets + [None] * (source == "exhaustive"):
        for seed in range(3):
            if source == "random":  # the draws repeat before they cover
                assert len(set(random_vectors(width, space, seed))) < space
            oracle, again = CountingOracle(locked, key), CountingOracle(
                locked, key)
            report = brute_force_attack(locked, oracle, source, budget, seed)
            want = reference_brute_force_transcript(locked, again, source,
                                                    budget, seed)
            assert report.transcript == tuple(want.items())
            assert (report.query_count == oracle.query_count
                    == again.query_count == len(want))
