"""Oracle-guided attacks: brute force and sensitization.

Besides the worked cases, ``test_every_attack_is_sound`` is a property
over generated locked netlists: each attack keeps the true function of
every gate, its query count is the oracle's and the transcript's, and
without a budget sensitization with flavor knowledge keeps no candidate
brute force dropped. ``test_settled_random_brute_force_is_the_whole_class``
checks that a random-source brute force reports ``unique`` or
``equivalent_class`` only when it left what the exhaustive run leaves.
``test_walk_matches_the_per_query_reference`` checks the joint step's
walk, which reads survivors' outputs off output tables, against
``reference_resolve_jointly``, which filters each candidate on its own
once per oracle reply. ``test_visit_search_matches_a_fresh_search_per_pattern``
checks that one gate visit's shared search, which records each
pattern's first hit as it reads a block and resumes the forced passes for
a pattern not yet hit, answers every pattern as a fresh
``find_sensitizing_vector`` and ``reference_find_sensitizing_vector`` do.
"""

import math
import tracemalloc
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_netlist
from reference_fast_paths import reference_find_sensitizing_vector
from test_simulation_core import reference_filter
from vtcamo import attack, netlist
from vtcamo.attack import (
    CountingOracle,
    MAX_BRUTE_GATES,
    SensitizingVector,
    brute_force_attack,
    find_sensitizing_vector,
    sensitization_attack,
)
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import LOCAL_VECTORS, CellFlavor, GateFunction
from vtcamo.errors import (
    AttackTooLargeError,
    InputWidthError,
    InvalidParameterError,
    KeyScopeError,
    UnresolvedFaninError,
    UnresolvedGateError,
)
from vtcamo.netlist import (CamoKey, KeyEntry, OutputTables, all_vectors,
                            parse_bench, simulate)

SINGLE = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
CHAIN2 = ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
          "g1 = NOR(a, b)\nz = NAND(g1, c)\n")
MASKED = ("INPUT(a)\nINPUT(b)\nOUTPUT(x)\n"
          "g = NAND(a, b)\nx = XOR(g, g)\n")


def _lock(text, gate_ids, flavor=CellFlavor.CAMO8):
    net = parse_bench(text)
    locked, key = apply_camouflage(net, gate_ids, flavor)
    return net, locked, key


class TestCountingOracle:
    def test_counts_every_call(self, c17):
        oracle = CountingOracle(c17)
        out = oracle((0, 0, 0, 0, 0))
        assert out == simulate(c17, (0, 0, 0, 0, 0))
        assert oracle((0, 0, 0, 0, 0)) == out
        assert oracle.query_count == 2  # the oracle itself never memoizes

    def test_bad_key_fails_at_construction(self):
        _, locked, key = _lock(CHAIN2, ["g1"])
        with pytest.raises(KeyScopeError):
            CountingOracle(locked, CamoKey({
                **key.entries, "z": KeyEntry(GateFunction.NAND)}))
        with pytest.raises(UnresolvedGateError):
            CountingOracle(locked, CamoKey({}))
        with pytest.raises(UnresolvedGateError):
            CountingOracle(locked)

    def test_every_query_checks_the_vector(self):
        _, locked, key = _lock(CHAIN2, ["g1"])
        oracle = CountingOracle(locked, key)
        with pytest.raises(InputWidthError):
            oracle((0, 1))
        with pytest.raises(InputWidthError):
            oracle((0, 2, 1))
        assert oracle((1, 0, 1)) == simulate(locked, (1, 0, 1), key)
        assert oracle.query_count == 3


class TestBruteForce:
    def test_single_cell_uses_exactly_the_whole_pattern_space(self):
        _, locked, key = _lock(SINGLE, ["y"])
        oracle = CountingOracle(locked, key)
        report = brute_force_attack(locked, oracle)
        assert report.query_count == 4
        assert oracle.query_count == 4
        assert report.status == "unique"
        assert report.resolved["y"] == frozenset({GateFunction.NAND})
        assert report.candidate_space_log2_initial == pytest.approx(3.0)
        assert report.candidate_space_log2_final == 0.0

    def test_true_programming_always_survives(self, c17):
        locked, key = apply_camouflage(c17, ["10", "16", "22"],
                                       CellFlavor.CAMO8)
        oracle = CountingOracle(locked, key)
        report = brute_force_attack(locked, oracle)
        assert report.query_count == 32
        for gid, entry in key.entries.items():
            assert entry.function in report.resolved[gid]

    def test_survivor_classes_reproduce_the_oracle(self):
        net, locked, key = _lock(MASKED, ["g"])
        oracle = CountingOracle(locked, key)
        report = brute_force_attack(locked, oracle)
        # the cell is invisible at the output, every candidate survives
        assert report.status == "equivalent_class"
        assert report.resolved["g"] == CellFlavor.CAMO8.function_set

    def test_covered_space_settles_any_number_of_survivors(self):
        # 8**4 survivors is past EQUIV_CHECK_LIMIT, but every vector was
        # queried, so they are proved interchangeable all the same
        text = "INPUT(a)\nINPUT(b)\n" + "".join(
            f"OUTPUT(x{k})\ng{k} = NAND(a, b)\nx{k} = XOR(g{k}, g{k})\n"
            for k in range(4))
        _, locked, key = _lock(text, [f"g{k}" for k in range(4)])
        report = brute_force_attack(locked, CountingOracle(locked, key))
        assert 2 ** report.candidate_space_log2_final > (
            attack.EQUIV_CHECK_LIMIT)
        assert report.status == "equivalent_class"

    def test_gate_count_guard(self):
        net = random_netlist(4, 24, seed=0)
        eligible = eligible_gates(net, CellFlavor.CAMO8)
        assert len(eligible) > MAX_BRUTE_GATES
        locked, key = apply_camouflage(net, eligible[:MAX_BRUTE_GATES + 1],
                                       CellFlavor.CAMO8)
        with pytest.raises(AttackTooLargeError, match="sensitization"):
            brute_force_attack(locked, CountingOracle(locked, key))

    def test_random_source_needs_budget(self):
        _, locked, key = _lock(SINGLE, ["y"])
        with pytest.raises(InvalidParameterError):
            brute_force_attack(locked, CountingOracle(locked, key),
                               pattern_source="random")

    @pytest.mark.parametrize("source", ["exhaustive", "random"])
    def test_negative_budget_is_refused_before_any_query(self, source):
        _, locked, key = _lock(SINGLE, ["y"])
        oracle = CountingOracle(locked, key)
        with pytest.raises(InvalidParameterError,
                           match="^query budget must be >= 0, got -1$"):
            brute_force_attack(locked, oracle, source, query_budget=-1)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_exhaustive_source_refuses_a_wide_net_at_any_budget(self, budget):
        width = netlist.EXHAUSTIVE_INPUT_LIMIT + 1
        text = "".join(f"INPUT(i{k})\n" for k in range(width))
        _, locked, key = _lock(text + "OUTPUT(y)\ny = NAND(i0, i1)\n", ["y"])
        oracle = CountingOracle(locked, key)
        with pytest.raises(InvalidParameterError, match=(
                f"^{width} inputs exceeds the exhaustive limit of "
                f"{netlist.EXHAUSTIVE_INPUT_LIMIT}$")):
            brute_force_attack(locked, oracle, "exhaustive", budget)
        assert oracle.query_count == 0

    def test_random_source_is_budget_bound(self):
        _, locked, key = _lock(CHAIN2, ["g1", "z"])
        oracle = CountingOracle(locked, key)
        report = brute_force_attack(locked, oracle,
                                    pattern_source="random",
                                    query_budget=5, seed=2)
        assert report.query_count <= 5
        for gid, entry in key.entries.items():
            assert entry.function in report.resolved[gid]

    def test_random_source_stops_drawing_once_the_space_is_covered(self):
        net = random_netlist(4, 8, seed=3)
        locked, key = apply_camouflage(
            net, eligible_gates(net, CellFlavor.CAMO8)[:2], CellFlavor.CAMO8)
        oracle = CountingOracle(locked, key)
        report = brute_force_attack(locked, oracle, pattern_source="random",
                                    query_budget=10**9, seed=1)
        exhaustive = brute_force_attack(locked, CountingOracle(locked, key))
        assert report.query_count == oracle.query_count == 16
        assert sorted(v for v, _ in report.transcript) == list(
            all_vectors(4))
        assert (report.status, report.resolved) == (exhaustive.status,
                                                    exhaustive.resolved)

    def test_random_source_settles_only_what_it_proved(self, c17):
        # 11 distinct draws leave 3 survivors that differ elsewhere in the
        # space, so the class is not proved; the exhaustive run pins one
        locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
        report = brute_force_attack(locked, CountingOracle(locked, key),
                                    pattern_source="random",
                                    query_budget=12, seed=5)
        assert (report.status, report.query_count) == ("budget_exhausted", 11)
        assert report.candidate_space_log2_final == pytest.approx(
            math.log2(3))
        exhaustive = brute_force_attack(locked, CountingOracle(locked, key))
        assert exhaustive.status == "unique"

    def test_unknown_source_rejected(self):
        _, locked, key = _lock(SINGLE, ["y"])
        with pytest.raises(InvalidParameterError):
            brute_force_attack(locked, CountingOracle(locked, key),
                               pattern_source="walk")


@pytest.mark.parametrize("reshape", [lambda out: out[:1],
                                     lambda out: (*out, 0)],
                         ids=["short", "long"])
@pytest.mark.parametrize("run", [brute_force_attack, sensitization_attack])
def test_reply_of_the_wrong_length_is_refused(c17, run, reshape):
    locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
    good = CountingOracle(locked, key)
    with pytest.raises(InvalidParameterError,
                       match=r"^bad oracle reply width: \("):
        run(locked, lambda v: reshape(good(v)))
    assert good.query_count == 1  # refused where it enters the transcript


class TestSensitizingVectors:
    def test_direct_observation(self):
        _, locked, key = _lock(SINGLE, ["y"])
        sv = find_sensitizing_vector(locked, {}, "y", (0, 1))
        assert isinstance(sv, SensitizingVector)
        assert sv.vector == (0, 1)
        assert sv.po_if_0 != sv.po_if_1
        out = simulate(locked, sv.vector, key)
        assert sv.infer_gate_output(out) == 1  # NAND(0, 1)

    def test_response_matching_neither_prediction_is_rejected(self):
        sv = SensitizingVector((0, 1), po_index=0, po_if_0=0, po_if_1=1)
        with pytest.raises(InvalidParameterError, match="^oracle response "
                           "inconsistent with the propagation analysis$"):
            sv.infer_gate_output((2,))

    def test_masked_gate_has_no_witness(self):
        _, locked, _ = _lock(MASKED, ["g"])
        for pattern in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert find_sensitizing_vector(locked, {}, "g", pattern) is None

    def test_unresolved_cone_is_rejected(self):
        _, locked, _ = _lock(CHAIN2, ["g1", "z"])
        with pytest.raises(UnresolvedFaninError):
            find_sensitizing_vector(locked, {}, "z", (0, 1))
        sv = find_sensitizing_vector(locked, {"g1": GateFunction.NOR}, "z",
                                     (0, 1))
        assert sv is not None

    def test_too_many_inputs_is_refused(self):
        width = netlist.EXHAUSTIVE_INPUT_LIMIT + 1
        text = "".join(f"INPUT(i{k})\n" for k in range(width))
        _, locked, _ = _lock(text + "OUTPUT(y)\ny = NAND(i0, i1)\n", ["y"])
        with pytest.raises(AttackTooLargeError) as err:
            find_sensitizing_vector(locked, {}, "y", (0, 1))
        assert str(err.value) == (
            f"{width} inputs exceeds the sensitization search limit of "
            f"{netlist.EXHAUSTIVE_INPUT_LIMIT}")

    def test_non_camo_target_rejected(self, c17):
        with pytest.raises(InvalidParameterError):
            find_sensitizing_vector(c17, {}, "10", (0, 0))

    @pytest.mark.parametrize("pattern", [(0, 2), (0,), (-1, 0)])
    def test_pattern_outside_local_vectors_rejected(self, c17, pattern):
        locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
        resolved = {"10": key.entries["10"].function}
        with pytest.raises(InvalidParameterError, match="local pattern"):
            find_sensitizing_vector(locked, resolved, "22", pattern)

    def test_unknown_sink_blocks_propagation(self):
        # while the sink cell is unresolved its output is treated as
        # unknown, so nothing upstream can be observed through it
        _, locked, _ = _lock(CHAIN2, ["g1", "z"])
        for pattern in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert find_sensitizing_vector(locked, {}, "g1", pattern) is None

    def test_visit_search_resumes_where_the_last_pattern_stopped(self):
        # y reads inputs a and d: patterns with a = 1 hit only in the back
        # half of the space, which 2-vector blocks split into 8 blocks
        text = ("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\n"
                "y = NAND(a, d)\n")
        _, locked, _ = _lock(text, ["y"])
        read, real = [], attack.forced_rails

        def spy(*args):
            for block in real(*args):
                read.append(block[0])
                yield block

        patterns = [(0, 0), (1, 0), (0, 1), (1, 1)]
        with mock.patch.object(netlist, "_BLOCK_LOG2", 1):
            with mock.patch.object(attack, "forced_rails", spy):
                search = attack._visit_search(locked, {}, "y")
                got = [search(p) for p in patterns]
            assert got == [find_sensitizing_vector(locked, {}, "y", p)
                           for p in patterns]
        assert [sv.vector for sv in got] == [
            (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)]
        # block 0 answers (0, 0) and (0, 1); blocks 1-4 (1, 0) and (1, 1)
        assert len(read) == 5

    @pytest.mark.parametrize("visit", [False, True])
    def test_search_memory_does_not_grow_with_the_space(self, visit):
        # no vector drives (0, 0), so the search reads all 256 blocks of
        # 4,096 vectors, each of the three outputs flipping on every
        # vector; only the two blocks that hold a first hit are kept
        text = ("".join(f"INPUT(i{k})\n" for k in range(20))
                + "OUTPUT(y)\nOUTPUT(u)\nOUTPUT(v)\nn = NOT(i0)\n"
                "y = NAND(i0, n)\nu = NOT(y)\nv = BUFF(y)\n")
        _, locked, _ = _lock(text, ["y"])
        tracemalloc.start()
        try:
            if visit:
                search = attack._visit_search(locked, {}, "y")
                got = [search(p) for p in LOCAL_VECTORS]
                assert [sv is None for sv in got] == [True, False, False,
                                                      True]
            else:
                assert find_sensitizing_vector(locked, {}, "y", (0, 0)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_plain_downstream_logic_propagates(self):
        _, locked, key = _lock(CHAIN2, ["g1"])
        sv = find_sensitizing_vector(locked, {}, "g1", (0, 0))
        assert sv is not None
        assert sv.vector[:2] == (0, 0)
        out = simulate(locked, sv.vector, key)
        assert sv.infer_gate_output(out) == 1  # NOR(0, 0)


class TestSensitization:
    def test_single_cell_needs_few_queries(self):
        _, locked, key = _lock(SINGLE, ["y"])
        oracle = CountingOracle(locked, key)
        report = sensitization_attack(locked, oracle)
        assert report.status == "unique"
        assert report.resolved["y"] == frozenset({GateFunction.NAND})
        assert report.query_count <= 4

    def test_resolves_chain_in_topological_order(self):
        _, locked, key = _lock(CHAIN2, ["g1", "z"])
        oracle = CountingOracle(locked, key)
        report = sensitization_attack(locked, oracle)
        assert report.status == "unique"
        for gid, entry in key.entries.items():
            assert report.resolved[gid] == frozenset({entry.function})
        assert report.query_count <= 8  # never worse than the full space

    def test_beats_brute_force_on_a_wider_netlist(self, c17):
        # disjoint cones: each cell is sensitized straight to an output
        locked, key = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        brute = brute_force_attack(locked, CountingOracle(locked, key))
        sens = sensitization_attack(locked, CountingOracle(locked, key))
        assert brute.query_count == 32
        assert sens.status == "unique"
        assert sens.query_count <= 8
        for gid, entry in key.entries.items():
            assert sens.resolved[gid] == frozenset({entry.function})

    def test_mutually_masking_pair_resolves_via_residue(self, c17):
        # 22 sits downstream of 10, so neither can be sensitized until
        # the other is known; the joint fallback must still finish early
        locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
        report = sensitization_attack(locked, CountingOracle(locked, key))
        assert report.status == "unique"
        assert report.query_count < 32
        for gid, entry in key.entries.items():
            assert report.resolved[gid] == frozenset({entry.function})

    def test_masked_cell_falls_back_to_joint_enumeration(self):
        _, locked, key = _lock(MASKED, ["g"])
        oracle = CountingOracle(locked, key)
        report = sensitization_attack(locked, oracle)
        assert report.status == "equivalent_class"
        assert report.resolved["g"] == CellFlavor.CAMO8.function_set

    def test_residue_past_the_enumeration_limit_is_not_enumerated(self):
        # seven masked cells leave 8**7 = 2**21 joint candidates, past
        # RESIDUE_ENUM_LIMIT; the observable cell y is still resolved
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n" + "".join(
            f"OUTPUT(x{k})\ng{k} = NAND(a, b)\nx{k} = XOR(g{k}, g{k})\n"
            for k in range(7))
        masked = [f"g{k}" for k in range(7)]
        _, locked, key = _lock(text, ["y", *masked])
        assert 8 ** len(masked) > attack.RESIDUE_ENUM_LIMIT
        with mock.patch.object(attack._AttackRun, "resolve",
                               side_effect=AssertionError("enumerated")):
            report = sensitization_attack(locked, CountingOracle(locked, key))
        assert report.status == "budget_exhausted"
        assert report.resolved["y"] == {key.entries["y"].function}
        assert all(report.resolved[g] == CellFlavor.CAMO8.function_set
                   for g in masked)
        assert report.candidate_space_log2_initial == 24.0
        assert report.candidate_space_log2_final == 21.0

    def test_budget_exhaustion_is_reported(self):
        _, locked, key = _lock(CHAIN2, ["g1", "z"])
        oracle = CountingOracle(locked, key)
        report = sensitization_attack(locked, oracle, query_budget=1)
        assert report.query_count <= 1
        assert report.status in ("budget_exhausted", "unique")
        for gid, entry in key.entries.items():
            assert entry.function in report.resolved[gid]

    def test_flavor_knowledge_narrows_the_space(self):
        _, locked, key = _lock(SINGLE, ["y"], flavor=CellFlavor.CMOS3A)
        with_knowledge = sensitization_attack(
            locked, CountingOracle(locked, key), flavor_knowledge=True)
        without = sensitization_attack(
            locked, CountingOracle(locked, key), flavor_knowledge=False)
        assert with_knowledge.candidate_space_log2_initial == pytest.approx(
            1.584962500721156)  # log2(3)
        assert without.candidate_space_log2_initial == pytest.approx(3.0)
        assert with_knowledge.resolved["y"] == frozenset({GateFunction.NAND})
        assert without.resolved["y"] == frozenset({GateFunction.NAND})

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force_on_random_instances(self, seed):
        net = random_netlist(5, 10, seed=100 + seed)
        eligible = eligible_gates(net, CellFlavor.CAMO8)
        chosen = eligible[:2]
        if not chosen:
            pytest.skip("no eligible gates for this seed")
        locked, key = apply_camouflage(net, chosen, CellFlavor.CAMO8,
                                       decoy_seed=seed)
        brute = brute_force_attack(locked, CountingOracle(locked, key))
        sens = sensitization_attack(locked, CountingOracle(locked, key))
        for gid, entry in key.entries.items():
            assert entry.function in brute.resolved[gid]
            assert entry.function in sens.resolved[gid]
            # sensitization may only keep candidates brute force kept
            assert sens.resolved[gid] <= brute.resolved[gid]

    def test_queries_are_cached_attacker_side(self):
        _, locked, key = _lock(SINGLE, ["y"])
        oracle = CountingOracle(locked, key)
        report = sensitization_attack(locked, oracle)
        vectors = [v for v, _ in report.transcript]
        assert len(vectors) == len(set(vectors))
        assert oracle.query_count == report.query_count


@st.composite
def attack_cases(draw):
    """(locked netlist, key, query budget) with one to three cells."""
    net = random_netlist(draw(st.integers(2, 7)), draw(st.integers(3, 14)),
                         seed=draw(st.integers(0, 10**6)))
    flavor = draw(st.sampled_from(list(CellFlavor)))
    eligible = eligible_gates(net, flavor)
    assume(eligible)
    chosen = draw(st.lists(st.sampled_from(eligible), min_size=1,
                           max_size=3, unique=True))
    locked, key = apply_camouflage(
        net, chosen, flavor, decoy_seed=draw(st.none() | st.integers(0, 9)))
    return locked, key, draw(st.sampled_from([None, 0, 1, 2, 5]))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(attack_cases())
def test_every_attack_is_sound(case):
    locked, key, budget = case
    runs = {}
    sources = ["exhaustive"] + (["random"] if budget is not None else [])
    for source in sources:
        oracle = CountingOracle(locked, key)
        runs["brute", source] = oracle, brute_force_attack(
            locked, oracle, pattern_source=source, query_budget=budget,
            seed=3)
    for knowledge in (True, False):
        oracle = CountingOracle(locked, key)
        runs["sens", knowledge] = oracle, sensitization_attack(
            locked, oracle, flavor_knowledge=knowledge, query_budget=budget)
    for name, (oracle, report) in runs.items():
        assert (report.query_count == oracle.query_count
                == len(report.transcript)), name
        for gid, entry in key.entries.items():
            assert entry.function in report.resolved[gid], (name, gid)
    if budget is None:
        # brute force knows the flavors, so compare against that run only
        brute, sens = runs["brute", "exhaustive"][1], runs["sens", True][1]
        for gid in key.entries:
            assert sens.resolved[gid] <= brute.resolved[gid], gid


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(attack_cases(), st.integers(0, 40), st.integers(0, 99))
def test_settled_random_brute_force_is_the_whole_class(case, budget, seed):
    # every assignment equivalent to the key survives every reply, so a
    # settled survivor set is the key's class: what exhaustive leaves
    locked, key, _ = case
    report = brute_force_attack(locked, CountingOracle(locked, key),
                                pattern_source="random", query_budget=budget,
                                seed=seed)
    assume(report.status != "budget_exhausted")
    exhaustive = brute_force_attack(locked, CountingOracle(locked, key))
    assert report.resolved == exhaustive.resolved
    assert (report.candidate_space_log2_final
            == exhaustive.candidate_space_log2_final)


@st.composite
def visit_cases(draw):
    """A locked netlist, a camouflaged target, the key's functions of
    some other cells, a pattern sequence and a block size."""
    locked, key, _ = draw(attack_cases())
    target = draw(st.sampled_from(sorted(key.entries)))
    assignment = {gid: e.function for gid, e in key.entries.items()
                  if gid != target and draw(st.booleans())}
    return (locked, target, assignment,
            draw(st.lists(st.sampled_from(LOCAL_VECTORS), min_size=1,
                          max_size=8)),
            draw(st.sampled_from([1, 2, 12])))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(visit_cases())
def test_visit_search_matches_a_fresh_search_per_pattern(case):
    # with small blocks an early hit leaves blocks unread, which a later
    # pattern not hit on the way then resumes
    locked, target, assignment, patterns, block_log2 = case
    with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2):
        try:
            search = attack._visit_search(locked, assignment, target)
        except UnresolvedFaninError as exc:
            with pytest.raises(UnresolvedFaninError) as fresh:
                find_sensitizing_vector(locked, assignment, target,
                                        patterns[0])
            assert str(fresh.value) == str(exc)
            return
        for pattern in patterns:
            got = search(pattern)
            assert got == find_sensitizing_vector(locked, assignment, target,
                                                  pattern)
            assert got == reference_find_sensitizing_vector(
                locked, assignment, target, pattern)


def test_each_gate_visit_runs_the_forced_passes_once(c17):
    # a CAMO8 cell takes at least three patterns to resolve
    events, real_rails, real_set = [], attack.forced_rails, \
        attack.distinguishing_set

    def rails(*args):
        events.append("rails")
        return real_rails(*args)

    def visit(*args):
        events.append("visit")
        return real_set(*args)

    locked, key = apply_camouflage(c17, ["10", "16", "22"], CellFlavor.CAMO8)
    with mock.patch.object(attack, "forced_rails", rails), \
            mock.patch.object(attack, "distinguishing_set", visit):
        report = sensitization_attack(locked, CountingOracle(locked, key))
    assert report.status == "unique"
    runs = "".join(e[0] for e in events)
    assert runs.startswith("v") and "r" in runs and "rr" not in runs


def test_each_joint_step_builds_one_table(c17):
    built = []

    class Spy(OutputTables):
        def __init__(self, *args, **kw):
            built.append(args[1])
            super().__init__(*args, **kw)

    locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
    with mock.patch.object(attack, "OutputTables", Spy):
        brute = brute_force_attack(locked, CountingOracle(locked, key),
                                   pattern_source="random", query_budget=6,
                                   seed=2)
        assert built == [["10", "22"]]
        sens = sensitization_attack(locked, CountingOracle(locked, key))
    assert built == [["10", "22"]] * 2
    assert (brute.status, sens.status) == ("budget_exhausted", "unique")


def reference_equivalent(net, gate_ids, survivors, fixed) -> bool:
    if len(survivors) <= 1:
        return True
    if len(survivors) > attack.EQUIV_CHECK_LIMIT:
        return False
    outputs, tables = net._program().outputs, []
    for a in survivors:  # each survivor's ops, run over every block
        ops = netlist._resolve(net, [*fixed.items(), *zip(gate_ids, a)])
        tables.append([[may1[i] for i in outputs] for may1 in (
            netlist._run(ops, words, mask)[1]
            for _, words, mask in netlist._blocks(len(net.inputs)))])
    return all(table == tables[0] for table in tables)


def reference_resolve_jointly(net, cache, sets, gate_ids, fixed):
    """The joint step with a walk that filters once per oracle reply.

    Every filter is ``reference_filter``, which runs each candidate on its
    own. Returns the status, the survivors' log2 and the survivors.
    """
    survivors = reference_filter(
        net, gate_ids,
        product(*(sorted(sets[g], key=lambda f: f.value) for g in gate_ids)),
        list(cache.transcript.items()), fixed)
    settled = reference_equivalent(net, gate_ids, survivors, fixed)
    if not settled:
        for vec in all_vectors(len(net.inputs)):
            out = cache.query(vec)
            if out is None:
                break
            before = len(survivors)
            survivors = reference_filter(net, gate_ids, survivors,
                                         [(vec, out)], fixed)
            if len(survivors) != before and reference_equivalent(
                    net, gate_ids, survivors, fixed):
                settled = True
                break
        else:
            settled = True  # every vector is in the transcript
    for i, gid in enumerate(gate_ids):
        sets[gid] = {a[i] for a in survivors}
    status = ("unique" if len(survivors) == 1 else "equivalent_class"
              if settled else "budget_exhausted")
    log2 = math.log2(len(survivors)) if survivors else float("-inf")
    return status, log2, survivors


@st.composite
def walk_cases(draw):
    """An attack case, a residue, earlier queries and walk settings."""
    locked, key, _ = draw(attack_cases())
    camo = [g.gate_id for g in locked.topo_order if g.is_camo]
    picked = draw(st.lists(st.sampled_from(camo), min_size=1, unique=True))
    residue = [gid for gid in camo if gid in picked]
    space = 1 << len(locked.inputs)
    prior = draw(st.lists(st.integers(0, space - 1), max_size=4))
    budget = draw(st.none() | st.integers(0, space + 2))
    return (locked, key, residue, prior, budget, draw(st.booleans()),
            draw(st.sampled_from([1, 2, 12])),
            draw(st.sampled_from([0, netlist._TABLE_BITS])),
            draw(st.sampled_from([1, attack.EQUIV_CHECK_LIMIT])))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_cases())
def test_walk_matches_the_per_query_reference(case):
    (locked, key, residue, prior, budget, knowledge, block_log2, bits,
     equiv_limit) = case
    vectors = list(all_vectors(len(locked.inputs)))
    fixed = {gid: e.function for gid, e in key.entries.items()
             if gid not in residue}
    walked, real_walk = [], attack._AttackRun.walk

    def spy(cache, tables):
        known = set(cache.transcript)
        with mock.patch.object(tables, "matches",
                               wraps=tables.matches) as matches:
            result = real_walk(cache, tables)
        # the walk checks each new reply once, and no earlier one
        assert [c.args[0] for c in matches.call_args_list] == [
            vec for vec in cache.transcript if vec not in known]
        walked.append(tables.items)
        return result

    def run(joint):
        oracle = CountingOracle(locked, key)
        cache = attack._AttackRun(locked, oracle, budget, knowledge)
        for i in prior:
            cache.query(vectors[i])
        cache.sets = sets = {**cache.sets,
                             **{gid: {func} for gid, func in fixed.items()}}
        with mock.patch.object(netlist, "_BLOCK_LOG2", block_log2), \
                mock.patch.object(netlist, "_TABLE_BITS", bits), \
                mock.patch.object(attack, "EQUIV_CHECK_LIMIT", equiv_limit), \
                mock.patch.object(attack._AttackRun, "walk", spy):
            result = joint(locked, cache, sets, residue, fixed)
        return result, sets, oracle.query_count, list(cache.transcript.items())

    (status, log2), *state = run(
        lambda net, cache, sets, gate_ids, fixed: cache.resolve(gate_ids,
                                                                walk=True))
    (want_status, want_log2, survivors), *want_state = run(
        reference_resolve_jointly)
    assert (status, log2, state) == (want_status, want_log2, want_state)
    if walked:
        assert walked[0] == survivors
