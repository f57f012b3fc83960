"""Netlist parsing, simulation, equivalence, and timing analysis."""

import random
from itertools import islice, product

import pytest

from conftest import bench_text, random_netlist
from vtcamo.camouflage import (SelectionPolicy, apply_camouflage,
                               eligible_gates, overhead_report, select_gates)
from vtcamo.cell import CellFlavor, GateFunction
from vtcamo.errors import (
    ArityMismatchError,
    BenchSyntaxError,
    IncompatibleNetlistsError,
    InputWidthError,
    InvalidParameterError,
    KeyScopeError,
    NetlistCycleError,
    UndefinedNetError,
    UnresolvedGateError,
)
from vtcamo.netlist import (
    CamoKey,
    EXHAUSTIVE_INPUT_LIMIT,
    Gate,
    KeyEntry,
    Netlist,
    OutputTables,
    all_vectors,
    check_equivalence,
    critical_path,
    parse_bench,
    random_vectors,
    reachable,
    serialize_bench,
    simulate,
    validate_key,
)

NUM_PATH_ORACLE_TRIALS = 25


class TestParsing:
    def test_c17_structure(self, c17):
        assert c17.inputs == ("1", "2", "3", "6", "7")
        assert c17.outputs == ("22", "23")
        assert [g.gate_id for g in c17.gates] == ["10", "11", "16", "19",
                                                  "22", "23"]
        assert all(g.func is GateFunction.NAND for g in c17.gates)

    def test_topological_order_respects_fanins(self, synth_mix):
        seen = set(synth_mix.inputs)
        for g in synth_mix.topo_order:
            assert set(g.fanins) <= seen
            seen.add(g.gate_id)

    def test_flop_is_cut_into_pseudo_ports(self, synth_mix):
        assert synth_mix.pseudo_inputs == ("q",)
        assert synth_mix.pseudo_outputs == ("n9",)
        assert synth_mix.inputs[-1] == "q"
        assert synth_mix.outputs[-1] == "n9"

    def test_camo_tokens_parse(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                          "y = CAMO8(a, b)\n")
        gate = net.gate("y")
        assert gate.is_camo and gate.flavor is CellFlavor.CAMO8
        assert gate.func is None

    @pytest.mark.parametrize("name", ["c17.bench", "synth_mix.bench",
                                      "synth_wide.bench"])
    def test_serialize_round_trip(self, name):
        net = parse_bench(bench_text(name))
        text = serialize_bench(net)
        again = parse_bench(text)
        assert serialize_bench(again) == text
        assert again.inputs == net.inputs and again.outputs == net.outputs

    def test_flop_before_port_lines_keeps_port_order(self):
        net = parse_bench("INPUT(a)\nq = DFF(d)\nINPUT(b)\nOUTPUT(z)\n"
                          "d = AND(a, q)\nz = OR(b, d)\n")
        assert net.inputs == ("a", "q", "b")
        assert net.outputs == ("d", "z")
        assert parse_bench(serialize_bench(net)) == net

    def test_gate_lookup(self, c17):
        assert c17.gate("16").fanins == ("2", "11")
        with pytest.raises(UnresolvedGateError):
            c17.gate("nope")


class TestParseErrors:
    def test_syntax_error_carries_line(self):
        with pytest.raises(BenchSyntaxError) as err:
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a,\n")
        assert err.value.line == 3

    def test_unknown_function(self):
        with pytest.raises(BenchSyntaxError, match="FOO"):
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = FOO(a, b)\n")

    def test_duplicate_definition(self):
        with pytest.raises(BenchSyntaxError, match="twice"):
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                        "y = NAND(a, b)\ny = NOR(a, b)\n")

    def test_second_output_of_a_net_is_rejected(self):
        with pytest.raises(BenchSyntaxError, match="OUTPUT twice") as err:
            parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text", [
        "INPUT(a)\nOUTPUT(d)\nd = NOT(a)\nq = DFF(d)\n",
        "INPUT(a)\nq = DFF(d)\nd = NOT(a)\nOUTPUT(d)\n",
    ], ids=["output-first", "flop-first"])
    def test_output_that_is_also_flop_data_is_rejected(self, text):
        with pytest.raises(BenchSyntaxError, match="DFF data") as err:
            parse_bench(text)
        assert err.value.line == 4

    def test_undefined_fanin(self):
        with pytest.raises(UndefinedNetError, match="ghost"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n")

    def test_undefined_output(self):
        with pytest.raises(UndefinedNetError, match="z"):
            parse_bench("INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n")

    @pytest.mark.parametrize("outputs, gates, message", [
        (("z",), (Gate("y", ("a", "ghost"), func=GateFunction.NAND),
                  Gate("w", ("gone",), func=GateFunction.NOT)),
         "gate 'y' uses undefined net 'ghost'"),
        (("y", "z"), (Gate("y", ("a",), func=GateFunction.NOT),),
         "OUTPUT(z) is never defined"),
    ], ids=["fanin-before-output", "output"])
    def test_direct_netlist_raises_the_parsers_undefined_error(
            self, outputs, gates, message):
        text = "\n".join(["INPUT(a)", *(f"OUTPUT({o})" for o in outputs), *(
            "{} = {}({})".format(g.gate_id, g.func.value, ", ".join(g.fanins))
            for g in gates)])
        for build in (lambda: parse_bench(text),
                      lambda: Netlist(("a",), outputs, gates)):
            with pytest.raises(UndefinedNetError) as err:
                build()
            assert str(err.value) == message

    @pytest.mark.parametrize("line", [
        "y = NOT(a, b)",
        "y = NAND(a)",
        "y = CAMO8(a, b, a)",
        "y = CMOS3A(a)",
    ])
    def test_arity_violations(self, line):
        with pytest.raises(ArityMismatchError):
            parse_bench(f"INPUT(a)\nINPUT(b)\nOUTPUT(y)\n{line}\n")

    @pytest.mark.parametrize("inputs, gates, name", [
        (("a",), (Gate("g", ("a",), func=GateFunction.NOT),
                  Gate("g", ("a",), func=GateFunction.BUFF)), "g"),
        (("a", "b", "a"), (Gate("g", ("a", "b"), func=GateFunction.AND),), "a"),
        (("a", "g"), (Gate("h", ("a",), func=GateFunction.NOT),
                      Gate("g", ("a",), func=GateFunction.NOT),
                      Gate("h", ("g",), func=GateFunction.NOT)), "g"),
    ], ids=["gate", "input", "gate-over-input-first"])
    def test_direct_netlist_rejects_a_net_defined_twice(self, inputs, gates,
                                                        name):
        with pytest.raises(BenchSyntaxError) as err:
            Netlist(inputs, ("a",), gates)
        assert str(err.value) == f"net {name!r} defined twice"
        assert err.value.line is None

    def test_direct_netlist_rejects_a_gate_with_no_fanins(self):
        # the parser rejects one too; the timing and depth passes read a
        # gate's first fanin
        gates = (Gate("g", ("a",), func=GateFunction.NOT),
                 Gate("h", (), func=GateFunction.BUFF))
        with pytest.raises(BenchSyntaxError) as err:
            Netlist(("a",), ("g",), gates)
        assert str(err.value) == "gate 'h' has no fanins"

    @pytest.mark.parametrize("pseudo", [
        (("q",), ("d",)), (("q",), ()), (("r", "q"), ("q", "r")),
    ], ids=["data-net-not-an-output", "flop-without-data-net", "flop-order"])
    def test_direct_netlist_rejects_unpaired_flops(self, pseudo):
        # serialize_bench writes a DFF line from the head of both port lists
        with pytest.raises(BenchSyntaxError) as err:
            Netlist(("q", "r"), ("q", "r"), (), *pseudo)
        assert str(err.value) == ("each DFF output must be an input and its "
                                  "data net an output, in DFF order")

    def test_direct_netlist_rejects_a_repeated_output(self):
        # serialize_bench would write OUTPUT(y) twice, which the parser
        # refuses
        with pytest.raises(BenchSyntaxError) as err:
            Netlist(("a", "b"), ("a", "y", "y"),
                    (Gate("y", ("a", "b"), GateFunction.AND),))
        assert str(err.value) == "net 'y' declared OUTPUT twice"
        # two flops may share a data net
        shared = parse_bench("INPUT(a)\nq = DFF(a)\nr = DFF(a)\n")
        assert shared.outputs == ("a", "a")
        assert parse_bench(serialize_bench(shared)) == shared

    def test_parser_names_the_line_of_a_gate_with_no_fanins(self):
        with pytest.raises(BenchSyntaxError) as err:
            parse_bench("INPUT(a)\nOUTPUT(x)\nx = AND()\n")
        assert str(err.value) == "gate 'x' has no fanins (line 3)"
        assert err.value.line == 3

    def test_parser_names_the_line_of_a_second_definition(self):
        with pytest.raises(BenchSyntaxError) as err:
            parse_bench("INPUT(a)\nOUTPUT(g)\ng = NOT(a)\ng = BUFF(a)\n")
        assert str(err.value) == "net 'g' defined twice (line 4)"

    def test_cycle_detection(self):
        with pytest.raises(NetlistCycleError):
            parse_bench("INPUT(c)\nOUTPUT(a)\n"
                        "a = NAND(b, c)\nb = NAND(a, c)\n")


class TestSimulation:
    def test_c17_against_reference_network(self, c17):
        def reference(v):
            nets = dict(zip("12367", v))
            nand = lambda x, y: 1 - (x & y)
            n10 = nand(nets["1"], nets["3"])
            n11 = nand(nets["3"], nets["6"])
            n16 = nand(nets["2"], n11)
            n19 = nand(n11, nets["7"])
            return (nand(n10, n16), nand(n16, n19))

        for vec in all_vectors(5):
            assert simulate(c17, vec) == reference(vec)

    def test_mixed_gate_types_against_reference(self, synth_mix):
        def reference(v):
            a, b, c, d, q = v
            n1 = 1 - (a & b)
            n2 = 1 - (b | c)
            n3 = c & d
            n4 = a | d
            n5 = n1 ^ n2
            n6 = 1 - (n3 ^ n4)
            n7 = 1 - n5
            n8 = n6
            n9 = 1 - (n5 & n6 & n7)
            return (n7 & q, n8 | n9, n9)

        for vec in all_vectors(5):
            assert simulate(synth_mix, vec) == reference(vec)

    def test_gates_outside_two_fanins(self):
        # the constructor, unlike the parser, accepts one-input AND/XOR
        f = GateFunction
        gates = (Gate("x1", ("a",), func=f.XOR),
                 Gate("n1", ("a",), func=f.NAND),
                 Gate("x3", ("a", "b", "c"), func=f.XNOR),
                 Gate("o3", ("a", "b", "c"), func=f.OR))
        net = Netlist(("a", "b", "c"), ("x1", "n1", "x3", "o3"), gates)
        for a, b, c in all_vectors(3):
            assert simulate(net, (a, b, c)) == (a, 1 - a, 1 - (a ^ b ^ c),
                                                a | b | c)

    def test_width_validation(self, c17):
        with pytest.raises(InputWidthError):
            simulate(c17, (0, 1))
        with pytest.raises(InputWidthError):
            simulate(c17, (0, 1, 2, 0, 1))

    def test_camo_needs_key(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                          "y = CAMO8(a, b)\n")
        with pytest.raises(UnresolvedGateError):
            simulate(net, (0, 1))
        key = CamoKey({"y": KeyEntry(GateFunction.NOR)})
        assert simulate(net, (0, 0), key) == (1,)

    def test_vector_enumeration_order(self):
        vecs = list(all_vectors(2))
        assert vecs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for width in range(4):
            assert list(all_vectors(width)) == list(product((0, 1),
                                                            repeat=width))

    def test_exhaustive_guard(self):
        # refused at the call, before any vector is drawn
        with pytest.raises(InvalidParameterError, match=(
                "^25 inputs exceeds the exhaustive limit of 24$")):
            all_vectors(EXHAUSTIVE_INPUT_LIMIT + 1)

    def test_random_vectors_are_seeded(self):
        a = list(random_vectors(8, 20, seed=9))
        b = list(random_vectors(8, 20, seed=9))
        c = list(random_vectors(8, 20, seed=10))
        assert a == b and a != c
        assert all(len(v) == 8 for v in a)

    @pytest.mark.parametrize("seed", [0, 9, 2015])
    def test_random_vectors_are_drawn_lazily_in_the_list_order(self, seed):
        rng = random.Random(seed)
        eager = [tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(40)]
        assert list(islice(random_vectors(5, 10**12, seed), 40)) == eager
        assert list(random_vectors(5, 40, seed)) == eager

    def test_random_equivalence_draws_one_block_at_a_time(self, c17):
        gates = [Gate(g.gate_id, g.fanins, func=GateFunction.AND)
                 if g.gate_id == "22" else g for g in c17.gates]
        mutant = Netlist(c17.inputs, c17.outputs, tuple(gates))
        verdict = check_equivalence(c17, mutant, mode="random",
                                    num_vectors=10**12, seed=1)
        assert not verdict.equivalent and verdict.vectors_checked < 100

    def test_packed_bits_must_be_0_or_1(self, c17):
        vec = (0, 1, 1, 0, 1)
        out = simulate(c17, vec)
        tables = OutputTables(c17, {}).replay({vec: out})
        assert tables.items == [0] and list(tables.survivors([])) == [()]
        for bad in ((2, *out[1:]), (None, *out[1:]), (0.5, *out[1:])):
            with pytest.raises(InputWidthError):
                OutputTables(c17, {}).replay({vec: bad})


class TestGate:
    def test_fields_are_read_only(self):
        gate = Gate("g", ("a",), func=GateFunction.NOT)
        with pytest.raises(AttributeError):
            gate.fanins = ("b",)

    def test_keyword_construction_and_defaults(self):
        plain = Gate(gate_id="g", fanins=("a",), func=GateFunction.NOT)
        camo = Gate("c", ("a", "b"), flavor=CellFlavor.CAMO8)
        assert (plain.func, plain.flavor, plain.is_camo) == (
            GateFunction.NOT, None, False)
        assert (camo.func, camo.flavor, camo.is_camo) == (
            None, CellFlavor.CAMO8, True)

    def test_repr(self):
        assert repr(Gate("g", ("a",), func=GateFunction.NOT)) == (
            "Gate(gate_id='g', fanins=('a',), func=NOT, flavor=None)")

    def test_equal_gates_hash_equally(self):
        a = Gate("g", ("a", "b"), func=GateFunction.AND)
        b = Gate("g", ("a", "b"), GateFunction.AND, None)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Gate("g", ("a", "b"), func=GateFunction.OR)


class TestIndexProgram:
    @pytest.mark.parametrize("seed", [None, 3])
    def test_locking_never_resolves_names(self, synth_mix, monkeypatch, seed):
        eligible = eligible_gates(synth_mix, CellFlavor.CAMO8)

        def resolve(self):
            raise AssertionError("Netlist.__post_init__ ran")
        monkeypatch.setattr(Netlist, "__post_init__", resolve)
        locked, key = apply_camouflage(synth_mix, eligible, CellFlavor.CAMO8,
                                       decoy_seed=seed)
        monkeypatch.undo()
        assert any(e.decoy_net for e in key.entries.values())
        assert locked._index is synth_mix._index
        assert locked._names is synth_mix._names
        assert locked == parse_bench(serialize_bench(locked))

    def test_locking_never_builds_the_program(self, synth_wide):
        net = parse_bench(serialize_bench(synth_wide))
        selected = select_gates(net, SelectionPolicy(
            strategy="greedy_effort", budget=0.2, seed=1))
        locked, key = apply_camouflage(net, selected, CellFlavor.CAMO8,
                                       decoy_seed=3)
        again = parse_bench(serialize_bench(locked))
        critical_path(locked)
        overhead_report(again)
        validate_key(again, key)
        assert selected and again == locked
        assert all(n._prog is None for n in (net, locked, again))
        simulate(locked, (0,) * len(locked.inputs), key)
        assert locked._prog is not None


class TestKeyHandling:
    def _locked(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
                          "y = CAMO8(a, b)\nz = NAND(a, b)\n")
        return net

    def test_missing_entry(self):
        with pytest.raises(UnresolvedGateError):
            validate_key(self._locked(), CamoKey({}))

    def test_extra_entry(self):
        key = CamoKey({"y": KeyEntry(GateFunction.NAND),
                       "z": KeyEntry(GateFunction.NAND)})
        with pytest.raises(KeyScopeError):
            validate_key(self._locked(), key)

    def test_function_outside_flavor(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                          "y = CMOS3A(a, b)\n")
        with pytest.raises(KeyScopeError):
            validate_key(net, CamoKey({"y": KeyEntry(GateFunction.AND)}))

    def test_decoy_rules(self):
        net = self._locked()
        with pytest.raises(KeyScopeError):
            validate_key(net, CamoKey({"y": KeyEntry(GateFunction.INV)}))
        with pytest.raises(KeyScopeError):
            validate_key(net, CamoKey({
                "y": KeyEntry(GateFunction.NAND, decoy_net="a")}))
        validate_key(net, CamoKey({"y": KeyEntry(GateFunction.INV,
                                                 decoy_net="a")}))

    def test_decoy_must_be_the_first_fanin(self):
        net = self._locked()  # y = CAMO8(a, b)
        for decoy in ("b", "z", "nowhere"):
            with pytest.raises(KeyScopeError, match="first fanin"):
                validate_key(net, CamoKey({
                    "y": KeyEntry(GateFunction.BUF, decoy_net=decoy)}))

    def test_empty_gate_id_is_rejected(self):
        with pytest.raises(BenchSyntaxError, match="empty gate id"):
            CamoKey.deserialize("y=NAND\n=NAND\n")

    def test_empty_decoy_is_rejected(self):
        with pytest.raises(BenchSyntaxError, match="empty decoy"):
            CamoKey.deserialize("y=INV,decoy= \n")

    def test_duplicate_entry_is_rejected(self):
        with pytest.raises(BenchSyntaxError,
                           match=r"^duplicate key entry 'y' \(line 2\)$"):
            CamoKey.deserialize("y=NAND\ny=NOR\n")

    def test_key_serialization_round_trip(self):
        key = CamoKey({"g2": KeyEntry(GateFunction.INV, decoy_net="n4"),
                       "g1": KeyEntry(GateFunction.XOR)})
        text = key.serialize()
        assert text == "g1=XOR\ng2=INV,decoy=n4\n"
        assert CamoKey.deserialize(text) == key


class TestEquivalence:
    def test_identical_netlists(self, c17):
        verdict = check_equivalence(c17, c17)
        assert verdict.equivalent and verdict.vectors_checked == 32

    def test_detects_difference_with_counterexample(self, c17):
        gates = [g if g.gate_id != "23"
                 else Gate("23", g.fanins, func=GateFunction.NOR)
                 for g in c17.gates]
        other = Netlist(c17.inputs, c17.outputs, tuple(gates), (), ())
        verdict = check_equivalence(c17, other)
        assert not verdict.equivalent
        assert simulate(c17, verdict.counterexample) == verdict.outputs_a
        assert simulate(other, verdict.counterexample) == verdict.outputs_b
        assert verdict.outputs_a != verdict.outputs_b

    def test_random_mode_is_seeded(self, synth_wide):
        a = check_equivalence(synth_wide, synth_wide, mode="random",
                              num_vectors=50, seed=3)
        assert a.equivalent and a.vectors_checked == 50

    def test_unknown_mode_is_rejected(self, c17):
        with pytest.raises(InvalidParameterError,
                           match="^unknown equivalence mode 'bogus'$"):
            check_equivalence(c17, c17, mode="bogus")

    def test_incompatible_interfaces(self, c17, synth_mix):
        with pytest.raises(IncompatibleNetlistsError):
            check_equivalence(c17, synth_mix)
        # the same output names in another order
        swapped = Netlist(c17.inputs, c17.outputs[::-1], c17.gates)
        with pytest.raises(IncompatibleNetlistsError,
                           match="^netlists differ in PI/PO names or order$"):
            check_equivalence(c17, swapped)

    def test_mismatched_keys_fail_fast(self, c17):
        stray = CamoKey({"10": KeyEntry(GateFunction.NAND)})
        with pytest.raises(KeyScopeError):
            check_equivalence(c17, c17, key_b=stray)
        # simulate applies the same check, although c17 has no cells
        with pytest.raises(KeyScopeError):
            simulate(c17, (0,) * 5, stray)


class TestCriticalPath:
    def _oracle_delay(self, net):
        arrivals = {}
        for g in net.topo_order:
            base = max((arrivals.get(f, 0.0) for f in g.fanins),
                       default=0.0)
            arrivals[g.gate_id] = base + 1.0
        ends = [gid for gid in arrivals if gid in set(net.outputs)]
        if not ends:
            ends = list(arrivals)
        return max(arrivals[g] for g in ends)

    def test_c17(self, c17):
        cp = critical_path(c17)
        assert cp.delay == 3.0
        assert len(cp.gate_ids) == 3
        assert cp.gate_ids[-1] in c17.outputs

    def test_matches_arrival_oracle_on_random_netlists(self):
        for seed in range(NUM_PATH_ORACLE_TRIALS):
            net = random_netlist(4, 12, seed=seed)
            cp = critical_path(net)
            assert cp.delay == self._oracle_delay(net)
            # the reported path must be a real directed path with that delay
            gate_map = {g.gate_id: g for g in net.gates}
            for earlier, later in zip(cp.gate_ids, cp.gate_ids[1:]):
                assert earlier in gate_map[later].fanins
            assert len(cp.gate_ids) == cp.delay

    def test_endpoint_prefers_output_gates(self):
        # a deeper dangling chain must not displace the real output path
        net = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
            "y = NAND(a, b)\n"
            "d1 = NOT(a)\nd2 = NOT(d1)\nd3 = NOT(d2)\nd4 = NOT(d3)\n")
        cp = critical_path(net)
        assert cp.gate_ids == ("y",)
        assert cp.delay == 1.0

    def test_deterministic_tie_break(self, c17):
        a = critical_path(c17)
        b = critical_path(c17)
        assert a == b


class TestTopology:
    def test_levels(self, c17):
        levels = dict(zip(c17._names, c17._depths()))
        assert levels["10"] == 1 and levels["16"] == 2 and levels["23"] == 3
        assert levels["1"] == 0

    def test_fanout_cone_includes_self_and_successors(self, c17):
        cone = reachable(c17._fanouts, c17._index["11"])
        assert {c17._names[n] for n in cone} == {"11", "16", "19", "22",
                                                  "23"}

    def test_fanin_cone_includes_inputs(self, c17):
        assert c17.fanin_cone("22") == {"1", "2", "3", "6", "10", "11",
                                        "16", "22"}
