"""Netlist parsing, simulation, equivalence, and timing analysis."""

import pytest

from conftest import bench_text, random_netlist
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
    all_vectors,
    check_equivalence,
    critical_path,
    parse_bench,
    random_vectors,
    serialize_bench,
    simulate,
    unit_delay_model,
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

    def test_undefined_fanin(self):
        with pytest.raises(UndefinedNetError, match="ghost"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n")

    def test_undefined_output(self):
        with pytest.raises(UndefinedNetError, match="z"):
            parse_bench("INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n")

    @pytest.mark.parametrize("line", [
        "y = NOT(a, b)",
        "y = NAND(a)",
        "y = CAMO8(a, b, a)",
        "y = CMOS3A(a)",
    ])
    def test_arity_violations(self, line):
        with pytest.raises(ArityMismatchError):
            parse_bench(f"INPUT(a)\nINPUT(b)\nOUTPUT(y)\n{line}\n")

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

    def test_exhaustive_guard(self):
        with pytest.raises(InvalidParameterError):
            list(all_vectors(EXHAUSTIVE_INPUT_LIMIT + 1))

    def test_random_vectors_are_seeded(self):
        a = random_vectors(8, 20, seed=9)
        b = random_vectors(8, 20, seed=9)
        c = random_vectors(8, 20, seed=10)
        assert a == b and a != c
        assert all(len(v) == 8 for v in a)


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

    def test_incompatible_interfaces(self, c17, synth_mix):
        with pytest.raises(IncompatibleNetlistsError):
            check_equivalence(c17, synth_mix)

    def test_mismatched_keys_fail_fast(self, c17):
        with pytest.raises(KeyScopeError):
            check_equivalence(c17, c17,
                              key_b=CamoKey({"10": KeyEntry(
                                  GateFunction.NAND)}))


class TestCriticalPath:
    def _oracle_delay(self, net, model):
        gate_map = {g.gate_id: g for g in net.gates}
        arrivals = {}
        for g in net.topo_order:
            base = max((arrivals.get(f, 0.0) for f in g.fanins),
                       default=0.0)
            arrivals[g.gate_id] = base + model(g)
        ends = [gid for gid in arrivals if gid in set(net.outputs)]
        if not ends:
            ends = list(arrivals)
        return max(arrivals[g] for g in ends)

    def test_c17(self, c17):
        cp = critical_path(c17, unit_delay_model)
        assert cp.delay == 3.0
        assert len(cp.gate_ids) == 3
        assert cp.gate_ids[-1] in c17.outputs

    def test_matches_arrival_oracle_on_random_netlists(self):
        for seed in range(NUM_PATH_ORACLE_TRIALS):
            net = random_netlist(4, 12, seed=seed)
            model = lambda g: 1.0 + (len(g.fanins) - 1) * 0.25
            cp = critical_path(net, model)
            assert cp.delay == pytest.approx(
                self._oracle_delay(net, model), rel=1e-12)
            # the reported path must be a real directed path with that delay
            gate_map = {g.gate_id: g for g in net.gates}
            total = 0.0
            for earlier, later in zip(cp.gate_ids, cp.gate_ids[1:]):
                assert earlier in gate_map[later].fanins
            for gid in cp.gate_ids:
                total += model(gate_map[gid])
            assert total == pytest.approx(cp.delay, rel=1e-12)

    def test_endpoint_prefers_output_gates(self):
        # a deeper dangling chain must not displace the real output path
        net = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
            "y = NAND(a, b)\n"
            "d1 = NOT(a)\nd2 = NOT(d1)\nd3 = NOT(d2)\nd4 = NOT(d3)\n")
        cp = critical_path(net, unit_delay_model)
        assert cp.gate_ids == ("y",)
        assert cp.delay == 1.0

    def test_deterministic_tie_break(self, c17):
        a = critical_path(c17, unit_delay_model)
        b = critical_path(c17, unit_delay_model)
        assert a == b


class TestTopology:
    def test_levels(self, c17):
        levels = c17.levels()
        assert levels["10"] == 1 and levels["16"] == 2 and levels["23"] == 3
        assert levels["1"] == 0

    def test_fanout_cone_includes_self_and_successors(self, c17):
        assert c17.fanout_cone("11") == {"11", "16", "19", "22", "23"}

    def test_fanin_cone_includes_inputs(self, c17):
        assert c17.fanin_cone("22") == {"1", "2", "3", "6", "10", "11",
                                        "16", "22"}
