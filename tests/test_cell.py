"""Cell library: configs, truth tables, serialization, distinguishers."""

import itertools

import pytest

from vtcamo.cell import (
    CAMOUFLAGEABLE,
    CamoConfig,
    CellFlavor,
    GateFunction,
    NUM_SWITCHES,
    VT,
    behavior_table,
    config_for,
    decode,
    distinguishing_set,
    evaluate,
    truth_table,
)
from vtcamo.errors import (
    IndistinguishableError,
    MalformedConfigError,
    UnsupportedFunctionError,
)

_REFERENCE = {
    GateFunction.NAND: lambda a, b: 1 - (a & b),
    GateFunction.AND: lambda a, b: a & b,
    GateFunction.NOR: lambda a, b: 1 - (a | b),
    GateFunction.OR: lambda a, b: a | b,
    GateFunction.XOR: lambda a, b: a ^ b,
    GateFunction.XNOR: lambda a, b: 1 - (a ^ b),
}
_VECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


class TestTruthTables:
    @pytest.mark.parametrize("func", sorted(_REFERENCE, key=lambda f: f.value))
    def test_two_input_functions(self, func):
        table = truth_table(func)
        for a, b in _VECTORS:
            assert table[(a, b)] == _REFERENCE[func](a, b)

    def test_single_input_functions(self):
        assert truth_table(GateFunction.INV) == {(0,): 1, (1,): 0}
        assert truth_table(GateFunction.BUF) == {(0,): 0, (1,): 1}

    def test_behavior_tables_of_single_input_cells(self):
        # the tie network zeroes the first port, so only the second matters
        inv = behavior_table(GateFunction.INV)
        buf = behavior_table(GateFunction.BUF)
        for a, b in _VECTORS:
            assert inv[(a, b)] == 1 - b
            assert buf[(a, b)] == b

    def test_unknown_function_has_no_table(self):
        with pytest.raises(UnsupportedFunctionError,
                           match="^no truth table for CAMO8$"):
            truth_table(CellFlavor.CAMO8)
        with pytest.raises(UnsupportedFunctionError,
                           match="^no truth table for CAMO8$"):
            behavior_table(CellFlavor.CAMO8)

    def test_behavior_table_is_shared_and_read_only(self):
        table = behavior_table(GateFunction.NAND)
        assert table is behavior_table(GateFunction.NAND)
        assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        with pytest.raises(TypeError):
            table[(1, 1)] = 1

    @pytest.mark.parametrize("func", sorted(CAMOUFLAGEABLE,
                                            key=lambda f: f.value))
    def test_evaluate_matches_behavior(self, func):
        config = config_for(func, CellFlavor.CAMO8)
        table = behavior_table(func)
        for vec in _VECTORS:
            assert evaluate(config, vec) == table[vec]

    @pytest.mark.parametrize("inputs", [(0, 2), (1,), (0, 1, 1)])
    def test_evaluate_rejects_non_bit_inputs(self, inputs):
        config = config_for(GateFunction.NAND, CellFlavor.CAMO8)
        with pytest.raises(MalformedConfigError) as exc:
            evaluate(config, inputs)
        assert str(exc.value) == f"cell inputs must be two bits: {inputs!r}"


class TestConfigs:
    @pytest.mark.parametrize("flavor", list(CellFlavor))
    def test_round_trip_through_decode(self, flavor):
        for func in sorted(flavor.function_set, key=lambda f: f.value):
            config = config_for(func, flavor)
            assert decode(config) is func
            assert config.flavor is flavor

    def test_switch_count_and_symbols(self):
        config = config_for(GateFunction.NAND, CellFlavor.CAMO8)
        assert len(config.switch_vt) == NUM_SWITCHES == 14
        assert set(config.switch_vt) <= {VT.HVT, VT.LVT}

    def test_single_input_programs_use_the_tie_bank(self):
        inv = config_for(GateFunction.INV, CellFlavor.CAMO8)
        xnor = config_for(GateFunction.XNOR, CellFlavor.CAMO8)
        assert inv.tie_first_input and not xnor.tie_first_input
        assert inv.switch_vt[:10] == xnor.switch_vt[:10]
        assert inv.switch_vt[10:] != xnor.switch_vt[10:]

    def test_all_camo8_configs_share_a_footprint(self):
        # every programming differs only in VT assignment, never in shape
        seen = set()
        for func in sorted(CAMOUFLAGEABLE, key=lambda f: f.value):
            config = config_for(func, CellFlavor.CAMO8)
            assert len(config.switch_vt) == NUM_SWITCHES
            seen.add(config.switch_vt)
        assert len(seen) == len(CAMOUFLAGEABLE)

    def test_flavor_restrictions(self):
        with pytest.raises(UnsupportedFunctionError,
                           match="^XOR is not realizable by flavor CMOS3B$"):
            config_for(GateFunction.XOR, CellFlavor.CMOS3B)
        with pytest.raises(UnsupportedFunctionError):
            config_for(GateFunction.INV, CellFlavor.CMOS3A)
        with pytest.raises(UnsupportedFunctionError):
            config_for(GateFunction.NOT, CellFlavor.CAMO8)

    def test_flavor_function_sets(self):
        assert CellFlavor.CMOS3A.function_set == frozenset(
            {GateFunction.NAND, GateFunction.NOR, GateFunction.XOR})
        assert CellFlavor.CMOS3B.function_set == frozenset(
            {GateFunction.AND, GateFunction.OR, GateFunction.XNOR})
        assert CellFlavor.CAMO8.function_set == CAMOUFLAGEABLE
        assert len(CAMOUFLAGEABLE) == 8


class TestEnums:
    def test_members_hash_by_identity(self):
        # member-keyed tables then never call the Python-level Enum.__hash__
        for member in (*GateFunction, *CellFlavor, *VT):
            assert hash(member) == object.__hash__(member), member
            assert repr(member) == member.value

    @pytest.mark.parametrize("enum", [GateFunction, CellFlavor, VT])
    def test_members_sort_by_value(self, enum):
        members = list(enum)[::-1]
        for size in range(len(members) + 1):
            for subset in itertools.combinations(members, size):
                assert sorted(subset) == sorted(subset, key=lambda m: m.value)

    @pytest.mark.parametrize("a, b", [
        (GateFunction.AND, CellFlavor.CAMO8), (CellFlavor.CAMO8, VT.LVT),
        (VT.HVT, GateFunction.AND), (GateFunction.AND, "AND"),
        ("AND", GateFunction.AND), (VT.LVT, 1)])
    def test_members_of_two_enums_do_not_compare(self, a, b):
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            sorted([a, b])


#: ``serialize`` of every flavor's config for each function; the
#: ``ContentionCollapseError`` text names a config by it
_SERIALIZED = {
    CellFlavor.CAMO8: {
        GateFunction.AND: "CAMO8:HHLLHHHHHHLLHH:TIE=0",
        GateFunction.BUF: "CAMO8:HHHHHHHHLHHHLL:TIE=1",
        GateFunction.INV: "CAMO8:HHHHHHHHHLHHLL:TIE=1",
        GateFunction.NAND: "CAMO8:LLHHHHHHHHLLHH:TIE=0",
        GateFunction.NOR: "CAMO8:HHHHLLHHHHLLHH:TIE=0",
        GateFunction.OR: "CAMO8:HHHHHHLLHHLLHH:TIE=0",
        GateFunction.XNOR: "CAMO8:HHHHHHHHHLLLHH:TIE=0",
        GateFunction.XOR: "CAMO8:HHHHHHHHLHLLHH:TIE=0",
    },
    CellFlavor.CMOS3A: {
        GateFunction.NAND: "CMOS3A:LLHHHHHHHHLLHH:TIE=0",
        GateFunction.NOR: "CMOS3A:HHHHLLHHHHLLHH:TIE=0",
        GateFunction.XOR: "CMOS3A:HHHHHHHHLHLLHH:TIE=0",
    },
    CellFlavor.CMOS3B: {
        GateFunction.AND: "CMOS3B:HHLLHHHHHHLLHH:TIE=0",
        GateFunction.OR: "CMOS3B:HHHHHHLLHHLLHH:TIE=0",
        GateFunction.XNOR: "CMOS3B:HHHHHHHHHLLLHH:TIE=0",
    },
}


class TestSerialization:
    @pytest.mark.parametrize("flavor", list(CellFlavor))
    def test_round_trip(self, flavor):
        """The pinned text of each config, read back field by field."""
        texts = _SERIALIZED[flavor]
        assert set(texts) == flavor.function_set
        for func, text in texts.items():
            config = config_for(func, flavor)
            assert config.serialize() == text
            name, switches, tie = text.split(":")
            read = CamoConfig(tuple(map(VT, switches)), CellFlavor(name))
            assert read == config
            assert read.tie_first_input == (tie == "TIE=1")

    def test_serialized_shape(self):
        text = config_for(GateFunction.NAND, CellFlavor.CAMO8).serialize()
        flavor, switches, tie = text.split(":")
        assert flavor == "CAMO8"
        assert len(switches) == 14 and set(switches) <= {"H", "L"}
        assert tie in ("TIE=0", "TIE=1")


class TestDecodeValidation:
    def _raw(self, func=GateFunction.NAND, flavor=CellFlavor.CAMO8):
        return config_for(func, flavor)

    def test_rejects_double_selection(self):
        base = self._raw()
        switches = list(base.switch_vt)
        switches[4] = VT.LVT  # a second route group turned on
        bad = CamoConfig(tuple(switches), base.flavor)
        with pytest.raises(MalformedConfigError):
            decode(bad)

    def test_rejects_half_selected_pair(self):
        base = self._raw()
        switches = list(base.switch_vt)
        switches[1] = VT.HVT  # break one member of the conducting pair
        bad = CamoConfig(tuple(switches), base.flavor)
        with pytest.raises(MalformedConfigError):
            decode(bad)

    def test_rejects_inconsistent_tie_bank(self):
        base = self._raw()
        switches = list(base.switch_vt)
        switches[10], switches[11] = VT.HVT, VT.HVT
        bad = CamoConfig(tuple(switches), base.flavor)
        with pytest.raises(MalformedConfigError):
            decode(bad)

    @pytest.mark.parametrize("count", [0, 10, 15])
    def test_rejects_wrong_switch_count(self, count):
        base = self._raw()
        switches = (base.switch_vt * 2)[:count]
        bad = CamoConfig(switches, base.flavor)
        with pytest.raises(MalformedConfigError,
                           match=f"^expected 14 switches, got {count}$"):
            decode(bad)

    def test_rejects_tie_with_a_monotone_selection(self):
        base = self._raw()
        tied = config_for(GateFunction.INV, CellFlavor.CAMO8)
        bad = CamoConfig(base.switch_vt[:10] + tied.switch_vt[10:],
                         base.flavor)
        with pytest.raises(MalformedConfigError, match="^input tie combined "
                           "with NAND selection$"):
            decode(bad)

    def test_rejects_function_outside_flavor(self):
        xor = config_for(GateFunction.XOR, CellFlavor.CAMO8)
        bad = CamoConfig(xor.switch_vt, CellFlavor.CMOS3B)
        with pytest.raises(MalformedConfigError):
            decode(bad)


class TestDistinguishingSets:
    def test_parity_pair_needs_one_vector(self):
        got = distinguishing_set(frozenset({GateFunction.XOR,
                                            GateFunction.XNOR}))
        assert tuple(got) == ((0, 0),)

    def test_monotone_quad_needs_two(self):
        got = distinguishing_set(frozenset({
            GateFunction.NAND, GateFunction.AND,
            GateFunction.NOR, GateFunction.OR}))
        assert tuple(got) == ((0, 0), (0, 1))

    def test_six_base_functions_need_three(self):
        got = distinguishing_set(frozenset({
            GateFunction.NAND, GateFunction.AND, GateFunction.NOR,
            GateFunction.OR, GateFunction.XOR, GateFunction.XNOR}))
        assert tuple(got) == ((0, 0), (0, 1), (1, 1))

    def test_all_eight_need_every_vector(self):
        got = distinguishing_set(CAMOUFLAGEABLE)
        assert tuple(got) == _VECTORS

    @pytest.mark.parametrize("candidates", [
        frozenset({GateFunction.XOR, GateFunction.XNOR}),
        frozenset({GateFunction.NAND, GateFunction.AND,
                   GateFunction.NOR, GateFunction.OR}),
        frozenset({GateFunction.NAND, GateFunction.AND, GateFunction.NOR,
                   GateFunction.OR, GateFunction.XOR, GateFunction.XNOR}),
        CAMOUFLAGEABLE,
    ])
    def test_result_is_minimal(self, candidates):
        got = tuple(distinguishing_set(candidates))
        tables = {f: behavior_table(f) for f in candidates}

        def splits(combo):
            responses = {tuple(tables[f][v] for v in combo) for f in tables}
            return len(responses) == len(tables)

        assert splits(got)
        for smaller in itertools.combinations(_VECTORS, len(got) - 1):
            assert not splits(smaller)

    def test_identical_pair_raises(self):
        with pytest.raises(IndistinguishableError):
            distinguishing_set(frozenset({GateFunction.BUF,
                                          GateFunction.BUFF}))

    def test_needs_two_candidates(self):
        with pytest.raises(UnsupportedFunctionError):
            distinguishing_set(frozenset({GateFunction.NAND}))
