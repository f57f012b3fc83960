"""Gate selection, netlist rewriting, overhead, and effort estimates."""

import math

import pytest

from conftest import random_netlist
from vtcamo.camouflage import (
    CostMultiples,
    CostTable,
    EFFORT_NOTE,
    SECONDS_PER_YEAR,
    SelectionPolicy,
    apply_camouflage,
    effort_estimate,
    eligible_gates,
    overhead_report,
    select_gates,
)
from vtcamo.cell import CellFlavor, GateFunction
from vtcamo.errors import (
    FlavorMismatchError,
    InvalidCostTableError,
    InvalidParameterError,
    InvalidPolicyError,
)
from vtcamo.netlist import (
    check_equivalence,
    critical_path,
    parse_bench,
    reachable,
    unit_delay_model,
)

CHAIN = ("INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
         "g1 = NAND(a, b)\ng2 = NOR(g1, a)\nz = XOR(g2, b)\n")


class TestApply:
    @pytest.mark.parametrize("flavor", [CellFlavor.CAMO8, CellFlavor.CMOS3A])
    def test_locked_netlist_is_equivalent_under_its_key(self, c17, flavor):
        locked, key = apply_camouflage(c17, ["10", "16"], flavor)
        verdict = check_equivalence(c17, locked, key_b=key,
                                    mode="exhaustive")
        assert verdict.equivalent
        assert all(e.function is GateFunction.NAND
                   for e in key.entries.values())

    def test_nand_cannot_hide_in_the_and_or_flavor(self, c17):
        with pytest.raises(FlavorMismatchError):
            apply_camouflage(c17, ["10"], CellFlavor.CMOS3B)

    def test_original_untouched(self, c17):
        apply_camouflage(c17, ["10"], CellFlavor.CAMO8)
        assert not c17.gate("10").is_camo

    def test_inverter_gains_a_decoy_input(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                          "m = NAND(a, b)\ny = NOT(m)\n")
        locked, key = apply_camouflage(net, ["y"], CellFlavor.CAMO8)
        gate = locked.gate("y")
        entry = key.entries["y"]
        assert entry.function is GateFunction.INV
        assert len(gate.fanins) == 2
        assert gate.fanins == (entry.decoy_net, "m")
        assert entry.decoy_net not in reachable(net.fanout_map(), "y")
        assert check_equivalence(net, locked, key_b=key).equivalent

    def test_decoys_chosen_in_one_call_never_close_a_cycle(self):
        # each BUFF's nearest-level decoy is the other BUFF; picking both
        # on the original netlist would wire a -> b -> a
        net = parse_bench("INPUT(x)\nINPUT(y)\nOUTPUT(a)\nOUTPUT(b)\n"
                          "a = BUFF(x)\nb = BUFF(y)\n")
        locked, key = apply_camouflage(net, ["a", "b"], CellFlavor.CAMO8)
        assert key.entries["a"].decoy_net == "b"
        assert key.entries["b"].decoy_net == "x"
        assert check_equivalence(net, locked, key_b=key).equivalent

    def test_seeded_decoys_in_one_call_stay_acyclic(self):
        net = random_netlist(4, 30, seed=11, p_single=0.6)
        singles = [g.gate_id for g in net.gates
                   if g.func in (GateFunction.NOT, GateFunction.BUFF)]
        assert len(singles) >= 10
        for seed in range(20):
            locked, key = apply_camouflage(net, singles, CellFlavor.CAMO8,
                                           decoy_seed=seed)
            assert check_equivalence(net, locked, key_b=key).equivalent

    def test_decoy_seed_is_deterministic(self):
        net = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
                          "m = NAND(a, b)\ny = NOT(m)\n")
        _, k1 = apply_camouflage(net, ["y"], CellFlavor.CAMO8, decoy_seed=4)
        _, k2 = apply_camouflage(net, ["y"], CellFlavor.CAMO8, decoy_seed=4)
        assert k1.entries["y"].decoy_net == k2.entries["y"].decoy_net

    def test_unknown_gate_id(self, c17):
        with pytest.raises(FlavorMismatchError):
            apply_camouflage(c17, ["999"], CellFlavor.CAMO8)

    def test_flavor_must_cover_the_function(self, synth_mix):
        # n3 is an AND gate; CMOS3A has no AND programming
        with pytest.raises(FlavorMismatchError):
            apply_camouflage(synth_mix, ["n3"], CellFlavor.CMOS3A)

    def test_camouflaged_gate_cannot_be_locked_again(self, c17):
        locked, _ = apply_camouflage(c17, ["10"], CellFlavor.CAMO8)
        with pytest.raises(FlavorMismatchError,
                           match="^gate '10' is already camouflaged$"):
            apply_camouflage(locked, ["10"], CellFlavor.CAMO8)

    def test_wide_gates_are_not_eligible(self, synth_mix):
        # n9 has three fanins, no camouflaged cell matches it
        assert "n9" not in eligible_gates(synth_mix, CellFlavor.CAMO8)
        with pytest.raises(FlavorMismatchError):
            apply_camouflage(synth_mix, ["n9"], CellFlavor.CAMO8)


class TestSelection:
    def test_budget_floor(self, c17):
        sel = select_gates(c17, SelectionPolicy(strategy="random",
                                                budget=0.4, seed=1))
        assert len(sel) == 2  # floor(0.4 * 6)

    def test_full_budget_takes_every_eligible_gate(self, c17):
        sel = select_gates(c17, SelectionPolicy(strategy="random",
                                                budget=1.0, seed=1))
        assert sel == [g.gate_id for g in c17.gates]

    def test_random_is_seeded(self, synth_wide):
        pol = SelectionPolicy(strategy="random", budget=0.05, seed=11)
        assert select_gates(synth_wide, pol) == select_gates(synth_wide, pol)
        other = SelectionPolicy(strategy="random", budget=0.05, seed=12)
        assert select_gates(synth_wide, pol) != select_gates(synth_wide,
                                                             other)

    def test_xor_sequence_prefers_gates_feeding_parity(self, synth_mix):
        sel = select_gates(synth_mix, SelectionPolicy(
            strategy="xor_sequence", budget=0.35))
        # n5 = XOR(n1, n2) and n6 = XNOR(n3, n4): their feeders rank first
        assert set(sel) <= {"n1", "n2", "n3", "n4"}
        assert len(sel) == 3  # floor(0.35 * 11)

    def test_off_critical_avoids_the_reported_path(self, synth_wide):
        sel = select_gates(synth_wide, SelectionPolicy(
            strategy="off_critical", budget=0.05))
        on_path = set(critical_path(synth_wide, unit_delay_model).gate_ids)
        assert sel and not set(sel) & on_path

    def test_off_critical_on_a_single_path_selects_nothing(self):
        net = parse_bench(CHAIN)
        sel = select_gates(net, SelectionPolicy(strategy="off_critical",
                                                budget=1.0))
        assert sel == []

    def test_greedy_effort_respects_delay_budget(self, synth_wide):
        pol = SelectionPolicy(strategy="greedy_effort", budget=0.1,
                              delay_budget=0.05)
        sel = select_gates(synth_wide, pol)
        assert sel
        locked, _ = apply_camouflage(synth_wide, sel, CellFlavor.CAMO8)
        report = overhead_report(locked)
        assert report.delay_pct <= 5.0 + 1e-9

    def test_greedy_effort_zero_budget_keeps_path_length(self):
        net = parse_bench(CHAIN)
        pol = SelectionPolicy(strategy="greedy_effort", budget=1.0,
                              delay_budget=0.0)
        sel = select_gates(net, pol)
        assert sel == []  # every gate sits on the only path

    @pytest.mark.parametrize("kwargs", [
        dict(strategy="clever"),
        dict(budget=0.0),
        dict(budget=1.5),
        dict(delay_budget=-0.1),
    ])
    def test_policy_validation(self, kwargs):
        with pytest.raises(InvalidPolicyError):
            SelectionPolicy(**kwargs)


class TestCostsAndOverhead:
    def test_cost_table_rejects_submultiples(self):
        with pytest.raises(InvalidCostTableError):
            CostTable({CellFlavor.CAMO8: CostMultiples(0.9, 4.0, 2.0)})

    def test_cost_table_without_the_flavor(self):
        table = CostTable({CellFlavor.CAMO8: CostMultiples(4.0, 4.0, 2.0)})
        with pytest.raises(InvalidCostTableError,
                           match="^no cost entry for flavor CMOS3A$"):
            table.for_flavor(CellFlavor.CMOS3A)

    def test_overhead_on_c17(self, c17):
        locked, _ = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        report = overhead_report(locked)
        # two cells at 4x area/power over six gates: 2 * 3 extra units
        assert report.area_pct == pytest.approx(100.0)
        assert report.power_pct == pytest.approx(100.0)
        # path 11 -> 16 -> 22 carries one camouflaged cell at 2x delay
        assert report.delay_pct == pytest.approx(100.0 / 3.0)
        assert report.gate_total == 6 and report.camo_count == 2

    def test_overhead_scales_linearly_in_the_excess(self, c17):
        locked, _ = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        base = overhead_report(locked)
        doubled = CostTable({CellFlavor.CAMO8: CostMultiples(7.0, 7.0, 2.0)})
        report = overhead_report(locked, doubled)
        assert report.area_pct == pytest.approx(2 * base.area_pct)
        assert report.power_pct == pytest.approx(2 * base.power_pct)

    def test_plain_netlist_has_no_overhead(self, c17):
        report = overhead_report(c17)
        assert report.area_pct == report.power_pct == report.delay_pct == 0.0
        assert report.camo_count == 0


class TestEffort:
    def test_exact_pattern_and_candidate_counts(self):
        est = effort_estimate(50, 25, 8)
        assert est.pattern_count == 2 ** 50 == 1125899906842624
        assert est.candidate_count == 8 ** 25
        assert isinstance(est.pattern_count, int)
        assert isinstance(est.candidate_count, int)

    def test_raw_seconds_follow_the_frequency(self):
        est = effort_estimate(50, 25, 8, test_frequency_hz=1e9)
        assert est.seconds_raw == pytest.approx(2 ** 50 / 1e9)
        assert est.years_raw == pytest.approx(2 ** 50 / 1e9
                                              / SECONDS_PER_YEAR)

    def test_retest_model_dwarfs_raw_division(self):
        est = effort_estimate(50, 25, 8)
        assert est.seconds_retest > est.seconds_raw * 1e6
        assert est.years_raw < 1.0  # days, not millennia
        assert est.note == EFFORT_NOTE

    def test_huge_candidate_spaces_saturate_to_infinity(self):
        est = effort_estimate(24, 100000, 8)
        assert est.candidate_count == 8 ** 100000
        assert est.seconds_retest == float("inf")

    def test_rejects_nonsense(self):
        with pytest.raises(Exception):
            effort_estimate(-1, 5, 8)
        for hz in (0.0, -1e9, float("nan")):
            with pytest.raises(InvalidParameterError, match=(
                    f"^test frequency must be positive, got {hz}$")):
                effort_estimate(4, 2, 8, test_frequency_hz=hz)


class TestOnRandomNetlists:
    @pytest.mark.parametrize("seed", range(5))
    def test_lock_and_verify_round_trip(self, seed):
        net = random_netlist(5, 14, seed=seed)
        eligible = eligible_gates(net, CellFlavor.CAMO8)
        chosen = eligible[: max(1, len(eligible) // 4)]
        locked, key = apply_camouflage(net, chosen, CellFlavor.CAMO8,
                                       decoy_seed=seed)
        verdict = check_equivalence(net, locked, key_b=key,
                                    mode="exhaustive")
        assert verdict.equivalent
