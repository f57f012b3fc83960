"""Physical fingerprints: signatures, classification, countermeasures."""

import dataclasses
import inspect
import math

import pytest

from vtcamo.camouflage import apply_camouflage
from vtcamo.cell import CellFlavor, GateFunction, config_for
from vtcamo.device import DeviceParams, default_bias
from vtcamo.errors import (
    BiasClampWarning,
    InsertionError,
    InvalidParameterError,
    KeyScopeError,
    TemplateSetError,
    UnresolvedGateError,
    UnsupportedFunctionError,
)
from vtcamo.netlist import (CamoKey, KeyEntry, check_equivalence, parse_bench,
                            serialize_bench)
from vtcamo.sidechannel import (
    DEFAULT_TEMPERATURES,
    MAX_TEMPERATURE_K,
    MIN_TEMPERATURE_K,
    Observation,
    add_measurement_noise,
    balance_flavors,
    classify_function,
    measure_signature,
    template_signatures,
    thermal_compensated_bias,
)

NOISE_TRIALS = 12
LOW_SIGMA = 0.02
HIGH_SIGMA = 5.0
SPREAD_TEMPS = (200.0, 250.0, 300.0, 350.0, 400.0)
AGG_REL_TOL = 1e-12

UNBALANCED = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NAND(a, g1)
g3 = NAND(b, g1)
y = NOR(g2, g3)
"""

SWAPPED = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NOR(a, b)
g2 = NOR(a, g1)
g3 = NOR(b, g1)
y = NAND(g2, g3)
"""

BAL_NAMES_TAKEN = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(bal0)
OUTPUT(bal2)
g1 = NAND(a, b)
g2 = NAND(a, g1)
bal0 = AND(a, g1)
bal2 = OR(b, g2)
y = NOR(g2, bal0)
"""

MIXED_FLAVORS = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = CAMO8(a, b)
g2 = CMOS3A(a, g1)
g3 = CMOS3A(b, g1)
y = CAMO8(g2, g3)
"""

F_CAMO8 = CellFlavor.CAMO8.function_set


def _signature(func, flavor=CellFlavor.CAMO8, **kwargs):
    """The signature of one cell of ``flavor`` programmed as ``func``."""
    return template_signatures(flavor, **kwargs)[func]


def _accuracy(flavor, sigma, trials=NOISE_TRIALS):
    templates = template_signatures(flavor)
    hits = total = 0
    for func in sorted(flavor.function_set, key=lambda f: f.value):
        clean = templates[func]
        for seed in range(trials):
            noisy = add_measurement_noise(clean, sigma, seed=seed)
            total += 1
            if classify_function(noisy, templates).function is func:
                hits += 1
    return hits / total


class TestSignatures:
    def test_grid_covers_vectors_and_temperatures(self):
        sig = _signature(GateFunction.NAND)
        assert len(sig.observations) == 4 * len(DEFAULT_TEMPERATURES)
        keys = {(o.vector, o.temperature) for o in sig.observations}
        assert len(keys) == len(sig.observations)
        assert all(o.leakage_a > 0 and o.delay_s >= 0
                   for o in sig.observations)

    @pytest.mark.parametrize("temps", [
        (150.0, 300.0),
        (300.0, 450.0),
        (),
    ])
    def test_temperature_window_is_enforced(self, temps):
        with pytest.raises(InvalidParameterError):
            _signature(GateFunction.NAND, temperatures=temps)

    def test_window_bounds_are_inclusive(self):
        sig = _signature(GateFunction.NAND, temperatures=(
            MIN_TEMPERATURE_K, MAX_TEMPERATURE_K))
        assert len(sig.observations) == 8


class TestClassification:
    @pytest.mark.parametrize("flavor", list(CellFlavor))
    def test_noiseless_recovery_is_perfect(self, flavor):
        templates = template_signatures(flavor)
        for func in flavor.function_set:
            sig = _signature(func, flavor)
            result = classify_function(sig, templates)
            assert result.function is func
            assert 0.0 < result.confidence <= 1.0
            assert set(result.distances) == flavor.function_set

    def test_accuracy_degrades_with_noise(self):
        low = _accuracy(CellFlavor.CAMO8, LOW_SIGMA)
        high = _accuracy(CellFlavor.CAMO8, HIGH_SIGMA)
        assert low >= 0.9
        assert high <= low - 0.4

    def test_per_gate_measurement_matches_the_key(self, c17):
        locked, key = apply_camouflage(c17, ["10", "16", "22"],
                                       CellFlavor.CAMO8)
        templates = template_signatures(CellFlavor.CAMO8)
        sigs = measure_signature(locked, key, mode="per_gate")
        assert set(sigs) == {"10", "16", "22"}
        for gid, sig in sigs.items():
            assert classify_function(sig, templates).function is \
                key.entries[gid].function

    def test_template_set_is_validated(self):
        sig = _signature(GateFunction.NAND)
        templates = template_signatures(CellFlavor.CAMO8)
        with pytest.raises(TemplateSetError):
            classify_function(sig, {})
        with pytest.raises(TemplateSetError):
            classify_function(
                sig, {GateFunction.NAND: templates[GateFunction.NAND]})
        shifted = template_signatures(CellFlavor.CAMO8,
                                      temperatures=(260.0, 310.0))
        with pytest.raises(TemplateSetError):
            classify_function(sig, shifted)

    def test_non_finite_template_rejected(self):
        sig = _signature(GateFunction.NAND)
        templates = dict(template_signatures(CellFlavor.CAMO8))
        broken = templates[GateFunction.OR]
        first = broken.observations[0]
        first = Observation(first.vector, first.temperature, math.inf,
                            first.delay_s)
        templates[GateFunction.OR] = dataclasses.replace(
            broken, observations=(first,) + broken.observations[1:])
        with pytest.raises(TemplateSetError, match="finite"):
            classify_function(sig, templates)


class TestObservation:
    def test_contract(self):
        names = ["vector", "temperature", "leakage_a", "delay_s"]
        values = [(0, 1), 300.0, 1e-09, 2e-11]
        assert list(inspect.signature(Observation).parameters) == names
        point = Observation(*values)
        same = Observation(**dict(zip(names, values)))
        assert [getattr(point, name) for name in names] == values
        assert point == same
        assert hash(point) == hash(same)
        assert point != Observation((0, 1), 300.0, 1e-09, 3e-11)
        assert repr(point) == ("Observation(vector=(0, 1), temperature=300.0,"
                               " leakage_a=1e-09, delay_s=2e-11)")
        with pytest.raises(AttributeError):
            point.leakage_a = 0.0


class TestNoise:
    def test_same_seed_reproduces(self):
        sig = _signature(GateFunction.XOR)
        a = add_measurement_noise(sig, 0.3, seed=7)
        b = add_measurement_noise(sig, 0.3, seed=7)
        c = add_measurement_noise(sig, 0.3, seed=8)
        assert a == b
        assert a != c

    def test_zero_sigma_is_identity(self):
        sig = _signature(GateFunction.XOR)
        assert add_measurement_noise(sig, 0.0, seed=1) == sig

    @pytest.mark.parametrize("sigma", [-0.1, math.inf, math.nan])
    def test_bad_sigma_rejected(self, sigma):
        sig = _signature(GateFunction.XOR)
        with pytest.raises(InvalidParameterError):
            add_measurement_noise(sig, sigma)

    def test_overflowing_noise_factor_rejected(self):
        # exp(N(0, 800)) overflows a float for almost every draw
        sig = _signature(GateFunction.XOR)
        with pytest.raises(InvalidParameterError, match="800.0"):
            add_measurement_noise(sig, 800.0)


class TestThermalCompensation:
    def test_overdrive_is_held_constant(self, params):
        base = default_bias(params)
        for t in SPREAD_TEMPS:
            bias = thermal_compensated_bias(t, params)
            drift = params.kvt * (t - params.t_ref)
            assert abs((bias.vg_n + drift) - base.vg_n) < 1e-12
            assert abs((bias.vg_p - drift) - base.vg_p) < 1e-12

    def test_clamping_warns(self):
        params = DeviceParams(kvt=6e-3)
        with pytest.warns(BiasClampWarning):
            bias = thermal_compensated_bias(400.0, params)
        assert 0.0 <= bias.vg_n <= params.vdd
        assert 0.0 <= bias.vg_p <= params.vdd

    def test_leakage_spread_shrinks(self):
        fixed = _signature(GateFunction.NAND, temperatures=SPREAD_TEMPS,
                           bias_policy="fixed")
        comp = _signature(GateFunction.NAND, temperatures=SPREAD_TEMPS,
                          bias_policy="thermal_compensated")

        def worst_spread(sig):
            spread = 0.0
            for vec in {o.vector for o in sig.observations}:
                leaks = [o.leakage_a for o in sig.observations
                         if o.vector == vec]
                spread = max(spread, (max(leaks) - min(leaks)) / min(leaks))
            return spread

        assert worst_spread(fixed) >= 5.0 * worst_spread(comp)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            _signature(GateFunction.NAND, bias_policy="adaptive")


class TestAggregate:
    def test_aggregate_sums_leakage_and_averages_delay(self, c17):
        locked, key = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        per_gate = measure_signature(locked, key, mode="per_gate")
        agg = measure_signature(locked, key, mode="aggregate_only")
        assert set(agg) == {"aggregate"}
        sigs = list(per_gate.values())
        for i, obs in enumerate(agg["aggregate"].observations):
            points = [s.observations[i] for s in sigs]
            assert obs.leakage_a == pytest.approx(
                sum(p.leakage_a for p in points), rel=AGG_REL_TOL)
            assert obs.delay_s == pytest.approx(
                sum(p.delay_s for p in points) / len(points),
                rel=AGG_REL_TOL)

    def test_unknown_mode_rejected(self, c17):
        locked, key = apply_camouflage(c17, ["10"], CellFlavor.CAMO8)
        with pytest.raises(InvalidParameterError):
            measure_signature(locked, key, mode="per_chip")

    def test_missing_key_entry_rejected(self, c17):
        locked, key = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        partial = CamoKey({"10": key.entries["10"]})
        with pytest.raises(InvalidParameterError):
            measure_signature(locked, partial)

    def test_out_of_flavor_key_entry_rejected(self, c17):
        """A function the gate's flavor cannot take is refused as
        ``config_for`` refuses it."""
        locked, _ = apply_camouflage(c17, ["10"], CellFlavor.CMOS3A)
        wrong = CamoKey({"10": KeyEntry(GateFunction.AND)})
        with pytest.raises(UnsupportedFunctionError) as want:
            config_for(GateFunction.AND, CellFlavor.CMOS3A)
        with pytest.raises(UnsupportedFunctionError) as got:
            measure_signature(locked, wrong)
        assert str(got.value) == str(want.value)

    def test_aggregate_of_a_plain_netlist_is_rejected(self, c17):
        assert measure_signature(c17, CamoKey({})) == {}
        with pytest.raises(InvalidParameterError,
                           match="^netlist has no camouflaged gates$"):
            measure_signature(c17, CamoKey({}), mode="aggregate_only")


class TestBalancing:
    def test_counts_equalize_with_sink_dummies(self):
        net = parse_bench(UNBALANCED)
        locked, key = apply_camouflage(net, ["g1", "g2", "g3", "y"],
                                       CellFlavor.CMOS3A)
        balanced, new_key, report = balance_flavors(locked, key)
        assert report.counts_before == {GateFunction.NAND: 3,
                                        GateFunction.NOR: 1,
                                        GateFunction.XOR: 0}
        assert report.counts_after == {GateFunction.NAND: 3,
                                       GateFunction.NOR: 3,
                                       GateFunction.XOR: 3}
        added_funcs = sorted(f.value for f in report.added.values())
        assert added_funcs == ["NOR", "NOR", "XOR", "XOR", "XOR"]
        assert set(report.added) == {f"bal{i}" for i in range(5)}
        verdict = check_equivalence(locked, balanced, key, new_key)
        assert verdict.equivalent

    def test_dummy_outputs_drive_nothing(self):
        net = parse_bench(UNBALANCED)
        locked, key = apply_camouflage(net, ["g1", "g2", "g3", "y"],
                                       CellFlavor.CMOS3A)
        balanced, _, report = balance_flavors(locked, key)
        fanins = {f for g in balanced.gates for f in g.fanins}
        assert not (set(report.added) & fanins)
        assert not (set(report.added) & set(balanced.outputs))

    def test_name_collisions_are_skipped(self):
        text = UNBALANCED + "OUTPUT(bal1)\nbal1 = AND(a, b)\n"
        net = parse_bench(text)
        locked, key = apply_camouflage(net, ["g1", "g2", "g3", "y"],
                                       CellFlavor.CMOS3A)
        _, _, report = balance_flavors(locked, key)
        assert "bal1" not in report.added
        assert len(report.added) == 5

    def test_plain_netlist_rejected(self, c17):
        with pytest.raises(InsertionError, match="^netlist has no "
                           "camouflaged gates to balance$"):
            balance_flavors(c17, CamoKey({}))

    def test_key_is_checked_first(self, c17):
        locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CAMO8)
        with pytest.raises(UnresolvedGateError):
            balance_flavors(locked, CamoKey({"10": key.entries["10"]}))
        locked, key = apply_camouflage(c17, ["10", "22"], CellFlavor.CMOS3A)
        outside = CamoKey({**key.entries, "22": KeyEntry(GateFunction.AND)})
        with pytest.raises(KeyScopeError):
            balance_flavors(locked, outside)

    def test_aggregate_hides_the_real_mix_once_balanced(self):
        readings = []
        for text in (UNBALANCED, SWAPPED):
            net = parse_bench(text)
            locked, key = apply_camouflage(net, ["g1", "g2", "g3", "y"],
                                           CellFlavor.CMOS3A)
            balanced, new_key, _ = balance_flavors(locked, key)
            agg = measure_signature(balanced, new_key,
                                    mode="aggregate_only")["aggregate"]
            readings.append(agg)
        first, second = readings
        for a, b in zip(first.observations, second.observations):
            assert a.leakage_a == pytest.approx(b.leakage_a, rel=AGG_REL_TOL)
            assert a.delay_s == pytest.approx(b.delay_s, rel=AGG_REL_TOL)

    def test_camo8_dummies_skip_taken_bal_names(self):
        net = parse_bench(BAL_NAMES_TAKEN)
        locked, key = apply_camouflage(net, ["g1", "g2", "y"],
                                       CellFlavor.CAMO8)
        balanced, new_key, report = balance_flavors(locked, key)
        F = GateFunction
        assert list(report.added.items()) == [
            ("bal1", F.AND), ("bal3", F.AND), ("bal4", F.BUF),
            ("bal5", F.BUF), ("bal6", F.INV), ("bal7", F.INV),
            ("bal8", F.NOR), ("bal9", F.OR), ("bal10", F.OR),
            ("bal11", F.XNOR), ("bal12", F.XNOR), ("bal13", F.XOR),
            ("bal14", F.XOR)]
        assert report.counts_before == {**dict.fromkeys(F_CAMO8, 0),
                                        F.NAND: 2, F.NOR: 1}
        assert report.counts_after == dict.fromkeys(F_CAMO8, 2)
        assert new_key.serialize() == (
            "bal1=AND\nbal10=OR\nbal11=XNOR\nbal12=XNOR\nbal13=XOR\n"
            "bal14=XOR\nbal3=AND\nbal4=BUF,decoy=a\nbal5=BUF,decoy=a\n"
            "bal6=INV,decoy=a\nbal7=INV,decoy=a\nbal8=NOR\nbal9=OR\n"
            "g1=NAND\ng2=NAND\ny=NOR\n")
        assert serialize_bench(balanced) == serialize_bench(locked) + "".join(
            f"{name} = CAMO8(a, b)\n" for name in report.added)

    def test_functions_are_counted_across_flavors(self):
        net = parse_bench(MIXED_FLAVORS)
        key = CamoKey.deserialize("g1=NAND\ng2=NAND\ng3=XOR\ny=NOR\n")
        balanced, new_key, report = balance_flavors(net, key)
        F = GateFunction
        assert list(report.added.items()) == [
            ("bal0", F.AND), ("bal1", F.AND), ("bal2", F.BUF),
            ("bal3", F.BUF), ("bal4", F.INV), ("bal5", F.INV),
            ("bal6", F.NOR), ("bal7", F.OR), ("bal8", F.OR),
            ("bal9", F.XNOR), ("bal10", F.XNOR), ("bal11", F.XOR)]
        # g1 (CAMO8) and g2 (CMOS3A) are both NAND
        assert report.counts_before == {**dict.fromkeys(F_CAMO8, 0),
                                        F.NAND: 2, F.NOR: 1, F.XOR: 1}
        assert report.counts_after == dict.fromkeys(F_CAMO8, 2)
        assert new_key.serialize() == (
            "bal0=AND\nbal1=AND\nbal10=XNOR\nbal11=XOR\n"
            "bal2=BUF,decoy=a\nbal3=BUF,decoy=a\nbal4=INV,decoy=a\n"
            "bal5=INV,decoy=a\nbal6=NOR\nbal7=OR\nbal8=OR\nbal9=XNOR\n"
            "g1=NAND\ng2=NAND\ng3=XOR\ny=NOR\n")
        assert serialize_bench(balanced) == MIXED_FLAVORS + "".join(
            f"bal{i} = CAMO8(a, b)\n" for i in range(12))


class TestBalancedC8:
    def test_inverter_dummies_carry_a_decoy(self, c17):
        locked, key = apply_camouflage(c17, ["10", "16"], CellFlavor.CAMO8)
        balanced, new_key, report = balance_flavors(locked, key)
        inv_like = [n for n, f in report.added.items()
                    if f in (GateFunction.INV, GateFunction.BUF)]
        assert inv_like
        for name in inv_like:
            assert new_key.entries[name].decoy_net is not None
        verdict = check_equivalence(locked, balanced, key, new_key)
        assert verdict.equivalent
