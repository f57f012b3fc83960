"""Device model: currents, ratios, leakage, delay, sweeps, bias search."""

import math
from dataclasses import replace
from decimal import Decimal, getcontext

import pytest

from vtcamo.cell import CellFlavor, GateFunction, config_for
from vtcamo.device import (
    BiasPoint,
    CellModel,
    DeviceParams,
    _cell_currents,
    _vt_shift,
    cell_worst_delay,
    default_bias,
    drain_current,
    gate_leakage,
    optimize_bias,
    sweep_to_csv,
    sweep_vt_window,
    switch_ratio,
    thermal_voltage,
    SWEEP_CSV_HEADER,
)
from vtcamo.errors import ContentionCollapseError, InvalidParameterError

# Frozen reference: N device at vgs = vt = 0.3 V, vds = 1 V, 300 K,
# default parameters. Cross-checked below against a 60-digit Decimal
# reimplementation of the model.
GOLDEN_MODERATE_CURRENT_A = 3.3394315713322558e-07
GOLDEN_RATIO_DEFAULT_OFFSETS = 910674.033
REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-12
RATIO_REL_TOL = 1e-6
CLOSED_FORM_REL_TOL = 1e-12
SLOPE_REL_TOL = 0.03
SQUARE_LAW_REL_TOL = 1e-3


def _decimal_current(vgs, vds, vt, t, p: DeviceParams, kprime) -> float:
    """Independent high-precision evaluation of the current equation."""
    getcontext().prec = 60
    kb, qe = Decimal("1.380649e-23"), Decimal("1.602176634e-19")
    phi = kb * Decimal(t) / qe
    n = Decimal(str(p.subthreshold_slope_n))
    i0 = 2 * n * Decimal(str(kprime)) * Decimal(str(p.w_over_l)) * phi * phi
    vp = (Decimal(str(vgs)) - Decimal(str(vt))) / n

    def interp(x):
        return (1 + (x / (2 * phi)).exp()).ln() ** 2

    mobility = (Decimal(t) / Decimal(str(p.t_ref))) ** Decimal("-1.5")
    return float(i0 * mobility * (interp(vp) - interp(vp - Decimal(str(vds)))))


class TestDrainCurrent:
    def test_golden_moderate_inversion_value(self, params):
        got = drain_current(0.3, 1.0, 0.3, 300.0, params, kind="n")
        assert got == pytest.approx(GOLDEN_MODERATE_CURRENT_A, rel=REL_TOL)

    def test_matches_independent_decimal_model(self, params):
        for vgs, vds, vt, t in [(0.3, 1.0, 0.3, 300.0),
                                (0.1, 0.5, 0.65, 250.0),
                                (0.9, 1.0, 0.25, 350.0),
                                (0.0, 1.0, 0.3, 400.0)]:
            want = _decimal_current(vgs, vds, vt, t, params, params.kprime_n)
            got = drain_current(vgs, vds, vt, t, params, kind="n")
            assert got == pytest.approx(want, rel=ORACLE_REL_TOL)

    def test_zero_at_zero_vds(self, params):
        assert drain_current(0.5, 0.0, 0.3, 300.0, params) == 0.0

    def test_monotone_in_vgs_and_vds(self, params):
        last = 0.0
        for k in range(50):
            i = drain_current(k * 0.02, 1.0, 0.3, 300.0, params)
            assert i > last
            last = i
        last = -1.0
        for k in range(50):
            i = drain_current(0.5, k * 0.02, 0.3, 300.0, params)
            assert i >= last
            last = i

    def test_subthreshold_slope(self, params):
        i1 = drain_current(0.10, 1.0, 0.3, 300.0, params)
        i2 = drain_current(0.05, 1.0, 0.3, 300.0, params)
        slope = (math.log(i1) - math.log(i2)) / 0.05
        ideal = 1.0 / (params.subthreshold_slope_n * thermal_voltage(300.0))
        assert slope == pytest.approx(ideal, rel=SLOPE_REL_TOL)

    def test_strong_inversion_square_law(self, params):
        got = drain_current(1.0, 1.0, 0.3, 300.0, params)
        overdrive = 1.0 - 0.3
        want = (params.kprime_n * params.w_over_l * overdrive ** 2
                / (2.0 * params.subthreshold_slope_n))
        assert got == pytest.approx(want, rel=SQUARE_LAW_REL_TOL)

    def test_p_device_uses_its_own_kprime(self, params):
        i_n = drain_current(0.3, 1.0, 0.3, 300.0, params, kind="n")
        i_p = drain_current(0.3, 1.0, 0.3, 300.0, params, kind="p")
        assert i_p == pytest.approx(i_n * params.kprime_p / params.kprime_n,
                                    rel=REL_TOL)

    @pytest.mark.parametrize("bad", [
        dict(vgs=float("nan")),
        dict(vds=-0.1),
        dict(vds=float("inf")),
        dict(kind="x"),
        dict(t=1e200),   # phi_t**2 overflows: inf * 0 would give NaN
    ])
    def test_rejects_bad_arguments(self, params, bad):
        kwargs = dict(vgs=0.3, vds=1.0, vt=0.3, t=300.0, params=params,
                      kind="n")
        kwargs.update(bad)
        with pytest.raises(InvalidParameterError):
            drain_current(**kwargs)


class TestTemperature:
    def test_thermal_voltage(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585199, rel=1e-6)

    def test_vt_drifts_down_with_temperature(self, params):
        assert 0.3 - _vt_shift(300.0, params) == 0.3
        assert 0.3 - _vt_shift(400.0, params) == pytest.approx(
            0.3 - params.kvt * 100.0, rel=REL_TOL)
        assert 0.3 - _vt_shift(250.0, params) > 0.3

    @pytest.mark.parametrize("t", [0.0, -5.0, float("nan"), float("inf")])
    def test_non_positive_temperature_is_rejected(self, params, t):
        message = f"^temperature must be positive, got {t}$"
        with pytest.raises(InvalidParameterError, match=message):
            thermal_voltage(t)
        with pytest.raises(InvalidParameterError, match=message):
            drain_current(0.3, 1.0, 0.3, t, params)


class TestSwitchRatio:
    def test_default_offsets_reach_programming_margin(self, params):
        bias = default_bias(params)
        ratio = switch_ratio(params.delta_hvt, params.delta_lvt, bias,
                             300.0, params)
        assert ratio == pytest.approx(GOLDEN_RATIO_DEFAULT_OFFSETS,
                                      rel=RATIO_REL_TOL)
        assert ratio >= 1e3

    def test_zero_offsets_give_unity(self, params):
        bias = default_bias(params)
        assert switch_ratio(0.0, 0.0, bias, 300.0, params) == 1.0

    def test_monotone_in_both_offsets(self, params):
        bias = default_bias(params)
        values = [switch_ratio(d, 0.2, bias, 300.0, params)
                  for d in (0.0, 0.1, 0.2, 0.3)]
        assert values == sorted(values) and len(set(values)) == len(values)
        values = [switch_ratio(0.2, d, bias, 300.0, params)
                  for d in (0.0, 0.1, 0.2, 0.3)]
        assert values == sorted(values) and len(set(values)) == len(values)

    def test_underflowing_off_current_gives_inf(self, params):
        bias = default_bias(params)
        assert switch_ratio(20.0, 0.35, bias, 300.0, params) == (
            pytest.approx(7.66e259, rel=1e-3))
        wide = replace(params, delta_hvt=25.0)
        point, _ = _cell_currents(bias, params.vdd, 300.0, wide)
        assert point.off_n == 0.0
        assert switch_ratio(25.0, 0.35, bias, 300.0, params) == math.inf

    @pytest.mark.parametrize("hvt, lvt", [(-0.1, 0.1), (0.1, -0.1)])
    def test_negative_offsets_are_rejected(self, params, hvt, lvt):
        with pytest.raises(InvalidParameterError,
                           match="^threshold offsets must be >= 0$"):
            switch_ratio(hvt, lvt, default_bias(params), 300.0, params)


class TestLeakage:
    @pytest.mark.parametrize("func", sorted(CellFlavor.CAMO8.function_set,
                                            key=lambda f: f.value))
    @pytest.mark.parametrize("vec", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_positive_and_strictly_increasing_in_t(self, params, func, vec):
        config = config_for(func, CellFlavor.CAMO8)
        bias = default_bias(params)
        previous = 0.0
        for t in (250.0, 300.0, 350.0):
            leak = gate_leakage(config, vec, t, bias, params)
            assert leak > previous
            previous = leak

    def test_nand_and_nor_leakage_differ_at_11(self, params):
        bias = default_bias(params)
        nand = gate_leakage(config_for(GateFunction.NAND, CellFlavor.CAMO8),
                            (1, 1), 300.0, bias, params)
        nor = gate_leakage(config_for(GateFunction.NOR, CellFlavor.CAMO8),
                           (1, 1), 300.0, bias, params)
        assert abs(nand - nor) / max(nand, nor) >= 0.10

    def test_rejects_non_binary_inputs(self, params):
        config = config_for(GateFunction.NAND, CellFlavor.CAMO8)
        with pytest.raises(InvalidParameterError):
            gate_leakage(config, (0, 2), 300.0, default_bias(params), params)
        with pytest.raises(InvalidParameterError, match=(
                r"^cell inputs must be two bits: \(0, 1, 1\)$")):
            gate_leakage(config, (0, 1, 1), 300.0, default_bias(params),
                         params)


def _detail(config, inputs, bias, vdd_actual, t, params):
    """(delay_s, i_on, i_contend, clamped, edge) of the slower edge."""
    cell = CellModel(config)
    point, core_off = _cell_currents(bias, vdd_actual, t, params)
    return cell.detail(*cell.core(inputs, core_off), point)


class TestDelay:
    def test_closed_form_without_contention(self, params):
        # the route is two LVT members (the default bias drives both rails
        # alike), and the delay divides by its drive less the contention
        config = config_for(GateFunction.NAND, CellFlavor.CAMO8)
        bias = default_bias(params)
        delay_s, i_on, i_contend, _, _ = _detail(config, (1, 1), bias,
                                                 params.vdd, 300.0, params)
        member = drain_current(bias.vg_n, params.vdd,
                               params.vtn0 - params.delta_lvt, 300.0, params)
        assert i_on == pytest.approx(2.0 * member, rel=CLOSED_FORM_REL_TOL)
        closed = params.c_load * params.vdd / (2.0 * (i_on - i_contend))
        assert delay_s == pytest.approx(closed, rel=CLOSED_FORM_REL_TOL)

    def test_contention_slows_the_cell(self, params):
        config = config_for(GateFunction.XOR, CellFlavor.CAMO8)
        delay_s, i_on, i_contend, _, _ = _detail(
            config, (0, 1), default_bias(params), params.vdd, 300.0, params)
        assert i_contend > 0
        assert delay_s > params.c_load * params.vdd / (2.0 * i_on)

    def test_worst_case_supply_response_is_u_shaped(self, params):
        bias = default_bias(params)
        low = cell_worst_delay(bias, 300.0, params, vdd_actual=0.9)
        mid = cell_worst_delay(bias, 300.0, params, vdd_actual=1.0)
        high = cell_worst_delay(bias, 300.0, params, vdd_actual=1.1)
        assert low > mid and high > mid

    def test_collapse_when_programming_margin_vanishes(self):
        params = DeviceParams(delta_hvt=0.0, delta_lvt=0.0)
        config = config_for(GateFunction.XOR, CellFlavor.CAMO8)
        with pytest.raises(ContentionCollapseError):
            _detail(config, (0, 1), default_bias(params), params.vdd, 300.0,
                    params)

    def test_rejects_bad_supply(self, params):
        with pytest.raises(InvalidParameterError,
                           match="^vdd_actual must be positive: -0.5$"):
            cell_worst_delay(default_bias(params), 300.0, params,
                             vdd_actual=-0.5)
        with pytest.raises(InvalidParameterError,
                           match="^vdd_actual must be positive: nan$"):
            cell_worst_delay(default_bias(params), 300.0, params,
                             vdd_actual=math.nan)


class TestSweep:
    def test_rows_are_row_major_and_complete(self, params):
        bias = default_bias(params)
        rows = sweep_vt_window((0.1, 0.3), (0.1, 0.2), 0.1, bias, 300.0,
                               params)
        combos = [(r.delta_hvt, r.delta_lvt) for r in rows]
        assert combos == [(0.1, 0.1), (0.1, 0.2),
                          (0.2, 0.1), (0.2, 0.2),
                          (0.3, 0.1), (0.3, 0.2)]

    def test_csv_format(self, params):
        bias = default_bias(params)
        rows = sweep_vt_window((0.1, 0.2), (0.1, 0.2), 0.1, bias, 300.0,
                               params)
        csv = sweep_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) == 0.1

    def test_rejects_bad_grid(self, params):
        bias = default_bias(params)
        with pytest.raises(InvalidParameterError):
            sweep_vt_window((0.3, 0.1), (0.1, 0.2), 0.1, bias, 300.0, params)
        with pytest.raises(InvalidParameterError):
            sweep_vt_window((0.1, 0.3), (0.1, 0.2), 0.0, bias, 300.0, params)
        with pytest.raises(InvalidParameterError,
                           match="^grid step must be positive, got nan$"):
            sweep_vt_window((0.1, 0.3), (0.1, 0.2), math.nan, bias, 300.0,
                            params)

    @pytest.mark.parametrize("vg_n", [-0.2, 1.5, math.nan])
    def test_rejects_a_bias_off_the_rails(self, params, vg_n):
        bias = BiasPoint(vg_n, default_bias(params).vg_p)
        with pytest.raises(InvalidParameterError, match=(
                rf"^switch gate bias \(vg_n {vg_n}, vg_p 0.7\) lies outside "
                rf"the rails \[0, vdd = 1.0\] V$")):
            sweep_vt_window((0.3, 0.35), (0.3, 0.35), 0.05, bias, 300.0,
                            params)

    def test_a_rounded_point_past_the_range_is_dropped(self, params):
        # (0.58 - 0.30) / 0.05 rounds to 6 steps, whose last point, 0.60,
        # lies past the range
        rows = sweep_vt_window((0.30, 0.58), (0.30, 0.30), 0.05,
                               default_bias(params), 300.0, params)
        assert [r.delta_hvt for r in rows] == [0.3, 0.35, 0.4, 0.45, 0.5,
                                               0.55]


class TestOptimizeBias:
    def test_finds_meaningfully_faster_point(self, params):
        best = optimize_bias(params)
        assert best.delay_gain >= 0.10
        assert best.delay_opt_s < best.delay_default_s

    def test_deterministic(self, params):
        a = optimize_bias(params)
        b = optimize_bias(params)
        assert a == b

    def test_rejects_a_default_bias_off_the_rails(self):
        params = DeviceParams(vdd=0.4, vtn0=0.5, vtp0_mag=0.5)
        with pytest.raises(InvalidParameterError, match=(
                r"^switch gate bias \(vg_n 0.5, vg_p -0.09999999999999998\) "
                r"lies outside the rails \[0, vdd = 0.4\] V$")):
            optimize_bias(params)

    def test_window_guard(self, params):
        with pytest.raises(InvalidParameterError):
            optimize_bias(params, search_window=0.25)
        with pytest.raises(InvalidParameterError):
            optimize_bias(params, grid_step=0.0)
        for window in (-0.1, float("nan")):
            with pytest.raises(InvalidParameterError, match=(
                    f"^search_window must be >= 0, got {window}$")):
                optimize_bias(params, search_window=window)


class TestDeviceParams:
    @pytest.mark.parametrize("field,value", [
        ("vdd", 0.0), ("vdd", -1.0), ("kprime_n", 0.0),
        ("subthreshold_slope_n", -0.1), ("t_ref", 0.0),
        ("delta_hvt", -0.01), ("c_load", 0.0),
        ("vdd", math.nan), ("kvt", math.inf),
    ])
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(InvalidParameterError):
            DeviceParams(**{field: value})

    def test_bias_defaults_to_mid_threshold(self, params):
        bias = default_bias(params)
        assert bias == BiasPoint(0.3, 0.7)
