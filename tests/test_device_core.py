"""Hoisted device estimates against a per-point scalar reference.

``ref_delay_detail``, ``ref_leakage`` and ``ref_worst_delay`` recompute
every threshold and every device current for each (config, vector, edge)
from ``drain_current`` and ``vt_at_temperature``, the way the estimates
were computed before the operating-point currents were hoisted out of the
loops. The properties require bit-identical floats, the same ``clamped``
flag and, where the reference raises ``ContentionCollapseError``, the same
exception type and message.
"""

from __future__ import annotations

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcamo.cell import (
    UNDERLYING,
    VT,
    CellFlavor,
    GateFunction,
    behavior_table,
    config_for,
)
from vtcamo.device import (
    _CORES,
    CONTENTION_CLAMP_A,
    OFF_STACK_FACTOR,
    BiasPoint,
    DelayDetail,
    DeviceParams,
    cell_worst_delay,
    default_bias,
    delay_detail,
    drain_current,
    switch_ratio,
    vt_at_temperature,
)
from vtcamo.errors import BiasClampWarning, ContentionCollapseError
from vtcamo.sidechannel import cell_signature, thermal_compensated_bias

F = GateFunction
VECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


def ref_core_off(func, inputs, t, p):
    base = UNDERLYING.get(func, func)
    a, b = (0, inputs[1]) if func in (F.INV, F.BUF) else inputs
    sig = {"a": a, "b": b, "na": 1 - a, "nb": 1 - b,
           "y1": 1 - (a & b) if base is F.AND else 1 - (a | b)}
    i_off = {k: drain_current(0.0, p.vdd, vt_at_temperature(vt, t, p), t, p,
                              kind=k) for k, vt in (("n", p.vtn0),
                                                    ("p", p.vtp0_mag))}
    total = 0.0
    for network in _CORES[base]:
        for path in network:
            off = [k for k, s in path if sig[s] == (0 if k == "n" else 1)]
            if off:
                total += (min(i_off[k] for k in off)
                          / OFF_STACK_FACTOR ** (len(off) - 1))
    return total


def ref_members(bias, vdd, vt_n, vt_p, t, p):
    return (drain_current(bias.vg_n, vdd, vt_at_temperature(vt_n, t, p), t, p),
            drain_current(vdd - bias.vg_p, vdd, vt_at_temperature(vt_p, t, p),
                          t, p))


def ref_edge(config, func, contend, edge, bias, vdd, t, p, include):
    on_n, on_p = ref_members(bias, vdd, p.vtn0 - p.delta_lvt,
                             p.vtp0_mag - p.delta_lvt, t, p)
    off_n, off_p = ref_members(bias, vdd, p.vtn0 + p.delta_hvt,
                               p.vtp0_mag + p.delta_hvt, t, p)
    n_route = sum(1 for v in config.switch_vt[:10] if v is VT.LVT)
    n_hvt = sum(1 for v in config.switch_vt[:10] if v is VT.HVT)
    i_on = n_route * (on_p if edge == "rise" else on_n)
    i_contend = n_hvt * (off_n if edge == "rise" else off_p)
    if include and contend is not None:
        i_contend += ref_core_off(func, contend, t, p)
    if not include:
        i_contend = 0.0
    i_eff = i_on - i_contend
    if i_eff <= 0.0:
        raise ContentionCollapseError(
            f"OFF-switch contention ({i_contend:.3e} A) exceeds the {edge} "
            f"drive ({i_on:.3e} A) for config {config.serialize()}")
    clamped = i_eff < CONTENTION_CLAMP_A
    i_eff = CONTENTION_CLAMP_A if clamped else i_eff
    return DelayDetail(p.c_load * vdd / (2.0 * i_eff), i_on, i_contend,
                       clamped, edge)


def ref_delay_detail(config, func, inputs, bias, vdd, t, p, include=True):
    rise = behavior_table(func)[inputs] == 1
    first = ref_edge(config, func, inputs, "rise" if rise else "fall", bias,
                     vdd, t, p, include)
    second = ref_edge(config, func, None, "fall" if rise else "rise", bias,
                      vdd, t, p, include)
    return first if first.delay_s >= second.delay_s else second


def ref_leakage(config, func, inputs, bias, t, p):
    off_n, off_p = ref_members(bias, p.vdd, p.vtn0 + p.delta_hvt,
                               p.vtp0_mag + p.delta_hvt, t, p)
    count = sum(1 for v in config.switch_vt if v is VT.HVT)
    return count * (off_n + off_p) + ref_core_off(func, inputs, t, p)


def ref_worst_delay(bias, t, p, vdd, flavor):
    worst = 0.0
    for func in sorted(flavor.function_set, key=lambda f: f.value):
        for vec in VECTORS:
            d = ref_delay_detail(config_for(func, flavor), func, vec, bias,
                                 vdd, t, p).delay_s
            worst = d if d > worst else worst
    return worst


def outcome(fn, *args, **kwargs):
    """The value, or the type and message of a ContentionCollapseError."""
    try:
        return fn(*args, **kwargs)
    except ContentionCollapseError as exc:
        return (type(exc), str(exc))


params_st = st.builds(
    DeviceParams,
    vdd=st.floats(0.6, 1.4),
    vtn0=st.floats(0.15, 0.45),
    vtp0_mag=st.floats(0.15, 0.45),
    delta_hvt=st.floats(0.0, 0.5),
    delta_lvt=st.floats(0.0, 0.5),
    kvt=st.floats(0.0, 3e-3),
)
bias_st = st.builds(BiasPoint, st.floats(-1.0, 1.4), st.floats(-1.0, 1.4))
temp_st = st.floats(200.0, 400.0)
func_st = st.sampled_from(sorted(CellFlavor.CAMO8.function_set,
                                 key=lambda f: f.value))

# default operating point; a starved N rail (clamped); no VT split (collapse)
NOMINAL = (DeviceParams(), default_bias(DeviceParams()), 300.0)
STARVED = (DeviceParams(), BiasPoint(-1.0, 0.0), 300.0)
FLAT = (DeviceParams(delta_hvt=0.0, delta_lvt=0.0),
        default_bias(DeviceParams()), 300.0)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@SETTINGS
@given(params_st, bias_st, temp_st, st.sampled_from(list(CellFlavor)),
       st.one_of(st.none(), st.floats(0.5, 1.5)))
@example(*NOMINAL, CellFlavor.CAMO8, None)
@example(*NOMINAL, CellFlavor.CMOS3B, 0.8)
@example(*FLAT, CellFlavor.CAMO8, None)
def test_cell_worst_delay_matches_reference(p, bias, t, flavor, vdd):
    want = outcome(ref_worst_delay, bias, t, p,
                   p.vdd if vdd is None else vdd, flavor)
    assert outcome(cell_worst_delay, bias, t, p, vdd, flavor) == want


@SETTINGS
@given(params_st, bias_st, temp_st, func_st, st.sampled_from(VECTORS),
       st.floats(0.5, 1.5), st.booleans())
@example(*NOMINAL, F.AND, (1, 1), 1.0, True)
@example(*STARVED, F.AND, (0, 1), 1.0, True)
@example(*STARVED, F.AND, (0, 1), 1.0, False)
@example(*FLAT, F.XOR, (0, 1), 1.0, True)
@example(*FLAT, F.XOR, (0, 1), 1.0, False)
def test_delay_detail_matches_reference(p, bias, t, func, vec, vdd, include):
    config = config_for(func, CellFlavor.CAMO8)
    want = outcome(ref_delay_detail, config, func, vec, bias, vdd, t, p,
                   include)
    got = outcome(delay_detail, config, vec, bias, vdd, t, p,
                  include_contention=include)
    assert got == want


@SETTINGS
@given(params_st, func_st, st.lists(temp_st, min_size=1, max_size=4),
       st.sampled_from(("fixed", "thermal_compensated")))
@example(DeviceParams(), F.OR, [250.0, 300.0, 350.0], "thermal_compensated")
@example(FLAT[0], F.NOR, [300.0], "fixed")
def test_cell_signature_matches_reference(p, func, temps, policy):
    config = config_for(func, CellFlavor.CAMO8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BiasClampWarning)
        want = []
        for vec in VECTORS:
            for t in temps:
                bias = (default_bias(p) if policy == "fixed"
                        else thermal_compensated_bias(t, p))
                want.append((vec, t, ref_leakage(config, func, vec, bias, t, p),
                             outcome(lambda: ref_delay_detail(
                                 config, func, vec, bias, p.vdd, t, p
                             ).delay_s)))
        sig = outcome(cell_signature, config, temps, p, policy)
    collapsed = [w[3] for w in want if isinstance(w[3], tuple)]
    if collapsed:
        assert sig == collapsed[0]
    else:
        assert [(o.vector, o.temperature, o.leakage_a, o.delay_s)
                for o in sig.observations] == want


@SETTINGS
@given(params_st, bias_st, temp_st, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_switch_ratio_matches_reference(p, bias, t, dh, dl):
    i_on = drain_current(bias.vg_n, p.vdd,
                         vt_at_temperature(p.vtn0 - dl, t, p), t, p)
    i_off = drain_current(bias.vg_n, p.vdd,
                          vt_at_temperature(p.vtn0 + dh, t, p), t, p)
    want = float("inf") if i_off == 0.0 else i_on / i_off
    assert switch_ratio(dh, dl, bias, t, p) == want


def test_examples_reach_clamp_and_collapse():
    p, bias, t = STARVED
    config = config_for(F.AND, CellFlavor.CAMO8)
    assert ref_delay_detail(config, F.AND, (0, 1), bias, 1.0, t, p,
                            include=False).clamped
    p, bias, t = FLAT
    assert isinstance(outcome(ref_worst_delay, bias, t, p, 1.0,
                              CellFlavor.CAMO8), tuple)


def test_clamped_rail_warns_once_per_temperature():
    p = DeviceParams(kvt=0.008)   # rails clamp at 200 K and at 400 K
    config = config_for(F.AND, CellFlavor.CAMO8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cell_signature(config, (200.0, 300.0, 400.0), p,
                       "thermal_compensated")
    assert [w.category for w in caught] == [BiasClampWarning] * 2
