"""Hoisted device estimates against a per-point scalar reference.

``ref_delay_detail``, ``ref_leakage``, ``ref_worst_delay`` and
``ref_ratio`` recompute every threshold and every device current for each
(config, vector, edge) from ``drain_current`` and ``vt_at_temperature``,
the way the estimates were computed before the operating-point currents
were hoisted out of the loops; ``ref_sweep`` and ``ref_optimize_bias``
walk their grids with them, one point at a time. The properties require
bit-identical floats, the same ``clamped`` flag and, where the reference
raises ``ContentionCollapseError`` or ``InvalidParameterError``, the same
exception type and message. ``ref_classify`` is template matching as it
was before it went column by column, with the same requirements.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import replace
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import bench_text
from vtcamo import device, sidechannel
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import (
    LOCAL_VECTORS,
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
    BiasOptimum,
    BiasPoint,
    DelayDetail,
    DeviceParams,
    SweepRow,
    _grid,
    cell_worst_delay,
    default_bias,
    delay_detail,
    drain_current,
    optimize_bias,
    switch_ratio,
    sweep_vt_window,
    vt_at_temperature,
)
from vtcamo.errors import (
    BiasClampWarning,
    ContentionCollapseError,
    InvalidParameterError,
    TemplateSetError,
)
from vtcamo.netlist import CamoKey, KeyEntry, parse_bench
from vtcamo.sidechannel import (
    Classification,
    Observation,
    Signature,
    add_measurement_noise,
    classify_function,
    measure_signature,
    template_signatures,
    thermal_compensated_bias,
)

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


def ref_ratio(dh, dl, bias, t, p):
    i_on = drain_current(bias.vg_n, p.vdd,
                         vt_at_temperature(p.vtn0 - dl, t, p), t, p)
    i_off = drain_current(bias.vg_n, p.vdd,
                          vt_at_temperature(p.vtn0 + dh, t, p), t, p)
    return float("inf") if i_off == 0.0 else i_on / i_off


def ref_sweep(hvt, lvt, step, bias, t, p):
    rows = []
    for dh in _grid(*hvt, step):
        for dl in _grid(*lvt, step):
            q = replace(p, delta_hvt=dh, delta_lvt=dl)
            rows.append(SweepRow(dh, dl, ref_ratio(dh, dl, bias, t, q),
                                 ref_worst_delay(bias, t, q, q.vdd,
                                                 CellFlavor.CAMO8)))
    return rows


def ref_optimize_bias(p, window, step, t):
    """The search's BiasOptimum and how many points it skipped on collapse."""
    base = default_bias(p)
    k = int(math.floor(window / step + 1e-12))
    offsets = [i * step for i in range(-k, k + 1)]
    d_default = ref_worst_delay(base, t, p, p.vdd, CellFlavor.CAMO8)
    best, skipped = None, 0
    for dvn, dvp, dh, dl in itertools.product(offsets, repeat=4):
        new_dh, new_dl = p.delta_hvt + dh, p.delta_lvt + dl
        if not (0 < new_dh < p.vdd and 0 < new_dl < p.vdd):
            continue
        bias = BiasPoint(base.vg_n + dvn, base.vg_p + dvp)
        q = replace(p, delta_hvt=new_dh, delta_lvt=new_dl)
        try:
            d = ref_worst_delay(bias, t, q, q.vdd, CellFlavor.CAMO8)
        except ContentionCollapseError:
            skipped += 1
            continue
        if best is None or d < best[0]:
            best = (d, bias, new_dh, new_dl)
    if best is None:
        raise InvalidParameterError("bias search grid is empty")
    d_opt, bias, dh, dl = best
    return BiasOptimum(bias, dh, dl, d_default, d_opt), skipped


def ref_features(signature):
    feats = []
    by_vector = {}
    for o in signature.observations:
        feats.append(math.log10(max(o.leakage_a, 1e-300)))
        feats.append(math.log10(max(o.delay_s, 1e-300)))
        by_vector.setdefault(o.vector, []).append(o)
    for vec in sorted(by_vector):
        pts = sorted(by_vector[vec], key=lambda o: o.temperature)
        lo, hi = pts[0], pts[-1]
        feats.append(math.log10(max(hi.leakage_a, 1e-300))
                     - math.log10(max(lo.leakage_a, 1e-300)))
    return feats


def ref_classify(signature, templates):
    if len(templates) < 2:
        raise TemplateSetError("need at least two templates to classify")
    grids = {f: s.grid() for f, s in templates.items()}
    reference_grid = next(iter(grids.values()))
    if any(g != reference_grid for g in grids.values()):
        raise TemplateSetError("templates cover different measurement grids")
    if signature.grid() != reference_grid:
        raise TemplateSetError(
            "signature measurement grid does not match the templates")
    order = sorted(templates, key=lambda f: f.value)
    vectors = {f: ref_features(templates[f]) for f in order}
    probe = ref_features(signature)
    dims = len(probe)
    if any(not math.isfinite(x) for v in vectors.values() for x in v):
        raise TemplateSetError("template features are not finite")
    if any(not math.isfinite(x) for x in probe):
        raise TemplateSetError("signature features are not finite")
    # left folds from 0, as sum() added floats before Python 3.12
    means = [reduce(add, [vectors[f][i] for f in order], 0) / len(order)
             for i in range(dims)]
    stds = []
    for i in range(dims):
        var = reduce(add, [(vectors[f][i] - means[i]) ** 2 for f in order],
                     0) / len(order)
        stds.append(math.sqrt(var))
    distances = {}
    for f in order:
        d = 0.0
        for i in range(dims):
            if stds[i] == 0.0:
                continue
            d += ((vectors[f][i] - means[i]) / stds[i]
                  - (probe[i] - means[i]) / stds[i]) ** 2
        distances[f] = math.sqrt(d)
    ranked = sorted(order, key=lambda f: (distances[f], f.value))
    best, second = ranked[0], ranked[1]
    peak = max(-distances[f] for f in order)
    weights = {f: math.exp(-distances[f] - peak) for f in order}
    total = reduce(add, weights.values(), 0)
    confidence = (weights[best] - weights[second]) / total
    return Classification(best, confidence, distances)


def outcome(fn, *args, **kwargs):
    """The value, or the type and message of the error ``fn`` raises."""
    try:
        return fn(*args, **kwargs)
    except (ContentionCollapseError, InvalidParameterError,
            TemplateSetError) as exc:
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
# a bias search that skips 22 of its 81 points on collapse; one whose
# only point fails the offset filter (delta_hvt >= vdd)
NARROW = DeviceParams(delta_hvt=0.1, delta_lvt=0.1)
EMPTY = DeviceParams(delta_hvt=1.0)
# the first collapsing row is AND at (1, 1), whose core leakage is below
# OR's, the row kept for (route count, HVT count, output) = (2, 8, 1)
COLLAPSE_AND = (NARROW, BiasPoint(0.0, 1.1), 300.0)
# a starved N rail: a two-route cell's fall edge sets the worst delay, and
# the cores of that (route count, HVT count, output) group differ
TWO_ROUTE = (DeviceParams(vtn0=0.2, vtp0_mag=0.4), BiasPoint(-0.34, 0.56),
             300.0)

#: (search window, grid step) pairs; window 0.2 at step 0.05 is 6,561
#: points, too many for the per-point reference (about 2 ms a point).
BIAS_GRIDS = [(w, s) for w in (0.0, 0.05, 0.2) for s in (0.05, 0.1)
              if (w, s) != (0.2, 0.05)]
#: offsets wide enough that the default point seldom collapses, so most
#: searches walk their whole grid
search_params_st = st.builds(
    DeviceParams,
    vdd=st.floats(0.8, 1.2),
    vtn0=st.floats(0.2, 0.4),
    vtp0_mag=st.floats(0.2, 0.4),
    delta_hvt=st.floats(0.1, 0.45),
    delta_lvt=st.floats(0.1, 0.45),
    kvt=st.floats(0.0, 3e-3),
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@SETTINGS
@given(params_st, bias_st, temp_st, st.sampled_from(list(CellFlavor)),
       st.one_of(st.none(), st.floats(0.5, 1.5)))
@example(*NOMINAL, CellFlavor.CAMO8, None)
@example(*NOMINAL, CellFlavor.CMOS3B, 0.8)
@example(*FLAT, CellFlavor.CAMO8, None)
@example(*COLLAPSE_AND, CellFlavor.CAMO8, None)
@example(*TWO_ROUTE, CellFlavor.CAMO8, None)
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


#: one CAMO8 cell: only the cell the key programs is measured, so a
#: collapse is this cell's own
ONE_CELL = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = CAMO8(a, b)\n")


def measured(func, temps, p, policy):
    """The signature of ``ONE_CELL`` programmed as ``func``."""
    return measure_signature(ONE_CELL, CamoKey({"y": KeyEntry(func)}),
                             temperatures=temps, params=p,
                             bias_policy=policy)["y"]


@SETTINGS
@given(params_st, func_st, st.lists(temp_st, min_size=1, max_size=4),
       st.sampled_from(("fixed", "thermal_compensated")))
@example(DeviceParams(), F.OR, [250.0, 300.0, 350.0], "thermal_compensated")
@example(FLAT[0], F.NOR, [300.0], "fixed")
def test_measured_signature_matches_reference(p, func, temps, policy):
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
        sig = outcome(measured, func, temps, p, policy)
    collapsed = [w[3] for w in want if isinstance(w[3], tuple)]
    if collapsed:
        assert sig == collapsed[0]
    else:
        assert [(o.vector, o.temperature, o.leakage_a, o.delay_s)
                for o in sig.observations] == want


@SETTINGS
@given(params_st, st.sampled_from(list(CellFlavor)),
       st.lists(temp_st, min_size=1, max_size=3),
       st.sampled_from(("fixed", "thermal_compensated")))
@example(DeviceParams(), CellFlavor.CMOS3A, [250.0, 300.0, 350.0], "fixed")
@example(DeviceParams(), CellFlavor.CMOS3B, [250.0, 300.0, 350.0],
         "thermal_compensated")
@example(DeviceParams(kvt=0.008), CellFlavor.CAMO8, [200.0, 300.0, 400.0],
         "thermal_compensated")
@example(FLAT[0], CellFlavor.CMOS3A, [300.0], "fixed")
# the second and third CMOS3A functions collapse, the first does not
@example(DeviceParams(vtn0=0.15, vtp0_mag=0.15, delta_hvt=0.0, delta_lvt=0.1,
                      kvt=0.003), CellFlavor.CMOS3A, [250.0, 300.0, 350.0],
         "thermal_compensated")
def test_template_signatures_match_reference(p, flavor, temps, policy):
    """Every function of the flavor, observation by observation, in bits;
    where any cell collapses, the set raises the first collapse in
    (function, vector, temperature) order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BiasClampWarning)
        want = {}
        for func in sorted(flavor.function_set, key=lambda f: f.value):
            config = config_for(func, flavor)
            want[func] = rows = []
            for vec in VECTORS:
                for t in temps:
                    bias = (default_bias(p) if policy == "fixed"
                            else thermal_compensated_bias(t, p))
                    rows.append((vec, t, ref_leakage(config, func, vec, bias,
                                                     t, p).hex(),
                                 outcome(lambda: ref_delay_detail(
                                     config, func, vec, bias, p.vdd, t, p
                                 ).delay_s.hex())))
        got = outcome(template_signatures, flavor, temps, p, policy)
    collapsed = [row[3] for rows in want.values() for row in rows
                 if isinstance(row[3], tuple)]
    if collapsed:
        assert got == collapsed[0]
    else:
        assert list(got) == list(want)
        assert {f: [(o.vector, o.temperature, o.leakage_a.hex(),
                     o.delay_s.hex()) for o in sig.observations]
                for f, sig in got.items()} == want


@SETTINGS
@given(params_st, bias_st, temp_st, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_switch_ratio_matches_reference(p, bias, t, dh, dl):
    assert switch_ratio(dh, dl, bias, t, p) == ref_ratio(dh, dl, bias, t, p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params_st, bias_st, temp_st, st.sampled_from((0.05, 0.1)),
       st.sampled_from((0.0, 0.1, 0.25, 0.35)), st.integers(0, 3),
       st.sampled_from((0.0, 0.1, 0.25, 0.35)), st.integers(0, 3))
@example(*NOMINAL, 0.05, 0.3, 3, 0.3, 3)
@example(*NOMINAL, 0.1, 0.0, 1, 0.0, 1)   # collapses at the (0, 0) corner
@example(*NOMINAL, 0.1, -0.1, 2, 0.3, 1)  # a negative offset is rejected
@example(*NOMINAL, 0.1, 0.3, 1, -0.2, 3)
def test_sweep_vt_window_matches_reference(p, bias, t, step, h_lo, h_n,
                                           l_lo, l_n):
    hvt, lvt = (h_lo, h_lo + h_n * step), (l_lo, l_lo + l_n * step)
    want = outcome(ref_sweep, hvt, lvt, step, bias, t, p)
    assert outcome(sweep_vt_window, hvt, lvt, step, bias, t, p) == want


@settings(derandomize=True, max_examples=20, deadline=None)
@given(search_params_st, st.sampled_from(BIAS_GRIDS), temp_st)
@example(NARROW, (0.05, 0.05), 300.0)
@example(FLAT[0], (0.05, 0.05), 300.0)   # the default point collapses
@example(EMPTY, (0.0, 0.05), 300.0)
def test_optimize_bias_matches_reference(p, grid, t):
    want = outcome(lambda: ref_optimize_bias(p, *grid, t)[0])
    assert outcome(optimize_bias, p, *grid, t) == want


def test_examples_reach_clamp_and_collapse():
    p, bias, t = STARVED
    config = config_for(F.AND, CellFlavor.CAMO8)
    assert ref_delay_detail(config, F.AND, (0, 1), bias, 1.0, t, p,
                            include=False).clamped
    p, bias, t = FLAT
    assert isinstance(outcome(ref_worst_delay, bias, t, p, 1.0,
                              CellFlavor.CAMO8), tuple)
    assert ref_optimize_bias(NARROW, 0.05, 0.05, 300.0)[1] == 22
    assert outcome(ref_optimize_bias, FLAT[0], 0.05, 0.05, 300.0)[0] is (
        ContentionCollapseError)
    assert outcome(ref_optimize_bias, EMPTY, 0.0, 0.05, 300.0) == (
        InvalidParameterError, "bias search grid is empty")
    assert outcome(ref_sweep, (0.0, 0.1), (0.0, 0.1), 0.1, *NOMINAL[1:],
                   NOMINAL[0])[0] is ContentionCollapseError
    message = outcome(ref_worst_delay, *COLLAPSE_AND[1:], NARROW, 1.0,
                      CellFlavor.CAMO8)[1]
    assert message.startswith("OFF-switch contention (2.201e-10 A) exceeds "
                              "the rise drive")
    assert message.endswith(config_for(F.AND, CellFlavor.CAMO8).serialize())


def test_clamped_rail_warns_once_per_temperature():
    p = DeviceParams(kvt=0.008)   # rails clamp at 200 K and at 400 K
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measured(F.AND, (200.0, 300.0, 400.0), p, "thermal_compensated")
    assert [w.category for w in caught] == [BiasClampWarning] * 2


def _count_points(monkeypatch) -> list:
    """Temperatures that the signature code builds points and cores at."""
    calls = []
    for name in ("operating_point", "core_currents"):
        real = getattr(sidechannel, name)

        def counted(*args, _real=real, _name=name):
            calls.append((_name, args[-2]))
            return _real(*args)
        monkeypatch.setattr(sidechannel, name, counted)
    return calls


def test_signature_sets_build_one_point_per_temperature(monkeypatch):
    temps = (250.0, 300.0, 350.0)
    once = [(name, t) for t in temps
            for name in ("operating_point", "core_currents")]
    calls = _count_points(monkeypatch)
    for policy in ("fixed", "thermal_compensated"):
        calls.clear()
        template_signatures(CellFlavor.CAMO8, temps, bias_policy=policy)
        assert calls == once
    net = parse_bench(bench_text("synth_mix.bench"))
    locked, key = apply_camouflage(
        net, eligible_gates(net, CellFlavor.CAMO8)[:12], CellFlavor.CAMO8)
    for mode in ("per_gate", "aggregate_only"):
        calls.clear()
        sigs = measure_signature(locked, key, mode, temps)
        assert calls == once
    assert len(sigs["aggregate"].observations) == 4 * len(temps)


def test_clamped_template_set_warns_once_per_clamped_temperature():
    p = DeviceParams(kvt=0.007)   # rails clamp at 200 K and at 400 K
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        template_signatures(CellFlavor.CAMO8, (200.0, 300.0, 400.0), p,
                            "thermal_compensated")
    # one per clamped temperature, not one per (function, temperature)
    assert [w.category for w in caught] == [BiasClampWarning] * 2


def _locked_mix():
    net = parse_bench(bench_text("synth_mix.bench"))
    return apply_camouflage(
        net, eligible_gates(net, CellFlavor.CAMO8)[:12], CellFlavor.CAMO8)


def test_unknown_mode_raises_before_measuring(monkeypatch):
    locked, key = _locked_mix()
    calls = _count_points(monkeypatch)
    assert outcome(measure_signature, locked, key, "per_cell") == (
        InvalidParameterError, "unknown measurement mode 'per_cell'")
    assert calls == []


def test_grid_walks_compute_each_member_once(monkeypatch):
    """Each distinct (vgs, vt) switch member once, plus the two core
    currents: the same currents the per-point reference computes."""
    got, want = [], []

    def counter(calls, real=drain_current):
        def counted(vgs, vds, vt, t, params, kind="n"):
            calls.append((vgs, vds, vt, t, kind))
            return real(vgs, vds, vt, t, params, kind)
        return counted

    monkeypatch.setattr(device, "drain_current", counter(got))
    walks = [(optimize_bias, ref_optimize_bias, (NARROW, 0.05, 0.05, 300.0)),
             (sweep_vt_window, ref_sweep,
              ((0.3, 0.45), (0.3, 0.45), 0.05, *NOMINAL[1:], NOMINAL[0]))]
    for walk, ref, args in walks:
        got.clear()
        walk(*args)
        assert len(got) == len(set(got))
        with monkeypatch.context() as m:
            m.setitem(globals(), "drain_current", counter(want))
            want.clear()
            ref(*args)
        assert set(got) == set(want)


def test_delay_clamps_the_drive_as_max_does(monkeypatch):
    """Both delay loops divide by ``max(i_eff, CONTENTION_CLAMP_A)``: a
    drive just below the clamp is raised to it, one at or above it is kept,
    and a NaN drive stays NaN (``i_eff > clamp`` is false for NaN, so
    ``i_eff if i_eff > clamp else clamp`` would clamp it)."""
    cell = device._FLAVOR_CELLS[CellFlavor.CAMO8][F.AND]
    assert cell.n_route == 2   # so halving the drive per member is exact
    assert sorted(out for out, _ in cell.vectors.values()) == [0, 0, 0, 1]
    clamp = CONTENTION_CLAMP_A
    # no core leakage: with no OFF member either, both edges drive ``drive``
    monkeypatch.setattr(sidechannel, "core_currents",
                        lambda t, params: {"n": 0.0, "p": 0.0})
    for drive in (math.nextafter(clamp, 0.0), clamp,
                  math.nextafter(clamp, 1.0), 1e-6, math.nan):
        point = device.OperatingPoint(vdd_actual=1.0, c_load=1e-15,
                                      on_n=drive / 2, on_p=drive / 2,
                                      off_n=0.0, off_p=0.0)
        want = (point.c_load * point.vdd_actual
                / (2.0 * max(drive, clamp))).hex()
        for out in (0, 1):
            row = ((cell, out, 0.0),)
            got = device._worst_delay((row, row), point)
            assert got.hex() == want, (drive, out)
        monkeypatch.setattr(sidechannel, "operating_point",
                            lambda *args, _point=point: _point)
        sig, = sidechannel._signatures([("y", cell)], (300.0,), None, "fixed")
        assert [o.delay_s.hex() for o in sig.observations] == [want] * 4, drive


def _delay_agrees_with_detail(p, bias, t, vdd=None) -> int:
    """Check both delay loops against ``CellModel.detail`` on every
    flavor's cells times LOCAL_VECTORS. ``_worst_delay`` on each row alone
    gives the same collapse or the same delay bits; ``_signatures`` of each
    cell at this point gives its first collapse in vector order, or the
    same delay bits at every vector. Returns how many rows collapse."""
    core_off = device.core_currents(t, p)
    point = device.operating_point(bias, p.vdd if vdd is None else vdd, t, p)
    collapsed = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sidechannel, "operating_point", lambda *args: point)
        for flavor, cells in device._FLAVOR_CELLS.items():
            for cell in cells.values():
                wants = []
                for vec in LOCAL_VECTORS:
                    row = (cell, *cell.core(vec, core_off))
                    want = outcome(
                        lambda: cell.detail(*row[1:], point)[0].hex())
                    got = outcome(lambda: device._worst_delay(
                        ((row,), (row,)), point).hex())
                    assert got == want, (flavor, cell.func, vec)
                    wants.append(want)
                sig = outcome(sidechannel._signatures, [("y", cell)], (t,), p,
                              "fixed")
                errors = [w for w in wants if isinstance(w, tuple)]
                if errors:
                    assert sig == errors[0], (flavor, cell.func)
                else:
                    assert [o.delay_s.hex() for o in sig[0].observations] == (
                        wants), (flavor, cell.func)
                collapsed += len(errors)
    return collapsed


def test_delay_collapses_exactly_when_detail_does():
    """Both loops call ``detail`` only where their least drive is not
    positive, and ``detail`` raises there, at points where no row, every
    row or some rows collapse (COLLAPSE_AND also pins which row a walk
    names). FLAT is the golden ``sweep`` corner at VT offsets (0, 0)."""
    counts = [_delay_agrees_with_detail(*point) for point in
              (NOMINAL, STARVED, FLAT, COLLAPSE_AND, TWO_ROUTE)]
    rows = sum(len(cells) for cells in device._FLAVOR_CELLS.values()) * 4
    assert counts == [0, rows, rows, 20, 0]


@SETTINGS
@given(params_st, bias_st, temp_st, st.one_of(st.none(), st.floats(0.5, 1.5)))
def test_delay_agrees_with_detail_at_any_point(p, bias, t, vdd):
    _delay_agrees_with_detail(p, bias, t, vdd)


#: each side of sidechannel._LOG_FLOOR (1e-300), both zeros, both
#: infinities and NaN, which max() keeps (``NaN > floor`` is false)
_FLOOR_EDGES = (math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-310, 1e-300,
                math.nextafter(1e-300, 1.0), 1.0, math.inf)


def test_features_floor_as_max_does():
    for x in _FLOOR_EDGES:
        obs = (Observation((0, 0), 300.0, x, x),)
        want = math.log10(max(x, 1e-300)).hex()
        got = sidechannel._features(obs, ())
        assert [f.hex() for f in got] == [want, want], x


# values at and below sidechannel._LOG_FLOOR (1e-300), which the features
# floor before taking logs; 1e-310 is subnormal
_FLOORED = {"floor": 1e-300, "zero": 0.0, "negative_zero": -0.0,
            "negative": -1e-12, "subnormal": 1e-310}


def _corrupt(signature, how):
    obs = list(signature.observations)
    first, last = obs[0], obs[-1]
    if how == "grid":
        obs[0] = Observation(first.vector, first.temperature + 1.0,
                             first.leakage_a, first.delay_s)
    elif how == "nonfinite":
        obs[-1] = Observation(last.vector, last.temperature,
                              math.inf, last.delay_s)
    elif how == "nan_leakage":
        obs[-1] = Observation(last.vector, last.temperature,
                              math.nan, last.delay_s)
    elif how == "nan_delay":
        obs[0] = Observation(first.vector, first.temperature,
                             first.leakage_a, math.nan)
    else:
        obs[0] = Observation(first.vector, first.temperature,
                             _FLOORED[how], first.delay_s)
        obs[-1] = Observation(last.vector, last.temperature,
                              last.leakage_a, _FLOORED[how])
    return Signature(signature.gate_id, tuple(obs))


def _bits(result):
    """A classification with its floats as hex, so -0.0 and 0.0 differ."""
    if isinstance(result, tuple):
        return result
    return (result.function, result.confidence.hex(),
            [(f, d.hex()) for f, d in result.distances.items()])


flavor_subset_st = st.sampled_from(list(CellFlavor)).flatmap(
    lambda fl: st.tuples(st.just(fl), st.sets(
        st.sampled_from(sorted(fl.function_set, key=lambda f: f.value)),
        min_size=2)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(flavor_subset_st, st.sampled_from(("fixed", "thermal_compensated")),
       st.one_of(st.just(DeviceParams()), search_params_st),
       st.lists(temp_st, min_size=1, max_size=3),
       st.integers(0, 7), st.floats(0.0, 0.3), st.integers(0, 2 ** 16),
       st.sampled_from((None, "probe", "template")),
       st.sampled_from(("grid", "nonfinite", "nan_leakage", "nan_delay",
                        *_FLOORED)))
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 300.0, 350.0], 0, 0.0, 0, None, "grid")
# a column whose spread changes in its last bit when (x - mean) ** 2 is
# computed as (x - mean) * (x - mean)
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [328.5, 300.0, 350.0], 3, 0.0, 0, None, "grid")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 300.0, 350.0], 3, 0.05, 1, "probe",
         "nan_leakage")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 300.0, 350.0], 5, 0.05, 2, "probe",
         "nan_delay")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [300.0, 250.0], 1, 0.05, 3, "probe", "zero")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 350.0], 2, 0.05, 4, "template",
         "subnormal")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 350.0], 2, 0.05, 4, "template", "floor")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 350.0], 2, 0.05, 4, "template", "zero")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)),
         "thermal_compensated", DeviceParams(), [300.0, 250.0], 6, 0.05, 5,
         "template", "negative_zero")
@example((CellFlavor.CAMO8, set(CellFlavor.CAMO8.function_set)), "fixed",
         DeviceParams(), [250.0, 350.0], 2, 0.05, 4, "template", "negative")
def test_classify_function_matches_reference(flavor_subset, policy, p, temps,
                                             pick, sigma, seed, where, how):
    flavor, funcs = flavor_subset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BiasClampWarning)
        try:
            full = template_signatures(flavor, temps, p, policy)
        except ContentionCollapseError:
            reject()
    order = sorted(full, key=lambda f: f.value)
    templates = {f: full[f] for f in order if f in funcs}
    probe = add_measurement_noise(full[order[pick % len(order)]], sigma, seed)
    if where == "probe":
        probe = _corrupt(probe, how)
    elif where == "template":
        last = max(templates, key=lambda f: f.value)
        templates[last] = _corrupt(templates[last], how)
    want = _bits(outcome(ref_classify, probe, templates))
    assert _bits(outcome(classify_function, probe, templates)) == want
    if where == "probe" and how in ("nonfinite", "nan_leakage", "nan_delay"):
        # a probe with an infinite or NaN feature is refused, not ranked
        assert want == (TemplateSetError, "signature features are not finite")
