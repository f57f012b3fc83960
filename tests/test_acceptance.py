"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints nothing on its own; the terminal summary hook in
conftest.py folds the outcomes into one PASS/FAIL line per criterion
using the CRITERIA table below.
"""

import math
import random
import time

import pytest

from conftest import random_netlist
from vtcamo.attack import brute_force_attack, sensitization_attack
from vtcamo.camouflage import (
    EFFORT_NOTE,
    SelectionPolicy,
    apply_camouflage,
    effort_estimate,
    eligible_gates,
    overhead_report,
    select_gates,
)
from vtcamo.cell import (
    CellFlavor,
    GateFunction,
    behavior_table,
    config_for,
    decode,
    distinguishing_set,
    evaluate,
)
from vtcamo.device import (
    DeviceParams,
    cell_worst_delay,
    default_bias,
    drain_current,
    optimize_bias,
    switch_ratio,
)
from vtcamo.netlist import (
    CamoKey,
    CountingOracle,
    KeyEntry,
    check_equivalence,
    parse_bench,
)
from vtcamo.sidechannel import (
    add_measurement_noise,
    balance_flavors,
    classify_function,
    measure_signature,
    template_signatures,
    thermal_compensated_bias,
)

CRITERIA = {
    1: "every programmable function matches its reference truth table",
    2: "camouflaging preserves circuit function on 100 seeded netlists",
    3: "distinguishing input sets are correct and provably minimal",
    4: "brute force effort estimates are exact and flag the retest gap",
    5: "switch on/off ratio grows monotonically with the VT offsets",
    6: "bias optimization recovers at least 10 percent of worst delay",
    7: "worst-case delay is U-shaped in supply voltage",
    8: "oracle attacks recover keys; sensitization needs fewer queries",
    9: "per-cell fingerprints classify; balancing blinds aggregates",
    10: "off-critical selection keeps delay overhead within 3 percent",
}

TWO_INPUT_REFERENCE = {
    GateFunction.NAND: lambda a, b: 1 - (a & b),
    GateFunction.AND: lambda a, b: a & b,
    GateFunction.NOR: lambda a, b: 1 - (a | b),
    GateFunction.OR: lambda a, b: a | b,
    GateFunction.XOR: lambda a, b: a ^ b,
    GateFunction.XNOR: lambda a, b: 1 - (a ^ b),
    GateFunction.INV: lambda a, b: 1 - b,
    GateFunction.BUF: lambda a, b: b,
}

LOCAL_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))

MIX_A = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NAND(a, g1)
g3 = NAND(b, g1)
y = NOR(g2, g3)
"""
MIX_B = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NOR(a, b)
g2 = NOR(a, g1)
g3 = NOR(b, g1)
y = NAND(g2, g3)
"""


def test_criterion_01_cell_truth_tables():
    start = time.monotonic()
    for flavor in CellFlavor:
        for func in flavor.function_set:
            config = config_for(func, flavor)
            assert decode(config) is func
            reference = TWO_INPUT_REFERENCE[func]
            for a, b in LOCAL_PATTERNS:
                assert evaluate(config, (a, b)) == reference(a, b), \
                    (flavor, func, a, b)
    assert time.monotonic() - start < 1.0


def test_criterion_02_locking_preserves_function():
    start = time.monotonic()
    flavors = [CellFlavor.CAMO8, CellFlavor.CMOS3A, CellFlavor.CMOS3B]
    done = 0
    seed = 0
    while done < 100:
        i = seed
        seed += 1
        assert seed < 200, "not enough eligible instances"
        if i == 97:
            n = 12
        elif i == 98:
            n = 16
        else:
            n = 3 + (i % 6)
        net = random_netlist(n, n + 5 + (i % 9), seed=26000 + i)
        flavor = flavors[i % 3]
        eligible = eligible_gates(net, flavor)
        if not eligible:
            continue
        chosen = eligible[: 1 + (i % 4)]
        locked, key = apply_camouflage(net, chosen, flavor, decoy_seed=i)
        verdict = check_equivalence(net, locked, key_b=key,
                                    mode="exhaustive")
        assert verdict.equivalent, f"instance {i} diverged"
        assert verdict.vectors_checked == 2 ** len(net.inputs)
        done += 1
    assert time.monotonic() - start < 60.0


def test_criterion_03_distinguishing_sets_minimal():
    def splits(patterns, candidates):
        tables = [behavior_table(f) for f in candidates]
        seen = {tuple(t[p] for p in patterns) for t in tables}
        return len(seen) == len(tables)

    parity_pair = {GateFunction.XOR, GateFunction.XNOR}
    monotone_four = {GateFunction.NAND, GateFunction.AND,
                     GateFunction.NOR, GateFunction.OR}
    two_input_six = parity_pair | monotone_four
    cases = [
        (parity_pair, 1),
        (monotone_four, 2),
        (two_input_six, 3),
        (CellFlavor.CAMO8.function_set, 4),
    ]
    for candidates, minimal_size in cases:
        result = distinguishing_set(candidates)
        assert len(result) == minimal_size
        assert splits(result, candidates)
        # independent minimality proof: no smaller subset works
        pool = list(LOCAL_PATTERNS)
        for size in range(len(result)):
            for subset in _subsets(pool, size):
                assert not splits(subset, candidates), (candidates, subset)
    assert distinguishing_set(parity_pair) == ((0, 0),)
    assert distinguishing_set(monotone_four) == ((0, 0), (0, 1))
    assert distinguishing_set(two_input_six) == ((0, 0), (0, 1), (1, 1))


def _subsets(pool, size, start=0):
    if size == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        for rest in _subsets(pool, size - 1, i + 1):
            yield (pool[i],) + rest


def test_criterion_04_effort_estimates():
    est = effort_estimate(50, 10, 8)
    assert isinstance(est.pattern_count, int)
    assert est.pattern_count == 2 ** 50
    assert est.candidate_count == 8 ** 10
    assert est.seconds_raw == pytest.approx(2 ** 50 / 1e9)
    assert est.seconds_retest > est.seconds_raw * 1e5
    assert est.years_retest > est.years_raw * 1e5
    assert est.note == EFFORT_NOTE

    huge = effort_estimate(100000, 100000, 8)
    assert huge.pattern_count == 2 ** 100000
    assert math.isinf(huge.seconds_retest)


def test_criterion_05_ratio_monotone_in_offsets():
    params = DeviceParams()
    bias = default_bias(params)

    vgs_steps = [params.vdd * k / 49 for k in range(50)]
    vds_steps = [params.vdd * k / 49 for k in range(50)]
    currents = [[drain_current(vgs, vds, params.vtn0, 300.0, params)
                 for vds in vds_steps] for vgs in vgs_steps]
    for r in range(50):
        for c in range(50):
            if c > 0:
                assert currents[r][c] >= currents[r][c - 1]
            if r > 0:
                assert currents[r][c] >= currents[r - 1][c]

    steps = [0.35 * k / 49 for k in range(50)]
    grid = [[switch_ratio(dh, dl, bias, 300.0, params) for dl in steps]
            for dh in steps]
    for r in range(50):
        for c in range(50):
            if c > 0:
                assert grid[r][c] > grid[r][c - 1]
            if r > 0:
                assert grid[r][c] > grid[r - 1][c]
    assert switch_ratio(0.0, 0.0, bias, 300.0, params) == 1.0
    assert switch_ratio(0.35, 0.35, bias, 300.0, params) >= 1e3


def test_criterion_06_bias_optimization_gain():
    start = time.monotonic()
    best = optimize_bias(DeviceParams(), search_window=0.1, grid_step=0.05)
    assert time.monotonic() - start < 30.0
    assert best.delay_gain >= 0.10
    assert best.delay_opt_s < best.delay_default_s
    repeat = optimize_bias(DeviceParams(), search_window=0.1,
                           grid_step=0.05)
    assert repeat == best


def test_criterion_07_delay_u_shape_in_supply():
    params = DeviceParams()
    bias = default_bias(params)
    delays = {vdd: cell_worst_delay(bias, 300.0, params, vdd_actual=vdd)
              for vdd in (0.9, 1.0, 1.1)}
    assert delays[0.9] > delays[1.0]
    assert delays[1.1] > delays[1.0]


def test_criterion_08_attack_campaign():
    start = time.monotonic()
    flavors = [CellFlavor.CAMO8, CellFlavor.CMOS3A, CellFlavor.CMOS3B]
    done = 0
    unique_count = 0
    strict_wins = 0
    seed = 0
    while done < 100:
        i = seed
        seed += 1
        assert seed < 200, "not enough eligible instances"
        n = 10 if i in (31, 67) else 4 + (i % 5)
        net = random_netlist(n, n + 4 + (i % 7), seed=9000 + i)
        flavor = flavors[i % 3]
        eligible = eligible_gates(net, flavor)
        k = 1 + (i % 3)
        if len(eligible) < k:
            continue
        locked, key = apply_camouflage(net, eligible[:k], flavor,
                                       decoy_seed=i)
        brute = brute_force_attack(locked, CountingOracle(locked, key))
        sens = sensitization_attack(locked, CountingOracle(locked, key))
        assert brute.status in ("unique", "equivalent_class")
        assert sens.status in ("unique", "equivalent_class")
        for gid, entry in key.entries.items():
            assert entry.function in brute.resolved[gid]
            assert entry.function in sens.resolved[gid]
            assert sens.resolved[gid] <= brute.resolved[gid]
        if brute.status == "unique":
            for gid in key.entries:
                assert brute.resolved[gid] == sens.resolved[gid]
                assert brute.resolved[gid] == \
                    frozenset({key.entries[gid].function})
        if k == 1:
            _check_survivors_equivalent(locked, key, brute.resolved)
        if sens.status == "unique":
            unique_count += 1
            if sens.query_count < brute.query_count:
                strict_wins += 1
        done += 1
    assert unique_count >= 50
    assert strict_wins >= 0.9 * unique_count
    assert time.monotonic() - start < 300.0


def _check_survivors_equivalent(locked, key, resolved):
    """Every surviving single-cell candidate must reproduce the oracle."""
    (gid, _), = key.entries.items()
    gate = locked.gate(gid)
    for func in resolved[gid]:
        decoy = gate.fanins[0] if func in (GateFunction.INV,
                                           GateFunction.BUF) else None
        candidate = CamoKey({gid: KeyEntry(func, decoy)})
        verdict = check_equivalence(locked, locked, key_a=candidate,
                                    key_b=key, mode="exhaustive")
        assert verdict.equivalent, (gid, func)


def test_criterion_09_sidechannel_and_countermeasures():
    # per-cell fingerprints identify every function without noise
    for flavor in CellFlavor:
        templates = template_signatures(flavor)
        for func in flavor.function_set:
            sig = template_signatures(flavor)[func]
            assert classify_function(sig, templates).function is func

    # compensated bias pins the overdrive and crushes the thermal spread
    params = DeviceParams()
    base = default_bias(params)
    temps = (200.0, 250.0, 300.0, 350.0, 400.0)
    for t in temps:
        bias = thermal_compensated_bias(t, params)
        drift = params.kvt * (t - params.t_ref)
        assert abs(bias.vg_n + drift - base.vg_n) < 1e-12
        assert abs(bias.vg_p - drift - base.vg_p) < 1e-12

    def worst_spread(policy):
        sig = template_signatures(CellFlavor.CAMO8, temperatures=temps,
                                  bias_policy=policy)[GateFunction.NAND]
        spread = 0.0
        for vec in LOCAL_PATTERNS:
            leaks = [o.leakage_a for o in sig.observations
                     if o.vector == vec]
            spread = max(spread, (max(leaks) - min(leaks)) / min(leaks))
        return spread

    assert worst_spread("fixed") >= 5.0 * worst_spread("thermal_compensated")

    # balancing makes the aggregate indistinguishable between two mixes
    aggs = []
    for text in (MIX_A, MIX_B):
        net = parse_bench(text)
        locked, key = apply_camouflage(net, ["g1", "g2", "g3", "y"],
                                       CellFlavor.CMOS3A)
        balanced, new_key, _ = balance_flavors(locked, key)
        aggs.append(measure_signature(balanced, new_key,
                                      mode="aggregate_only")["aggregate"])

    def features(sig):
        return ([math.log10(o.leakage_a) for o in sig.observations]
                + [math.log10(o.delay_s) for o in sig.observations])

    ref = [features(a) for a in aggs]
    rng = random.Random(20260816)
    trials = 120
    hits = 0
    for t in range(trials):
        truth = rng.randrange(2)
        noisy = add_measurement_noise(aggs[truth], 0.02, seed=5000 + t)
        obs = features(noisy)
        dists = [sum((x - y) ** 2 for x, y in zip(obs, r)) for r in ref]
        guess = 0 if dists[0] <= dists[1] else 1
        hits += guess == truth
    assert hits / trials <= 0.5 + 0.10


def test_criterion_10_off_critical_delay_overhead(synth_wide, c17,
                                                  synth_mix):
    policy = SelectionPolicy(strategy="off_critical", budget=0.01)
    corpus = {"synth_wide": synth_wide, "c17": c17, "synth_mix": synth_mix}
    for name, net in corpus.items():
        chosen = select_gates(net, policy)
        if not chosen:
            continue  # a 1% budget rounds to zero gates on tiny benches
        locked, key = apply_camouflage(net, chosen, CellFlavor.CAMO8)
        report = overhead_report(locked)
        assert report.camo_count == len(chosen), name
        assert report.delay_pct <= 3.0, name
        verdict = check_equivalence(net, locked, key_b=key,
                                    mode="random", num_vectors=2000, seed=1)
        assert verdict.equivalent, name

    # the wide bench must actually exercise the budget
    wide_chosen = select_gates(synth_wide, policy)
    assert len(wide_chosen) == 3
