"""Netlist camouflaging: gate selection, cell substitution, cost accounting.

apply_camouflage swaps chosen gates for camouflaged placeholders and emits
the key that records their hidden programming. One-input gates (NOT/BUFF)
become INV/BUF cells; those need a second, electrically real input, so a
decoy net is wired to the freed port. The decoy is chosen deterministically:
the net whose topological level is closest to the gate's own, excluding
anything inside the gate's fanout cone (which would create a cycle), ties
broken by definition order. The cone includes the decoy edges already
chosen in the same call, so several NOT/BUFF gates converted together
never close a cycle through each other. Pass a seed to pick uniformly
among the legal candidates instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .cell import BASE_FUNCTIONS, CellFlavor, GateFunction
from .errors import (
    DecoySelectionError,
    FlavorMismatchError,
    InvalidCostTableError,
    InvalidPolicyError,
)
from .netlist import (CamoKey, Gate, KeyEntry, Netlist, critical_path,
                      reachable, unit_delay_model)

#: Year length used for human-readable effort figures (Julian year).
SECONDS_PER_YEAR = 31557600

#: Camouflaged function that replaces each plain-gate function.
_CAMO_FOR_PLAIN = {**{f: f for f in BASE_FUNCTIONS},
                   GateFunction.NOT: GateFunction.INV,
                   GateFunction.BUFF: GateFunction.BUF}


@dataclass(frozen=True)
class CostMultiples:
    """Area/power/delay of one camouflaged cell relative to a plain gate."""

    area: float
    power: float
    delay: float


@dataclass(frozen=True)
class CostTable:
    """Per-flavor cost multiples; every entry must be >= 1."""

    entries: dict[CellFlavor, CostMultiples] = field(default_factory=lambda: {
        CellFlavor.CAMO8: CostMultiples(4.0, 4.0, 2.0),
        CellFlavor.CMOS3A: CostMultiples(2.0, 2.0, 1.5),
        CellFlavor.CMOS3B: CostMultiples(2.0, 2.0, 1.5),
    })

    def __post_init__(self):
        for flavor, m in self.entries.items():
            for name in ("area", "power", "delay"):
                v = getattr(m, name)
                if not math.isfinite(v) or v < 1.0:
                    raise InvalidCostTableError(
                        f"{flavor!r} {name} multiple must be >= 1, got {v}")

    def for_flavor(self, flavor: CellFlavor) -> CostMultiples:
        try:
            return self.entries[flavor]
        except KeyError:
            raise InvalidCostTableError(
                f"no cost entry for flavor {flavor!r}") from None


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick which gates get camouflaged.

    strategy: "random" (uniform, seeded), "xor_sequence" (prefer gates
    feeding XOR/XNOR consumers), "off_critical" (avoid the critical
    path), or "greedy_effort" (rank by candidate-space growth net of
    normalized overhead, subject to the delay budget).
    budget is the largest fraction of gates to convert; delay_budget is
    the acceptable fractional critical-path growth for greedy_effort.
    """

    strategy: str = "random"
    budget: float = 0.05
    delay_budget: float = 0.05
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in ("random", "xor_sequence", "off_critical",
                                 "greedy_effort"):
            raise InvalidPolicyError(f"unknown strategy {self.strategy!r}")
        if not (0.0 < self.budget <= 1.0):
            raise InvalidPolicyError(
                f"budget must be in (0, 1], got {self.budget}")
        if self.delay_budget < 0:
            raise InvalidPolicyError(
                f"delay_budget must be >= 0, got {self.delay_budget}")


def camo_function_for(gate: Gate, flavor: CellFlavor) -> GateFunction:
    """Camouflaged function that preserves a plain gate, or raise."""
    if gate.is_camo:
        raise FlavorMismatchError(f"gate {gate.gate_id!r} is already camouflaged")
    func = _CAMO_FOR_PLAIN.get(gate.func)
    if func is None or len(gate.fanins) > 2:
        raise FlavorMismatchError(
            f"gate {gate.gate_id!r} ({gate.func!r}, {len(gate.fanins)} fanins)"
            f" has no two-input camouflaged equivalent")
    if func not in flavor.function_set:
        raise FlavorMismatchError(
            f"{func!r} is not realizable by flavor {flavor!r}")
    return func


def eligible_gates(net: Netlist, flavor: CellFlavor) -> list[str]:
    """Gate ids (file order) that apply_camouflage would accept."""
    out = []
    for g in net.gates:
        try:
            camo_function_for(g, flavor)
        except FlavorMismatchError:
            continue
        out.append(g.gate_id)
    return out


def _pick_decoy(fanout: dict[str, list[str]], gate: Gate,
                levels: dict[str, int], rng: random.Random | None) -> str:
    cone = reachable(fanout, gate.gate_id)
    # fanout_map() lists every net, inputs first, in definition order
    candidates = [n for n in fanout if n not in cone]
    if not candidates:
        raise DecoySelectionError(
            f"no net outside the fanout cone of {gate.gate_id!r}")
    if rng is not None:
        return rng.choice(sorted(candidates))
    own = levels[gate.gate_id]
    # candidates keep definition order, so min() breaks ties by it
    return min(candidates, key=lambda n: abs(levels.get(n, 0) - own))


def apply_camouflage(net: Netlist, gate_ids, flavor: CellFlavor,
                     decoy_seed: int | None = None,
                     ) -> tuple[Netlist, CamoKey]:
    """Replace the named gates with camouflaged cells of one flavor.

    Returns the rewritten netlist and the key that makes it equivalent to
    the original. The input netlist is never mutated.
    """
    chosen = list(gate_ids)
    known = {g.gate_id for g in net.gates}
    unknown = [gid for gid in chosen if gid not in known]
    if unknown:
        raise FlavorMismatchError(f"unknown gate ids {unknown!r}")
    rng = random.Random(decoy_seed) if decoy_seed is not None else None
    levels = net.levels()
    # grows by each decoy edge, so later cones see the earlier decoys
    fanout = net.fanout_map()
    new_gates = []
    entries: dict[str, KeyEntry] = {}
    chosen_set = set(chosen)
    for g in net.gates:
        if g.gate_id not in chosen_set:
            new_gates.append(g)
            continue
        func = camo_function_for(g, flavor)
        if func in (GateFunction.INV, GateFunction.BUF):
            decoy = _pick_decoy(fanout, g, levels, rng)
            fanout[decoy].append(g.gate_id)
            fanins = (decoy, g.fanins[0])
            entries[g.gate_id] = KeyEntry(func, decoy)
        else:
            fanins = g.fanins
            entries[g.gate_id] = KeyEntry(func)
        new_gates.append(Gate(g.gate_id, fanins, flavor=flavor))
    locked = Netlist(net.inputs, net.outputs, tuple(new_gates),
                     net.pseudo_inputs, net.pseudo_outputs)
    return locked, CamoKey(entries)


def select_gates(net: Netlist, policy: SelectionPolicy,
                 cost_table: CostTable | None = None,
                 delay_model=unit_delay_model,
                 flavor: CellFlavor = CellFlavor.CAMO8) -> list[str]:
    """Pick gates to camouflage according to the policy.

    The result is a deterministic function of (netlist, policy, flavor);
    the random strategy derives everything from the policy seed.
    """
    cost_table = cost_table or CostTable()
    eligible = eligible_gates(net, flavor)
    count = min(math.floor(policy.budget * len(net.gates) + 1e-9),
                len(eligible))
    if policy.budget >= 1.0:
        count = len(eligible)
    if policy.strategy == "random":
        rng = random.Random(policy.seed if policy.seed is not None else 0)
        return sorted(rng.sample(eligible, count))
    if policy.strategy == "xor_sequence":
        fo = net.fanout_map()
        def feeds_xor(gid: str) -> bool:
            return any(net.gate(succ).func in (GateFunction.XOR,
                                               GateFunction.XNOR)
                       for succ in fo[gid])
        pos = {gid: i for i, gid in enumerate(eligible)}
        ranked = sorted(eligible, key=lambda g: (not feeds_xor(g), pos[g]))
        return sorted(ranked[:count])
    if policy.strategy == "off_critical":
        on_path = set(critical_path(net, delay_model).gate_ids)
        keep = [gid for gid in eligible if gid not in on_path]
        return sorted(keep[:count])
    # greedy_effort
    base = critical_path(net, delay_model)
    limit = base.delay * (1.0 + policy.delay_budget)
    multiples = cost_table.for_flavor(flavor)
    overhead_norm = (multiples.area - 1.0) / multiples.area
    po_set = set(net.outputs)
    gains = math.log2(len(flavor.function_set))
    def metric(gid: str) -> float:
        observability = 0.5 if gid in po_set else 1.0
        return gains * observability - overhead_norm
    pos = {gid: i for i, gid in enumerate(eligible)}
    ranked = sorted(eligible, key=lambda g: (-metric(g), pos[g]))
    chosen: list[str] = []
    for gid in ranked:
        if len(chosen) >= count:
            break
        trial = set(chosen) | {gid}
        def model(g: Gate, _trial=trial) -> float:
            d = delay_model(g)
            return d * multiples.delay if g.gate_id in _trial else d
        if critical_path(net, model).delay <= limit + 1e-12:
            chosen.append(gid)
    return sorted(chosen)


@dataclass(frozen=True)
class OverheadReport:
    """Area/power/delay cost of a camouflaged netlist vs its plain form."""

    area_pct: float
    power_pct: float
    delay_pct: float
    gate_total: int
    camo_count: int
    per_gate: dict[str, CostMultiples]


def overhead_report(net: Netlist, cost_table: CostTable | None = None,
                    delay_model=unit_delay_model) -> OverheadReport:
    """Overhead of the camouflaged gates already present in ``net``.

    Area and power count the extra gate-equivalents of each camouflaged
    cell, sum(multiple - 1), over the total gate count. Delay compares
    the critical path with camouflaged delay multiples against the same
    path model with every gate plain.
    """
    cost_table = cost_table or CostTable()
    per_gate = {}
    extra_area = extra_power = 0.0
    for g in net.camo_gates():
        m = cost_table.for_flavor(g.flavor)
        per_gate[g.gate_id] = m
        extra_area += m.area - 1.0
        extra_power += m.power - 1.0
    total = len(net.gates)
    base = critical_path(net, delay_model)
    def camo_model(g: Gate) -> float:
        d = delay_model(g)
        if g.is_camo:
            return d * cost_table.for_flavor(g.flavor).delay
        return d
    with_camo = critical_path(net, camo_model)
    delay_pct = 0.0
    if base.delay > 0:
        delay_pct = 100.0 * (with_camo.delay - base.delay) / base.delay
    return OverheadReport(
        area_pct=100.0 * extra_area / total if total else 0.0,
        power_pct=100.0 * extra_power / total if total else 0.0,
        delay_pct=delay_pct,
        gate_total=total,
        camo_count=len(per_gate),
        per_gate=per_gate,
    )


EFFORT_NOTE = (
    "Headline effort figures that quote on the order of 1e5 years for "
    "fifty hidden bits at 1 GHz do not follow from dividing the pattern "
    "count by the test frequency, which yields days, not millennia. Both "
    "the raw division and a retest-per-candidate model are reported; pick "
    "the one that matches the assumed lab procedure."
)


@dataclass(frozen=True)
class EffortEstimate:
    """Exact brute-force effort arithmetic (Python integers, no rounding)."""

    n_inputs: int
    k_camo: int
    functions_per_gate: int
    test_frequency_hz: float
    pattern_count: int
    candidate_count: int
    seconds_raw: float
    seconds_retest: float
    note: str = EFFORT_NOTE

    @property
    def years_raw(self) -> float:
        return self.seconds_raw / SECONDS_PER_YEAR

    @property
    def years_retest(self) -> float:
        return self.seconds_retest / SECONDS_PER_YEAR


def _as_seconds(count: int, freq: float) -> float:
    try:
        return count / freq
    except OverflowError:
        return math.inf


def effort_estimate(n_inputs: int, k_camo: int, functions_per_gate: int,
                    test_frequency_hz: float = 1e9) -> EffortEstimate:
    """Brute-force identification effort for a camouflaged design.

    pattern_count = 2**n_inputs and candidate_count =
    functions_per_gate**k_camo are exact. seconds_raw assumes one pass
    over the pattern space; seconds_retest assumes every candidate is
    re-simulated against every pattern.
    """
    from .errors import InvalidParameterError
    if n_inputs < 0 or k_camo < 0 or functions_per_gate < 1:
        raise InvalidParameterError("counts must be non-negative "
                                    "(functions_per_gate >= 1)")
    if not math.isfinite(test_frequency_hz) or test_frequency_hz <= 0:
        raise InvalidParameterError(
            f"test frequency must be positive, got {test_frequency_hz}")
    patterns = 1 << n_inputs
    candidates = functions_per_gate ** k_camo
    return EffortEstimate(
        n_inputs=n_inputs,
        k_camo=k_camo,
        functions_per_gate=functions_per_gate,
        test_frequency_hz=test_frequency_hz,
        pattern_count=patterns,
        candidate_count=candidates,
        seconds_raw=_as_seconds(patterns, test_frequency_hz),
        seconds_retest=_as_seconds(patterns * candidates, test_frequency_hz),
    )
