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
from typing import ClassVar

from .cell import BASE_FUNCTIONS, UNDERLYING, CellFlavor, GateFunction
from .errors import (
    FlavorMismatchError,
    InvalidCostTableError,
    InvalidParameterError,
    InvalidPolicyError,
)
from .netlist import (CamoKey, Gate, IncrementalTiming, KeyEntry, Netlist,
                      critical_path, reachable)

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
    path), or "greedy_effort" (rank by observability, subject to the
    delay budget: see select_gates).
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
        if not self.delay_budget >= 0:
            raise InvalidPolicyError(
                f"delay_budget must be >= 0, got {self.delay_budget}")


def camo_function_for(gate: Gate, flavor: CellFlavor) -> GateFunction:
    """Camouflaged function that preserves a plain gate, or raise."""
    func = _CAMO_FOR_PLAIN.get(gate.func)  # None for a camouflaged gate
    if func in flavor.function_set and len(gate.fanins) <= 2:
        return func
    if gate.is_camo:
        raise FlavorMismatchError(f"gate {gate.gate_id!r} is already camouflaged")
    if func is None or len(gate.fanins) > 2:
        raise FlavorMismatchError(
            f"gate {gate.gate_id!r} ({gate.func!r}, {len(gate.fanins)} fanins)"
            f" has no two-input camouflaged equivalent")
    raise FlavorMismatchError(
        f"{func!r} is not realizable by flavor {flavor!r}")


def eligible_gates(net: Netlist, flavor: CellFlavor) -> list[str]:
    """Gate ids (file order) that apply_camouflage would accept."""
    camo_for, functions = _CAMO_FOR_PLAIN.get, flavor.function_set
    return [g.gate_id for g in net.gates
            if camo_for(g.func) in functions and len(g.fanins) <= 2]


def _pick_decoy(net: Netlist, fanout: list[list[int]], n: int,
                depth: list[int] | None, rng: random.Random | None) -> int:
    """The decoy net number for gate net ``n`` (see module docstring)."""
    cone = reachable(fanout, n)
    # net numbers run in definition order, inputs first; a netlist with a
    # gate has an input, and no input is in a fanout cone: never empty
    candidates = [m for m in range(len(fanout)) if m not in cone]
    if rng is not None:
        return rng.choice(sorted(candidates, key=net._names.__getitem__))
    # min() breaks ties by definition order
    return min(candidates, key=lambda m: abs(depth[m] - depth[n]))


def apply_camouflage(net: Netlist, gate_ids, flavor: CellFlavor,
                     decoy_seed: int | None = None,
                     ) -> tuple[Netlist, CamoKey]:
    """Replace the named gates with camouflaged cells of one flavor.

    Returns the rewritten netlist and the key that makes it equivalent to
    the original. The input netlist is never mutated.
    """
    chosen, width = list(gate_ids), len(net.inputs)
    unknown = [gid for gid in chosen if net._index.get(gid, -1) < width]
    if unknown:
        raise FlavorMismatchError(f"unknown gate ids {unknown!r}")
    rng = random.Random(decoy_seed) if decoy_seed is not None else None
    # copied at the first INV/BUF cell; depths only rank a seedless pick
    depth, fanins, fanouts = None, net._fanins, net._fanouts
    new_gates = []
    entries: dict[str, KeyEntry] = {}
    chosen_set = set(chosen)
    for n, g in enumerate(net.gates, width):
        if g.gate_id not in chosen_set:
            new_gates.append(g)
            continue
        func, reads = camo_function_for(g, flavor), g.fanins
        if func in UNDERLYING:
            if fanins is net._fanins:
                depth = net._depths() if rng is None else None
                fanins, fanouts = list(fanins), list(fanouts)
            decoy = _pick_decoy(net, fanouts, n, depth, rng)
            # a new list in file order, as built; later cones see the edge
            fanouts[decoy] = sorted([*fanouts[decoy], n])
            fanins[n] = (decoy, fanins[n][0])
            reads = (net._names[decoy], reads[0])
            entries[g.gate_id] = KeyEntry(func, reads[0])
        else:
            entries[g.gate_id] = KeyEntry(func)
        new_gates.append(Gate(g.gate_id, reads, flavor=flavor))
    # same ports, names and gate order: keep the numbering, and the Kahn
    # order unless a decoy edge was added; set fields as the constructor
    # does (a real __dict__ slows each read)
    locked = object.__new__(Netlist)
    for name in ("inputs", "outputs", "pseudo_inputs", "pseudo_outputs"):
        object.__setattr__(locked, name, getattr(net, name))
    object.__setattr__(locked, "gates", tuple(new_gates))
    locked._settle(net._index, net._names, fanins, fanouts,
                   net._order if fanouts is net._fanouts else None)
    return locked, CamoKey(entries)


def select_gates(net: Netlist, policy: SelectionPolicy,
                 cost_table: CostTable | None = None,
                 flavor: CellFlavor = CellFlavor.CAMO8) -> list[str]:
    """Pick gates to camouflage according to the policy.

    The result is a deterministic function of (netlist, policy, flavor);
    the random strategy derives everything from the policy seed.

    greedy_effort ranks by the effort-versus-overhead trade-off of
    Rajendran et al. (CCS 2013): candidate-space growth, halved at a
    primary output, less normalized area overhead. Growth (log2 of the
    flavor's function count, so positive) and overhead are the same for
    every cell of one flavor, so non-output gates come first, then the
    outputs, each in file order. A ranked gate is kept when the critical
    path, with it and the gates kept so far at the flavor's delay
    multiple, stays within ``delay_budget`` of the unit-delay path (to
    1e-12). A trial re-times only the gate's fanout cone, bit-identically
    to a full pass (``IncrementalTiming``), and checks only the ends there
    whose arrival changed: every other end passed when the last gate was
    kept, and the unit-delay start passes because ``delay_budget >= 0``.
    """
    cost_table = cost_table or CostTable()
    eligible = eligible_gates(net, flavor)
    count = min(math.floor(policy.budget * len(net.gates) + 1e-9),
                len(eligible))
    if policy.strategy == "random":
        rng = random.Random(policy.seed if policy.seed is not None else 0)
        return sorted(rng.sample(eligible, count))
    if policy.strategy == "xor_sequence":
        width = len(net.inputs)
        def feeds_xor(gid: str) -> bool:
            return any(net.gates[n - width].func in (GateFunction.XOR,
                                                     GateFunction.XNOR)
                       for n in net._fanouts[net._index[gid]])
        # a stable sort keeps file order among equal keys
        ranked = sorted(eligible, key=lambda g: not feeds_xor(g))
        return sorted(ranked[:count])
    if policy.strategy == "off_critical":
        on_path = set(critical_path(net).gate_ids)
        keep = [gid for gid in eligible if gid not in on_path]
        return sorted(keep[:count])
    # greedy_effort: a stable sort keeps file order within each group
    timing = IncrementalTiming(net)
    bound = timing.delay() * (1.0 + policy.delay_budget) + 1e-12
    delay = cost_table.for_flavor(flavor).delay
    chosen: list[str] = []
    for gid in sorted(eligible, key=set(net.outputs).__contains__):
        if len(chosen) >= count:
            break
        if timing.try_delay(gid, delay, bound):
            chosen.append(gid)
    return sorted(chosen)


@dataclass(frozen=True)
class OverheadReport:
    """Area/power/delay cost of a camouflaged netlist vs its plain form."""

    area_pct: float
    power_pct: float
    delay_pct: float
    camo_count: int


def overhead_report(net: Netlist,
                    cost_table: CostTable | None = None) -> OverheadReport:
    """Overhead of the camouflaged gates already present in ``net``.

    Area and power count the extra gate-equivalents of each camouflaged
    cell, sum(multiple - 1), over the total gate count. Delay compares
    the unit-delay critical path, each camouflaged gate weighted by its
    delay multiple, against the same path with every gate plain.
    """
    cost_table = cost_table or CostTable()
    camo = net.camo_gates()
    extra_area = extra_power = 0.0
    for g in camo:
        m = cost_table.for_flavor(g.flavor)
        extra_area += m.area - 1.0
        extra_power += m.power - 1.0
    total = len(net.gates)
    timing = IncrementalTiming(net, [
        1.0 if g.flavor is None else cost_table.for_flavor(g.flavor).delay
        for g in net.gates])
    # under unit delays an arrival is the net's depth, exact as a float
    base = float(max(map(net._depths().__getitem__, timing.ends), default=0))
    delay_pct = 0.0
    if base > 0:
        delay_pct = 100.0 * (timing.delay() - base) / base
    return OverheadReport(
        area_pct=100.0 * extra_area / total if total else 0.0,
        power_pct=100.0 * extra_power / total if total else 0.0,
        delay_pct=delay_pct,
        camo_count=len(camo),
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

    pattern_count: int
    candidate_count: int
    seconds_raw: float
    seconds_retest: float
    note: ClassVar[str] = EFFORT_NOTE

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
    if n_inputs < 0 or k_camo < 0 or functions_per_gate < 1:
        raise InvalidParameterError("counts must be non-negative "
                                    "(functions_per_gate >= 1)")
    if not math.isfinite(test_frequency_hz) or test_frequency_hz <= 0:
        raise InvalidParameterError(
            f"test frequency must be positive, got {test_frequency_hz}")
    patterns = 1 << n_inputs
    candidates = functions_per_gate ** k_camo
    return EffortEstimate(
        pattern_count=patterns,
        candidate_count=candidates,
        seconds_raw=_as_seconds(patterns, test_frequency_hz),
        seconds_retest=_as_seconds(patterns * candidates, test_frequency_hz),
    )
