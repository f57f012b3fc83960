"""Side-channel analysis of programmed cells and countermeasures.

The programming of a cell is invisible in a layout image, but it is not
invisible in physics: each function leaves a distinct leakage and delay
fingerprint across local input vectors and operating temperatures. This
module builds those fingerprints (signatures), matches an unknown cell
against per-function templates, and implements two countermeasures:
inserting sink-terminated dummy cells until every function of a flavor
appears equally often (so chip-level aggregate measurements carry no
information about the mix), and shifting the pass-switch bias rails with
temperature so the switch overdrive, and with it the leakage spread a
thermal attacker relies on, stays put. A signature set forms its bias
and currents once per temperature and each cell's drives in one loop.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import chain, count, islice
from operator import add, itemgetter
from typing import NamedTuple

from .cell import (LOCAL_VECTORS, UNDERLYING, CellFlavor, GateFunction,
                   config_for)
from .device import (
    _FLAVOR_CELLS,
    CONTENTION_CLAMP_A,
    BiasPoint,
    CellModel,
    DeviceParams,
    core_currents,
    default_bias,
    operating_point,
)
from .errors import (
    BiasClampWarning,
    InsertionError,
    InvalidParameterError,
    TemplateSetError,
)
from .netlist import CamoKey, Gate, KeyEntry, Netlist, validate_key

#: Operating range the measurement fixtures support.
MIN_TEMPERATURE_K = 200.0
MAX_TEMPERATURE_K = 400.0

DEFAULT_TEMPERATURES = (250.0, 300.0, 350.0)

#: Floor applied before taking logs of measured quantities.
_LOG_FLOOR = 1e-300


class Observation(NamedTuple):
    """One measurement point: a local input vector at one temperature."""

    vector: tuple[int, int]
    temperature: float
    leakage_a: float
    delay_s: float


@dataclass(frozen=True)
class Signature:
    """Ordered measurement set characterizing one cell (or a whole chip)."""

    gate_id: str
    observations: tuple[Observation, ...]

    def grid(self) -> tuple[tuple[tuple[int, int], float], ...]:
        """The (vector, temperature) points this signature covers."""
        return tuple(map(itemgetter(0, 1), self.observations))


def _check_temperatures(temperatures) -> tuple[float, ...]:
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise InvalidParameterError("at least one temperature is required")
    for t in temps:
        if not MIN_TEMPERATURE_K <= t <= MAX_TEMPERATURE_K:
            raise InvalidParameterError(
                f"temperature {t} K outside the supported range "
                f"[{MIN_TEMPERATURE_K}, {MAX_TEMPERATURE_K}]")
    return temps


def thermal_compensated_bias(t: float, params: DeviceParams) -> BiasPoint:
    """Bias rails tracking the threshold drift so overdrive is constant.

    The N rail follows the falling threshold down, the P rail mirrors it
    up. Values are clamped to the supply range; clamping is reported as a
    BiasClampWarning because a clamped rail no longer compensates.
    """
    base = default_bias(params)
    shift = params.kvt * (t - params.t_ref)
    vg_n = base.vg_n - shift
    vg_p = base.vg_p + shift
    clamped_n = min(max(vg_n, 0.0), params.vdd)
    clamped_p = min(max(vg_p, 0.0), params.vdd)
    if clamped_n != vg_n or clamped_p != vg_p:
        warnings.warn(
            f"compensated bias clamped to the supply range at {t} K",
            BiasClampWarning)
    return BiasPoint(clamped_n, clamped_p)


def _bias_for(policy: str, t: float, params: DeviceParams) -> BiasPoint:
    if policy == "fixed":
        return default_bias(params)
    if policy == "thermal_compensated":
        return thermal_compensated_bias(t, params)
    raise InvalidParameterError(f"unknown bias policy {policy!r}")


def _signatures(cells, temperatures, params: DeviceParams | None,
                bias_policy: str) -> list[Signature]:
    """Signatures of (gate_id, CellModel) cells, one point per temperature."""
    params = params or DeviceParams()
    points = [(t, operating_point(_bias_for(bias_policy, t, params),
                                  params.vdd, t, params),
               core_currents(t, params))
              for t in _check_temperatures(temperatures)]
    sigs = []
    for gate_id, cell in cells:
        n_route, n_hvt = cell.n_route, cell.n_hvt
        terms = [(t, core_off, pt, cell.n_hvt_all * (pt.off_n + pt.off_p),
                  n_route * pt.on_p, n_hvt * pt.off_n, n_route * pt.on_n,
                  n_hvt * pt.off_p, pt.c_load * pt.vdd_actual)
                 for t, pt, core_off in points]
        obs = []
        for vec in LOCAL_VECTORS:
            out, paths = cell.vectors[vec]
            for t, core_off, pt, switch, on_p, off_n, on_n, off_p, q in terms:
                core = 0.0
                for kind, divisor in paths:
                    core += core_off[kind] / divisor
                rise = on_p - (off_n + (core if out else 0.0))
                fall = on_n - (off_p + (0.0 if out else core))
                i_eff = rise if rise < fall else fall
                if i_eff <= 0.0:
                    cell.detail(out, core, pt)  # raises the collapse
                if CONTENTION_CLAMP_A > i_eff:  # max() with no call; keeps NaN
                    i_eff = CONTENTION_CLAMP_A
                obs.append(tuple.__new__(Observation, (
                    vec, t, switch + core, q / (2.0 * i_eff))))
        sigs.append(Signature(gate_id, tuple(obs)))
    return sigs


def template_signatures(flavor: CellFlavor,
                        temperatures=DEFAULT_TEMPERATURES,
                        params: DeviceParams | None = None,
                        bias_policy: str = "fixed",
                        ) -> dict[GateFunction, Signature]:
    """Reference signature of every function a flavor can express."""
    cells = _FLAVOR_CELLS[flavor]
    return dict(zip(cells, _signatures(
        [(f.value, c) for f, c in cells.items()], temperatures, params,
        bias_policy)))


def measure_signature(net: Netlist, key: CamoKey,
                      mode: str = "per_gate",
                      temperatures=DEFAULT_TEMPERATURES,
                      params: DeviceParams | None = None,
                      bias_policy: str = "fixed") -> dict[str, Signature]:
    """Signatures of a locked netlist's camouflaged cells.

    ``per_gate`` models an attacker who can probe each cell in isolation
    and returns one signature per camouflaged gate. ``aggregate_only``
    models chip-level instruments: leakage sums over all cells and delay
    averages, returned as a single signature keyed "aggregate".
    """
    if mode not in ("per_gate", "aggregate_only"):
        raise InvalidParameterError(f"unknown measurement mode {mode!r}")
    cells = []
    for g in net.camo_gates():
        entry = key.entries.get(g.gate_id)
        if entry is None:
            raise InvalidParameterError(
                f"key has no entry for camouflaged gate {g.gate_id!r}")
        # a miss builds the config, which refuses an out-of-flavor function
        cells.append((g.gate_id,
                      _FLAVOR_CELLS[g.flavor].get(entry.function)
                      or CellModel(config_for(entry.function, g.flavor))))
    per_gate = {sig.gate_id: sig for sig in
                _signatures(cells, temperatures, params, bias_policy)}
    if mode == "per_gate":
        return per_gate
    if not per_gate:
        raise InvalidParameterError("netlist has no camouflaged gates")
    # reduce(add, xs, 0) is sum() before Python 3.12 compensated float
    # sums: a plain left fold, so every version gives the same bits
    obs = tuple(Observation(col[0].vector, col[0].temperature,
                            reduce(add, [o.leakage_a for o in col], 0),
                            reduce(add, [o.delay_s for o in col], 0)
                            / len(col))
                for col in zip(*(s.observations for s in per_gate.values())))
    return {"aggregate": Signature("aggregate", obs)}


def add_measurement_noise(signature: Signature, sigma: float,
                          seed: int = 0) -> Signature:
    """Apply lognormal measurement noise to leakage and delay.

    ``sigma`` is the standard deviation of additive Gaussian noise in the
    log domain, i.e. each value is multiplied by exp(N(0, sigma)).
    """
    if sigma < 0 or not math.isfinite(sigma):
        raise InvalidParameterError(f"noise sigma must be finite and >= 0: "
                                    f"{sigma}")
    rng = random.Random(seed)
    try:
        obs = tuple(
            tuple.__new__(Observation, (
                o[0], o[1], o[2] * math.exp(rng.gauss(0.0, sigma)),
                o[3] * math.exp(rng.gauss(0.0, sigma))))
            for o in signature.observations)
    except OverflowError:
        raise InvalidParameterError(f"noise sigma {sigma} is too large: "
                                    f"a noise factor overflows") from None
    return Signature(signature.gate_id, obs)


def _spans(grid) -> list[tuple[int, int]]:
    """Per vector in sorted order, the feature indices of the log leakage
    at its first coolest and its last hottest point (stable sort)."""
    by_vector: dict[tuple[int, int], list[tuple[float, int]]] = {}
    for i, (vec, t) in enumerate(grid):
        by_vector.setdefault(vec, []).append((t, 2 * i))
    return [(pts[0][1], pts[-1][1]) for pts in
            (sorted(by_vector[vec], key=itemgetter(0))
             for vec in sorted(by_vector))]


def _features(obs: tuple[Observation, ...], spans) -> list[float]:
    """Log-leakage and log-delay per point, plus thermal slopes per vector."""
    log10 = math.log10
    # max(x, _LOG_FLOOR) without a call per value: NaN is kept, then refused
    feats = [log10(_LOG_FLOOR if _LOG_FLOOR > x else x)
             for o in obs for x in o[2:]]
    return feats + [feats[hot] - feats[cool] for cool, hot in spans]


@dataclass(frozen=True)
class Classification:
    """Best-matching function with a softmax-margin confidence."""

    function: GateFunction
    confidence: float
    distances: dict[GateFunction, float]


def classify_function(signature: Signature,
                      templates: dict[GateFunction, Signature],
                      ) -> Classification:
    """Match a measured signature against per-function templates.

    Features (log leakage, log delay, thermal leakage slope) are z-scored
    across the template set; the winner is the nearest template in L2
    distance. Confidence is the softmax probability margin between the
    best and second-best match, so 0 means a coin flip. A template or
    probe with an infinite or NaN feature raises TemplateSetError.
    """
    if len(templates) < 2:
        raise TemplateSetError("need at least two templates to classify")
    grids = [s.grid() for s in templates.values()]
    if any(g != grids[0] for g in grids):
        raise TemplateSetError("templates cover different measurement grids")
    if signature.grid() != grids[0]:
        raise TemplateSetError(
            "signature measurement grid does not match the templates")
    order, sigs = zip(*sorted(templates.items()))
    spans = _spans(grids[0])
    rows = [_features(s.observations, spans) for s in sigs]
    probe = _features(signature.observations, spans)
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise TemplateSetError("template features are not finite")
    if not all(map(math.isfinite, probe)):
        raise TemplateSetError("signature features are not finite")
    n = len(order)
    sums = [0.0] * n   # each template's squared distance, column by column
    for col, x_probe in zip(zip(*rows), probe):
        mean = reduce(add, col, 0) / n  # sum() before 3.12, as above
        # keep ** 2: pow(x, 2) is not always the correctly rounded x * x
        std = math.sqrt(reduce(add, [(x - mean) ** 2 for x in col], 0) / n)
        if std == 0.0:
            continue
        z_probe = (x_probe - mean) / std
        sums = [d + ((x - mean) / std - z_probe) ** 2
                for d, x in zip(sums, col)]
    dists = list(map(math.sqrt, sums))
    peak = max([-d for d in dists])
    weights = [math.exp(-d - peak) for d in dists]
    # order is by function value, so the index breaks ties as the value did
    best, second = sorted(range(n), key=lambda i: (dists[i], i))[:2]
    confidence = (weights[best] - weights[second]) / reduce(add, weights, 0)
    return Classification(order[best], confidence, dict(zip(order, dists)))


@dataclass(frozen=True)
class BalanceReport:
    """What balance_flavors inserted and the resulting function counts."""

    added: dict[str, GateFunction]
    counts_before: dict[GateFunction, int]
    counts_after: dict[GateFunction, int]


def balance_flavors(net: Netlist, key: CamoKey,
                    ) -> tuple[Netlist, CamoKey, BalanceReport]:
    """Insert sink-terminated dummy cells until every function count ties.

    Within each flavor present in the netlist, every function of that
    flavor's set is brought up to the current maximum count by adding
    camouflaged dummy gates whose outputs drive nothing, so the circuit
    function is untouched but aggregate leakage no longer depends on the
    real mix. Dummies tap the first available nets in definition order
    and are named bal0, bal1, ... skipping names already taken. The key
    is checked first, as ``validate_key`` checks it.
    """
    validate_key(net, key)
    camo = net.camo_gates()
    if not camo:
        raise InsertionError("netlist has no camouflaged gates to balance")
    # a cell and its first fanin are two nets, so there are two taps
    tap_a, tap_b = (list(net.inputs) + [g.gate_id for g in net.gates])[:2]
    flavors = sorted({g.flavor for g in camo})
    counts_before = dict.fromkeys(
        chain.from_iterable(f.function_set for f in flavors), 0)
    for g in camo:
        counts_before[key.entries[g.gate_id].function] += 1
    used = {g.gate_id for g in net.gates} | set(net.inputs)
    names = (n for n in map("bal{}".format, count()) if n not in used)
    new_gates = list(net.gates)
    new_entries = dict(key.entries)
    added: dict[str, GateFunction] = {}
    counts_after = dict(counts_before)
    for flavor in flavors:
        funcs = sorted(flavor.function_set)
        target = max(counts_after[f] for f in funcs)
        for func in funcs:
            decoy = tap_a if func in UNDERLYING else None
            for name in islice(names, target - counts_after[func]):
                new_gates.append(Gate(name, (tap_a, tap_b), flavor=flavor))
                new_entries[name] = KeyEntry(func, decoy)
                added[name] = func
            counts_after[func] = target
    balanced = Netlist(net.inputs, net.outputs, tuple(new_gates),
                       net.pseudo_inputs, net.pseudo_outputs)
    return (balanced, CamoKey(new_entries),
            BalanceReport(added, counts_before, counts_after))
