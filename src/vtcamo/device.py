"""Compact MOSFET model and cell-level electrical estimates.

The drain current uses a single smooth interpolation between the
subthreshold exponential and the square law (EKV-style squared-softplus
inversion charge):

    i0 = 2 * n * kprime * (W/L) * phi_t**2
    vp = (vgs - vt) / n
    F(x) = ln(1 + exp(x / (2 * phi_t)))**2
    I = i0 * (t/t_ref)**-1.5 * (F(vp) - F(vp - vds))

which is exactly 0 at vds = 0, strictly increasing in vgs and vds,
reduces to i0 * exp((vgs - vt)/(n phi_t)) deep in subthreshold, and to
kprime * (W/L) * (vgs - vt)**2 / (2 n) in strong-inversion saturation.
Temperature enters through phi_t = kT/q, a -1.5 power mobility factor,
and a linear threshold shift vt(t) = vt - kvt * (t - t_ref).

All P-channel quantities are handled in magnitude convention: a P device
with source at vdd and gate bias vg_p sees vgs_mag = vdd - vg_p and is
evaluated with the same N-like equations using kprime_p.

Cell-level estimates model every programmable switch as a transmission
gate whose two members are drive-balanced (the pull-up member is sized up
to cancel the kprime_p deficit), while functional core transistors keep
the raw kprime_p. Switch gate biases are absolute voltages that do not
track vdd, which is what makes cell delay worsen at both low and high
supply: a low rail starves the pull-up route members, a high rail raises
the output swing faster than the fixed-bias pull-down route can follow.

Cell estimates are split by what they depend on, and each number is
computed at the loop level where its inputs last change:

- per (t, params), ``_currents`` (the only copy of the current formula)
  forms phi_t, the mobility factor and each kind's ``i0 * mob``, once a
  point, a signature-set temperature or a grid walk;
- per operating point (bias, vdd_actual, t, params), ``_cell_currents``
  gives the LVT and HVT switch members of each polarity (``_points``),
  then the OFF core device of each kind (``_cores``); a bias search or VT
  sweep computes the core devices and every (cell, vector) core-path sum
  (``CellModel.core``) first, and each distinct (vgs, nominal vt) member,
  once a call;
- per (function, input vector), ``_VECTOR_TABLE``, built at import, holds
  the cell output and leaking core paths as (device kind, stack divisor);
- per config, ``CellModel`` holds the decoded function and the route and
  HVT switch counts (``_FLAVOR_CELLS`` has every flavor's cells);
- per (route count, HVT count, output) of the CAMO8 cells, a worst-case
  delay reads only the row with the most core leakage and divides once by
  the least drive of the two edges: a drive falls as contention rises,
  and a rounded division falls as its divisor rises. A collapse takes the
  per-edge path (``CellModel.detail``), in row order, to name its config.

A leakage or delay figure is a few products and sums of those numbers.
``CellModel._edge`` and ``detail`` form them one edge at a time and raise
a collapse: the per-edge reference. ``detail`` always counts contention:
both edges see the cell's OFF switch members, and the edge arriving at
the output adds the OFF core paths at that vector.
``_worst_delay`` and ``_observations`` (a signature set's points) form
the same drives inline, side by side here, and call ``detail`` only to
raise; ``tests/test_device_core.py`` pins both to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import cell as _cell
from .cell import LOCAL_VECTORS, CamoConfig, CellFlavor, GateFunction, VT
from .errors import ContentionCollapseError, InvalidParameterError

KB = 1.380649e-23
QE = 1.602176634e-19

#: Floor for the effective drive current after contention (amperes).
CONTENTION_CLAMP_A = 1e-12

#: Leakage attenuation per extra OFF transistor stacked in series.
OFF_STACK_FACTOR = 5.0

#: Largest allowed half-width of the bias optimizer search box (volts).
MAX_SEARCH_WINDOW_V = 0.2

#: Most points a sweep or bias search evaluates (~0.01 ms each, 2 vCPUs).
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class DeviceParams:
    """Technology and cell parameters.

    vtn0 / vtp0_mag are the nominal (NVT) thresholds; HVT and LVT devices
    sit at nominal +delta_hvt and nominal -delta_lvt respectively.
    kprime_* includes mobility and oxide capacitance (A/V^2) and is
    multiplied by w_over_l per device.
    """

    vdd: float = 1.0
    vtn0: float = 0.3
    vtp0_mag: float = 0.3
    delta_hvt: float = 0.35
    delta_lvt: float = 0.35
    subthreshold_slope_n: float = 1.3
    kprime_n: float = 2.0e-4
    kprime_p: float = 1.0e-4
    w_over_l: float = 2.0
    kvt: float = 1.2e-3
    t_ref: float = 300.0
    c_load: float = 1.0e-15

    def __post_init__(self):
        for name in ("vdd", "subthreshold_slope_n", "kprime_n", "kprime_p",
                     "w_over_l", "t_ref", "c_load"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {v}")
        for name in ("vtn0", "vtp0_mag", "delta_hvt", "delta_lvt", "kvt"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise InvalidParameterError(
                    f"{name} must be non-negative, got {v}")


@dataclass(frozen=True)
class BiasPoint:
    """Shared gate biases of the N-side and P-side switch members."""

    vg_n: float
    vg_p: float


def default_bias(params: DeviceParams) -> BiasPoint:
    """Mid-threshold bias: vg_n = (vtn0 + vtp0_mag)/2, mirrored for P."""
    mid = 0.5 * (params.vtn0 + params.vtp0_mag)
    return BiasPoint(vg_n=mid, vg_p=params.vdd - mid)


def _on_rails(bias: BiasPoint, params: DeviceParams) -> bool:
    """The rail rule: a switch gate bias lies in [0, vdd]."""
    return 0.0 <= bias.vg_n <= params.vdd and 0.0 <= bias.vg_p <= params.vdd


def _check_rails(bias: BiasPoint, params: DeviceParams) -> None:
    if not _on_rails(bias, params):
        raise InvalidParameterError(
            f"switch gate bias (vg_n {bias.vg_n}, vg_p {bias.vg_p}) lies "
            f"outside the rails [0, vdd = {params.vdd}] V")


def thermal_voltage(t: float) -> float:
    if not math.isfinite(t) or t <= 0:
        raise InvalidParameterError(f"temperature must be positive, got {t}")
    return KB * t / QE


def _vt_shift(t: float, params: DeviceParams) -> float:
    """``kvt * (t - t_ref)``: a threshold vt is vt - this shift at t."""
    thermal_voltage(t)  # refuses a temperature that is not positive
    return params.kvt * (t - params.t_ref)


def _currents(t: float, params: DeviceParams):
    """``drain(vgs, vds, vt, kind)``: ``drain_current(vgs, vds, vt, t,
    params, kind)``, bit for bit and raising as it does, with phi_t, the
    mobility factor and each kind's ``i0 * mob`` formed once."""
    isfinite, exp, log1p = math.isfinite, math.exp, math.log1p
    n = params.subthreshold_slope_n
    try:  # raised by the first call whose own arguments pass their checks
        phit = thermal_voltage(t)
        mob = (t / params.t_ref) ** -1.5
    except Exception as exc:  # a bad t, 0.0 ** -1.5 or an overflow
        fault = exc
    else:
        fault, two_phit = None, 2.0 * phit
        i0_mob = {"n": 2.0 * n * params.kprime_n * params.w_over_l * phit
                  * phit * mob, "p": 2.0 * n * params.kprime_p
                  * params.w_over_l * phit * phit * mob}

    def drain(vgs: float, vds: float, vt: float, kind: str) -> float:
        for name, v in (("vgs", vgs), ("vds", vds), ("vt", vt)):
            if not isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v}")
        if vds < 0:
            raise InvalidParameterError(f"vds must be >= 0, got {vds}")
        if kind != "n" and kind != "p":
            raise InvalidParameterError(
                f"device kind must be 'n' or 'p': {kind!r}")
        vp = (vgs - vt) / n
        try:  # F(x), with ln(1 + e^x) kept from overflow for large x
            if fault is not None:
                raise fault  # a mobility overflow is reported as below
            x = vp / two_phit
            fa = (x + log1p(exp(-x)) if x > 40.0 else log1p(exp(x))) ** 2
            x = (vp - vds) / two_phit
            fb = (x + log1p(exp(-x)) if x > 40.0 else log1p(exp(x))) ** 2
        # 0.0 ** -1.5, or x over a phi_t that underflowed to 0
        except (OverflowError, ZeroDivisionError):
            raise InvalidParameterError(
                f"drain current overflows at {t} K") from None
        current = i0_mob[kind] * (fa - fb)  # i0 * mob * (fa - fb)
        if not isfinite(current):
            raise InvalidParameterError(f"drain current is {current} at {t} K")
        return current
    return drain


def drain_current(vgs: float, vds: float, vt: float, t: float,
                  params: DeviceParams, kind: str = "n") -> float:
    """Drain current of a single device (see module equations).

    ``vt`` is the already temperature-adjusted threshold; ``t`` only sets
    the thermal voltage and the mobility factor. ``kind`` picks kprime_n
    or kprime_p; both polarities use magnitude conventions.
    """
    return _currents(t, params)(vgs, vds, vt, kind)


# --- per operating point ---------------------------------------------------

class OperatingPoint(NamedTuple):
    """Switch-member currents at (bias, vdd_actual, t, params)."""

    vdd_actual: float
    c_load: float
    on_n: float      # LVT switch members (route drive)
    on_p: float
    off_n: float     # HVT switch members (leakage and contention)
    off_p: float

    def ratio(self) -> float:
        return math.inf if self.off_n == 0.0 else self.on_n / self.off_n


def _points(drain, shift: float, vdd_actual: float, params: DeviceParams):
    """The ``OperatingPoint`` at (bias, delta_hvt, delta_lvt), from the
    kernel ``drain`` and the threshold shift at its temperature. Switch
    members are drive-balanced: both use kprime_n (the P member is assumed
    width-compensated); the N member sees vgs = vg_n, the P member vgs_mag
    = vdd_actual - vg_p, both at full-rail vds. Each distinct (vgs,
    nominal vt) member is computed once, on first use, so a walk raises
    the first error where a per-point walk would."""
    members = {}

    def member(vgs: float, vt_nominal: float) -> float:
        current = members.get((vgs, vt_nominal))
        if current is None:
            current = members[vgs, vt_nominal] = drain(
                vgs, vdd_actual, vt_nominal - shift, "n")
        return current

    def point(bias: BiasPoint, delta_hvt: float, delta_lvt: float):
        vg_p_mag = vdd_actual - bias.vg_p
        return OperatingPoint(vdd_actual, params.c_load,
                              member(bias.vg_n, params.vtn0 - delta_lvt),
                              member(vg_p_mag, params.vtp0_mag - delta_lvt),
                              member(bias.vg_n, params.vtn0 + delta_hvt),
                              member(vg_p_mag, params.vtp0_mag + delta_hvt))
    return point


def _cores(drain, shift: float, params: DeviceParams) -> dict[str, float]:
    """OFF core device current by kind, at vgs = 0 and vds = params.vdd,
    from the kernel ``drain`` and the threshold shift."""
    return {"n": drain(0.0, params.vdd, params.vtn0 - shift, "n"),
            "p": drain(0.0, params.vdd, params.vtp0_mag - shift, "p")}


def _cell_currents(bias: BiasPoint, vdd_actual: float, t: float,
                   params: DeviceParams):
    """The switch members at this point (``_points``), then the core
    devices (``_cores``), from one kernel, raising in that order."""
    drain, shift = _currents(t, params), _vt_shift(t, params)
    return (_points(drain, shift, vdd_actual, params)(
        bias, params.delta_hvt, params.delta_lvt), _cores(drain, shift, params))


def switch_ratio(delta_hvt: float, delta_lvt: float, bias: BiasPoint,
                 t: float, params: DeviceParams) -> float:
    """ION/IOFF of the N switch member at the given gate bias.

    ION flows through an LVT device (vt = vtn0 - delta_lvt), IOFF through
    an HVT device (vt = vtn0 + delta_hvt), both at vds = vdd. If IOFF
    underflows to zero the ratio is reported as +inf rather than crashing.
    """
    if delta_hvt < 0 or delta_lvt < 0:
        raise InvalidParameterError("threshold offsets must be >= 0")
    p = replace(params, delta_hvt=delta_hvt, delta_lvt=delta_lvt)
    return _points(_currents(t, p), _vt_shift(t, p), p.vdd, p)(
        bias, delta_hvt, delta_lvt).ratio()


# --- per (function, input vector) -------------------------------------------
#
# Each base function has a CMOS core described as pull-up / pull-down paths
# of (device kind, gate signal) entries. Signals: a, b, their complements
# na/nb, and y1 for the internal node of the AND/OR output inverter stage.
# A non-conducting path leaks through its OFF devices; series OFF devices
# attenuate by OFF_STACK_FACTOR per extra device.

_CORES: dict[GateFunction, tuple[tuple, tuple]] = {
    GateFunction.NAND: (
        ((("p", "a"),), (("p", "b"),)),
        ((("n", "a"), ("n", "b")),),
    ),
    GateFunction.AND: (
        ((("p", "a"),), (("p", "b"),), (("p", "y1"),)),
        ((("n", "a"), ("n", "b")), (("n", "y1"),)),
    ),
    GateFunction.NOR: (
        ((("p", "a"), ("p", "b")),),
        ((("n", "a"),), (("n", "b"),)),
    ),
    GateFunction.OR: (
        ((("p", "a"), ("p", "b")), (("p", "y1"),)),
        ((("n", "a"),), (("n", "b"),), (("n", "y1"),)),
    ),
    GateFunction.XOR: (
        ((("p", "a"), ("p", "nb")), (("p", "na"), ("p", "b"))),
        ((("n", "a"), ("n", "b")), (("n", "na"), ("n", "nb"))),
    ),
    GateFunction.XNOR: (
        ((("p", "a"), ("p", "b")), (("p", "na"), ("p", "nb"))),
        ((("n", "a"), ("n", "nb")), (("n", "na"), ("n", "b"))),
    ),
}


def _off_paths(func: GateFunction, inputs: tuple[int, int]) -> tuple:
    """(OFF device kind, stack divisor) of each leaking core path."""
    base = _cell.UNDERLYING.get(func, func)
    a, b = (0, inputs[1]) if base is not func else inputs  # INV/BUF tie
    sig = {"a": a, "b": b, "na": 1 - a, "nb": 1 - b}
    if base is GateFunction.AND:
        sig["y1"] = 1 - (a & b)
    elif base is GateFunction.OR:
        sig["y1"] = 1 - (a | b)
    terms = []
    for network in _CORES[base]:
        for path in network:
            off = [kind for kind, s in path
                   if (sig[s] == 0 if kind == "n" else sig[s] == 1)]
            if off:  # conducting paths do not leak; OFF devices share a kind
                terms.append((off[0], OFF_STACK_FACTOR ** (len(off) - 1)))
    return tuple(terms)


#: func -> inputs -> (cell output, OFF core paths) for every cell function.
_VECTOR_TABLE = {
    func: {vec: (_cell.behavior_table(func)[vec], _off_paths(func, vec))
           for vec in LOCAL_VECTORS}
    for func in _cell.CAMOUFLAGEABLE
}


class CellModel:
    """A programmed cell's decoded function and its switch counts.

    ``n_route`` and ``n_hvt`` count the LVT and HVT selection switches
    1..10 (route drive and OFF contention); ``n_hvt_all`` counts every
    HVT switch, the tie network included (switch leakage).
    """

    __slots__ = ("config", "func", "vectors", "n_route", "n_hvt",
                 "n_hvt_all")

    def __init__(self, config: CamoConfig):
        self.config = config
        self.func = _cell.decode(config)
        self.vectors = _VECTOR_TABLE[self.func]
        self.n_route = sum(1 for v in config.switch_vt[:10] if v is VT.LVT)
        self.n_hvt = 10 - self.n_route
        self.n_hvt_all = sum(1 for v in config.switch_vt if v is VT.HVT)

    def core(self, inputs: tuple[int, int],
             core_off: dict[str, float]) -> tuple[int, float]:
        """Output and OFF core-path leakage (weakest device, stacked)."""
        out, paths = self.vectors[inputs]
        total = 0.0
        for kind, divisor in paths:
            total += core_off[kind] / divisor
        return out, total

    def leakage(self, core: float, point: OperatingPoint) -> float:
        """OFF switch plus OFF core current (``core`` from ``self.core``)."""
        return self.n_hvt_all * (point.off_n + point.off_p) + core

    def detail(self, out: int, core: float, point: OperatingPoint) -> tuple:
        """(delay_s, i_on, i_contend, clamped, edge) of the slower edge."""
        primary = self._edge(out == 1, point, core)
        secondary = self._edge(out != 1, point, 0.0)
        return primary if primary[0] >= secondary[0] else secondary

    def _edge(self, rise: bool, point: OperatingPoint, core: float) -> tuple:
        # currents are finite and >= 0, so "+ 0.0" is exact
        i_on = self.n_route * (point.on_p if rise else point.on_n)
        i_contend = self.n_hvt * (point.off_n if rise else point.off_p) + core
        i_eff = i_on - i_contend
        edge = "rise" if rise else "fall"
        if i_eff <= 0.0:
            raise ContentionCollapseError(
                f"OFF-switch contention ({i_contend:.3e} A) exceeds the "
                f"{edge} drive ({i_on:.3e} A) for config "
                f"{self.config.serialize()}")
        clamped = i_eff < CONTENTION_CLAMP_A
        if clamped:
            i_eff = CONTENTION_CLAMP_A
        delay = point.c_load * point.vdd_actual / (2.0 * i_eff)
        return (delay, i_on, i_contend, clamped, edge)


#: Each flavor's cells by function, in the name order cell_worst_delay walks.
_FLAVOR_CELLS = {
    flavor: {func: CellModel(_cell.config_for(func, flavor))
             for func in sorted(flavor.function_set)}
    for flavor in CellFlavor
}


def _core_rows(core_off: dict[str, float]) -> tuple:
    """(cell, output, core-path leakage) of every CAMO8 cell and local
    vector, and of each (n_route, n_hvt, output) the row with the most
    leakage."""
    rows = tuple((cell, *cell.core(vec, core_off))
                 for cell in _FLAVOR_CELLS[CellFlavor.CAMO8].values()
                 for vec in LOCAL_VECTORS)
    worst = {(row[0].n_route, row[0].n_hvt, row[1]): row  # largest last
             for row in sorted(rows, key=itemgetter(2))}
    return rows, tuple(worst.values())


def _worst_delay(cores: tuple, point: OperatingPoint) -> float:
    rows, worst = cores
    vdd_actual, c_load, on_n, on_p, off_n, off_p = point
    delays = []
    for cell, out, core in worst:
        n_route, n_hvt = cell.n_route, cell.n_hvt
        rise = n_route * on_p - (n_hvt * off_n + (core if out else 0.0))
        fall = n_route * on_n - (n_hvt * off_p + (0.0 if out else core))
        i_eff = rise if rise < fall else fall
        if i_eff <= 0.0:  # the first collapsing row names its config
            for row in rows:
                row[0].detail(*row[1:], point)
        if CONTENTION_CLAMP_A > i_eff:  # max() with no call; keeps a NaN
            i_eff = CONTENTION_CLAMP_A
        delays.append(c_load * vdd_actual / (2.0 * i_eff))
    delay = max(delays)
    if delay == math.inf:  # c_load * vdd_actual / (2 * i_eff) overflowed
        raise InvalidParameterError(
            f"cell delay overflows with c_load = {point.c_load} F")
    return delay


class Observation(NamedTuple):
    """One measurement point: a local input vector at one temperature."""

    vector: tuple[int, int]
    temperature: float
    leakage_a: float
    delay_s: float


def _observations(cells, biases, params: DeviceParams) -> dict:
    """Each distinct cell's observations, by vector, then temperature: one
    kernel per ``(t, bias)`` of ``biases``, in turn. A collapse raises
    first (the first in that order), then an overflowing delay."""
    points = [(t, *_cell_currents(bias, params.vdd, t, params))
              for t, bias in biases]
    observed = {}
    for cell in cells:
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
        observed[cell] = tuple(obs)
    # a drive is NaN or at least the clamp: only a load whose clamped delay
    # overflows can overflow a delay
    if (params.c_load * params.vdd / (2.0 * CONTENTION_CLAMP_A) == math.inf
            and any(math.inf in map(itemgetter(3), obs)
                    for obs in observed.values())):
        raise InvalidParameterError(
            f"cell delay overflows with c_load = {params.c_load} F")
    return observed


# --- per-point public estimates ---------------------------------------------

def _check_inputs(inputs) -> tuple[int, int]:
    if len(inputs) != 2 or any(v not in (0, 1) for v in inputs):
        raise InvalidParameterError(f"cell inputs must be two bits: {inputs!r}")
    return tuple(inputs)


def gate_leakage(config: CamoConfig, inputs: tuple[int, int], t: float,
                 bias: BiasPoint, params: DeviceParams) -> float:
    """Leakage of one programmed cell at a local input vector.

    Sum of the OFF (HVT) switch subthreshold currents and the OFF
    functional-core transistor currents for the effective inputs. The tie
    network replaces input 1 with 0 for INV/BUF programming.
    """
    inputs = _check_inputs(inputs)
    cell = CellModel(config)
    point, core_off = _cell_currents(bias, params.vdd, t, params)
    return cell.leakage(cell.core(inputs, core_off)[1], point)


def _check_vdd(vdd_actual: float) -> None:
    if not math.isfinite(vdd_actual) or vdd_actual <= 0:
        raise InvalidParameterError(f"vdd_actual must be positive: {vdd_actual}")


def cell_worst_delay(bias: BiasPoint, t: float, params: DeviceParams,
                     vdd_actual: float | None = None) -> float:
    """Max delay over every CAMO8 function and every input vector."""
    if vdd_actual is None:
        vdd_actual = params.vdd
    _check_vdd(vdd_actual)
    point, core_off = _cell_currents(bias, vdd_actual, t, params)
    return _worst_delay(_core_rows(core_off), point)


# --- sweeps and optimization ----------------------------------------------

SWEEP_CSV_HEADER = "delta_hvt,delta_lvt,ratio,delay_s"


@dataclass(frozen=True)
class SweepRow:
    delta_hvt: float
    delta_lvt: float
    ratio: float
    delay_s: float


def _grid_size(lo: float, hi: float, step: float, others: int = 1) -> int:
    """Points from lo to hi by step; times ``others``, <= MAX_GRID_POINTS."""
    if step <= 0 or not math.isfinite(step):
        raise InvalidParameterError(f"grid step must be positive, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError(f"range bounds must be finite, "
                                    f"got ({lo}, {hi})")
    if hi < lo:
        raise InvalidParameterError(f"empty range ({lo}, {hi})")
    span = (hi - lo) / step
    if (span + 1) * others > MAX_GRID_POINTS:
        raise InvalidParameterError(f"grid exceeds {MAX_GRID_POINTS} points")
    return round(span) + 1


def _grid(lo: float, hi: float, step: float) -> list[float]:
    pts = [round(lo + i * step, 12) for i in range(_grid_size(lo, hi, step))]
    return [p for p in pts if p <= hi + 1e-12]

def sweep_vt_window(hvt_range: tuple[float, float],
                    lvt_range: tuple[float, float], step: float,
                    bias: BiasPoint, t: float,
                    params: DeviceParams) -> list[SweepRow]:
    """Switch ratio and worst-case cell delay over a VT-offset grid.

    Rows are emitted in row-major order: delta_hvt outer, delta_lvt inner.
    A bias off the rails is refused.
    """
    _grid_size(*lvt_range, step, _grid_size(*hvt_range, step))
    _check_rails(bias, params)
    drain, shift = _currents(t, params), _vt_shift(t, params)
    cores = _core_rows(_cores(drain, shift, params))
    hvts, lvts = _grid(*hvt_range, step), _grid(*lvt_range, step)
    # the first point has the least offsets: reject a negative one there
    replace(params, delta_hvt=hvts[0], delta_lvt=lvts[0])
    grid_point = _points(drain, shift, params.vdd, params)
    rows = []
    for dh in hvts:
        for dl in lvts:
            point = grid_point(bias, dh, dl)
            rows.append(SweepRow(dh, dl, point.ratio(),
                                 _worst_delay(cores, point)))
    return rows


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    """Render sweep rows as CSV with six significant digits."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.delta_hvt:.6g},{r.delta_lvt:.6g},"
                     f"{r.ratio:.6g},{r.delay_s:.6g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BiasOptimum:
    """Result of the exhaustive bias/threshold co-search."""

    bias: BiasPoint
    delta_hvt: float
    delta_lvt: float
    delay_default_s: float
    delay_opt_s: float

    @property
    def delay_gain(self) -> float:
        """1 - optimized/default worst-case delay (0 when no gain)."""
        return 1.0 - self.delay_opt_s / self.delay_default_s


def optimize_bias(params: DeviceParams, search_window: float = 0.1,
                  grid_step: float = 0.05, t: float | None = None,
                  ) -> BiasOptimum:
    """Exhaustive grid search over switch biases and VT offset trims.

    Explores (vg_n, vg_p, delta_hvt, delta_lvt) within +-search_window of
    their defaults, biases on the rails only, and minimizes the worst-case
    cell delay across all eight functions and all input vectors. A default
    bias off the rails is refused. Enumeration is sorted, and
    only strict improvements replace the incumbent, so ties resolve to
    the smallest vg_n, then vg_p, then the offset trims.
    """
    if not math.isfinite(search_window) or search_window < 0:
        raise InvalidParameterError(
            f"search_window must be >= 0, got {search_window}")
    if search_window > MAX_SEARCH_WINDOW_V:
        raise InvalidParameterError(
            f"search_window {search_window} exceeds {MAX_SEARCH_WINDOW_V} V")
    axis = _grid_size(-search_window, search_window, grid_step)  # >= 2k + 1
    _grid_size(-search_window, search_window, grid_step, axis ** 3)
    if t is None:
        t = params.t_ref
    base_bias = default_bias(params)
    _check_rails(base_bias, params)
    k = int(math.floor(search_window / grid_step + 1e-12))
    offsets = [i * grid_step for i in range(-k, k + 1)]
    drain, shift = _currents(t, params), _vt_shift(t, params)
    cores = _core_rows(_cores(drain, shift, params))
    grid_point = _points(drain, shift, params.vdd, params)
    d_default = _worst_delay(cores, grid_point(base_bias, params.delta_hvt,
                                               params.delta_lvt))
    hvts, lvts = ([x for x in (c + d for d in offsets) if 0 < x < params.vdd]
                  for c in (params.delta_hvt, params.delta_lvt))  # trims
    best = None
    for dvn in offsets:
        for dvp in offsets:
            bias = BiasPoint(base_bias.vg_n + dvn, base_bias.vg_p + dvp)
            if not _on_rails(bias, params):
                continue
            for dh in hvts:
                for dl in lvts:
                    point = grid_point(bias, dh, dl)
                    try:
                        d = _worst_delay(cores, point)
                    # an overflowing delay is never the optimum
                    except (ContentionCollapseError, InvalidParameterError):
                        continue
                    if best is None or d < best[0]:
                        best = (d, bias, dh, dl)
    if best is None:
        raise InvalidParameterError("bias search grid is empty")
    d_opt, bias, dh, dl = best
    return BiasOptimum(bias, dh, dl, d_default, d_opt)
