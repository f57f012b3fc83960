"""Camouflaged two-input cell: functions, switch encodings, truth tables.

A cell instance contains fourteen pass switches whose threshold voltage is
programmed at fabrication time. LVT programming makes a switch conduct at
the shared gate bias, HVT keeps it off, and the two states are not
distinguishable by layout inspection. Switches 1..10 select one of six
base functions; switches 11..14 optionally disconnect input 1 and tie the
freed cell port to logic 0, which turns XNOR into an inverter and XOR into
a buffer of input 2.

Switch map (kept as data so a different wiring can be dropped in):

    pair (1,2)   transmission gate routing the NAND core to the output
    pair (3,4)   transmission gate routing the AND stage (NAND + inverter)
    pair (5,6)   transmission gate routing the NOR core
    pair (7,8)   transmission gate routing the OR stage
    pair (9,10)  complementary pass pair on the parity core:
                 switch 9 passes the true parity node  -> XOR
                 switch 10 passes the complement node  -> XNOR
    11,12        input-1 pass gate (LVT when input 1 is connected)
    13,14        tie gate pulling the freed port to 0 (LVT in tie mode)

Exactly one selection group carries LVT programming in a valid config:
both members for the four transmission-gate pairs, exactly one member for
the complementary parity pair.

Each function's outputs on ``LOCAL_VECTORS`` are one row of ``_OUTPUTS``;
its truth tables and 4-bit code are read off that row.

GateFunction, CellFlavor and VT share one base, ``_CellEnum``: a member
prints as its value and hashes by identity. Members are singletons
compared by identity, so this agrees with equality, and unlike the
Python-level ``Enum.__hash__`` it runs in C: tables key by member.
Members of one enum sort by value; comparing two enums raises TypeError.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

from .errors import (
    IndistinguishableError,
    MalformedConfigError,
    UnsupportedFunctionError,
)


class _CellEnum(enum.Enum):
    __hash__ = object.__hash__  # see the module docstring

    def __repr__(self) -> str:  # keep reports compact
        return self.value

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value_ < other._value_


class GateFunction(_CellEnum):
    """Cell functions plus the plain netlist primitives.

    The first eight are realizable by a camouflaged cell. NOT and BUFF are
    the plain one-input netlist primitives; AND/OR/NAND/NOR/XOR double as
    plain multi-input gates when used in a netlist context.
    """

    NAND = "NAND"
    AND = "AND"
    NOR = "NOR"
    OR = "OR"
    XOR = "XOR"
    XNOR = "XNOR"
    INV = "INV"
    BUF = "BUF"
    NOT = "NOT"
    BUFF = "BUFF"


#: (switch, switch) that must be LVT to select each base function.
#: For XOR/XNOR only the named member of the parity pair goes LVT.
SELECTION_LVT = {
    GateFunction.NAND: (1, 2),
    GateFunction.AND: (3, 4),
    GateFunction.NOR: (5, 6),
    GateFunction.OR: (7, 8),
    GateFunction.XOR: (9,),
    GateFunction.XNOR: (10,),
}

#: Base function each camouflageable function is programmed through. The
#: keys are the tied functions: port 0 is tied off (its net is a decoy) and
#: port 1 is read.
UNDERLYING = {
    GateFunction.INV: GateFunction.XNOR,
    GateFunction.BUF: GateFunction.XOR,
}

#: The six functions selected purely by switches 1..10 (no input tie).
BASE_FUNCTIONS = tuple(SELECTION_LVT)

#: Functions a camouflaged cell can realize.
CAMOUFLAGEABLE = frozenset({*SELECTION_LVT, *UNDERLYING})


class CellFlavor(_CellEnum):
    """Which cell variant was placed (visible in layout, unlike the key)."""

    CAMO8 = "CAMO8"
    CMOS3A = "CMOS3A"
    CMOS3B = "CMOS3B"

    @property
    def function_set(self) -> frozenset[GateFunction]:
        return _FLAVOR_SETS[self]


_FLAVOR_SETS = {
    CellFlavor.CAMO8: CAMOUFLAGEABLE,
    CellFlavor.CMOS3A: frozenset({GateFunction.NAND, GateFunction.NOR,
                                  GateFunction.XOR}),
    CellFlavor.CMOS3B: frozenset({GateFunction.AND, GateFunction.OR,
                                  GateFunction.XNOR}),
}


class VT(_CellEnum):
    """Threshold programming of one switch."""

    HVT = "H"
    LVT = "L"


NUM_SWITCHES = 14

#: The four local input vectors (port 0, port 1), in counting order.
LOCAL_VECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Each function's outputs on LOCAL_VECTORS. INV/BUF (and the plain
#: NOT/BUFF primitives) read port 1 and ignore port 0, the decoy.
_OUTPUTS = {
    GateFunction.NAND: (1, 1, 1, 0),
    GateFunction.AND: (0, 0, 0, 1),
    GateFunction.NOR: (1, 0, 0, 0),
    GateFunction.OR: (0, 1, 1, 1),
    GateFunction.XOR: (0, 1, 1, 0),
    GateFunction.XNOR: (1, 0, 0, 1),
    GateFunction.INV: (1, 0, 1, 0),
    GateFunction.BUF: (0, 1, 0, 1),
    GateFunction.NOT: (1, 0, 1, 0),
    GateFunction.BUFF: (0, 1, 0, 1),
}

_TIE_OFF = (VT.LVT, VT.LVT, VT.HVT, VT.HVT)   # switches 11..14, input 1 live
_TIE_ON = (VT.HVT, VT.HVT, VT.LVT, VT.LVT)    # input 1 cut, port tied to 0


@dataclass(frozen=True)
class CamoConfig:
    """Full programming state of one cell.

    switch_vt holds switches 1..14 in order. tie_first_input mirrors the
    state of switches 11..14 and is true exactly for INV/BUF programming.
    """

    switch_vt: tuple[VT, ...]
    flavor: CellFlavor
    tie_first_input: bool

    def serialize(self) -> str:
        """Encode as ``FLAVOR:<14 H/L chars>:TIE=<0|1>``."""
        bits = "".join(v.value for v in self.switch_vt)
        return f"{self.flavor.value}:{bits}:TIE={int(self.tie_first_input)}"

    @staticmethod
    def deserialize(text: str) -> "CamoConfig":
        """Parse ``serialize`` output.

        A ten-character switch string is also accepted; the tie switches
        are then filled in from the TIE flag.
        """
        parts = text.strip().split(":")
        if len(parts) != 3 or not parts[2].startswith("TIE="):
            raise MalformedConfigError(f"bad config string {text!r}")
        try:
            flavor = CellFlavor(parts[0])
        except ValueError:
            raise MalformedConfigError(f"unknown flavor {parts[0]!r}") from None
        tie_txt = parts[2][len("TIE="):]
        if tie_txt not in ("0", "1"):
            raise MalformedConfigError(f"bad tie flag in {text!r}")
        tie = tie_txt == "1"
        bits = parts[1]
        if len(bits) == 10:
            bits += "".join(v.value for v in (_TIE_ON if tie else _TIE_OFF))
        if len(bits) != NUM_SWITCHES or any(c not in "HL" for c in bits):
            raise MalformedConfigError(f"bad switch string in {text!r}")
        return CamoConfig(tuple(VT(c) for c in bits), flavor, tie)


_BEHAVIOR_TABLES = {f: MappingProxyType(dict(zip(LOCAL_VECTORS, row)))
                    for f, row in _OUTPUTS.items()}


def behavior_table(func: GateFunction) -> Mapping[tuple[int, int], int]:
    """Truth table over the cell's two physical ports (read-only, shared).

    INV/BUF (and the plain NOT/BUFF primitives) read port 1 and ignore
    port 0, the decoy.
    """
    try:
        return _BEHAVIOR_TABLES[func]
    except KeyError:
        raise UnsupportedFunctionError(
            f"no truth table for {func!r}") from None


def truth_table(func: GateFunction) -> dict[tuple[int, ...], int]:
    """Truth table keyed by input tuple; one-input functions use 1-tuples."""
    table = behavior_table(func)
    if all(table[0, b] == table[1, b] for b in (0, 1)):  # ignores port 0
        return {(b,): table[0, b] for b in (0, 1)}
    return dict(table)


def config_for(func: GateFunction, flavor: CellFlavor) -> CamoConfig:
    """Build the switch programming that realizes ``func`` on ``flavor``."""
    if func not in flavor.function_set:
        raise UnsupportedFunctionError(
            f"{func!r} is not realizable by flavor {flavor!r}")
    tie = func in UNDERLYING
    base = UNDERLYING.get(func, func)
    lvt = set(SELECTION_LVT[base])
    sel = tuple(VT.LVT if i in lvt else VT.HVT for i in range(1, 11))
    return CamoConfig(sel + (_TIE_ON if tie else _TIE_OFF), flavor, tie)


_BASE_FOR_LVT = {frozenset(lvt): f for f, lvt in SELECTION_LVT.items()}
_TIE_FOR_BITS = {_TIE_ON: True, _TIE_OFF: False}
_TIED = {base: f for f, base in UNDERLYING.items()}


def decode(config: CamoConfig) -> GateFunction:
    """Recover the realized function from the switch programming.

    Raises MalformedConfigError unless exactly one selection group is
    programmed, the tie switches agree with the tie flag, and the decoded
    function belongs to the config's flavor.
    """
    if len(config.switch_vt) != NUM_SWITCHES:
        raise MalformedConfigError(
            f"expected {NUM_SWITCHES} switches, got {len(config.switch_vt)}")
    lvt = frozenset(i for i in range(1, 11)
                    if config.switch_vt[i - 1] is VT.LVT)
    base = _BASE_FOR_LVT.get(lvt)
    if base is None:
        raise MalformedConfigError(
            f"selection switches {sorted(lvt)} do not pick one function")
    tie = _TIE_FOR_BITS.get(config.switch_vt[10:])
    if tie is None:
        raise MalformedConfigError("tie switches 11..14 are inconsistent")
    if tie != config.tie_first_input:
        raise MalformedConfigError("tie flag disagrees with switches 11..14")
    func = _TIED.get(base) if tie else base
    if func is None:
        raise MalformedConfigError(
            f"input tie combined with {base!r} selection")
    if func not in config.flavor.function_set:
        raise MalformedConfigError(
            f"{func!r} decoded from a {config.flavor!r} cell")
    return func


def evaluate(config: CamoConfig, inputs: tuple[int, int]) -> int:
    """Boolean output of a programmed cell for a two-bit input vector."""
    if len(inputs) != 2 or any(b not in (0, 1) for b in inputs):
        raise MalformedConfigError(f"cell inputs must be two bits: {inputs!r}")
    return _BEHAVIOR_TABLES[decode(config)][tuple(inputs)]


#: Port behavior as a 4-bit code: bit k is the output on LOCAL_VECTORS[k].
_CODES = {f: sum(bit << k for k, bit in enumerate(row))
          for f, row in _OUTPUTS.items()}

#: Non-empty subsets of LOCAL_VECTORS and their code masks, by (size, lex).
_SUBSETS = [(c, sum(1 << LOCAL_VECTORS.index(v) for v in c))
            for n in range(1, 5) for c in combinations(LOCAL_VECTORS, n)]


def distinguishing_set(
        candidates: frozenset[GateFunction] | set[GateFunction],
) -> tuple[tuple[int, int], ...]:
    """Smallest input-vector set that tells all candidates apart.

    Searches subsets of the four two-bit vectors in (size, lexicographic)
    order, so the result is canonical. Candidates must behave as two-input
    cells; a pair with identical port behavior cannot be split and raises
    IndistinguishableError naming the pair.
    """
    if len(candidates) < 2:
        raise UnsupportedFunctionError(
            "need at least two candidate functions to distinguish")
    bad = sorted(repr(f) for f in candidates if f not in _CODES)
    if bad:  # checked first: members of two enums do not sort together
        raise UnsupportedFunctionError(
            f"{bad[0]} has no two-input cell behavior")
    cand = sorted(candidates)
    codes = [_CODES[f] for f in cand]
    if len(set(codes)) < len(codes):
        f, g = next((f, g) for i, f in enumerate(cand) for g in cand[i + 1:]
                    if _CODES[f] == _CODES[g])
        raise IndistinguishableError(
            f"{f!r} and {g!r} have identical truth tables")
    for combo, mask in _SUBSETS:
        if len({c & mask for c in codes}) == len(codes):
            return combo
    raise IndistinguishableError("no distinguishing set exists")  # unreachable
