"""Combinational netlists in the .bench dialect.

Grammar per line: ``INPUT(n)``, ``OUTPUT(n)``, ``n = FUNC(a, b, ...)``,
``#`` comments, blank lines. FUNC is one of the plain primitives (NOT and
BUFF with one fanin, AND/OR/NAND/NOR/XOR with two or more) or a
camouflaged-cell flavor token (CAMO8, CMOS3A, CMOS3B) with exactly two
fanins. ``n = DFF(m)`` is accepted and cut: the flop output becomes a
pseudo primary input and its data net a pseudo primary output, so the
combinational core can be simulated and compared on its own.

Gates are identified by their output net name. Iteration order always
follows file order, which keeps every downstream report deterministic.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from .cell import CellFlavor, GateFunction
from .errors import (
    ArityMismatchError,
    BenchSyntaxError,
    IncompatibleNetlistsError,
    InputWidthError,
    InvalidParameterError,
    KeyScopeError,
    NetlistCycleError,
    UndefinedNetError,
    UnresolvedGateError,
)

#: Largest PI count for exhaustive simulation sweeps.
EXHAUSTIVE_INPUT_LIMIT = 24

_PLAIN_MULTI = {
    "AND": GateFunction.AND, "OR": GateFunction.OR,
    "NAND": GateFunction.NAND, "NOR": GateFunction.NOR,
    "XOR": GateFunction.XOR, "XNOR": GateFunction.XNOR,
}
_PLAIN_SINGLE = {"NOT": GateFunction.NOT, "BUFF": GateFunction.BUFF}
_FLAVORS = {f.value: f for f in CellFlavor}


@dataclass(frozen=True)
class Gate:
    """One netlist gate. Exactly one of func/flavor is set."""

    gate_id: str
    fanins: tuple[str, ...]
    func: GateFunction | None = None
    flavor: CellFlavor | None = None

    @property
    def is_camo(self) -> bool:
        return self.flavor is not None


@dataclass(frozen=True)
class Netlist:
    """Immutable combinational DAG plus PI/PO bookkeeping."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    pseudo_inputs: tuple[str, ...] = ()
    pseudo_outputs: tuple[str, ...] = ()
    _gate_map: dict = field(init=False, repr=False, compare=False, hash=False)
    _topo: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_gate_map",
                           {g.gate_id: g for g in self.gates})
        object.__setattr__(self, "_topo", _toposort(self))

    def gate(self, gate_id: str) -> Gate:
        try:
            return self._gate_map[gate_id]
        except KeyError:
            raise UnresolvedGateError(
                f"no gate named {gate_id!r}") from None

    @property
    def topo_order(self) -> tuple[Gate, ...]:
        return self._topo

    def camo_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if g.is_camo)

    def levels(self) -> dict[str, int]:
        """Topological depth per net (primary inputs at level 0)."""
        lvl = {n: 0 for n in self.inputs}
        for g in self.topo_order:
            lvl[g.gate_id] = 1 + max(lvl[f] for f in g.fanins)
        return lvl

    def fanout_map(self) -> dict[str, list[str]]:
        """Net name -> gate ids that consume it, in file order."""
        fo: dict[str, list[str]] = {
            n: [] for n in (*self.inputs, *(g.gate_id for g in self.gates))}
        for g in self.gates:
            for f in g.fanins:
                fo[f].append(g.gate_id)
        return fo

    def fanout_cone(self, gate_id: str) -> set[str]:
        """All net names reachable from a gate's output, inclusive."""
        return reachable(self.fanout_map(), gate_id)

    def fanin_cone(self, gate_id: str) -> set[str]:
        """All net names feeding a gate, inclusive of the gate itself."""
        return reachable({g.gate_id: g.fanins for g in self.gates}, gate_id)


def reachable(edges: dict[str, list[str]], start: str) -> set[str]:
    """Nets reachable from ``start`` along ``edges``, inclusive."""
    seen, stack = {start}, [start]
    while stack:
        for succ in edges.get(stack.pop(), ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _toposort(net: Netlist) -> tuple[Gate, ...]:
    indeg = {}
    consumers: dict[str, list[str]] = {}
    for g in net.gates:
        indeg[g.gate_id] = sum(1 for f in g.fanins if f in net._gate_map)
        for f in g.fanins:
            if f in net._gate_map:
                consumers.setdefault(f, []).append(g.gate_id)
    ready = deque(g.gate_id for g in net.gates if indeg[g.gate_id] == 0)
    order = []
    while ready:
        gid = ready.popleft()
        order.append(net._gate_map[gid])
        for succ in consumers.get(gid, ()):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(net.gates):
        cyclic = sorted(gid for gid, d in indeg.items() if d > 0)
        raise NetlistCycleError(f"cycle through gates {cyclic}")
    return tuple(order)


_LINE_RE = re.compile(
    r"^\s*(?:(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<ionet>[^\s()]+)\s*\)"
    r"|(?P<out>[^\s=()]+)\s*=\s*(?P<func>[A-Za-z0-9_]+)\s*"
    r"\(\s*(?P<args>[^()]*)\))\s*$")


def parse_bench(text: str) -> Netlist:
    """Parse .bench text into a Netlist (see module docstring)."""
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    pseudo_in: list[str] = []
    pseudo_out: list[str] = []
    defined: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            col = len(raw) - len(raw.lstrip()) + 1
            raise BenchSyntaxError(f"unparseable line {line!r}", lineno, col)
        if m.group("io"):
            net = m.group("ionet")
            if m.group("io") == "INPUT":
                if net in defined:
                    raise BenchSyntaxError(f"net {net!r} defined twice", lineno)
                inputs.append(net)
                defined.add(net)
            else:
                outputs.append(net)
            continue
        out = m.group("out")
        func_txt = m.group("func").upper()
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        if not args:
            raise BenchSyntaxError(f"gate {out!r} has no fanins", lineno)
        if out in defined:
            raise BenchSyntaxError(f"net {out!r} defined twice", lineno)
        defined.add(out)
        if func_txt == "DFF":
            if len(args) != 1:
                raise ArityMismatchError(
                    f"DFF {out!r} takes 1 fanin, got {len(args)}", lineno)
            pseudo_in.append(out)
            inputs.append(out)
            pseudo_out.append(args[0])
            outputs.append(args[0])
            continue
        if func_txt in _PLAIN_SINGLE:
            if len(args) != 1:
                raise ArityMismatchError(
                    f"{func_txt} {out!r} takes 1 fanin, got {len(args)}", lineno)
            gates.append(Gate(out, tuple(args), func=_PLAIN_SINGLE[func_txt]))
        elif func_txt in _PLAIN_MULTI:
            if len(args) < 2:
                raise ArityMismatchError(
                    f"{func_txt} {out!r} needs >= 2 fanins, got {len(args)}",
                    lineno)
            gates.append(Gate(out, tuple(args), func=_PLAIN_MULTI[func_txt]))
        elif func_txt in _FLAVORS:
            if len(args) != 2:
                raise ArityMismatchError(
                    f"{func_txt} {out!r} takes 2 fanins, got {len(args)}",
                    lineno)
            gates.append(Gate(out, tuple(args), flavor=_FLAVORS[func_txt]))
        else:
            raise BenchSyntaxError(f"unknown function {func_txt!r}", lineno)
    for g in gates:
        for f in g.fanins:
            if f not in defined:
                raise UndefinedNetError(f"gate {g.gate_id!r} uses undefined "
                                        f"net {f!r}")
    for net in outputs:
        if net not in defined:
            raise UndefinedNetError(f"OUTPUT({net}) is never defined")
    return Netlist(tuple(inputs), tuple(outputs), tuple(gates),
                   tuple(pseudo_in), tuple(pseudo_out))


def serialize_bench(net: Netlist) -> str:
    """Regenerate .bench text; parse(serialize(x)) reproduces x."""
    lines = [f"INPUT({n})" for n in net.inputs if n not in net.pseudo_inputs]
    lines += [f"OUTPUT({n})" for n in net.outputs
              if n not in net.pseudo_outputs]
    lines += [f"{n} = DFF({d})" for n, d in zip(net.pseudo_inputs,
                                                net.pseudo_outputs)]
    for g in net.gates:
        tag = g.flavor.value if g.is_camo else g.func.value
        lines.append(f"{g.gate_id} = {tag}({', '.join(g.fanins)})")
    return "\n".join(lines) + "\n"


# --- keys -------------------------------------------------------------------

@dataclass(frozen=True)
class KeyEntry:
    """Hidden programming of one camouflaged gate."""

    function: GateFunction
    decoy_net: str | None = None


@dataclass(frozen=True)
class CamoKey:
    """Map from camouflaged gate id to its hidden function."""

    entries: dict[str, KeyEntry]

    def serialize(self) -> str:
        lines = []
        for gid in sorted(self.entries):
            e = self.entries[gid]
            suffix = f",decoy={e.decoy_net}" if e.decoy_net else ""
            lines.append(f"{gid}={e.function.value}{suffix}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "CamoKey":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BenchSyntaxError(f"bad key line {line!r}", lineno)
            gid, rhs = line.split("=", 1)
            gid = gid.strip()
            if not gid:
                raise BenchSyntaxError(f"empty gate id in {line!r}", lineno)
            decoy = None
            if ",decoy=" in rhs:
                rhs, decoy = rhs.split(",decoy=", 1)
                decoy = decoy.strip()
                if not decoy:
                    raise BenchSyntaxError(f"empty decoy in {line!r}", lineno)
            try:
                func = GateFunction(rhs.strip().upper())
            except ValueError:
                raise BenchSyntaxError(
                    f"unknown function {rhs.strip()!r}", lineno) from None
            if gid in entries:
                raise BenchSyntaxError(f"duplicate key entry {gid!r}", lineno)
            entries[gid] = KeyEntry(func, decoy)
        return CamoKey(entries)


def validate_key(net: Netlist, key: CamoKey) -> None:
    """Check the key covers exactly the camouflaged gates of ``net``."""
    camo_ids = {g.gate_id for g in net.camo_gates()}
    missing = camo_ids - key.entries.keys()
    if missing:
        raise UnresolvedGateError(
            f"no key entry for camouflaged gates {sorted(missing)}")
    extra = key.entries.keys() - camo_ids
    if extra:
        raise KeyScopeError(f"key names non-camouflaged gates {sorted(extra)}")
    for gid, entry in key.entries.items():
        gate = net.gate(gid)
        if entry.function not in gate.flavor.function_set:
            raise KeyScopeError(f"gate {gid!r}: {entry.function!r} is "
                                f"outside {gate.flavor!r}")
        needs_decoy = entry.function in (GateFunction.INV, GateFunction.BUF)
        if needs_decoy and entry.decoy_net is None:
            raise KeyScopeError(f"gate {gid!r} needs a decoy net")
        if needs_decoy and entry.decoy_net != gate.fanins[0]:
            raise KeyScopeError(
                f"gate {gid!r}: decoy {entry.decoy_net!r} is not its "
                f"first fanin {gate.fanins[0]!r}")
        if not needs_decoy and entry.decoy_net is not None:
            raise KeyScopeError(f"gate {gid!r} must not carry a decoy net")


# --- simulation (one dual-rail evaluator; see simulate) ----------------------

#: log2 of the vectors per word. Longer runs go block by block, which
#: bounds memory up to EXHAUSTIVE_INPUT_LIMIT inputs.
_BLOCK_LOG2 = 12


def _and(ins):
    may0, may1 = ins[0]
    for z, o in ins[1:]:
        may0, may1 = may0 | z, may1 & o
    return may0, may1


def _or(ins):  # De Morgan: swap the rails on the way in and out
    return _and([(o, z) for z, o in ins])[::-1]


def _xor(ins):
    may0, may1 = ins[0]
    for z, o in ins[1:]:
        may0, may1 = (may0 & z) | (may1 & o), (may0 & o) | (may1 & z)
    return may0, may1


_port0, _port1 = itemgetter(0), itemgetter(1)

#: Function -> (rule, output inverted). Camouflaged INV/BUF read port 1, the
#: real input; port 0 carries the decoy net and is ignored.
_RULES = {
    GateFunction.AND: (_and, False), GateFunction.NAND: (_and, True),
    GateFunction.OR: (_or, False), GateFunction.NOR: (_or, True),
    GateFunction.XOR: (_xor, False), GateFunction.XNOR: (_xor, True),
    GateFunction.BUFF: (_port0, False), GateFunction.NOT: (_port0, True),
    GateFunction.BUF: (_port1, False), GateFunction.INV: (_port1, True),
}


def _evaluate(net: Netlist, in_words, mask: int,
              assignment: dict[str, GateFunction],
              forced: dict[str, int] | None = None) -> dict[str, tuple]:
    """Rails of every net; ``mask`` has one bit per vector of the batch."""
    rails = {n: (mask ^ w, w) for n, w in zip(net.inputs, in_words)}
    for g in net.topo_order:
        func = assignment.get(g.gate_id) if g.is_camo else g.func
        if forced and g.gate_id in forced:
            rails[g.gate_id] = (0, mask) if forced[g.gate_id] else (mask, 0)
        elif func is None:
            rails[g.gate_id] = (mask, mask)
        else:
            combine, inverted = _RULES[func]
            may0, may1 = combine([rails[f] for f in g.fanins])
            rails[g.gate_id] = (may1, may0) if inverted else (may0, may1)
    return rails


def _check_exhaustive(width: int) -> None:
    if width > EXHAUSTIVE_INPUT_LIMIT:
        raise InvalidParameterError(
            f"{width} inputs exceeds the exhaustive limit "
            f"of {EXHAUSTIVE_INPUT_LIMIT}")


def _blocks(width: int, vectors=None):
    """(first, column words, mask) per block of ``vectors`` or all_vectors.

    Bit j of column word k is element k of vector ``first + j``.
    """
    step = 1 << _BLOCK_LOG2
    if vectors is not None:
        for first in range(0, len(vectors), step):
            block = vectors[first:first + step]
            yield first, [int("".join("1" if b else "0" for b in col[::-1]), 2)
                          for col in zip(*block)], (1 << len(block)) - 1
        return
    _check_exhaustive(width)
    bits = min(width, _BLOCK_LOG2)
    mask = (1 << (1 << bits)) - 1
    # within a block, the input of shift s < bits repeats 2**s 0s, 2**s 1s
    periodic = [mask // ((1 << (2 << s)) - 1)
                * (((1 << (1 << s)) - 1) << (1 << s)) for s in range(bits)]
    for first in range(0, 1 << width, 1 << bits):
        yield first, [periodic[s] if s < bits else mask * (first >> s & 1)
                      for s in reversed(range(width))], mask


def simulate_words(net: Netlist, assignment: dict[str, GateFunction],
                   forced: dict[str, int] | None = None):
    """Yield ``(first, rails)`` per block of ``all_vectors``.

    Bit j of a block's words is vector ``first + j``. Camouflaged gates are
    unknown unless ``assignment`` gives their function; ``forced`` pins gate
    outputs to 0 or 1. Keys are not validated.
    """
    for first, words, mask in _blocks(len(net.inputs)):
        yield first, _evaluate(net, words, mask, assignment, forced)


def filter_assignments(net: Netlist, gate_ids, candidates, observations,
                       fixed: dict[str, GateFunction] | None = None) -> list:
    """Candidates that reproduce every observed ``(vector, outputs)`` pair.

    A candidate is a tuple of functions for ``gate_ids``; ``fixed`` assigns
    the other camouflaged gates. Each candidate is evaluated once per block
    of packed observations; survivors keep their order.
    """
    observations, survivors = list(observations), list(candidates)
    for (_, words, mask), (_, expected, _) in zip(
            _blocks(len(net.inputs), [v for v, _ in observations]),
            _blocks(len(net.outputs), [o for _, o in observations])):
        survivors = [c for c in survivors if expected == _outputs(
            net, _evaluate(net, words, mask,
                           {**(fixed or {}), **dict(zip(gate_ids, c))}))]
    return survivors


def _outputs(net: Netlist, rails: dict[str, tuple]) -> list[int]:
    return [rails[n][1] for n in net.outputs]


def bits_at(rails: dict[str, tuple], nets, j: int) -> tuple[int, ...]:
    """Values of ``nets`` under vector j of a batch (their may1 rails)."""
    return tuple(rails[n][1] >> j & 1 for n in nets)


def _key_assignment(net: Netlist, key: CamoKey | None) -> dict:
    if key is None and net.camo_gates():
        raise UnresolvedGateError("netlist has camouflaged gates; "
                                  "a key is required")
    return {gid: e.function for gid, e in key.entries.items()} if key else {}


def simulate(net: Netlist, input_vector, key: CamoKey | None = None):
    """Evaluate all primary outputs for one input vector.

    ``input_vector`` follows the netlist's input order (including pseudo
    inputs created by flop cutting). Camouflaged gates need a key.

    This is the one-vector case of the module's single evaluator, which
    works on Python ints in dual-rail form. Each net carries a pair of
    words (may0, may1), and bit j of a word describes the net under vector
    j of a batch, so rails[net][b] masks the vectors where the net may be
    b. A known bit has exactly one rail set; an unknown bit (an unresolved
    camouflaged gate, or logic it reaches) has both. Here every word is
    one bit wide and each output's may1 rail is its value.
    """
    vec = tuple(input_vector)
    if len(vec) != len(net.inputs):
        raise InputWidthError(
            f"expected {len(net.inputs)} input bits, got {len(vec)}")
    if any(b not in (0, 1) for b in vec):
        raise InputWidthError(f"input bits must be 0/1: {vec!r}")
    if key is not None and net.camo_gates():
        validate_key(net, key)
    rails = _evaluate(net, [int(b) for b in vec], 1,
                      _key_assignment(net, key))
    return tuple(_outputs(net, rails))


def all_vectors(width: int):
    """All input vectors of a width, in binary counting order."""
    _check_exhaustive(width)
    for i in range(1 << width):
        yield tuple((i >> (width - 1 - k)) & 1 for k in range(width))


def random_vectors(width: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Reproducible uniform input vectors (may repeat)."""
    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(width))
            for _ in range(count)]


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    vectors_checked: int
    counterexample: tuple[int, ...] | None = None
    outputs_a: tuple[int, ...] | None = None
    outputs_b: tuple[int, ...] | None = None


def check_equivalence(net_a: Netlist, net_b: Netlist,
                      key_a: CamoKey | None = None,
                      key_b: CamoKey | None = None,
                      mode: str = "exhaustive", num_vectors: int = 10000,
                      seed: int = 0) -> EquivalenceVerdict:
    """Compare two netlists on shared PI/PO signatures.

    Exhaustive mode walks the full input space (guarded); random mode
    draws ``num_vectors`` seeded vectors. The first mismatch is returned
    as a counterexample: the lowest set bit of the OR over outputs of the
    two nets' XORed output words.
    """
    if net_a.inputs != net_b.inputs or net_a.outputs != net_b.outputs:
        raise IncompatibleNetlistsError(
            "netlists differ in PI/PO names or order")
    if key_a is not None:
        validate_key(net_a, key_a)
    if key_b is not None:
        validate_key(net_b, key_b)
    width = len(net_a.inputs)
    if mode == "exhaustive":
        _check_exhaustive(width)
        vectors, total = None, 1 << width
    elif mode == "random":
        vectors = random_vectors(width, num_vectors, seed)
        total = len(vectors)
    else:
        raise InvalidParameterError(f"unknown equivalence mode {mode!r}")
    if not total:
        return EquivalenceVerdict(True, 0)
    assign_a = _key_assignment(net_a, key_a)
    assign_b = _key_assignment(net_b, key_b)
    for first, words, mask in _blocks(width, vectors):
        rails_a = _evaluate(net_a, words, mask, assign_a)
        rails_b = _evaluate(net_b, words, mask, assign_b)
        diff = 0
        for a, b in zip(_outputs(net_a, rails_a), _outputs(net_b, rails_b)):
            diff |= a ^ b
        if diff:
            j = (diff & -diff).bit_length() - 1
            return EquivalenceVerdict(
                False, first + j + 1, bits_at(rails_a, net_a.inputs, j),
                bits_at(rails_a, net_a.outputs, j),
                bits_at(rails_b, net_b.outputs, j))
    return EquivalenceVerdict(True, total)


# --- timing -----------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPath:
    gate_ids: tuple[str, ...]
    delay: float


def unit_delay_model(gate: Gate) -> float:
    """Every gate costs one unit."""
    return 1.0


def critical_path(net: Netlist, delay_model=unit_delay_model) -> CriticalPath:
    """Longest weighted path through the gate DAG, one topological pass.

    Ties resolve to the lexicographically smallest gate id at every
    decision, so the reported path is deterministic.
    """
    if not net.gates:
        return CriticalPath((), 0.0)
    arrival: dict[str, float] = {n: 0.0 for n in net.inputs}
    best_pred: dict[str, str | None] = {}
    for g in net.topo_order:
        pred, when = None, float("-inf")
        for f in sorted(g.fanins):
            t = arrival.get(f, 0.0)
            if t > when:
                when = t
                pred = f if f in net._gate_map else None
        arrival[g.gate_id] = when + delay_model(g)
        best_pred[g.gate_id] = pred
    ends = [g.gate_id for g in net.gates if g.gate_id in set(net.outputs)]
    if not ends:
        ends = [g.gate_id for g in net.gates]
    end = min(ends, key=lambda gid: (-arrival[gid], gid))
    path = []
    cur: str | None = end
    while cur is not None:
        path.append(cur)
        cur = best_pred[cur]
    return CriticalPath(tuple(reversed(path)), arrival[end])
