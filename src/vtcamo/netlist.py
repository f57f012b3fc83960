"""Combinational netlists in the .bench dialect.

Grammar per line: ``INPUT(n)``, ``OUTPUT(n)``, ``n = FUNC(a, b, ...)``,
``#`` comments, blank lines; fanins are comma-separated, so no ``n``
holds a comma. FUNC is one of the plain primitives (NOT and BUFF with one
fanin, AND/OR/NAND/NOR/XOR with two or more) or a camouflaged-cell flavor
token (CAMO8, CMOS3A, CMOS3B) with exactly two fanins. ``n = DFF(m)`` is
accepted and cut: the flop output becomes a pseudo primary input and its
data net a pseudo primary output, so the combinational core can be
simulated and compared on its own. Ports keep line order: ``inputs``
lists INPUT nets and flop outputs, ``outputs`` lists OUTPUT nets and flop
data nets, each as their lines appear. A net may be declared OUTPUT once,
and not also be a flop's data net (route one of the two through a BUFF);
``serialize_bench`` relies on this to give back the same port order.

A gate is a named tuple, identified by its output net name. Iteration
order always follows file order, which keeps every downstream report
deterministic.

A netlist numbers its nets once, when it is built: the inputs first,
then the gates in file order. Its constructor is the one place that
resolves net names. It keeps each gate's fanins and each net's readers
as numbers, and its topological order is Kahn's algorithm over them.
A locked netlist (``apply_camouflage``) keeps its input's names, so it
inherits that numbering, and also its order unless an INV/BUF cell's
decoy edge was added: then Kahn runs again. The structural queries,
the timing passes and the simulator all read that one numbering.

Simulation has one evaluator: an index program that turns each gate into
an op code, an inversion flag and two fanin op nets (see ``simulate``).
A netlist compiles it on first use and keeps it; parsing, serializing,
locking and the structural queries never build it.

The oracle lives here too: CountingOracle is that evaluator under a key,
validated once, answering one vector per call and counting every call.
``simulate`` is its one-call case, ``vtcamo sim`` keeps one for a run,
and the attacks query one as the working chip.
"""

from __future__ import annotations

import heapq
import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate, compress, islice, product, repeat
from operator import eq, itemgetter, mul, or_
from typing import NamedTuple

from .cell import BASE_FUNCTIONS, UNDERLYING, CellFlavor, GateFunction
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

#: Function token -> (fanins it takes, 0 for two or more; func; flavor).
_TOKENS = {"DFF": (1, None, None), "NOT": (1, GateFunction.NOT, None),
           "BUFF": (1, GateFunction.BUFF, None),
           **{f.value: (0, f, None) for f in BASE_FUNCTIONS},
           **{f.value: (2, None, f) for f in CellFlavor}}
_NEEDS = {0: "needs >= 2 fanins", 1: "takes 1 fanin", 2: "takes 2 fanins"}


class Gate(NamedTuple):
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
    """Immutable combinational DAG plus PI/PO bookkeeping.

    Net number i is ``inputs[i]``, then gate ``i - len(inputs)`` of
    ``gates``. The constructor resolves every name (a name defined twice,
    a gate with no fanins, an output declared twice or unpaired DFF lists
    raise BenchSyntaxError, an undefined fanin or output UndefinedNetError)
    and keeps, per net number, its fanins (none for an input) in
    ``_fanins``, its readers (once per fanin, in file order) in
    ``_fanouts`` and in ``_order`` the gates' numbers in Kahn order over
    them (``_settle``). A locked netlist skips the name resolution and
    inherits its input's ``_index`` and ``_names``, and ``_order`` too
    when no INV/BUF cell (decoy edge) was added.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    pseudo_inputs: tuple[str, ...] = ()
    pseudo_outputs: tuple[str, ...] = ()
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    _names: tuple = field(init=False, repr=False, compare=False, hash=False)
    _fanins: list = field(init=False, repr=False, compare=False, hash=False)
    _fanouts: list = field(init=False, repr=False, compare=False, hash=False)
    _order: list = field(init=False, repr=False, compare=False, hash=False)
    _camo: tuple = field(init=False, repr=False, compare=False, hash=False)
    _prog: object = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        gates, width = self.gates, len(self.inputs)
        names = self.inputs + tuple(map(itemgetter(0), gates))
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            twice = next(n for k, n in enumerate(names) if names.index(n) < k)
            raise BenchSyntaxError(f"net {twice!r} defined twice")
        fanins, get = [()] * width, index.__getitem__
        try:
            fanins += [(get(f[0]), get(f[1])) if len(f) == 2 else
                       tuple(map(get, f)) for f in map(itemgetter(1), gates)]
        except KeyError as exc:
            # the first gate with an undefined fanin is the first to name it
            gate = next(g for g in gates if exc.args[0] in g.fanins)
            raise UndefinedNetError(f"gate {gate.gate_id!r} uses undefined "
                                    f"net {exc.args[0]!r}") from None
        if () in fanins[width:]:  # as the parser does
            raise BenchSyntaxError(
                f"gate {names[fanins.index((), width)]!r} has no fanins")
        flop_data, declared = set(self.pseudo_outputs), set()
        for net in self.outputs:  # flops may share a data net, as parsed
            if net not in index:
                raise UndefinedNetError(f"OUTPUT({net}) is never defined")
            if net in declared:
                raise BenchSyntaxError(f"net {net!r} declared OUTPUT twice")
            if net not in flop_data:
                declared.add(net)
        flops = (self.pseudo_inputs, self.pseudo_outputs)
        if len(flops[0]) != len(flops[1]) or any(
                tuple(filter(set(nets).__contains__, ports)) != nets
                for ports, nets in zip((self.inputs, self.outputs), flops)):
            raise BenchSyntaxError("each DFF output must be an input and its "
                                   "data net an output, in DFF order")
        fanouts: list[list[int]] = [[] for _ in names]
        for n in range(width, len(names)):
            for f in fanins[n]:
                fanouts[f].append(n)
        self._settle(index, names, fanins, fanouts)

    def _settle(self, index, names, fanins, fanouts, order=None) -> None:
        """Keep this numbering and ``order`` (by default Kahn's, FIFO)."""
        gates, width = self.gates, len(self.inputs)
        if order is None:
            indeg = list(map(len, fanins))  # less the input fanins:
            for readers in islice(fanouts, width):
                for n in readers:
                    indeg[n] -= 1
            # the list is its own queue
            order = [n for n in range(width, len(names)) if not indeg[n]]
            for n in order:
                for succ in fanouts[n]:
                    indeg[succ] -= 1
                    if not indeg[succ]:
                        order.append(succ)
            if len(order) != len(gates):
                left = sorted(names[n] for n, d in enumerate(indeg) if d)
                raise NetlistCycleError(f"cycle through gates {left}")
        camo = tuple([g for g in gates if g.flavor is not None])
        for name, value in (("_index", index), ("_names", names),
                            ("_fanins", fanins), ("_fanouts", fanouts),
                            ("_order", order), ("_camo", camo),
                            ("_prog", None)):
            object.__setattr__(self, name, value)

    def _program(self) -> "_Program":
        """The index program (see simulate), compiled on first use."""
        if self._prog is None:
            object.__setattr__(self, "_prog", _compile(self))
        return self._prog

    def gate(self, gate_id: str) -> Gate:
        k = self._index.get(gate_id, -1) - len(self.inputs)
        if k < 0:
            raise UnresolvedGateError(f"no gate named {gate_id!r}")
        return self.gates[k]

    @property
    def topo_order(self) -> tuple[Gate, ...]:
        width = len(self.inputs)
        return tuple([self.gates[n - width] for n in self._order])

    def camo_gates(self) -> tuple[Gate, ...]:
        return self._camo

    def _arrivals(self, delays) -> list:
        """Per net number, the latest arrival at its fanins plus its delay
        (an input arrives at its delay), in one topological pass."""
        arrival, fanins = list(delays), self._fanins
        for n in self._order:
            f = fanins[n]
            a, b = arrival[f[0]], arrival[f[-1]]  # every fanin, if 1 or 2
            arrival[n] = ((a if a > b else b) if len(f) < 3 else
                          max(map(arrival.__getitem__, f))) + delays[n]
        return arrival

    def _depths(self) -> list[int]:
        """Topological depth per net number (inputs at 0)."""
        return self._arrivals([0] * len(self.inputs) + [1] * len(self.gates))

    def fanin_cone(self, gate_id: str) -> set[str]:
        """All net names feeding a gate, inclusive of the gate itself."""
        return {self._names[n]
                for n in reachable(self._fanins, self._index[gate_id])}


def reachable(edges, start) -> set:
    """Nodes reachable from ``start`` along ``edges[node]``, inclusive."""
    seen, stack = {start}, [start]
    while stack:
        for succ in edges[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


#: One line; a list of one or two fanins is captured, stripped, as ``a`` and
#: ``b``, any other as ``args``.
_FIELD = r"[^\s,()]+(?:\s+[^\s,()]+)*"
_LINE_RE = re.compile(
    r"^\s*(?:(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<ionet>[^\s(),]+)\s*\)"
    r"|(?P<out>[^\s=(),]+)\s*=\s*(?P<func>[A-Za-z0-9_]+)\s*\(\s*"
    rf"(?:(?P<a>{_FIELD})\s*(?:,\s*(?P<b>{_FIELD})\s*)?|(?P<args>[^()]*))"
    r"\))\s*$")
#: A comma-separated fanin field, stripped; an empty field has no match.
_FANIN_RE = re.compile(r"[^\s,](?:[^,]*[^\s,])?")


def parse_bench(text: str) -> Netlist:
    """Parse .bench text into a Netlist (see module docstring)."""
    inputs, outputs, gates, pseudo_in, pseudo_out = [], [], [], [], []
    defined, declared_out, flop_data = set(), set(), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        m = _LINE_RE.match(line)
        if m is None:
            line = line.strip()
            if not line:
                continue
            col = len(raw) - len(raw.lstrip()) + 1
            raise BenchSyntaxError(f"unparseable line {line!r}", lineno, col)
        io, net, out, func_txt, a, b, arg_txt = m.groups()
        if io:
            if io == "INPUT":
                if net in defined:
                    raise BenchSyntaxError(f"net {net!r} defined twice", lineno)
                inputs.append(net)
                defined.add(net)
            else:
                if net in declared_out:
                    raise BenchSyntaxError(
                        f"net {net!r} declared OUTPUT twice", lineno)
                if net in flop_data:
                    raise BenchSyntaxError(
                        f"net {net!r} is both an OUTPUT and a DFF data net",
                        lineno)
                declared_out.add(net)
                outputs.append(net)
            continue
        func_txt = func_txt.upper()
        args = ((a,) if b is None else (a, b)) if a else tuple(
            _FANIN_RE.findall(arg_txt))
        if not args:
            raise BenchSyntaxError(f"gate {out!r} has no fanins", lineno)
        if out in defined:
            raise BenchSyntaxError(f"net {out!r} defined twice", lineno)
        defined.add(out)
        try:
            arity, func, flavor = _TOKENS[func_txt]
        except KeyError:
            raise BenchSyntaxError(f"unknown function {func_txt!r}",
                                   lineno) from None
        if len(args) != arity if arity else len(args) < 2:
            raise ArityMismatchError(
                f"{func_txt} {out!r} {_NEEDS[arity]}, got {len(args)}", lineno)
        if func_txt != "DFF":
            gates.append(tuple.__new__(Gate, (out, args, func, flavor)))
            continue
        if args[0] in declared_out:
            raise BenchSyntaxError(
                f"net {args[0]!r} is both an OUTPUT and a DFF data net", lineno)
        flop_data.add(args[0])
        pseudo_in.append(out)
        inputs.append(out)
        pseudo_out.append(args[0])
        outputs.append(args[0])
    return Netlist(tuple(inputs), tuple(outputs), tuple(gates),
                   tuple(pseudo_in), tuple(pseudo_out))


def serialize_bench(net: Netlist) -> str:
    """Regenerate .bench text; parse(serialize(x)) reproduces x.

    The port lines walk ``inputs`` and ``outputs`` together: a plain input
    gives INPUT, else a plain output gives OUTPUT, else the next flop,
    whose output and data net are then at the head of both.
    """
    plain_in = set(net.inputs) - set(net.pseudo_inputs)
    plain_out = set(net.outputs) - set(net.pseudo_outputs)
    flops = zip(net.pseudo_inputs, net.pseudo_outputs)
    lines, i, o = [], 0, 0
    while i < len(net.inputs) or o < len(net.outputs):
        if i < len(net.inputs) and net.inputs[i] in plain_in:
            lines.append(f"INPUT({net.inputs[i]})")
            i += 1
        elif net.outputs[o] in plain_out:
            lines.append(f"OUTPUT({net.outputs[o]})")
            o += 1
        else:
            lines.append("{} = DFF({})".format(*next(flops)))
            i, o = i + 1, o + 1
    for g in net.gates:
        # ``Enum.value`` is a property; ``_value_`` a plain attribute
        tag = (g.func if g.flavor is None else g.flavor)._value_
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
        needs_decoy = entry.function in UNDERLYING
        if needs_decoy and entry.decoy_net is None:
            raise KeyScopeError(f"gate {gid!r} needs a decoy net")
        if needs_decoy and entry.decoy_net != gate.fanins[0]:
            raise KeyScopeError(
                f"gate {gid!r}: decoy {entry.decoy_net!r} is not its "
                f"first fanin {gate.fanins[0]!r}")
        if not needs_decoy and entry.decoy_net is not None:
            raise KeyScopeError(f"gate {gid!r} must not carry a decoy net")


# --- simulation (one index program; see simulate) ---------------------------

#: log2 of the vectors per word. Longer runs go block by block, which
#: bounds memory up to EXHAUSTIVE_INPUT_LIMIT inputs.
_BLOCK_LOG2 = 12

#: Most bits a whole-space table keeps (about 32 MB): OutputTables counts
#: 256 bits of overhead per output word; CountingOracle's reply dict, a
#: 64-bit word per input and output bit and 20 of overhead per vector.
_TABLE_BITS = 1 << 28

#: Op codes of the index program. PORT0/PORT1 copy one fanin; CONST and
#: UNKNOWN are a forced gate and an unassigned camouflaged gate.
_AND, _OR, _XOR, _PORT0, _PORT1, _CONST, _UNKNOWN = range(7)

#: Function -> (op code, output inverted). Camouflaged INV/BUF read port
#: 1; port 0 is the decoy.
_OPS = {
    GateFunction.AND: (_AND, False), GateFunction.NAND: (_AND, True),
    GateFunction.OR: (_OR, False), GateFunction.NOR: (_OR, True),
    GateFunction.XOR: (_XOR, False), GateFunction.XNOR: (_XOR, True),
    GateFunction.BUFF: (_PORT0, False), GateFunction.NOT: (_PORT0, True),
    GateFunction.BUF: (_PORT1, False), GateFunction.INV: (_PORT1, True),
}


class _Program(NamedTuple):
    """A netlist compiled to integer op nets.

    Op nets number the ``width`` input words first, then one per op;
    ``index`` maps each net number to its op net. ``ops`` holds ``(op
    code, inverted, fanin a, fanin b)`` per gate in topological order; a
    gate with more than two fanins folds left through temporary nets, one
    op each. A camouflaged gate is one UNKNOWN op, its slot. ``outputs``
    gives the outputs' op nets.
    """

    width: int
    index: list[int]
    ops: tuple[tuple[int, bool, int, int], ...]
    outputs: tuple[int, ...]


def _compile(net: Netlist) -> _Program:
    width, gates, fanins = len(net.inputs), net.gates, net._fanins
    index, ops = list(range(width)) + [0] * len(gates), []
    for n in net._order:
        g, f = gates[n - width], fanins[n]
        code, inverted = (_OPS[g.func] if g.flavor is None
                          else (_UNKNOWN, False))
        if len(f) == 2:
            ops.append((code, inverted, index[f[0]], index[f[1]]))
        else:  # one fanin (NOT, BUFF, a one-input AND...), or a fold left
            code = _PORT0 if len(f) == 1 and g.flavor is None else code
            a = index[f[0]]
            for k in f[1:-1]:  # through temporary nets
                ops.append((code, False, a, index[k]))
                a = width + len(ops) - 1
            ops.append((code, inverted, a, index[f[-1]]))
        index[n] = width + len(ops) - 1
    return _Program(width, index, tuple(ops),
                    tuple(index[net._index[n]] for n in net.outputs))


def _op(net: Netlist, gate_id: str) -> int:
    """Position in the program's ops of a gate's last op."""
    prog = net._program()
    return prog.index[net._index[gate_id]] - prog.width


def _resolve(net: Netlist, assignment,
             forced: dict[str, int] | None = None) -> list:
    """The program's ops with ``(camouflaged gate id, function)`` pairs in
    their slots and each ``forced`` gate a constant."""
    ops = list(net._program().ops)
    for gid, func in assignment:
        k = _op(net, gid)
        ops[k] = (*_OPS[func], *ops[k][2:])
    for gid, bit in (forced or {}).items():
        ops[_op(net, gid)] = (_CONST, bool(bit), 0, 0)
    return ops


def _run(ops, in_words, mask: int, rails=None) -> tuple[list, list]:
    """Both rails of every net by index; ``mask`` has a bit per vector.

    Given ``rails`` from an earlier run, cut back to the nets before
    ``ops``, appends to them instead of starting from ``in_words``.
    """
    may0, may1 = rails or ([mask ^ w for w in in_words], list(in_words))
    put0, put1 = may0.append, may1.append
    for code, inverted, a, b in ops:
        if code == _AND:
            z, o = may0[a] | may0[b], may1[a] & may1[b]
        elif code == _OR:
            z, o = may0[a] & may0[b], may1[a] | may1[b]
        elif code == _XOR:
            za, oa, zb, ob = may0[a], may1[a], may0[b], may1[b]
            z, o = (za & zb) | (oa & ob), (za & ob) | (oa & zb)
        elif code == _PORT0:
            z, o = may0[a], may1[a]
        elif code == _PORT1:
            z, o = may0[b], may1[b]
        elif code == _CONST:
            z, o = mask, 0
        else:
            z = o = mask
        if inverted:
            put0(o)
            put1(z)
        else:
            put0(z)
            put1(o)
    return may0, may1


def _check_exhaustive(width: int) -> None:
    if width > EXHAUSTIVE_INPUT_LIMIT:
        raise InvalidParameterError(
            f"{width} inputs exceeds the exhaustive limit "
            f"of {EXHAUSTIVE_INPUT_LIMIT}")


#: bytes.translate table: byte 0 -> "0", byte 1 -> "1", any other -> "2",
#: which ``int(..., 2)`` rejects.
_DIGITS = b"01" + b"2" * 254


def _word(bits) -> int:
    """The int whose binary digits, most significant first, are ``bits``."""
    try:
        return int(bytes(bits).translate(_DIGITS), 2)
    except (TypeError, ValueError):
        raise InputWidthError(f"bits must be 0/1: {tuple(bits)!r}") from None


@lru_cache(maxsize=None)
def _periodic(bits: int) -> tuple[int, tuple[int, ...]]:
    """Mask of a ``2**bits``-vector block and its counting-order columns.

    Column s repeats 2**s 0s, then 2**s 1s.
    """
    mask = (1 << (1 << bits)) - 1
    return mask, tuple(mask // ((1 << (2 << s)) - 1)
                       * (((1 << (1 << s)) - 1) << (1 << s))
                       for s in range(bits))


def _block_words(width: int, first: int) -> tuple[list[int], int]:
    """Input words and mask of the all_vectors block starting at ``first``."""
    bits = min(width, _BLOCK_LOG2)
    mask, periodic = _periodic(bits)
    return [periodic[s] if s < bits else mask * (first >> s & 1)
            for s in reversed(range(width))], mask


def _blocks(width: int, vectors=None):
    """(first, column words, mask) per block of ``vectors`` or all_vectors.

    Bit j of column word k is element k of vector ``first + j``. Vectors
    are drawn one block at a time and must hold 0/1 bits.
    """
    step = 1 << _BLOCK_LOG2
    if vectors is not None:
        vectors, first = iter(vectors), 0
        while block := list(islice(vectors, step)):
            words = [_word(col[::-1]) for col in zip(*block)]
            yield first, words, (1 << len(block)) - 1
            first += len(block)
        return
    _check_exhaustive(width)
    for first in range(0, 1 << width, 1 << min(width, _BLOCK_LOG2)):
        yield first, *_block_words(width, first)


def forced_rails(net: Netlist, assignment: dict[str, GateFunction],
                 target: str, nets):
    """Yield ``(words, rails0, rails1)`` per block of ``all_vectors``.

    ``words`` are the block's input words; ``rails0`` and ``rails1`` hold
    the ``(may0, may1)`` pair of each of ``nets``, in order, with gate
    ``target`` forced to 0 and to 1. Camouflaged gates are unknown unless
    ``assignment`` gives their function. Keys are not validated.
    """
    where = [net._program().index[net._index[n]] for n in nets]
    ops = [_resolve(net, assignment.items(), {target: b}) for b in (0, 1)]
    for _, words, mask in _blocks(len(net.inputs)):
        yield words, *([(may0[i], may1[i]) for i in where]
                       for may0, may1 in (_run(o, words, mask) for o in ops))


def _outputs(prog: _Program, ops, words, mask: int) -> list[int]:
    """Output words (may1 rails) of one run."""
    may1 = _run(ops, words, mask)[1]
    return [may1[i] for i in prog.outputs]


def _key_ops(net: Netlist, key: CamoKey | None) -> list:
    """The program's ops under a validated ``key``."""
    if key is None and net.camo_gates():
        raise UnresolvedGateError("netlist has camouflaged gates; "
                                  "a key is required")
    if key is not None:
        validate_key(net, key)
    entries = key.entries.items() if key else ()
    return _resolve(net, ((gid, e.function) for gid, e in entries))


def simulate(net: Netlist, input_vector, key: CamoKey | None = None):
    """Evaluate all primary outputs for one input vector.

    ``input_vector`` follows the netlist's input order (including pseudo
    inputs created by flop cutting). Camouflaged gates need a key.

    This is the one-vector case of the module's single evaluator, an
    index program that each netlist compiles on first use. Every net has
    an integer index (inputs first, then gates in topological order) and
    every gate is an op: an op code, an inversion flag and two fanin
    indices; each camouflaged gate's op is a slot that an assignment or
    key fills in. A run works on Python ints in dual-rail form: two lists
    indexed by net hold words may0 and may1, and bit j of a word
    describes the net under vector j of a batch, so the may-b word masks
    the vectors where the net may be b. A known bit has exactly one rail
    set; an unknown bit (an unresolved camouflaged gate, or logic it
    reaches) has both. Here every word is one bit wide and each output's
    may1 rail is its value.
    """
    return CountingOracle(net, key)(input_vector)


class CountingOracle:
    """I/O oracle over a netlist under its key; counts every query.

    The key is validated and applied once, here, so a bad key fails at
    construction. Each call counts, then looks its reply up in a dict
    keyed by checked vectors, so only a miss checks the vector's width
    and 0/1 bits; a refused vector counts too, so a reported query count
    can be audited against ``query_count``. On a space of at most
    ``_BLOCK_LOG2`` inputs, the second run fills the dict with the whole
    space, kept while it fits in _TABLE_BITS. Otherwise a call runs its
    one vector.
    """

    def __init__(self, net: Netlist, key: CamoKey | None = None):
        self._prog, self._ops = net._program(), _key_ops(net, key)
        self._width = width = len(net.inputs)
        self._fits = (width <= _BLOCK_LOG2 and 64 * (
            width + len(self._prog.outputs) + 20) << width <= _TABLE_BITS)
        self._replies, self._runs, self.query_count = {}, 0, 0

    def __call__(self, input_vector) -> tuple[int, ...]:
        self.query_count += 1
        vec, width = tuple(input_vector), self._width
        try:  # a key is a checked vector; True/False, 0.0/1.0 bits key as 0/1
            return self._replies[vec]
        except (KeyError, TypeError):  # a miss, or an unhashable bit
            pass
        if len(vec) != width:
            raise InputWidthError(
                f"expected {width} input bits, got {len(vec)}")
        if vec.count(0) + vec.count(1) != width:
            raise InputWidthError(f"input bits must be 0/1: {vec!r}")
        self._runs += 1
        prog, ops = self._prog, self._ops
        if self._fits and self._runs > 1:
            size, digits = 1 << width, bytes.maketrans(b"01", b"\0\1")
            columns = [format(w, f"0{size}b")[::-1].encode().translate(digits)
                       for w in _outputs(prog, ops, *_block_words(width, 0))]
            self._replies.update(zip(all_vectors(width), zip(*columns)
                                     if columns else repeat(())))
            return self._replies[vec]
        return tuple(_outputs(prog, ops, list(map(int, vec)), 1))


class OutputTables:
    """Joint candidates' outputs on one netlist, one vector at a time.

    A candidate is a mixed-radix index into the product of ``choices``
    (camouflaged gate: candidate functions), a digit per gate in slot (op)
    order, the first most significant; ``items`` is a ``range`` until the
    first ``keep``, then an ascending list. ``fixed`` assigns other cells.
    On a space of at most ``_BLOCK_LOG2`` inputs, each item's output words
    over it are computed once, while all items' words fit in _TABLE_BITS,
    and every query is a bit lookup. Otherwise a query runs the items on
    its one vector.

    The ops are sorted, stably, by level: a slot's rank in op order, any
    other op's deepest fanin level (an input's is 0). Level d runs once per
    group of consecutive items that agree on the first d digits, then
    checks the outputs of its level.
    """

    def __init__(self, net: Netlist, choices: dict[str, list[GateFunction]],
                 fixed: dict[str, GateFunction] | None = None):
        prog, ops = net._program(), _resolve(net, (fixed or {}).items())
        gates = sorted(choices, key=partial(_op, net))  # in slot order
        rank = {_op(net, gid): r for r, gid in enumerate(gates, 1)}
        level = [0] * prog.width  # per net: the last slot it is or reads
        for k, (_, _, a, b) in enumerate(ops):
            level.append(rank.get(k) or max(level[a], level[b]))
        # stable, so still topological, and each slot leads its level
        order = sorted(range(len(ops)), key=level[prog.width:].__getitem__)
        new = list(range(prog.width + len(ops)))
        for p, k in enumerate(order):
            new[prog.width + k] = prog.width + p
        ops = [(*ops[k][:2], new[ops[k][2]], new[ops[k][3]]) for k in order]
        ends = [new[prog.width + k] - prog.width for k in rank] + [len(ops)]
        funcs = list(map(choices.get, gates))
        *steps, size = accumulate(map(len, funcs[::-1]), mul, initial=1)
        self.items, self._steps = range(size), steps[::-1]  # place values
        self._digits = dict(zip(gates, zip(self._steps, funcs)))
        self._head = ops[:ends[0]]
        self._segments = [[((*_OPS[f], *ops[k][2:]), *ops[k + 1:end])
                           for f in fs]
                          for k, end, fs in zip(ends, ends[1:], funcs)]
        self._checks = [[] for _ in ends]
        for o, n in enumerate(prog.outputs):  # checked once its level ran
            self._checks[level[n]].append((o, new[n]))
        self._outputs = tuple(map(new.__getitem__, prog.outputs))
        self._width = prog.width
        self._tables = self._differ = None

    def run(self, words, mask: int, expected=None) -> list:
        """Per item, its output words, or whether they equal ``expected``.

        Depth first, slot by slot: a group splits by its digit into consecutive
        parts, one ``bisect_left`` each; a part shares one run of the slot's
        level on rails cut back to the one before, dropped at a bad output."""
        items, rows = self.items, [False] * len(self.items)

        def descend(depth, lo, hi, first, rails):  # items[lo:hi] >= first
            may1 = rails[1]
            if expected is not None and any(may1[n] != expected[o]
                                            for o, n in self._checks[depth]):
                return
            if depth == len(self._segments):  # one item
                rows[lo] = True if expected is not None else [
                    may1[n] for n in self._outputs]
                return
            size, step = len(may1), self._steps[depth]
            for segment in self._segments[depth]:
                end = bisect_left(items, first + step, lo, hi)
                if lo < end:
                    del rails[0][size:], may1[size:]
                    descend(depth + 1, lo, end, first,
                            _run(segment, words, mask, rails))
                lo, first = end, first + step

        if rows:  # a replay may have dropped a slotless table's one item
            descend(0, 0, len(rows), 0, _run(self._head, words, mask))
        return rows  # every row is filled unless ``expected`` pruned it

    def replay(self, observations) -> OutputTables:
        """Keep the items, in order, that reproduce every ``(vector,
        outputs)`` pair, packed in blocks that each filter by one ``run``
        (a whole space in counting order packs only outputs). Returns self."""
        vectors, replies = [*zip(*observations)] or ((), ())
        if len(vectors) == 1 << self._width and all(
                map(eq, vectors, all_vectors(self._width))):
            vectors = None  # _blocks gives all_vectors' words unpacked
        for (_, words, mask), (_, expected, _) in zip(
                _blocks(self._width, vectors),
                _blocks(len(self._outputs), replies)):
            self.keep(self.run(words, mask, expected))
        return self

    def matches(self, vec, out) -> list[bool]:
        """Per item, whether its outputs under ``vec``, a checked 0/1
        vector, are ``out``; checked once where the items' tables agree."""
        tables = self._whole_space()
        if tables is None:
            return self.run(vec, 1, out)
        if self._differ is None:  # where some item differs from the first
            self._differ = reduce(or_, (w ^ col[0] for col in zip(*tables)
                                        for w in col), 0)
        bit = 1 << _word(vec)
        want = [bit if b else 0 for b in out]
        rows = tables if self._differ & bit else tables[:1]
        got = [all(map(eq, want, map(bit.__and__, t))) for t in rows]
        return got if rows is tables else got * len(tables)

    def _whole_space(self) -> list | None:
        """Each item's output words over the whole space, if they fit."""
        if (self._tables is None and self._width <= _BLOCK_LOG2
                and len(self.items) * len(self._outputs)
                * ((1 << self._width) + 256) <= _TABLE_BITS):
            self._tables = self.run(*_block_words(self._width, 0))
        return self._tables

    def keep(self, selectors) -> None:
        """Drop the items, and their words, whose selector is false."""
        self.items = list(compress(self.items, selectors))
        if self._tables is not None:
            self._tables = list(compress(self._tables, selectors))
            self._differ = None

    def agree(self, limit: int) -> bool:
        """True when all items give the same outputs on every vector.

        False, unchecked, for more than ``limit`` items or more than
        EXHAUSTIVE_INPUT_LIMIT inputs; otherwise it stops at the first
        block where two items differ.
        """
        if len(self.items) <= 1:
            return True
        if self._width > EXHAUSTIVE_INPUT_LIMIT or len(self.items) > limit:
            return False
        tables = self._whole_space()
        if tables is not None:
            return all(t == tables[0] for t in tables)
        for _, words, mask in _blocks(self._width):
            rows = self.run(words, mask)
            if any(row != rows[0] for row in rows):
                return False
        return True

    def survivors(self, gate_ids) -> list[tuple]:
        """The items' distinct function tuples at ``gate_ids``, in item order
        (every item's when all gates are named), skipping by bisection."""
        digits = [self._digits[gid] for gid in gate_ids]
        step = min([s for s, _ in digits], default=1)
        found, j, most = {}, 0, reduce(mul, [len(fs) for _, fs in digits], 1)
        while j < len(self.items) and len(found) < most:
            i = self.items[j]
            found[tuple([fs[i // s % len(fs)] for s, fs in digits])] = None
            j = bisect_left(self.items, i - i % step + step, j)
        return list(found)


def all_vectors(width: int):
    """All input vectors of a width, in binary counting order (a width
    over the exhaustive limit is refused at the call, not the first draw)."""
    _check_exhaustive(width)
    return product((0, 1), repeat=width)


#: ``randint(0, 1)`` is a 32-bit word's top two bits, drawn again if 2 or 3.
_TOP_BITS, _REDRAWN = bytes(b >> 6 for b in range(256)), bytes(range(128, 256))


def random_vectors(width: int, count: int, seed: int):
    """Reproducible uniform input vectors (may repeat), drawn lazily: the
    bits ``randint(0, 1)`` gives on ``random.Random(seed)``, one per call."""
    rng, bits = random.Random(seed), b""
    for _ in range(count):
        while len(bits) < width:
            words = rng.getrandbits(32 * width).to_bytes(4 * width, "little")
            bits += words[3::4].translate(_TOP_BITS, _REDRAWN)
        yield tuple(bits[:width])
        bits = bits[width:]


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
    ops_a, ops_b = _key_ops(net_a, key_a), _key_ops(net_b, key_b)
    prog_a, prog_b = net_a._program(), net_b._program()
    width = len(net_a.inputs)
    if mode == "exhaustive":
        vectors, total = None, 1 << width
    elif mode == "random":
        if num_vectors < 1:
            raise InvalidParameterError(
                f"num_vectors must be >= 1, got {num_vectors}")
        vectors, total = random_vectors(width, num_vectors, seed), num_vectors
    else:
        raise InvalidParameterError(f"unknown equivalence mode {mode!r}")
    for first, words, mask in _blocks(width, vectors):
        out_a = _outputs(prog_a, ops_a, words, mask)
        out_b = _outputs(prog_b, ops_b, words, mask)
        diff = 0
        for a, b in zip(out_a, out_b):
            diff |= a ^ b
        if diff:
            j = (diff & -diff).bit_length() - 1
            return EquivalenceVerdict(False, first + j + 1, _bits(words, j),
                                      _bits(out_a, j), _bits(out_b, j))
    return EquivalenceVerdict(True, total)


def _bits(words, j: int) -> tuple[int, ...]:
    return tuple([w >> j & 1 for w in words])


# --- timing -----------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPath:
    gate_ids: tuple[str, ...]
    delay: float


class IncrementalTiming:
    """Arrival time per net number under per-gate delays, kept exact as
    gate delays change one by one.

    ``delays`` gives one delay per gate in file order (unit by default);
    inputs arrive at 0.0. The ends are the output gates, or every gate
    when no output is one. ``try_delay`` re-times only the part of the
    gate's fanout cone whose arrivals change, in topological rank order
    and with the float operations of the full pass, so the times stay
    bit-identical to a full pass under the delays kept so far.
    """

    def __init__(self, net: Netlist, delays=None):
        self.net, width = net, len(net.inputs)
        self.delays = [0.0] * width + ([1.0] * len(net.gates)
                                       if delays is None else list(delays))
        self.arrival = net._arrivals(self.delays)
        self.rank = rank = [0] * len(net._names)
        for r, n in enumerate(net._order):
            rank[n] = r
        self.ends = ({n for n in map(net._index.get, net.outputs)
                      if n >= width} or range(width, len(net._names)))

    def delay(self) -> float:
        """The latest arrival at an end (0.0 for a netlist with no gates)."""
        return max([self.arrival[n] for n in self.ends], default=0.0)

    def try_delay(self, gate_id: str, delay: float, bound: float) -> bool:
        """Give a gate a new delay and keep it, unless an end whose arrival
        changes would then exceed ``bound``: then change nothing and
        return False. Ends whose arrival does not change are not checked."""
        net, arrival, delays = self.net, self.arrival, self.delays
        start = net._index[gate_id]
        old_delay, delays[start] = delays[start], delay
        undo = []
        heap, queued = [self.rank[start]], {start}
        while heap:
            n = net._order[heapq.heappop(heap)]
            t = max(map(arrival.__getitem__, net._fanins[n])) + delays[n]
            if t == arrival[n]:
                continue
            if n in self.ends and not t <= bound:
                for j, old in undo:
                    arrival[j] = old
                delays[start] = old_delay
                return False
            undo.append((n, arrival[n]))
            arrival[n] = t
            for succ in net._fanouts[n]:
                if succ not in queued:
                    queued.add(succ)
                    heapq.heappush(heap, self.rank[succ])
        return True


def critical_path(net: Netlist) -> CriticalPath:
    """Longest path through the gate DAG under unit gate delays, one
    topological pass.

    The path ends at the end with the latest arrival and steps back
    through each gate's latest-arriving fanin, to an input. A tie at
    either step goes to the smallest net name (a tied input ends the
    path there), so the reported path is deterministic.
    """
    if not net.gates:
        return CriticalPath((), 0.0)
    timing = IncrementalTiming(net)
    arrival, names, width = timing.arrival, net._names, len(net.inputs)
    end = min(timing.ends, key=lambda n: (-arrival[n], names[n]))
    path, n = [], end
    while n >= width:
        path.append(names[n])
        pred, when = -1, float("-inf")
        for f in sorted(net._fanins[n], key=names.__getitem__):
            if arrival[f] > when:
                pred, when = f, arrival[f]
        n = pred
    return CriticalPath(tuple(reversed(path)), arrival[end])
