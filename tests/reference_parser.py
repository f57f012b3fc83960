"""The line loop ``parse_bench`` had before its lean rewrite, kept as a
reference, and a check that the two parsers agree on a text.

``reference_parse_bench`` strips every line and every fanin field with
``str.strip`` and tests the function token against three tables in
turn. As in ``parse_bench``, a line whose INPUT, OUTPUT or gate output
name has a comma does not match, since no fanin list could name it. Both
parsers hand their ports and gates to the same ``Netlist`` constructor,
so they must return equal netlists, or raise the same exception class
with the same message, line and column.
"""

from __future__ import annotations

import re

from vtcamo.cell import CellFlavor, GateFunction
from vtcamo.errors import ArityMismatchError, BenchSyntaxError
from vtcamo.netlist import Gate, Netlist, parse_bench

_PLAIN_MULTI = {
    "AND": GateFunction.AND, "OR": GateFunction.OR,
    "NAND": GateFunction.NAND, "NOR": GateFunction.NOR,
    "XOR": GateFunction.XOR, "XNOR": GateFunction.XNOR,
}
_PLAIN_SINGLE = {"NOT": GateFunction.NOT, "BUFF": GateFunction.BUFF}
_FLAVORS = {f.value: f for f in CellFlavor}

_LINE_RE = re.compile(
    r"^\s*(?:(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<ionet>[^\s(),]+)\s*\)"
    r"|(?P<out>[^\s=(),]+)\s*=\s*(?P<func>[A-Za-z0-9_]+)\s*"
    r"\(\s*(?P<args>[^()]*)\))\s*$")


def reference_parse_bench(text: str) -> Netlist:
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    pseudo_in: list[str] = []
    pseudo_out: list[str] = []
    defined: set[str] = set()
    declared_out: set[str] = set()
    flop_data: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            col = len(raw) - len(raw.lstrip()) + 1
            raise BenchSyntaxError(f"unparseable line {line!r}", lineno, col)
        io, net, out, func_txt, arg_txt = m.groups()
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
        args = [a for a in map(str.strip, arg_txt.split(",")) if a]
        if not args:
            raise BenchSyntaxError(f"gate {out!r} has no fanins", lineno)
        if out in defined:
            raise BenchSyntaxError(f"net {out!r} defined twice", lineno)
        defined.add(out)
        if func_txt == "DFF":
            if len(args) != 1:
                raise ArityMismatchError(
                    f"DFF {out!r} takes 1 fanin, got {len(args)}", lineno)
            if args[0] in declared_out:
                raise BenchSyntaxError(
                    f"net {args[0]!r} is both an OUTPUT and a DFF data net",
                    lineno)
            flop_data.add(args[0])
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
    return Netlist(tuple(inputs), tuple(outputs), tuple(gates),
                   tuple(pseudo_in), tuple(pseudo_out))


def _outcome(parse, text: str):
    """``("net", netlist)`` or ``("error", class, message, line, column)``."""
    try:
        return "net", parse(text)
    except Exception as exc:  # any class, as long as both raise the same
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def assert_parses_like_reference(text: str) -> None:
    want = _outcome(reference_parse_bench, text)
    got = _outcome(parse_bench, text)
    assert got == want
