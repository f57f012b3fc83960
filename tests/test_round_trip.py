"""Round trips through the text formats: .bench netlists and key files.

``bench_texts`` writes .bench files whose INPUT, OUTPUT, DFF and gate
lines come in any order, so flop lines can sit between port lines. The
properties check that ``parse_bench(serialize_bench(n)) == n`` for every
parsed file, and that ``CamoKey.deserialize`` inverts ``serialize`` for
keys made by ``apply_camouflage`` on those netlists. ``dressed`` adds
the slack the grammar allows (comments, blank lines, tabs, lowercase
function names, empty fanin fields) and the odd break, and
``parse_bench`` must read those texts as ``reference_parse_bench`` does.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_parser import assert_parses_like_reference
from vtcamo.camouflage import apply_camouflage, eligible_gates
from vtcamo.cell import CellFlavor
from vtcamo.netlist import CamoKey, parse_bench, serialize_bench

_ONE_INPUT = ("NOT", "BUFF")
_MULTI_INPUT = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")
_CAMO = tuple(f.value for f in CellFlavor)


@st.composite
def bench_texts(draw):
    """.bench text with plain and camouflaged gates, flops, shuffled lines."""
    nets = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    ports = [f"INPUT({n})" for n in nets]
    flops = [f"q{k}" for k in range(draw(st.integers(0, 3)))]
    nets += flops
    body = []
    for k in range(draw(st.integers(1, 10))):
        func = draw(st.sampled_from(_ONE_INPUT + _MULTI_INPUT + _CAMO))
        arity = (1 if func in _ONE_INPUT
                 else 2 if func in _CAMO else draw(st.integers(2, 3)))
        fanins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        body.append(f"g{k} = {func}({', '.join(fanins)})")
        nets.append(f"g{k}")
    data = [draw(st.sampled_from(nets)) for _ in flops]
    ports += [f"{q} = DFF({d})" for q, d in zip(flops, data)]
    free = [n for n in nets if n not in data]  # data nets may not be OUTPUTs
    outputs = draw(st.lists(st.sampled_from(free), unique=True,
                            max_size=4)) if free else []
    ports += [f"OUTPUT({n})" for n in outputs]
    lines = draw(st.permutations(ports + body))
    return "\n".join(lines) + "\n"


_PAD = st.sampled_from(["", " ", "\t", " \t", "\t \t"])
_SLACK = ("lower", "tabs", "pad", "empty", "comment", "blank")


@st.composite
def dressed(draw, text: str) -> str:
    """``text`` with a drawn set of edits on each line, and sometimes one
    ``#`` that cuts a line short.

    The line edits keep the meaning: a lowercase function name, tabs for
    spaces, padding, empty fanin fields, a trailing comment, and a blank,
    whitespace or comment line before it.
    """
    lines = []
    for line in text.splitlines():
        edits = draw(st.sets(st.sampled_from(_SLACK), max_size=3))
        gate = "=" in line
        if "lower" in edits and gate:
            line = re.sub(r"=\s*\w+", lambda m: m[0].lower(), line)
        if "tabs" in edits:
            line = line.replace(" ", "\t")
        if "pad" in edits:
            line = draw(_PAD) + line + draw(_PAD)
        if "empty" in edits and gate:
            line = line.replace("(", "(" + draw(_PAD) + ",", 1).replace(
                ",", "," + draw(_PAD) + ",", 1)
        if "comment" in edits:
            line += draw(_PAD) + "# note, (x) = y"
        if "blank" in edits:
            lines.append(draw(_PAD) + draw(st.sampled_from(["", "#", "# c"])))
        lines.append(line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "#" + text[cut:]
    return text


_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(bench_texts())
def test_parse_inverts_serialize(text):
    net = parse_bench(text)
    again = parse_bench(serialize_bench(net))
    assert again == net
    assert serialize_bench(again) == serialize_bench(net)


@_SETTINGS
@given(bench_texts(), st.sampled_from(list(CellFlavor)), st.data())
def test_key_files_round_trip(text, flavor, data):
    net = parse_bench(text)
    eligible = eligible_gates(net, flavor)
    chosen = data.draw(st.lists(st.sampled_from(eligible), unique=True,
                                max_size=4)) if eligible else []
    locked, key = apply_camouflage(
        net, chosen, flavor, decoy_seed=data.draw(st.none() | st.integers(0, 9)))
    assert CamoKey.deserialize(key.serialize()) == key
    assert parse_bench(serialize_bench(locked)) == locked


@_SETTINGS
@given(bench_texts().flatmap(dressed))
def test_parser_reads_dressed_texts_as_the_reference_does(text):
    assert_parses_like_reference(text)
