"""Reference kernel: fixed pure-Python work that measures host speed.

One slice evaluates a fixed 48-gate netlist over two input vectors the
way the program does: a fresh truth-table dict per gate, a value dict
per vector, a list of candidate tuples filtered by the result. One
kernel run is SLICES slices. The kernel never changes and imports
nothing from ``vtcamo``, so its time tracks only how fast this host runs
Python right now. ``timed_kernel`` pauses the garbage collector, so its
time does not depend on the size of the caller's heap.
"""

from __future__ import annotations

import gc
import time

_N_INPUTS = 8
_TABLES = {
    "AND": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "OR": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "XOR": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "NAND": {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0},
}


def _fixed_netlist() -> tuple[tuple[str, str, str, str], ...]:
    """48 gates from a fixed linear congruential sequence (no ``random``)."""
    nets = [f"i{k}" for k in range(_N_INPUTS)]
    funcs = tuple(_TABLES)
    gates = []
    state = 12345
    for k in range(48):
        picks = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            picks.append(state >> 8)
        name = f"n{k}"
        gates.append((name, funcs[picks[0] % 4], nets[picks[1] % len(nets)],
                      nets[picks[2] % len(nets)]))
        nets.append(name)
    return tuple(gates)


_GATES = _fixed_netlist()


#: Slices in one reference kernel run.
SLICES = 100


def kernel_slice() -> int:
    """One unit of the fixed work: the netlist over two input vectors.

    Like a candidate filter in an attack, it builds a fresh truth table per
    gate, a fresh value dict per vector, and filters a list of candidate
    tuples; allocating as the program does makes the slice slow down with
    the host as much as the program's own work does.
    """
    names = [f"i{k}" for k in range(_N_INPUTS)]
    survivors = [(a, b, c) for a in range(2) for b in range(2) for c in range(4)]
    for i in (0x5A, 0xA5):
        values = dict(zip(names, [(i >> k) & 1 for k in range(_N_INPUTS)]))
        for name, func, a, b in _GATES:
            table = dict(_TABLES[func].items())
            values[name] = table[(values[a], values[b])]
        last = values[_GATES[-1][0]]
        survivors = [s for s in survivors if (s[0] + last) % 3 != i % 3]
    return len(survivors)


def kernel() -> int:
    """One reference kernel run: SLICES slices; returns a checksum."""
    return sum(kernel_slice() for _ in range(SLICES))


def timed_kernel() -> float:
    """Wall seconds of one kernel run, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
