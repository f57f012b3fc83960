"""Reverse-engineering attacks against camouflaged netlists.

Both attacks treat the fabricated chip as an input/output oracle: a
callable taking a primary-input vector and returning the primary-output
vector, such as the netlist module's CountingOracle (re-exported here),
which counts every call, so reported query counts can be audited.

An attack keeps its state in one _AttackRun: the net, the oracle and its
budget, the transcript (each vector's reply entered once, as a tuple of
the right length), each gate's candidate set and the initial log2. Both
attacks end in the joint step, _AttackRun.resolve: it enumerates the
product of some gates' candidate sets into one netlist.OutputTables, the
other gates fixed to their one candidate, replays the transcript into
it, queries further vectors until one assignment is left, the rest are
provably interchangeable or the budget runs out, and assigns the status.
The survivors are interchangeable (settled) when the transcript holds
every input vector or when they give the same outputs on every vector.
brute_force_attack asks its whole pattern source in one loop that calls
nothing per vector but the oracle, then hands every gate to that step.
sensitization_attack first resolves gates one at a time in topological
order: for the local input patterns that tell a gate's candidates apart,
it finds a primary-input vector that drives the pattern onto the gate
and provably propagates the gate's output to a primary output, and reads
the hidden truth table entry off the oracle response. The residue goes
to the joint step, which walks the input space in counting order
(_AttackRun.walk) and drops the survivors whose outputs differ from each
new reply: one check where they all agree on its vector. The replay and
the walk run the candidates depth first, one camouflaged gate at a time:
candidates that agree on the gates so far share one run of the logic
that the last of them reaches and no later one does, and the replay
drops a group at the first output that logic gets wrong.

Propagation is checked on the netlist module's bit-parallel dual-rail
core with the target forced to 0 and to 1, every unresolved camouflaged
gate an unknown. A flip counts only where both runs give definite,
differing values at some output, so a resolution is sound whatever the
unresolved gates are; the lowest bit set in both the local-pattern and
the flip mask is the first such vector in counting order. A gate visit
runs the two passes once for all its patterns (_visit_search): each block
it reads records the first hit of every pattern, so a visit keeps at most
four blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import add, or_
from typing import Callable, Iterable

from .cell import (CAMOUFLAGEABLE, LOCAL_VECTORS, GateFunction, behavior_table,
                   distinguishing_set)
from .errors import (AttackTooLargeError, InvalidParameterError,
                     UnresolvedFaninError)
from .netlist import (EXHAUSTIVE_INPUT_LIMIT, CountingOracle, Netlist,
                      OutputTables, all_vectors, forced_rails, random_vectors)

#: Most camouflaged gates the joint brute-force enumeration accepts.
MAX_BRUTE_GATES = 8

#: Largest joint residue the sensitization fallback will enumerate.
RESIDUE_ENUM_LIMIT = 1 << 20

#: Survivor-set size up to which mutual output-equivalence is verified.
EQUIV_CHECK_LIMIT = 1024


@dataclass(frozen=True)
class AttackReport:
    """Outcome of an attack run.

    resolved maps every camouflaged gate to its surviving function set;
    status is "unique" when a single joint assignment remains,
    "equivalent_class" when several remain but are provably
    interchangeable, and "budget_exhausted" otherwise.
    """

    resolved: dict[str, frozenset[GateFunction]]
    query_count: int
    candidate_space_log2_initial: float
    candidate_space_log2_final: float
    status: str
    transcript: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _space_log2(sets: Iterable[frozenset]) -> float:
    # a left fold from 0, as sum() was before Python 3.12 compensated it
    return reduce(add, [math.log2(len(s)) for s in sets], 0)


class _AttackRun:
    """One attack's state and the steps that read and narrow it.

    ``transcript`` maps each queried vector to its reply, in query order;
    ``sets`` maps each camouflaged gate to its surviving candidates.
    """

    def __init__(self, net: Netlist, oracle: Callable, budget: int | None,
                 flavor_knowledge: bool = True):
        if budget is not None and budget < 0:
            raise InvalidParameterError(
                f"query budget must be >= 0, got {budget}")
        self.net, self._oracle, self._budget = net, oracle, budget
        self.transcript: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.sets = {g.gate_id: g.flavor.function_set if flavor_knowledge
                     else CAMOUFLAGEABLE for g in net.camo_gates()}
        self.initial_log2 = _space_log2(self.sets.values())

    @property
    def exhausted(self) -> bool:
        return self._budget is not None and len(self.transcript) >= self._budget

    def query(self, vector: tuple[int, ...]) -> tuple[int, ...] | None:
        """The oracle's reply, asked once per vector; None once spent."""
        out = self.transcript.get(vector)
        if out is None and not self.exhausted:
            out = self.transcript[vector] = tuple(self._oracle(vector))
            if len(out) != len(self.net.outputs):
                raise InvalidParameterError(f"bad oracle reply width: {out!r}")
        return out

    def assignment(self) -> dict[str, GateFunction]:
        """The function of every gate with one candidate left."""
        return {gid: next(iter(s)) for gid, s in self.sets.items()
                if len(s) == 1}

    def walk(self, tables) -> bool:
        """Query all_vectors in counting order until ``tables.items`` settle.

        A new reply drops the survivors whose outputs, read from ``tables``,
        differ from it; a vector already in the transcript is skipped, since
        the replay filtered its reply. Returns whether the survivors settled:
        became mutually equivalent, or the transcript came to hold every
        vector. A spent budget ends the walk unsettled.
        """
        for vec in all_vectors(len(self.net.inputs)):
            if vec in self.transcript:
                continue
            out = self.query(vec)
            if out is None:
                return False
            keep = tables.matches(vec, out)
            if all(keep):
                continue
            tables.keep(keep)
            if tables.agree(EQUIV_CHECK_LIMIT):
                return True
        return True

    def resolve(self, gate_ids: list[str],
                walk: bool = False) -> tuple[str, float]:
        """Filter the joint assignments of ``gate_ids``; narrow ``sets``.

        Replays the transcript, each gate outside ``gate_ids`` with one
        candidate fixed to it, then, until the survivors are settled (the
        transcript holds every vector or they are mutually equivalent),
        ``walk``s the input space. Returns the status and the survivors'
        log2.
        """
        sets = self.sets
        fixed = {gid: f for gid, f in self.assignment().items()
                 if gid not in gate_ids}
        tables = OutputTables(self.net, gate_ids, product(
            *(sorted(sets[g]) for g in gate_ids)),
            fixed).replay(self.transcript.items())
        settled = (len(self.transcript) == 1 << len(self.net.inputs)
                   or tables.agree(EQUIV_CHECK_LIMIT))
        if walk and not settled:
            settled = self.walk(tables)
        survivors = tables.items
        for i, gid in enumerate(gate_ids):
            sets[gid] = {a[i] for a in survivors}
        status = ("unique" if len(survivors) == 1 else "equivalent_class"
                  if settled else "budget_exhausted")
        return status, (math.log2(len(survivors)) if survivors
                        else float("-inf"))

    def report(self, status: str, final_log2: float) -> AttackReport:
        return AttackReport(
            {gid: frozenset(s) for gid, s in self.sets.items()},
            len(self.transcript), self.initial_log2, final_log2, status,
            tuple(self.transcript.items()))


def brute_force_attack(net: Netlist, oracle: Callable,
                       pattern_source: str = "exhaustive",
                       query_budget: int | None = None,
                       seed: int = 0) -> AttackReport:
    """Filter the joint candidate space against oracle responses.

    Exhaustive mode consumes the entire input space (no early exit), so
    its query count is exactly min(2**n, query_budget). Random mode draws
    ``query_budget`` seeded vectors and stops once every vector has been
    queried. The true programming always survives because it reproduces
    every oracle response by definition.
    """
    camo = len(net.camo_gates())
    if camo > MAX_BRUTE_GATES:
        raise AttackTooLargeError(
            f"{camo} camouflaged gates exceeds the joint enumeration "
            f"guard of {MAX_BRUTE_GATES}; use sensitization_attack")
    run = _AttackRun(net, oracle, query_budget)  # refuses a budget below 0
    if pattern_source == "exhaustive":
        vectors = islice(all_vectors(len(net.inputs)), query_budget)
    elif pattern_source == "random":
        if query_budget is None:
            raise InvalidParameterError(
                "random pattern source needs a query budget")
        vectors = random_vectors(len(net.inputs), query_budget, seed)
    else:
        raise InvalidParameterError(
            f"unknown pattern source {pattern_source!r}")
    transcript, outputs = run.transcript, len(net.outputs)
    space = 1 << len(net.inputs)
    for vec in vectors:
        if vec not in transcript:
            out = transcript[vec] = tuple(oracle(vec))
            if len(out) != outputs:
                raise InvalidParameterError(f"bad oracle reply width: {out!r}")
            if len(transcript) == space:
                break
    return run.report(*run.resolve(list(run.sets)))


@dataclass(frozen=True)
class SensitizingVector:
    """A vector that drives a local pattern and exposes the gate output."""

    vector: tuple[int, ...]
    po_index: int
    po_if_0: int
    po_if_1: int

    def infer_gate_output(self, oracle_outputs: tuple[int, ...]) -> int:
        """Read the target's output bit off an oracle response."""
        observed = oracle_outputs[self.po_index]
        if observed == self.po_if_0:
            return 0
        if observed == self.po_if_1:
            return 1
        raise InvalidParameterError(
            "oracle response inconsistent with the propagation analysis")


def _visit_search(net: Netlist, assignment: dict[str, GateFunction],
                  target: str) -> Callable:
    """find_sensitizing_vector for one gate visit's patterns: the checks
    run once, here, and the forced passes once per block. A block read
    records the first hit of every pattern it holds one of, so a pattern
    already hit is answered at once and any other resumes the passes; at
    most the four blocks that hold a first hit are kept."""
    if len(net.inputs) > EXHAUSTIVE_INPUT_LIMIT:
        raise AttackTooLargeError(
            f"{len(net.inputs)} inputs exceeds the sensitization search "
            f"limit of {EXHAUSTIVE_INPUT_LIMIT}")
    cone = net.fanin_cone(target) - {target} - assignment.keys()
    unresolved = [g.gate_id for g in net.camo_gates() if g.gate_id in cone]
    if unresolved:
        raise UnresolvedFaninError(
            f"fanin cone of {target!r} has unresolved camouflaged "
            f"gates {sorted(unresolved)}")
    blocks = forced_rails(net, assignment, target,
                          net.gate(target).fanins + net.outputs)
    found: dict[tuple[int, int], tuple] = {}  # pattern: (hit, flips, block)

    def search(local_pattern: tuple[int, int]) -> SensitizingVector | None:
        if local_pattern not in found:
            for block in blocks:
                _, rails0, rails1 = block
                # an output flips where both passes are definite and differ
                flips = [(z0 ^ o0) & (z1 ^ o1) & (o0 ^ o1)
                         for (z0, o0), (z1, o1) in zip(rails0[2:], rails1[2:])]
                flipped = reduce(or_, flips, 0)
                for p0, p1 in LOCAL_VECTORS:
                    # the cone is resolved, so "may be p" is "is p"
                    hit = rails0[0][p0] & rails0[1][p1] & flipped
                    if hit and (p0, p1) not in found:
                        found[p0, p1] = hit, flips, block
                if local_pattern in found:
                    break
            else:
                return None
        hit, flips, (words, rails0, rails1) = found[local_pattern]
        j = (hit & -hit).bit_length() - 1
        i = next(i for i, flip in enumerate(flips) if flip >> j & 1)
        return SensitizingVector(tuple([w >> j & 1 for w in words]), i,
                                 rails0[2 + i][1] >> j & 1,
                                 rails1[2 + i][1] >> j & 1)
    return search


def find_sensitizing_vector(net: Netlist,
                            partial_assignment: dict[str, GateFunction],
                            target_gate: str,
                            local_pattern: tuple[int, int],
                            ) -> SensitizingVector | None:
    """Search the input space for a vector that observes one table entry.

    The vector must set the target's fanins to ``local_pattern``, one of
    ``LOCAL_VECTORS``, and make some primary output provably follow the
    target's output. Returns None when no such vector exists. The target's
    fanin cone must already be resolved (its camouflaged gates present in
    ``partial_assignment``). It streams the forced passes, which a
    sensitization_attack visit runs once for all its patterns.
    """
    if not net.gate(target_gate).is_camo:
        raise InvalidParameterError(f"{target_gate!r} is not camouflaged")
    if local_pattern not in LOCAL_VECTORS:
        raise InvalidParameterError(f"bad local pattern {local_pattern!r}")
    return _visit_search(net, partial_assignment, target_gate)(local_pattern)


def sensitization_attack(net: Netlist, oracle: Callable,
                         flavor_knowledge: bool = True,
                         query_budget: int | None = None) -> AttackReport:
    """Resolve camouflaged gates one at a time via sensitizing vectors.

    Gates are visited in topological order; a gate is attackable once
    every camouflaged gate in its fanin cone is resolved. Gates that
    cannot be sensitized stay unresolved, and the attack falls back to a
    guarded joint enumeration over the residue. Without flavor knowledge
    every gate starts from the full eight-function candidate set.
    """
    run = _AttackRun(net, oracle, query_budget, flavor_knowledge)
    sets = run.sets
    camo_order = [g.gate_id for g in net.topo_order if g.is_camo]
    progress = True
    while progress and not run.exhausted:
        progress = False
        for gid in camo_order:
            if len(sets[gid]) <= 1:
                continue
            assignment, search = run.assignment(), None
            patterns = list(distinguishing_set(frozenset(sets[gid])))
            patterns += [p for p in LOCAL_VECTORS if p not in patterns]
            for pattern in patterns:
                if len(sets[gid]) <= 1 or run.exhausted:
                    break
                if len({behavior_table(f)[pattern] for f in sets[gid]}) == 1:
                    continue  # pattern no longer splits the survivors
                try:
                    search = search or _visit_search(net, assignment, gid)
                    sv = search(pattern)
                except UnresolvedFaninError:
                    break
                if sv is None:
                    continue
                bit = sv.infer_gate_output(run.query(sv.vector))
                sets[gid] = {f for f in sets[gid]
                             if behavior_table(f)[pattern] == bit}
                progress = True

    residue = [gid for gid in camo_order if len(sets[gid]) > 1]
    if not residue:
        return run.report("unique", 0.0)
    if math.prod(len(sets[gid]) for gid in residue) > RESIDUE_ENUM_LIMIT:
        return run.report("budget_exhausted",
                          _space_log2(sets[gid] for gid in residue))
    return run.report(*run.resolve(
        residue, walk=len(net.inputs) <= EXHAUSTIVE_INPUT_LIMIT))
