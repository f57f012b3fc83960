"""Reverse-engineering attacks against camouflaged netlists.

Both attacks treat the fabricated chip as an input/output oracle: a
callable taking a primary-input vector and returning the primary-output
vector. CountingOracle wraps a reference netlist plus its key and counts
invocations independently, so reported query counts can be audited.

brute_force_attack enumerates every joint function assignment of the
camouflaged gates and filters it through the oracle's responses, walking
the whole pattern space in exhaustive mode. sensitization_attack instead
resolves gates one at a time in topological order: it computes the
minimal local input patterns that tell the candidate functions apart,
finds primary-input vectors that both drive a pattern onto the gate and
provably propagate the gate's output to an observable output, and reads
the hidden truth table entry off the oracle response. Propagation is
checked by simulating with the target's output forced to 0 and to 1
under three-valued logic, where every still-unresolved camouflaged gate
contributes an unknown; a flip only counts when the two forced runs give
definite, differing values at some output, so a resolution is sound no
matter what the unresolved gates turn out to be.

All evaluation runs on the netlist module's bit-parallel core: a net
carries two Python ints (may0, may1) whose bit j says whether it may be 0
or 1 under vector j of a batch, so an unknown bit has both rails set. The
propagation check is one pass with the target forced to 0 and one forced
to 1; the lowest bit set in both the local-pattern and the definite-flip
mask is the first such vector in counting order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_
from typing import Callable, Iterable

from .cell import CAMOUFLAGEABLE, GateFunction, behavior_table, distinguishing_set
from .errors import (AttackTooLargeError, InvalidParameterError,
                     UnresolvedFaninError)
from .netlist import (EXHAUSTIVE_INPUT_LIMIT, CamoKey, Netlist, all_vectors,
                      bits_at, filter_assignments, random_vectors, simulate,
                      simulate_words)

#: Most camouflaged gates the joint brute-force enumeration accepts.
MAX_BRUTE_GATES = 8

#: Largest joint residue the sensitization fallback will enumerate.
RESIDUE_ENUM_LIMIT = 1 << 20

#: Survivor-set size up to which mutual output-equivalence is verified.
EQUIV_CHECK_LIMIT = 1024

_LOCAL_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))


class CountingOracle:
    """I/O oracle over a reference netlist; counts every invocation."""

    def __init__(self, net: Netlist, key: CamoKey | None = None):
        self._net = net
        self._key = key
        self.query_count = 0
        self.transcript: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def __call__(self, vector) -> tuple[int, ...]:
        out = simulate(self._net, vector, self._key)
        self.query_count += 1
        self.transcript.append((tuple(vector), out))
        return out


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


class _QueryCache:
    """Attacker-side memo so repeated vectors never hit the oracle twice."""

    def __init__(self, oracle: Callable, budget: int | None):
        self._oracle = oracle
        self._budget = budget
        self._seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.transcript: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    @property
    def exhausted(self) -> bool:
        return self._budget is not None and len(self.transcript) >= self._budget

    def query(self, vector: tuple[int, ...]) -> tuple[int, ...] | None:
        if vector in self._seen:
            return self._seen[vector]
        if self.exhausted:
            return None
        out = tuple(self._oracle(vector))
        self._seen[vector] = out
        self.transcript.append((vector, out))
        return out


def _candidate_sets(net: Netlist, flavor_knowledge: bool,
                    ) -> dict[str, frozenset[GateFunction]]:
    return {g.gate_id: g.flavor.function_set if flavor_knowledge
            else CAMOUFLAGEABLE for g in net.camo_gates()}


def _space_log2(sets: Iterable[frozenset]) -> float:
    return sum(math.log2(len(s)) for s in sets)


def _mutually_equivalent(net: Netlist, gate_ids: list[str],
                         survivors: list[tuple[GateFunction, ...]],
                         fixed: dict[str, GateFunction] | None = None) -> bool:
    """True when all surviving assignments agree on the full input space."""
    if len(survivors) <= 1:
        return True
    if (len(net.inputs) > EXHAUSTIVE_INPUT_LIMIT
            or len(survivors) > EQUIV_CHECK_LIMIT):
        return False
    tables = ([[rails[n][1] for n in net.outputs] for _, rails in
               simulate_words(net, {**(fixed or {}),
                                    **dict(zip(gate_ids, a))})]
              for a in survivors)
    reference = next(tables)
    return all(table == reference for table in tables)


def brute_force_attack(net: Netlist, oracle: Callable,
                       pattern_source: str = "exhaustive",
                       query_budget: int | None = None,
                       seed: int = 0) -> AttackReport:
    """Filter the joint candidate space against oracle responses.

    Exhaustive mode consumes the entire input space (no early exit), so
    its query count is exactly min(2**n, query_budget). Random mode draws
    seeded vectors and requires a budget. The true programming always
    survives because it reproduces every oracle response by definition.
    """
    camo = net.camo_gates()
    if len(camo) > MAX_BRUTE_GATES:
        raise AttackTooLargeError(
            f"{len(camo)} camouflaged gates exceeds the joint enumeration "
            f"guard of {MAX_BRUTE_GATES}; use sensitization_attack")
    sets = _candidate_sets(net, flavor_knowledge=True)
    gate_ids = [g.gate_id for g in camo]
    initial_log2 = _space_log2(sets.values())
    survivors = [tuple(a) for a in product(*(sorted(sets[g], key=lambda f: f.value)
                                             for g in gate_ids))]
    if pattern_source == "exhaustive":
        vectors = all_vectors(len(net.inputs))
    elif pattern_source == "random":
        if query_budget is None:
            raise InvalidParameterError(
                "random pattern source needs a query budget")
        vectors = random_vectors(len(net.inputs), query_budget, seed)
    else:
        raise InvalidParameterError(
            f"unknown pattern source {pattern_source!r}")
    cache = _QueryCache(oracle, query_budget)
    complete = True
    for vec in vectors:
        if cache.query(vec) is None:
            complete = False
            break
    survivors = filter_assignments(net, gate_ids, survivors, cache.transcript)
    resolved = {gid: frozenset(a[i] for a in survivors)
                for i, gid in enumerate(gate_ids)}
    if not gate_ids or len(survivors) == 1:
        status = "unique"
    elif complete or _mutually_equivalent(net, gate_ids, survivors):
        status = "equivalent_class"
    else:
        status = "budget_exhausted"
    final = math.log2(len(survivors)) if survivors else float("-inf")
    return AttackReport(resolved, len(cache.transcript), initial_log2,
                        final, status, tuple(cache.transcript))


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


def find_sensitizing_vector(net: Netlist,
                            partial_assignment: dict[str, GateFunction],
                            target_gate: str,
                            local_pattern: tuple[int, int],
                            ) -> SensitizingVector | None:
    """Search the input space for a vector that observes one table entry.

    The vector must set the target's fanins to ``local_pattern`` and make
    some primary output provably follow the target's output. Returns None
    when no such vector exists. The target's fanin cone must already be
    resolved (its camouflaged gates present in ``partial_assignment``).
    """
    gate = net.gate(target_gate)
    if not gate.is_camo:
        raise InvalidParameterError(f"{target_gate!r} is not camouflaged")
    if len(net.inputs) > EXHAUSTIVE_INPUT_LIMIT:
        raise AttackTooLargeError(
            f"{len(net.inputs)} inputs exceeds the sensitization search "
            f"limit of {EXHAUSTIVE_INPUT_LIMIT}")
    cone = net.fanin_cone(target_gate)
    unresolved = [g.gate_id for g in net.camo_gates()
                  if g.gate_id in cone and g.gate_id != target_gate
                  and g.gate_id not in partial_assignment]
    if unresolved:
        raise UnresolvedFaninError(
            f"fanin cone of {target_gate!r} has unresolved camouflaged "
            f"gates {sorted(unresolved)}")
    (f0, f1), (p0, p1) = gate.fanins, local_pattern
    for (_, rails0), (_, rails1) in zip(
            simulate_words(net, partial_assignment, forced={target_gate: 0}),
            simulate_words(net, partial_assignment, forced={target_gate: 1})):
        # the resolved cone makes both fanins known, so "may be p" is "is p"
        local = rails0[f0][p0] & rails0[f1][p1]
        # an output flips where both passes are definite and differ
        flips = [(z0 & ~o0 & o1 & ~z1) | (o0 & ~z0 & z1 & ~o1)
                 for (z0, o0), (z1, o1) in zip(map(rails0.get, net.outputs),
                                               map(rails1.get, net.outputs))]
        hit = local & reduce(or_, flips, 0)
        if hit:
            j = (hit & -hit).bit_length() - 1
            i = next(i for i, flip in enumerate(flips) if flip >> j & 1)
            po = net.outputs[i]
            return SensitizingVector(bits_at(rails0, net.inputs, j), i,
                                     rails0[po][1] >> j & 1,
                                     rails1[po][1] >> j & 1)
    return None


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
    sets = {gid: set(s)
            for gid, s in _candidate_sets(net, flavor_knowledge).items()}
    initial_log2 = _space_log2(sets.values())
    cache = _QueryCache(oracle, query_budget)
    camo_order = [g.gate_id for g in net.topo_order if g.is_camo]

    def resolved_assignment() -> dict[str, GateFunction]:
        return {gid: next(iter(s)) for gid, s in sets.items() if len(s) == 1}

    progress = True
    while progress and not cache.exhausted:
        progress = False
        for gid in camo_order:
            if len(sets[gid]) <= 1:
                continue
            assignment = resolved_assignment()
            patterns = list(distinguishing_set(frozenset(sets[gid])))
            patterns += [p for p in _LOCAL_PATTERNS if p not in patterns]
            for pattern in patterns:
                if len(sets[gid]) <= 1 or cache.exhausted:
                    break
                if len({behavior_table(f)[pattern] for f in sets[gid]}) == 1:
                    continue  # pattern no longer splits the survivors
                try:
                    sv = find_sensitizing_vector(net, assignment, gid, pattern)
                except UnresolvedFaninError:
                    break
                if sv is None:
                    continue
                out = cache.query(sv.vector)
                if out is None:
                    break
                bit = sv.infer_gate_output(out)
                sets[gid] = {f for f in sets[gid]
                             if behavior_table(f)[pattern] == bit}
                progress = True

    residue = [gid for gid in camo_order if len(sets[gid]) > 1]
    fixed = resolved_assignment()
    if not residue:
        status, final_log2 = "unique", 0.0
    elif math.prod(len(sets[gid]) for gid in residue) > RESIDUE_ENUM_LIMIT:
        status = "budget_exhausted"
        final_log2 = _space_log2(sets[gid] for gid in residue)
    else:
        survivors = [tuple(a) for a in product(
            *(sorted(sets[g], key=lambda f: f.value) for g in residue))]
        # replay the transcript before touching the oracle again
        survivors = filter_assignments(net, residue, survivors,
                                       cache.transcript, fixed)
        complete = True
        settled = _mutually_equivalent(net, residue, survivors, fixed)
        if len(net.inputs) <= EXHAUSTIVE_INPUT_LIMIT:
            for vec in all_vectors(len(net.inputs)):
                if settled:
                    break
                out = cache.query(vec)
                if out is None:
                    complete = False
                    break
                before = len(survivors)
                survivors = filter_assignments(net, residue, survivors,
                                               [(vec, out)], fixed)
                if len(survivors) != before:
                    settled = _mutually_equivalent(net, residue,
                                                   survivors, fixed)
        else:
            complete = False
        for i, gid in enumerate(residue):
            sets[gid] = {a[i] for a in survivors}
        if len(survivors) == 1:
            status = "unique"
        elif settled or complete:
            status = "equivalent_class"
        else:
            status = "budget_exhausted"
        final_log2 = (math.log2(len(survivors)) if survivors
                      else float("-inf"))
    resolved = {gid: frozenset(s) for gid, s in sets.items()}
    return AttackReport(resolved, len(cache.transcript), initial_log2,
                        final_log2, status, tuple(cache.transcript))
