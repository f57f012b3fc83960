"""Seeded job lists and job bodies for the benchmark workloads.

Every workload is a list of jobs built from the workload seed alone;
``build_jobs`` is the set-up step (input generation). ``run_<workload>_job``
runs one job: it makes each call into ``vtcamo`` through
``call(span_name, fn, *args)`` so the traced run can wrap it in a span,
checks the program's answers, and returns a ``JobResult`` whose
``digest_items`` are the deterministic outputs folded into the run's
output digest.
"""

from __future__ import annotations

import json
import os
import random
import warnings
from dataclasses import dataclass

from vtcamo import (
    CellFlavor,
    CountingOracle,
    DeviceParams,
    GateFunction,
    SelectionPolicy,
    add_measurement_noise,
    apply_camouflage,
    brute_force_attack,
    check_equivalence,
    classify_function,
    default_bias,
    find_sensitizing_vector,
    measure_signature,
    optimize_bias,
    overhead_report,
    parse_bench,
    select_gates,
    sensitization_attack,
    serialize_bench,
    sweep_to_csv,
    sweep_vt_window,
    template_signatures,
    validate_key,
)
from vtcamo import cli
from vtcamo.camouflage import eligible_gates
from vtcamo.errors import BiasClampWarning, VtcamoError
from vtcamo.netlist import CamoKey, Netlist

WORKLOADS = ("attack", "lock", "device")

#: Attack instances come from this fixed corpus; the run seed orders them.
ATTACK_CORPUS_SEED = 2015

#: Jobs per second of ``--seconds``, about the nominal host's throughput;
#: fixes the list length.
JOBS_PER_SECOND = {"attack": 2.4, "lock": 8.0, "device": 3.4}

FLAVORS = (CellFlavor.CAMO8, CellFlavor.CMOS3A, CellFlavor.CMOS3B)
STRATEGIES = ("random", "xor_sequence", "off_critical", "greedy_effort")
LOCK_SIZES = (250, 500, 1000)
LOCAL_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))
RESOLVED_STATUSES = ("unique", "equivalent_class")

_TWO_INPUT = ("NAND", "NOR", "AND", "OR", "XOR", "XNOR")
_ONE_INPUT = ("NOT", "BUFF")


def job_count(workload: str, seconds: int) -> int:
    """Length of the job list; depends on the run length, never on speed."""
    return max(1, round(JOBS_PER_SECOND[workload] * seconds))


def random_bench(rng: random.Random, n_inputs: int, n_gates: int,
                 p_single: float = 0.15, window: int | None = None) -> str:
    """Seeded random DAG as .bench text; gates nobody reads are outputs.

    With ``window`` set, fanins come from the most recent ``window`` nets
    three times in four, which gives large nets a realistic depth.
    """
    nets = [f"i{k}" for k in range(n_inputs)]
    lines = [f"INPUT({n})" for n in nets]
    body = []
    read: set[str] = set()

    def pick() -> str:
        if window is not None and rng.random() < 0.75:
            return rng.choice(nets[-window:])
        return rng.choice(nets)

    for k in range(n_gates):
        name = f"g{k:04d}"
        if rng.random() < p_single:
            func, fanins = rng.choice(_ONE_INPUT), [pick()]
        else:
            first = pick()
            second = pick()
            while second == first:
                second = pick()
            func, fanins = rng.choice(_TWO_INPUT), [first, second]
        read.update(fanins)
        body.append(f"{name} = {func}({', '.join(fanins)})")
        nets.append(name)
    sinks = [n for n in nets[n_inputs:] if n not in read] or [nets[-1]]
    lines += [f"OUTPUT({n})" for n in sinks]
    return "\n".join(lines + body) + "\n"


def direct_call(name, fn, *args, **kwargs):
    """The untraced ``call``: run ``fn`` and ignore the span name."""
    return fn(*args, **kwargs)


def camouflage(net, gate_ids, flavor: CellFlavor, decoy_seed: int,
               call=direct_call):
    """``apply_camouflage`` with at most one NOT/BUFF gate per call.

    A single call picks every INV/BUF decoy on the original netlist, so two
    decoys can each lie in the other gate's fanout cone and close a cycle
    (``NetlistCycleError``; see README.md). Converting those gates one per
    call picks each decoy on a netlist that already holds the earlier ones.
    """
    singles = [gid for gid in gate_ids
               if net.gate(gid).func in (GateFunction.NOT, GateFunction.BUFF)]
    batches = [[gid for gid in gate_ids if gid not in singles] + singles[:1]]
    batches += [[gid] for gid in singles[1:]]
    entries = {}
    for batch in batches:
        net, key = call("camouflage.apply_camouflage", apply_camouflage,
                        net, batch, flavor, decoy_seed=decoy_seed)
        entries.update(key.entries)
    return net, CamoKey(entries)


def _lock_random(rng: random.Random, text: str, flavor: CellFlavor,
                 count: int):
    """Parse ``text`` and camouflage ``count`` seeded eligible gates."""
    net = parse_bench(text)
    eligible = eligible_gates(net, flavor)
    if len(eligible) < count:
        return None
    chosen = sorted(rng.sample(eligible, count))
    return (net,) + camouflage(net, chosen, flavor, rng.randrange(1 << 30))


# --- job descriptions ---------------------------------------------------------

@dataclass
class AttackJob:
    net: Netlist
    locked: Netlist
    key: CamoKey
    flavor: CellFlavor


@dataclass
class LockJob:
    text: str
    gates: int
    strategy: str
    flavor: CellFlavor
    seed: int


@dataclass
class DeviceJob:
    params: DeviceParams
    policy: str
    noise_seed: int
    net: Netlist
    key: CamoKey


@dataclass
class JobResult:
    ok: bool
    digest_items: list
    counts: dict
    problem: str = ""


def _attack_jobs(rng: random.Random, n: int) -> list[AttackJob]:
    corpus = random.Random(ATTACK_CORPUS_SEED)
    jobs = []
    while len(jobs) < n:
        # flavour x input width cycle with period 9
        flavor = FLAVORS[len(jobs) % 3]
        width = 8 + (len(jobs) // 3) % 3
        text = random_bench(corpus, width, corpus.randint(24, 30))
        made = _lock_random(corpus, text, flavor, 3)
        if made is not None:
            jobs.append(AttackJob(*made, flavor))
    rng.shuffle(jobs)
    return jobs


def _lock_jobs(rng: random.Random, n: int) -> list[LockJob]:
    jobs = []
    for i in range(n):
        # full factorial of size x strategy x flavour, period 36
        gates = LOCK_SIZES[i % 3]
        strategy = STRATEGIES[(i // 3) % 4]
        flavor = FLAVORS[(i // 12) % 3]
        text = random_bench(rng, 32, gates, window=64)
        jobs.append(LockJob(text, gates, strategy, flavor,
                            rng.randrange(1 << 30)))
    return jobs


def _device_jobs(rng: random.Random, n: int) -> list[DeviceJob]:
    made = None
    while made is None:
        made = _lock_random(rng, random_bench(rng, 12, 48), CellFlavor.CAMO8,
                            12)
    _, locked, key = made
    jobs = []
    for i in range(n):
        params = DeviceParams(vdd=round(rng.uniform(0.9, 1.1), 4),
                              delta_hvt=round(rng.uniform(0.30, 0.40), 4))
        policy = ("fixed", "thermal_compensated")[i % 2]
        jobs.append(DeviceJob(params, policy, rng.randrange(1 << 30),
                              locked, key))
    return jobs


_BUILDERS = {"attack": _attack_jobs, "lock": _lock_jobs,
             "device": _device_jobs}


def build_jobs(workload: str, seed: int, n: int) -> list:
    """The seeded job list of a workload; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, n)


# --- job bodies -----------------------------------------------------------------

def _report_items(tag: str, report) -> list:
    resolved = {gid: sorted(f.value for f in fs)
                for gid, fs in sorted(report.resolved.items())}
    return [tag, resolved, report.status, report.query_count,
            [list(map(list, pair)) for pair in report.transcript]]


def _resolved_ok(report, key: CamoKey) -> bool:
    return all(key.entries[gid].function in report.resolved.get(gid, ())
               for gid in key.entries)


def run_attack_job(job: AttackJob, call=direct_call, oracle_wrap=None) -> JobResult:
    """Equivalence, brute force, sensitization and direct probes."""
    wrap = oracle_wrap or (lambda o: o)
    verdict = call("netlist.check_equivalence", check_equivalence,
                   job.net, job.locked, None, job.key)
    items = [verdict.equivalent, verdict.vectors_checked]
    problems = [] if verdict.equivalent else ["locked netlist not equivalent"]
    queries = resolved = 0
    for name, attack in (("attack.brute_force_attack", brute_force_attack),
                         ("attack.sensitization_attack", sensitization_attack)):
        oracle = CountingOracle(job.locked, job.key)
        report = call(name, attack, job.locked, wrap(oracle))
        if report.query_count != oracle.query_count:
            problems.append(f"{name}: reported {report.query_count} queries, "
                            f"oracle counted {oracle.query_count}")
        if not _resolved_ok(report, job.key):
            problems.append(f"{name}: true key function eliminated")
        queries += oracle.query_count
        resolved += report.status in RESOLVED_STATUSES
        items += _report_items(name, report)
    first = next(g.gate_id for g in job.locked.topo_order if g.is_camo)
    for pattern in LOCAL_PATTERNS:
        sv = call("attack.find_sensitizing_vector", find_sensitizing_vector,
                  job.locked, {}, first, pattern)
        items.append(None if sv is None else
                     [list(sv.vector), sv.po_index, sv.po_if_0, sv.po_if_1])
    counts = {"netlist.vectors_checked": verdict.vectors_checked,
              "attack.oracle_queries": queries,
              "attack.resolved": resolved, "attack.attempted": 2}
    return JobResult(not problems, items, counts, "; ".join(problems))


def run_lock_job(job: LockJob, workdir: str, call=direct_call) -> JobResult:
    """Parse, select, lock, round-trip, cost, spot-check and report."""
    net = call("netlist.parse_bench", parse_bench, job.text)
    policy = SelectionPolicy(strategy=job.strategy, budget=0.05,
                             delay_budget=0.1, seed=job.seed)
    selected = call("camouflage.select_gates", select_gates, net, policy,
                    None, flavor=job.flavor)
    locked, key = camouflage(net, selected, job.flavor, job.seed, call)
    text = call("netlist.serialize_bench", serialize_bench, locked)
    again = call("netlist.parse_bench", parse_bench, text)
    problems = []
    if again != locked:
        problems.append("parse(serialize(locked)) != locked")
    try:
        call("netlist.validate_key", validate_key, again, key)
    except VtcamoError as exc:
        problems.append(f"validate_key: {exc}")
    cost = call("camouflage.overhead_report", overhead_report, again)
    if cost.camo_count != len(selected):
        problems.append(f"camo_count {cost.camo_count} != {len(selected)}")
    verdict = call("netlist.check_equivalence", check_equivalence, net, again,
                   None, key, mode="random", num_vectors=16, seed=job.seed)
    if not verdict.equivalent:
        problems.append("locked netlist not equivalent on random vectors")
    bench_path = os.path.join(workdir, "locked.bench")
    key_path = os.path.join(workdir, "locked.key")
    out_path = os.path.join(workdir, "report.json")
    key_text = key.serialize()
    with open(bench_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(key_path, "w", encoding="utf-8") as fh:
        fh.write(key_text)
    code = call("cli.main", cli.main, ["report", bench_path, "--key", key_path,
                                       "--no-timestamp", "--out", out_path])
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if code != 0 or report["overhead"]["camo_count"] != len(selected):
        problems.append(f"cli report exit {code}")
    report.pop("file")  # the path depends on the checkout
    items = [selected, key_text, verdict.vectors_checked, report]
    counts = {"netlist.vectors_checked": verdict.vectors_checked,
              "camouflage.selected_gates": len(selected)}
    return JobResult(not problems, items, counts, "; ".join(problems))


def _sweep_range(center: float) -> tuple[float, float]:
    lo = round(center - 0.075, 2)
    return lo, round(lo + 0.15, 2)


def run_device_job(job: DeviceJob, call=direct_call) -> JobResult:
    """VT sweep, bias search, signatures and template classification."""
    p = job.params
    bias = default_bias(p)
    rows = call("device.sweep_vt_window", sweep_vt_window,
                _sweep_range(p.delta_hvt), _sweep_range(p.delta_lvt), 0.05,
                bias, p.t_ref, p)
    opt = call("device.optimize_bias", optimize_bias, p, 0.05)
    problems = []
    if len(rows) != 16:
        problems.append(f"sweep gave {len(rows)} rows, grid has 16")
    if not opt.delay_opt_s <= opt.delay_default_s:
        problems.append("optimized delay exceeds default delay")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BiasClampWarning)
        measured = call("sidechannel.measure_signature", measure_signature,
                        job.net, job.key, params=p, bias_policy=job.policy)
        guesses = []
        for i, gid in enumerate(sorted(measured)):
            templates = call("sidechannel.template_signatures",
                             template_signatures, CellFlavor.CAMO8,
                             params=p, bias_policy=job.policy)
            noisy = add_measurement_noise(measured[gid], 0.05,
                                          seed=job.noise_seed + i)
            guess = call("sidechannel.classify_function", classify_function,
                         noisy, templates)
            guesses.append(guess.function.value)
    correct = sum(g == job.key.entries[gid].function.value
                  for g, gid in zip(guesses, sorted(measured)))
    items = [sweep_to_csv(rows), repr(opt), guesses]
    # bias search visits len(offsets)**4 points; window 0.05 / step 0.05 -> 3
    counts = {"device.grid_points": len(rows) + 3 ** 4,
              "sidechannel.correct": correct,
              "sidechannel.classified": len(guesses)}
    return JobResult(not problems, items, counts, "; ".join(problems))
