"""Command line interface.

Every subcommand emits a JSON report on stdout (or to --out) and exits 0
on success. Domain failures, malformed inputs, missing files, bad keys,
oversized attacks, print a one-line JSON error object to stderr and exit
1; argparse usage errors exit 2 as usual. Output files are written to a
temporary name and renamed into place so a crash cannot leave a partial
file, and reruns with --no-timestamp are byte-identical for the same
inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

from . import attack as attack_mod
from . import sidechannel as side_mod
from .camouflage import (
    SelectionPolicy,
    apply_camouflage,
    effort_estimate,
    overhead_report,
    select_gates,
)
from .cell import CellFlavor, GateFunction
from .config import RunConfig, load_config
from .device import BiasPoint, default_bias, optimize_bias, sweep_to_csv, sweep_vt_window
from .errors import VtcamoError
from .netlist import (
    CamoKey,
    Netlist,
    check_equivalence,
    parse_bench,
    serialize_bench,
    simulate,
    validate_key,
)

_FLAVORS = {f.value.lower(): f for f in CellFlavor}
_STRATEGIES = {
    "random": "random",
    "xor-seq": "xor_sequence",
    "off-critical": "off_critical",
    "greedy-effort": "greedy_effort",
}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, args) -> None:
    if not getattr(args, "no_timestamp", False):
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    out = getattr(args, "out", None)
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_net(path: str) -> Netlist:
    return parse_bench(_read_text(path))


def _load_key(path: str) -> CamoKey:
    return CamoKey.deserialize(_read_text(path))


def _config_for(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "jobs", None) is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    return cfg


def _vector_arg(raw: str, width: int) -> tuple[int, ...]:
    bits = raw.strip()
    if len(bits) != width or any(c not in "01" for c in bits):
        raise VtcamoError(
            f"input vector must be {width} bits of 0/1, got {raw!r}")
    return tuple(int(c) for c in bits)


def _net_summary(net: Netlist) -> dict:
    return {
        "inputs": list(net.inputs),
        "outputs": list(net.outputs),
        "gate_count": len(net.gates),
        "camo_count": len(net.camo_gates()),
        "pseudo_inputs": list(net.pseudo_inputs),
        "pseudo_outputs": list(net.pseudo_outputs),
        "depth": max(net.levels().values(), default=0),
    }


def _cmd_parse(args) -> int:
    net = _load_net(args.bench)
    _emit({"command": "parse", "file": args.bench,
           "netlist": _net_summary(net)}, args)
    return 0


def _cmd_lock(args) -> int:
    cfg = _config_for(args)
    net = _load_net(args.bench)
    flavor = _FLAVORS[args.flavor]
    policy = SelectionPolicy(strategy=_STRATEGIES[args.strategy],
                             budget=args.budget,
                             delay_budget=args.delay_budget,
                             seed=cfg.seed)
    selected = select_gates(net, policy, cost_table=cfg.cost, flavor=flavor)
    locked, key = apply_camouflage(net, selected, flavor,
                                   decoy_seed=cfg.seed)
    _write_atomic(args.locked_out, serialize_bench(locked))
    _write_atomic(args.key_out, key.serialize())
    overhead = overhead_report(locked, cfg.cost)
    _emit({
        "command": "lock",
        "file": args.bench,
        "flavor": args.flavor,
        "strategy": args.strategy,
        "seed": cfg.seed,
        "selected_gates": list(selected),
        "locked_file": args.locked_out,
        "key_file": args.key_out,
        "overhead": {
            "area_pct": overhead.area_pct,
            "power_pct": overhead.power_pct,
            "delay_pct": overhead.delay_pct,
        },
        "config": cfg.resolved_dict(),
    }, args)
    return 0


def _cmd_sim(args) -> int:
    net = _load_net(args.bench)
    key = _load_key(args.key) if args.key else None
    if key is not None:
        validate_key(net, key)
    results = []
    for raw in args.inputs:
        vec = _vector_arg(raw, len(net.inputs))
        out = simulate(net, vec, key)
        results.append({"inputs": "".join(map(str, vec)),
                        "outputs": "".join(map(str, out))})
    _emit({"command": "sim", "file": args.bench,
           "results": results}, args)
    return 0


def _cmd_equiv(args) -> int:
    cfg = _config_for(args)
    net_a = _load_net(args.bench_a)
    net_b = _load_net(args.bench_b)
    key_a = _load_key(args.key_a) if args.key_a else None
    key_b = _load_key(args.key_b) if args.key_b else None
    verdict = check_equivalence(net_a, net_b, key_a=key_a, key_b=key_b,
                                mode=args.mode, num_vectors=args.vectors,
                                seed=cfg.seed)
    report = {
        "command": "equiv",
        "mode": args.mode,
        "seed": cfg.seed,
        "equivalent": verdict.equivalent,
        "vectors_checked": verdict.vectors_checked,
    }
    if not verdict.equivalent:
        report["counterexample"] = {
            "inputs": "".join(map(str, verdict.counterexample)),
            "outputs_a": "".join(map(str, verdict.outputs_a)),
            "outputs_b": "".join(map(str, verdict.outputs_b)),
        }
    _emit(report, args)
    return 0


def _cmd_attack(args) -> int:
    cfg = _config_for(args)
    net = _load_net(args.bench)
    key = _load_key(args.key)
    validate_key(net, key)
    oracle = attack_mod.CountingOracle(net, key)
    if args.method == "brute":
        report = attack_mod.brute_force_attack(
            net, oracle, pattern_source=args.pattern_source,
            query_budget=args.budget, seed=cfg.seed)
    else:
        report = attack_mod.sensitization_attack(
            net, oracle, flavor_knowledge=not args.no_flavor_knowledge,
            query_budget=args.budget)
    resolved = {gid: sorted(f.value for f in funcs)
                for gid, funcs in report.resolved.items()}
    true_key_survives = all(
        key.entries[gid].function.value in funcs
        for gid, funcs in resolved.items())
    _emit({
        "command": "attack",
        "method": args.method,
        "seed": cfg.seed,
        "status": report.status,
        "query_count": report.query_count,
        "candidate_space_log2_initial": report.candidate_space_log2_initial,
        "candidate_space_log2_final": report.candidate_space_log2_final,
        "resolved": resolved,
        "true_key_survives": true_key_survives,
    }, args)
    return 0


def _cmd_sidechannel(args) -> int:
    cfg = _config_for(args)
    net = _load_net(args.bench)
    key = _load_key(args.key)
    validate_key(net, key)
    balance_info = None
    if args.balance:
        net, key, bal = side_mod.balance_flavors(net, key)
        balance_info = {
            "added": {gid: func.value for gid, func in sorted(bal.added.items())},
            "counts_after": {f.value: c for f, c
                             in sorted(bal.counts_after.items(),
                                       key=lambda kv: kv[0].value)},
        }
    temps = tuple(float(t) for t in args.temps.split(","))
    policy = args.bias_policy.replace("-", "_")
    mode = args.mode.replace("-", "_")
    sigs = side_mod.measure_signature(net, key, mode=mode,
                                      temperatures=temps,
                                      params=cfg.device, bias_policy=policy)
    if args.noise > 0:
        sigs = {gid: side_mod.add_measurement_noise(s, args.noise,
                                                    seed=cfg.seed + i)
                for i, (gid, s) in enumerate(sorted(sigs.items()))}
    report = {
        "command": "sidechannel",
        "mode": args.mode,
        "bias_policy": args.bias_policy,
        "temperatures": list(temps),
        "noise_sigma": args.noise,
        "seed": cfg.seed,
        "config": cfg.resolved_dict(),
    }
    if balance_info:
        report["balance"] = balance_info
    if mode == "per_gate":
        classifications = {}
        correct = 0
        graded = 0
        for gid in sorted(sigs):
            gate = net.gate(gid)
            templates = side_mod.template_signatures(
                gate.flavor, temperatures=temps, params=cfg.device,
                bias_policy=policy)
            cls = side_mod.classify_function(sigs[gid], templates)
            truth = key.entries[gid].function
            classifications[gid] = {
                "guess": cls.function.value,
                "confidence": cls.confidence,
                "actual": truth.value,
                "correct": cls.function is truth,
            }
            graded += 1
            correct += cls.function is truth
        report["classification"] = classifications
        report["accuracy"] = correct / graded if graded else None
    else:
        sig = sigs["aggregate"]
        report["aggregate"] = [
            {"vector": "".join(map(str, o.vector)), "t": o.temperature,
             "leakage_a": o.leakage_a, "delay_s": o.delay_s}
            for o in sig.observations]
    _emit(report, args)
    return 0


def _parse_range(raw: str) -> tuple[float, float]:
    lo, _, hi = raw.partition(":")
    return (float(lo), float(hi))


def _cmd_sweep(args) -> int:
    cfg = _config_for(args)
    bias = default_bias(cfg.device)
    if args.vg_n is not None or args.vg_p is not None:
        bias = BiasPoint(args.vg_n if args.vg_n is not None else bias.vg_n,
                         args.vg_p if args.vg_p is not None else bias.vg_p)
    rows = sweep_vt_window(_parse_range(args.hvt), _parse_range(args.lvt),
                           args.step, bias, args.t, cfg.device)
    csv = sweep_to_csv(rows)
    if args.out:
        _write_atomic(args.out, csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_bias_opt(args) -> int:
    cfg = _config_for(args)
    best = optimize_bias(cfg.device, search_window=args.window,
                         grid_step=args.step, t=args.t)
    _emit({
        "command": "bias-opt",
        "vg_n": best.bias.vg_n,
        "vg_p": best.bias.vg_p,
        "delta_hvt": best.delta_hvt,
        "delta_lvt": best.delta_lvt,
        "delay_default_s": best.delay_default_s,
        "delay_opt_s": best.delay_opt_s,
        "delay_gain": best.delay_gain,
        "config": cfg.resolved_dict(),
    }, args)
    return 0


def _cmd_estimate(args) -> int:
    est = effort_estimate(args.inputs, args.gates, args.functions,
                          test_frequency_hz=args.freq)
    _emit({
        "command": "estimate",
        "pattern_count": str(est.pattern_count),
        "candidate_count": str(est.candidate_count),
        "seconds_raw": est.seconds_raw,
        "seconds_retest": est.seconds_retest,
        "years_raw": est.years_raw,
        "years_retest": est.years_retest,
        "note": est.note,
    }, args)
    return 0


def _cmd_report(args) -> int:
    cfg = _config_for(args)
    net = _load_net(args.bench)
    key = _load_key(args.key) if args.key else None
    if key is not None:
        validate_key(net, key)
    overhead = overhead_report(net, cfg.cost)
    camo = net.camo_gates()
    functions = max((len(g.flavor.function_set) for g in camo), default=0)
    est = effort_estimate(len(net.inputs), len(camo), max(functions, 1))
    _emit({
        "command": "report",
        "file": args.bench,
        "netlist": _net_summary(net),
        "overhead": {
            "area_pct": overhead.area_pct,
            "power_pct": overhead.power_pct,
            "delay_pct": overhead.delay_pct,
            "camo_count": overhead.camo_count,
        },
        "effort": {
            "pattern_count": str(est.pattern_count),
            "candidate_count": str(est.candidate_count),
            "years_raw": est.years_raw,
            "years_retest": est.years_retest,
        },
        "config": cfg.resolved_dict(),
    }, args)
    return 0


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--jobs", type=int,
                   help="worker count (results are deterministic and "
                        "ordered regardless)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit generated_at so reruns are byte-identical")
    if out:
        p.add_argument("--out", help="write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtcamo",
        description="Threshold-programmed camouflaged logic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a .bench file and summarize it")
    p.add_argument("bench")
    _add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("lock", help="select and camouflage gates")
    p.add_argument("bench")
    p.add_argument("--flavor", choices=sorted(_FLAVORS), default="camo8")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES),
                   default="random")
    p.add_argument("--budget", type=float, default=0.05,
                   help="fraction of gates to camouflage (>=1 means all "
                        "eligible)")
    p.add_argument("--delay-budget", type=float, default=0.05,
                   help="allowed critical path growth for greedy-effort")
    p.add_argument("--out-bench", dest="locked_out", required=True,
                   help="path for the locked netlist")
    p.add_argument("--out-key", dest="key_out", required=True,
                   help="path for the key file")
    _add_common(p)
    p.set_defaults(func=_cmd_lock)

    p = sub.add_parser("sim", help="simulate vectors through a netlist")
    p.add_argument("bench")
    p.add_argument("--key", help="key file for camouflaged gates")
    p.add_argument("--inputs", action="append", required=True,
                   help="bit string, one per flag occurrence")
    _add_common(p)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("equiv", help="check two netlists for equivalence")
    p.add_argument("bench_a")
    p.add_argument("bench_b")
    p.add_argument("--key-a")
    p.add_argument("--key-b")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--vectors", type=int, default=10000,
                   help="sample size for random mode")
    _add_common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("attack", help="run a reverse engineering attack")
    p.add_argument("bench", help="locked netlist (the oracle is built "
                                 "from it plus --key)")
    p.add_argument("--key", required=True)
    p.add_argument("--method", choices=("brute", "sensitization"),
                   default="sensitization")
    p.add_argument("--pattern-source", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=None,
                   help="maximum oracle queries")
    p.add_argument("--no-flavor-knowledge", action="store_true",
                   help="attacker does not know each cell's flavor")
    _add_common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sidechannel",
                       help="side channel measurement and classification")
    p.add_argument("bench")
    p.add_argument("--key", required=True)
    p.add_argument("--mode", choices=("per-gate", "aggregate-only"),
                   default="per-gate")
    p.add_argument("--temps", default="250,300,350",
                   help="comma separated temperatures in kelvin")
    p.add_argument("--bias-policy",
                   choices=("fixed", "thermal-compensated"),
                   default="fixed")
    p.add_argument("--noise", type=float, default=0.0,
                   help="lognormal measurement noise sigma")
    p.add_argument("--balance", action="store_true",
                   help="insert balancing dummies before measuring")
    _add_common(p)
    p.set_defaults(func=_cmd_sidechannel)

    p = sub.add_parser("sweep", help="ratio/delay sweep over VT offsets")
    p.add_argument("--hvt", required=True, help="range lo:hi in volts")
    p.add_argument("--lvt", required=True, help="range lo:hi in volts")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--t", type=float, default=300.0)
    p.add_argument("--vg-n", type=float, default=None)
    p.add_argument("--vg-p", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bias-opt", help="search for a faster bias point")
    p.add_argument("--window", type=float, default=0.1)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--t", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_bias_opt)

    p = sub.add_parser("estimate", help="brute force effort estimate")
    p.add_argument("--inputs", type=int, required=True)
    p.add_argument("--gates", type=int, required=True)
    p.add_argument("--functions", type=int, default=8)
    p.add_argument("--freq", type=float, default=1e9)
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("report", help="combined netlist/overhead report")
    p.add_argument("bench")
    p.add_argument("--key")
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VtcamoError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
