"""Command line interface.

The subcommands are declared once, in ``COMMANDS``: handler, help line
and argument specs, then the common --config, --seed, --no-timestamp and
--out options. A call builds only the subparser its first argument names
(every one when it names none). ``main`` loads the run config (--config,
then --seed), refuses an option given under any but the one value of
another that ``_APPLIES_UNDER`` names, and hands config and arguments to
the handler; ``main`` emits its report with its ``command`` as JSON on
stdout (or to --out) with exit 0; ``sweep`` writes its CSV itself.
Domain failures, malformed inputs, missing files, bad keys, oversized
attacks, print a one-line JSON error to stderr and exit 1; argparse
usage errors print usage to stderr and exit 2. Output files are renamed
into place from a temporary name, so a crash leaves no partial file, and
reruns with --no-timestamp are byte-identical for the same inputs.

Importing this module loads the cell, device, netlist, camouflage and
config layers, which ``COMMANDS`` and ``RunConfig`` need; the attack and
side-channel layers load only when ``attack`` or ``sidechannel`` runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

from .camouflage import (SelectionPolicy, apply_camouflage, effort_estimate,
                         overhead_report, select_gates)
from .config import FLAVOR_NAMES, RunConfig, load_config
from .device import default_bias, optimize_bias, sweep_to_csv, sweep_vt_window
from .errors import (FlavorMismatchError, InvalidParameterError,
                     InvalidPolicyError, VtcamoError)
from .netlist import (
    CamoKey,
    CountingOracle,
    Netlist,
    check_equivalence,
    parse_bench,
    serialize_bench,
    validate_key,
)

#: Most digits of a printed effort count (CPython's int-to-str limit).
MAX_COUNT_DIGITS = 4300
_STRATEGIES = {
    "random": "random",
    "xor-seq": "xor_sequence",
    "off-critical": "off_critical",
    "greedy-effort": "greedy_effort",
}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, args) -> None:
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    try:
        text = json.dumps(report, indent=2, sort_keys=True, default=str,
                          allow_nan=False)
    except ValueError:  # JSON has no Infinity or NaN
        raise InvalidParameterError(
            "the report holds a figure that is not finite") from None
    _write(text + "\n", args.out)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_net(path: str) -> Netlist:
    return parse_bench(_read_text(path))


def _load_key(path: str) -> CamoKey:
    return CamoKey.deserialize(_read_text(path))


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
        "depth": max(net._depths(), default=0),
    }


def _given(args, *options: str) -> dict:
    """The options given, by dest: neither None nor (by identity) False."""
    found = {o: getattr(args, o, None) for o in options}
    return {o: v for o, v in found.items() if v is not None and v is not False}


def _overhead(report) -> dict:
    """The overhead percentages, refusing one that overflowed a float."""
    figures = {"area_pct": report.area_pct, "power_pct": report.power_pct,
               "delay_pct": report.delay_pct}
    for name, x in figures.items():
        if not math.isfinite(x):
            raise InvalidParameterError(
                f"overhead {name} overflows: a cost multiple is too large")
    return figures


def _cmd_parse(args, cfg) -> dict:
    return {"file": args.bench, "netlist": _net_summary(_load_net(args.bench))}


def _cmd_lock(args, cfg) -> dict:
    outs = [os.path.realpath(p) for p in (args.locked_out, args.key_out,
                                          args.out) if p]
    if len(set(outs)) < len(outs):  # a later write would replace the file
        raise InvalidParameterError("each output option needs its own file")
    net = _load_net(args.bench)
    flavor = FLAVOR_NAMES[args.flavor]
    policy = SelectionPolicy(strategy=_STRATEGIES[args.strategy],
                             budget=args.budget, seed=cfg.seed,
                             **_given(args, "delay_budget"))
    camo = [g.gate_id for g in net.camo_gates()]
    if camo:  # a new key could not cover these cells
        raise FlavorMismatchError(f"gates {camo!r} are already camouflaged")
    selected = select_gates(net, policy, cost_table=cfg.cost, flavor=flavor)
    if not selected:  # a key that hides nothing
        raise InvalidPolicyError(
            f"--flavor {args.flavor}, --strategy {args.strategy} and "
            f"--budget {args.budget} select no gate to camouflage")
    locked, key = apply_camouflage(net, selected, flavor,
                                   decoy_seed=cfg.seed)
    # before any write, so a refused overhead leaves no file
    overhead = _overhead(overhead_report(locked, cfg.cost))
    _write_atomic(args.locked_out, serialize_bench(locked))
    _write_atomic(args.key_out, key.serialize())
    return {
        "file": args.bench,
        "flavor": args.flavor,
        "strategy": args.strategy,
        "seed": cfg.seed,
        "selected_gates": list(selected),
        "locked_file": args.locked_out,
        "key_file": args.key_out,
        "overhead": overhead,
        "config": cfg.resolved_dict(),
    }


def _cmd_sim(args, cfg) -> dict:
    net = _load_net(args.bench)
    key = _load_key(args.key) if args.key else None
    results, query = [], None
    for raw in args.inputs:
        vec = _vector_arg(raw, len(net.inputs))
        if query is None:  # after the first vector, so its error comes first
            query = CountingOracle(net, key)
        out = query(vec)
        results.append({"inputs": "".join(map(str, vec)),
                        "outputs": "".join(map(str, out))})
    return {"file": args.bench, "results": results}


def _cmd_equiv(args, cfg) -> dict:
    net_a = _load_net(args.bench_a)
    net_b = _load_net(args.bench_b)
    key_a = _load_key(args.key_a) if args.key_a else None
    key_b = _load_key(args.key_b) if args.key_b else None
    vectors = 10000 if args.vectors is None else args.vectors
    verdict = check_equivalence(net_a, net_b, key_a=key_a, key_b=key_b,
                                mode=args.mode, num_vectors=vectors,
                                seed=cfg.seed)
    report = {
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
    return report


def _cmd_attack(args, cfg) -> dict:
    from . import attack as attack_mod

    net = _load_net(args.bench)
    key = _load_key(args.key)
    oracle = CountingOracle(net, key)  # validates the key
    if args.method == "brute":
        report = attack_mod.brute_force_attack(
            net, oracle, query_budget=args.budget, seed=cfg.seed,
            **_given(args, "pattern_source"))
    else:
        report = attack_mod.sensitization_attack(
            net, oracle, flavor_knowledge=not args.no_flavor_knowledge,
            query_budget=args.budget)
    resolved = {gid: sorted(f.value for f in funcs)
                for gid, funcs in report.resolved.items()}
    true_key_survives = all(
        key.entries[gid].function.value in funcs
        for gid, funcs in resolved.items())
    return {
        "method": args.method,
        "seed": cfg.seed,
        "status": report.status,
        "query_count": report.query_count,
        "candidate_space_log2_initial": report.candidate_space_log2_initial,
        "candidate_space_log2_final": report.candidate_space_log2_final,
        "resolved": resolved,
        "true_key_survives": true_key_survives,
    }


def _parse_temps(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in raw.split(","))
    except ValueError:
        raise InvalidParameterError(
            f"temperatures must be comma separated kelvin values, "
            f"got {raw!r}") from None


def _cmd_sidechannel(args, cfg) -> dict:
    from . import sidechannel as side_mod

    # check sigma before any measuring, even where no signature gets noise
    side_mod.add_measurement_noise(side_mod.Signature("", ()), args.noise)
    net = _load_net(args.bench)
    key = _load_key(args.key)
    validate_key(net, key)
    report = {
        "mode": args.mode,
        "bias_policy": args.bias_policy,
        "noise_sigma": args.noise,
        "seed": cfg.seed,
        "config": cfg.resolved_dict(),
    }
    if args.balance:
        net, key, bal = side_mod.balance_flavors(net, key)
        report["balance"] = {
            "added": {gid: func.value for gid, func in sorted(bal.added.items())},
            "counts_after": {f.value: c for f, c
                             in sorted(bal.counts_after.items())},
        }
    temps = (side_mod.DEFAULT_TEMPERATURES if args.temps is None
             else _parse_temps(args.temps))
    report["temperatures"] = list(temps)
    policy = args.bias_policy.replace("-", "_")
    mode = args.mode.replace("-", "_")
    sigs = side_mod.measure_signature(net, key, mode=mode,
                                      temperatures=temps,
                                      params=cfg.device, bias_policy=policy)
    if args.noise > 0:
        sigs = {gid: side_mod.add_measurement_noise(s, args.noise,
                                                    seed=cfg.seed + i)
                for i, (gid, s) in enumerate(sorted(sigs.items()))}
    if mode == "per_gate":
        classifications = {}
        templates = {}
        for gid in sorted(sigs):
            flavor = net.gate(gid).flavor
            if flavor not in templates:
                templates[flavor] = side_mod.template_signatures(
                    flavor, temperatures=temps, params=cfg.device,
                    bias_policy=policy)
            cls = side_mod.classify_function(sigs[gid], templates[flavor])
            truth = key.entries[gid].function
            classifications[gid] = {
                "guess": cls.function.value,
                "confidence": cls.confidence,
                "actual": truth.value,
                "correct": cls.function is truth,
            }
        report["classification"] = classifications
        report["accuracy"] = (
            sum(c["correct"] for c in classifications.values())
            / len(classifications) if classifications else None)
    else:
        sig = sigs["aggregate"]
        report["aggregate"] = [
            {"vector": "".join(map(str, o.vector)), "t": o.temperature,
             "leakage_a": o.leakage_a, "delay_s": o.delay_s}
            for o in sig.observations]
    return report


def _parse_range(raw: str) -> tuple[float, float]:
    lo, colon, hi = raw.partition(":")
    try:
        if colon:
            return (float(lo), float(hi))
    except ValueError:
        pass
    raise InvalidParameterError(f"range must be lo:hi in volts, got {raw!r}")


def _cmd_sweep(args, cfg) -> None:
    bias = dataclasses.replace(default_bias(cfg.device),
                               **_given(args, "vg_n", "vg_p"))
    t = cfg.device.t_ref if args.t is None else args.t
    rows = sweep_vt_window(_parse_range(args.hvt), _parse_range(args.lvt),
                           args.step, bias, t, cfg.device)
    _write(sweep_to_csv(rows), args.out)


def _cmd_bias_opt(args, cfg) -> dict:
    best = optimize_bias(cfg.device, search_window=args.window,
                         grid_step=args.step, t=args.t)
    return {
        "vg_n": best.bias.vg_n,
        "vg_p": best.bias.vg_p,
        "delta_hvt": best.delta_hvt,
        "delta_lvt": best.delta_lvt,
        "delay_default_s": best.delay_default_s,
        "delay_opt_s": best.delay_opt_s,
        "delay_gain": best.delay_gain,
        "config": cfg.resolved_dict(),
    }


def _effort(n_inputs: int, k_camo: int, functions: int, **kwargs):
    """effort_estimate, first refusing counts too long to print."""
    if (n_inputs >= MAX_COUNT_DIGITS / math.log10(2) or functions > 1
            and k_camo >= MAX_COUNT_DIGITS / math.log10(functions)):
        raise InvalidParameterError(
            f"pattern or candidate count exceeds {MAX_COUNT_DIGITS} digits")
    return effort_estimate(n_inputs, k_camo, functions, **kwargs)


def _effort_fields(est, *times: str) -> dict:
    """The exact counts as strings, then the years and ``times`` in JSON:
    null where a figure overflowed a float, as JSON has no Infinity."""
    floats = {k: getattr(est, k) for k in ("years_raw", "years_retest", *times)}
    return {"pattern_count": str(est.pattern_count),
            "candidate_count": str(est.candidate_count),
            **{k: x if math.isfinite(x) else None for k, x in floats.items()}}


def _cmd_estimate(args, cfg) -> dict:
    est = _effort(args.inputs, args.gates, args.functions,
                  test_frequency_hz=args.freq)
    return {**_effort_fields(est, "seconds_raw", "seconds_retest"),
            "note": est.note}


def _cmd_report(args, cfg) -> dict:
    net = _load_net(args.bench)
    if args.key:
        validate_key(net, _load_key(args.key))
    overhead = overhead_report(net, cfg.cost)
    sets = [len(g.flavor.function_set) for g in net.camo_gates()]
    est = _effort(len(net.inputs), 1, math.prod(  # k=1: per-cell set product
        f ** sets.count(f) for f in set(sets)))
    return {
        "file": args.bench,
        "netlist": _net_summary(net),
        "overhead": {**_overhead(overhead), "camo_count": overhead.camo_count},
        "effort": _effort_fields(est),
        "config": cfg.resolved_dict(),
    }


def _arg(*flags, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_COMMON = (
    _arg("--config", help="key=value configuration file"),
    _arg("--seed", type=int, help="override the configured seed"),
    _arg("--no-timestamp", action="store_true",
         help="omit generated_at so reruns are byte-identical"),
    _arg("--out", help="write the JSON report to this file"),
)

#: name -> (handler, help, argument specs); _COMMON follows every entry.
COMMANDS = {
    "parse": (_cmd_parse, "parse a .bench file and summarize it",
              [_arg("bench")]),
    "lock": (_cmd_lock, "select and camouflage gates", [
        _arg("bench"),
        _arg("--flavor", choices=sorted(FLAVOR_NAMES), default="camo8"),
        _arg("--strategy", choices=sorted(_STRATEGIES), default="random"),
        _arg("--budget", type=float, default=SelectionPolicy.budget,
             help="fraction of gates to camouflage, in (0, 1]; 1 means "
                  "every eligible gate"),
        _arg("--delay-budget", type=float,
             help="allowed critical path growth for greedy-effort"),
        _arg("--out-bench", dest="locked_out", required=True,
             help="path for the locked netlist"),
        _arg("--out-key", dest="key_out", required=True,
             help="path for the key file"),
    ]),
    "sim": (_cmd_sim, "simulate vectors through a netlist", [
        _arg("bench"),
        _arg("--key", help="key file for camouflaged gates"),
        _arg("--inputs", action="append", required=True,
             help="bit string, one per flag occurrence"),
    ]),
    "equiv": (_cmd_equiv, "check two netlists for equivalence", [
        _arg("bench_a"), _arg("bench_b"), _arg("--key-a"), _arg("--key-b"),
        _arg("--mode", choices=("exhaustive", "random"),
             default="exhaustive"),
        _arg("--vectors", type=int, help="sample size for random mode"),
    ]),
    "attack": (_cmd_attack, "run a reverse engineering attack", [
        _arg("bench", help="locked netlist (the oracle is built from it "
                           "plus --key)"),
        _arg("--key", required=True),
        _arg("--method", choices=("brute", "sensitization"),
             default="sensitization"),
        _arg("--pattern-source", choices=("exhaustive", "random")),
        _arg("--budget", type=int, help="maximum oracle queries"),
        _arg("--no-flavor-knowledge", action="store_true",
             help="attacker does not know each cell's flavor"),
    ]),
    "sidechannel": (_cmd_sidechannel,
                    "side channel measurement and classification", [
        _arg("bench"),
        _arg("--key", required=True),
        _arg("--mode", choices=("per-gate", "aggregate-only"),
             default="per-gate"),
        _arg("--temps", help="comma separated temperatures in kelvin"),
        _arg("--bias-policy", choices=("fixed", "thermal-compensated"),
             default="fixed"),
        _arg("--noise", type=float, default=0.0,
             help="lognormal measurement noise sigma"),
        _arg("--balance", action="store_true",
             help="insert balancing dummies before measuring"),
    ]),
    "sweep": (_cmd_sweep, "ratio/delay sweep over VT offsets", [
        _arg("--hvt", required=True, help="range lo:hi in volts"),
        _arg("--lvt", required=True, help="range lo:hi in volts"),
        _arg("--step", type=float, default=0.05),
        _arg("--t", type=float),
        _arg("--vg-n", type=float), _arg("--vg-p", type=float),
    ]),
    "bias-opt": (_cmd_bias_opt, "search for a faster bias point", [
        _arg("--window", type=float, default=0.1),
        _arg("--step", type=float, default=0.05),
        _arg("--t", type=float),
    ]),
    "estimate": (_cmd_estimate, "brute force effort estimate", [
        _arg("--inputs", type=int, required=True),
        _arg("--gates", type=int, required=True),
        _arg("--functions", type=int, default=8),
        _arg("--freq", type=float, default=1e9),
    ]),
    "report": (_cmd_report, "combined netlist/overhead report",
               [_arg("bench"), _arg("--key")]),
}

#: option -> (the option it depends on, the one value it applies under)
_APPLIES_UNDER = {"delay_budget": ("strategy", "greedy-effort"),
                  "vectors": ("mode", "random"),
                  "no_flavor_knowledge": ("method", "sensitization"),
                  "pattern_source": ("method", "brute")}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The root parser; only argv's subcommand when argv[0] names one.

    argparse prints an unrecognized-arguments error with the root usage,
    so a one-subcommand parser spells out every choice as its metavar.
    """
    only = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="vtcamo",
        description="Threshold-programmed camouflaged logic toolkit")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(COMMANDS) if only else None)
    for name, (_, help_text, specs) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in (*specs, *_COMMON):
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        for option, (on, value) in _APPLIES_UNDER.items():
            if _given(args, option) and getattr(args, on) != value:
                raise InvalidParameterError(f"--{option.replace('_', '-')} "
                                            f"applies to --{on} {value} only")
        report = COMMANDS[args.command][0](args, cfg)
        if report is not None:
            _emit({"command": args.command, **report}, args)
        return 0
    except (VtcamoError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
