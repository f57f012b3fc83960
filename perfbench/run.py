"""Closed-loop benchmark of vtcamo: attack, lock and device workloads.

Run from the repository root:

    python3 perfbench/run.py --workload attack --seed 1 --seconds 25 --trace 0

One client runs a seeded job list, one job after another. The list is
split round-robin over WORKERS fresh interpreters started one at a time,
so each run averages over several process start-ups and memory layouts;
each worker's start-up (interpreter, ``vtcamo`` import, input
generation) is one set-up sample. Around every job the reference kernel
(refkernel.py) measures host speed, and each job's wall time is
normalised by it (measure.normalise).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: every worker runs its jobs untraced and then traced,
and the spans of the traced pass give each layer's self time. The last
line of standard output is one JSON object. A record of the run, with
the raw wall figures beside the normalised ones, is appended to
perfbench/runs/records.jsonl; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from refkernel import timed_kernel  # noqa: E402

#: Fresh interpreters per run, started one after another.
WORKERS = 5
#: Longest a single worker may take, in seconds.
WORKER_TIMEOUT_S = 150

END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_SPANS = (
    "netlist.check_equivalence", "netlist.parse_bench",
    "netlist.serialize_bench", "camouflage.select_gates",
    "camouflage.apply_camouflage", "camouflage.overhead_report",
    "attack.sensitization_attack", "attack.brute_force_attack",
    "attack.find_sensitizing_vector", "attack.oracle",
    "device.optimize_bias", "device.sweep_vt_window",
    "sidechannel.template_signatures", "sidechannel.measure_signature",
    "sidechannel.classify_function", "cli.main",
)
COUNTS = ("netlist.vectors_checked", "camouflage.selected_gates",
          "attack.oracle_queries", "device.grid_points")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("attack", "lock", "device"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _check_checkout() -> None:
    if not (SRC / "vtcamo" / "__init__.py").is_file():
        raise SystemExit(f"error: no vtcamo sources under {SRC}; run from "
                         f"the root of a checkout of the repository")


# --- worker process ---------------------------------------------------------

def _run_pass(run_one, jobs, indices, tracer=None) -> dict:
    """Run ``jobs[i]`` for i in ``indices`` in order, bracketed by kernels."""
    out = {"index": [], "wall": [], "factor": [], "refs": [], "failures": [],
           "counts": {}, "digests": []}
    ref_before = timed_kernel()
    out["refs"].append(ref_before)
    for i in indices:
        if tracer is not None:
            tracer.job = i
        with measure.SliceSampler(tracer) as sampler:
            start = time.perf_counter()
            try:
                result = run_one(jobs[i], tracer)
                problem = result.problem
            except Exception as exc:  # a job that raises is a failed operation
                result, problem = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        wall -= sum(sampler.samples)
        ref_after = timed_kernel()
        out["index"].append(i)
        out["wall"].append(wall)
        out["factor"].append(measure.normalise(1.0, ref_before, ref_after,
                                               sampler.samples))
        out["refs"].append(ref_after)
        ref_before = ref_after
        if result is None or not result.ok:
            out["failures"].append([i, problem])
        if result is None:
            out["digests"].append(f"failed {i}")
            continue
        for name, value in result.counts.items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        items = json.dumps(result.digest_items, default=str).encode()
        out["digests"].append(hashlib.sha256(items).hexdigest())
    return out


def _worker(args) -> int:
    """One fresh interpreter: set up, then run every WORKERS-th job."""
    with measure.SliceSampler() as sampler:
        sys.path.insert(0, str(SRC))
        import workloads
        n = workloads.job_count(args.workload, args.seconds)
        jobs = workloads.build_jobs(args.workload, args.seed, n)
        ready = time.perf_counter()
    ref_after_setup = timed_kernel()
    indices = list(range(args.worker, n, WORKERS))
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = measure.Tracer() if args.trace else None

    def run_one(job, trace):
        call = trace.call if trace is not None else workloads.direct_call
        if args.workload == "attack":
            wrap = trace.wrap_oracle if trace is not None else None
            return workloads.run_attack_job(job, call, wrap)
        if args.workload == "lock":
            return workloads.run_lock_job(job, str(workdir), call)
        return workloads.run_device_job(job, call)

    try:
        warm = _run_pass(run_one, jobs, indices[:1])
        timed = _run_pass(run_one, jobs, indices)
        traced = _run_pass(run_one, jobs, indices, tracer) if tracer else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump({"ready": ready, "ref_after_setup": ref_after_setup,
               "setup_slices": sampler.samples,
               "warm_digest": warm["digests"][:1],
               "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024,
               "timed": timed, "traced": traced,
               "spans": tracer.table() if tracer else []}, sys.stdout)
    return 0


# --- parent process -----------------------------------------------------------

def _spawn_workers(args) -> list[dict]:
    results = []
    for w in range(WORKERS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--worker",
               str(w)]
        ref_before = timed_kernel()
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: worker {w} exited {proc.returncode}")
        data = json.loads(proc.stdout)
        slices = data.pop("setup_slices")
        setup_wall = data["ready"] - spawned - sum(slices)
        data["setup_wall"] = setup_wall
        data["setup_norm"] = measure.normalise(
            setup_wall, ref_before, data["ref_after_setup"], slices)
        results.append(data)
    return results


def _merge(parts: list[dict], n: int) -> dict:
    """Gather the workers' passes into job-index order."""
    merged = {"wall": [0.0] * n, "factor": [0.0] * n, "digests": [""] * n,
              "refs": [], "failures": [], "counts": {}}
    for part in parts:
        for k, i in enumerate(part["index"]):
            merged["wall"][i] = part["wall"][k]
            merged["factor"][i] = part["factor"][k]
            merged["digests"][i] = part["digests"][k]
        merged["refs"] += part["refs"]
        merged["failures"] += part["failures"]
        for name, value in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
    merged["norm"] = [w * f for w, f in zip(merged["wall"], merged["factor"])]
    merged["failures"].sort()
    merged["digest"] = hashlib.sha256(
        "".join(merged["digests"]).encode()).hexdigest()
    return merged


def _merge_spans(results: list[dict]) -> list[list]:
    spans = []
    for data in results:
        offset = len(spans)
        for name, start, end, parent, job in data["spans"]:
            spans.append([name, start, end,
                          None if parent is None else parent + offset, job])
    return spans


def _layer_metrics(spans, traced: dict, timed: dict) -> dict:
    own = measure.self_times(spans)
    factor = traced["factor"]
    totals: dict[str, float] = {}
    for (name, _, _, _, job), self_s in zip(spans, own):
        if name != measure.SLICE_SPAN:
            totals[name] = totals.get(name, 0.0) + self_s * factor[job]
    values = {f"{name}.self_s": totals.get(name, 0.0) for name in LAYER_SPANS}
    c = traced["counts"]
    for name in COUNTS:
        values[name] = c.get(name, 0)
    values["attack.resolved_ratio"] = (
        c["attack.resolved"] / c["attack.attempted"]
        if c.get("attack.attempted") else 0.0)
    values["sidechannel.accuracy"] = (
        c["sidechannel.correct"] / c["sidechannel.classified"]
        if c.get("sidechannel.classified") else 0.0)
    traced_total, timed_total = sum(traced["norm"]), sum(timed["norm"])
    values["unattributed_s"] = traced_total - sum(totals.values())
    values["trace_overhead"] = (traced_total - timed_total) / timed_total

    def unit(name):
        if name.endswith("_s"):
            return "s"
        return "count" if name in COUNTS else "ratio"
    return {name: {"value": v, "unit": unit(name)} for name, v in values.items()}


def _check_digest(record: dict) -> str:
    """Compare with earlier runs of the same job list; '' when consistent."""
    path = RUNS / "records.jsonl"
    if not path.exists():
        return ""
    for line in path.read_text().splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        same = all(old.get(k) == record[k]
                   for k in ("workload", "seed", "jobs", "src_hash"))
        if same and old.get("digest") != record["digest"]:
            return (f"output digest {record['digest'][:16]} differs from "
                    f"{old['digest'][:16]} of an earlier run of the same code")
    return ""


def _src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vtcamo").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".bench"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    args = _parse_args(argv)
    _check_checkout()
    if args.worker is not None:
        return _worker(args)
    RUNS.mkdir(exist_ok=True)
    results = _spawn_workers(args)
    n = sum(len(d["timed"]["index"]) for d in results)
    timed = _merge([d["timed"] for d in results], n)

    problems = [f"job {i}: {p}" for i, p in timed["failures"]]
    for d in results:
        first = d["timed"]["index"][:1]
        if d["warm_digest"] != [timed["digests"][i] for i in first]:
            problems.append(f"warm-up and timed runs of job {first} differ")
    norm_ms = [t * 1e3 for t in timed["norm"]]
    tail_ms, pct, beyond = measure.tail(norm_ms)
    setup_norm = [d["setup_norm"] for d in results]
    end_to_end = {
        "jobs_per_s": n / sum(timed["norm"]),
        "job_p50_ms": measure.quantile(norm_ms, 50),
        "job_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": max(d["maxrss_mb"] for d in results),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "jobs": n,
        "seconds": args.seconds, "trace": args.trace, "workers": WORKERS,
        "src_hash": _src_hash(), "digest": timed["digest"],
        "metrics": end_to_end,
        "tail": {"percentile": pct, "samples_beyond": beyond, "samples": n},
        "nearest_rank_ms": {"p50": statistics.median(norm_ms),
                            "tail": sorted(norm_ms)[n - beyond - 1]},
        "raw": {"jobs_per_s": n / sum(timed["wall"]),
                "job_p50_ms": measure.quantile(timed["wall"], 50) * 1e3,
                "job_tail_ms": measure.tail(
                    [t * 1e3 for t in timed["wall"]])[0],
                "setup_s": statistics.median(d["setup_wall"]
                                             for d in results)},
        "setup_samples_s": setup_norm,
        "job_norm_ms": [round(t, 3) for t in norm_ms],
        "job_wall_ms": [round(t * 1e3, 3) for t in timed["wall"]],
        "ref_ms_median": statistics.median(timed["refs"]) * 1e3,
        "r_nominal_ms": measure.R_NOMINAL_S * 1e3,
        "python": sys.version.split()[0],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    mismatch = _check_digest(record)
    if mismatch:
        problems.append(mismatch)
    if args.trace:
        traced = _merge([d["traced"] for d in results], n)
        if traced["digest"] != timed["digest"]:
            problems.append("traced pass gave different outputs")
        spans = _merge_spans(results)
        metrics = _layer_metrics(spans, traced, timed)
        record["layers"] = {k: v["value"] for k, v in metrics.items()}
        spans_path = RUNS / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end.items()}
    record["problems"] = problems
    with open(RUNS / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for p in problems:
        print(f"problem: {p}")
    print(f"{args.workload} seed {args.seed}: {n} jobs, tail p{pct} with "
          f"{beyond} beyond; ref kernel median {record['ref_ms_median']:.3f} "
          f"ms; digest {timed['digest'][:16]}")
    print(json.dumps({"correct": not problems, "attempted": n,
                      "failed": len(timed["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
