"""Export this checkout's benchmark runs as ``BENCH_<label>.json``.

Run every workload of ``BENCHMARK.json`` untraced and traced, with one
seed, then export::

    for w in attack lock device; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 3 --seconds 20 --trace $t
    done; done
    python3 tools/bench_export.py baseline   # writes BENCH_baseline.json

The tool reads ``perfbench/runs/records.jsonl`` and keeps the records
whose ``src_hash`` is the checkout's and that name no problem. For each
workload it takes the latest untraced record for the end-to-end metrics
and the latest traced one for the per-layer metrics, and writes them
with the job digest, seed, job count and run length, beside the source
hash and the host: Python version, vCPU count and CPU model. Standard
library only. Exit status: 1, with one line, when a workload has no
such record; 2 without a label; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import RUNS, _src_hash  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def export(label: str) -> Path:
    """Write ``BENCH_<label>.json``; LookupError names a missing record."""
    src_hash = _src_hash()
    path = RUNS / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines() \
        if path.exists() else []
    latest = {}
    for line in lines:
        record = json.loads(line)
        if record["src_hash"] == src_hash and not record["problems"]:
            latest[record["workload"], record["trace"]] = record
    workloads, pythons = {}, set()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            if (name, trace) not in latest:
                raise LookupError(f"no --trace {trace} record of {name} for "
                                  f"source hash {src_hash} in {path.relative_to(ROOT)}")
        untraced, traced = latest[name, 0], latest[name, 1]
        pythons |= {untraced["python"], traced["python"]}
        workloads[name] = {key: untraced[key] for key in
                           ("seed", "jobs", "seconds", "digest")}
        workloads[name].update(end_to_end=untraced["metrics"],
                               per_layer=traced["layers"])
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "label": label, "src_hash": src_hash,
        "host": {"python": ", ".join(sorted(pythons)),
                 "vcpus": os.cpu_count(), "cpu_model": _cpu_model()},
        "workloads": workloads}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bench_export.py LABEL")
        return 2
    try:
        out = export(argv[0])
    except LookupError as exc:
        print(f"error: {exc}")
        return 1
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
