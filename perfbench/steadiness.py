"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload attack --seeds 1-10 --seconds 20

For every end-to-end metric it prints the median, the quartiles and the
distance between the first and third quartile as a share of the median,
for the normalised figures and for the raw wall figures kept in the run
records, so the effect of the normalisation is visible.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _row(name: str, values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name:<22} median {statistics.median(values):12.5g}  "
            f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {quartile_spread(values):7.2%}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="range lo-hi, inclusive")
    p.add_argument("--seconds", type=int, required=True)
    args = p.parse_args(argv)
    results, raws = [], []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             cwd=HERE.parent, timeout=600).stdout
        result = json.loads(out.splitlines()[-1])
        records = (HERE / "runs" / "records.jsonl").read_text().splitlines()
        raws.append(json.loads(records[-1])["raw"])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} {values}", flush=True)
    print(f"-- {args.workload}, {len(results)} runs, normalised")
    for name in results[0]["metrics"]:
        print(_row(name, [r["metrics"][name]["value"] for r in results]))
    print("-- raw wall figures")
    for name in raws[0]:
        print(_row(name, [r[name] for r in raws]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
