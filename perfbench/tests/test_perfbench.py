"""Tests of the benchmark's own code (not part of the repository's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from vtcamo import CamoKey, KeyEntry, serialize_bench  # noqa: E402


def _fingerprint(workload, jobs):
    if workload == "attack":
        return [(serialize_bench(j.locked), j.key.serialize()) for j in jobs]
    if workload == "lock":
        return [(j.text, j.gates, j.strategy, j.flavor, j.seed) for j in jobs]
    return [(j.params, j.policy, j.noise_seed, serialize_bench(j.net))
            for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = _fingerprint(workload, workloads.build_jobs(workload, 7, 9))
    again = _fingerprint(workload, workloads.build_jobs(workload, 7, 9))
    other = _fingerprint(workload, workloads.build_jobs(workload, 8, 9))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_count_scales_with_seconds(workload):
    assert workloads.job_count(workload, 20) == 2 * workloads.job_count(
        workload, 10)


def test_reference_kernel_imports_nothing_from_vtcamo():
    tree = ast.parse((HERE / "refkernel.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "vtcamo"]
    code = ("import sys; import refkernel; refkernel.timed_kernel(); "
            "print(sorted(m for m in sys.modules if m.startswith('vtcamo')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_normalise_scales_by_mean_slice_time():
    ref = measure.R_NOMINAL_S
    one = ref / refkernel.SLICES
    assert measure.normalise(2.0, ref, ref) == pytest.approx(2.0)
    assert measure.normalise(2.0, 0.5 * ref, 1.5 * ref) == pytest.approx(2.0)
    assert measure.normalise(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    # two bracketing samples at 1x and two sampled slices at 2x: mean 1.5x
    assert measure.normalise(3.0, ref, ref, [2 * one, 2 * one]) == \
        pytest.approx(2.0)


def test_slice_sampler_samples_during_work_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with measure.SliceSampler() as sampler:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert all(0 < t < 0.05 for t in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(110) == 90
    assert measure.tail_percentile(48) == 79
    assert measure.tail_percentile(10) == 50  # too few: the median stands in
    value, pct, beyond = measure.tail([float(v) for v in range(100, 0, -1)])
    assert (pct, beyond) == (90, 10)
    assert value == pytest.approx(90.5, abs=1e-6)


def test_harrell_davis_quantile_on_fixed_numbers():
    # symmetric weights: the median of 1..9 is exactly 5
    assert measure.quantile([float(v) for v in range(9, 0, -1)], 50) == \
        pytest.approx(5.0)
    assert measure.quantile([7.0], 90) == 7.0
    # the weights sum to one: a constant list gives the constant
    assert measure.quantile([3.0] * 40, 79) == pytest.approx(3.0)
    # a gap at the middle: one job moving across it shifts the plain
    # median from 1.5 to 2.0, the estimate only a little
    low = [1.0] * 24 + [2.0] * 24
    high = [1.0] * 23 + [2.0] * 25
    assert measure.quantile(low, 50) == pytest.approx(1.5)
    assert 1.6 < measure.quantile(high, 50) < 1.65


def test_quartile_spread_on_fixed_numbers():
    # quantiles(n=4) of 1..9 are 2.5, 5, 7.5
    assert measure.quartile_spread([float(v) for v in range(1, 10)]) == 1.0


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, None, 0],
             ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0],
             ["d", 5.0, 9.0, 0, 0]]
    assert measure.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_jobs():
    tracer = measure.Tracer()
    tracer.job = 4
    oracle = tracer.wrap_oracle(lambda vec: vec[::-1])
    assert tracer.call("outer", lambda: oracle((1, 0))) == (0, 1)
    tracer.record("slice", 5.0, 6.0)
    (outer, inner, loose) = tracer.table()
    assert outer[0] == "outer" and outer[3] is None and outer[4] == 4
    assert inner[0] == "attack.oracle" and inner[3] == 0 and inner[4] == 4
    assert loose == ["slice", 5.0, 6.0, None, 4]


def _wrong_key(job):
    """The job's key with one gate reprogrammed so the netlist changes."""
    for gid, entry in sorted(job.key.entries.items()):
        for func in sorted(job.flavor.function_set, key=lambda f: f.value):
            if func == entry.function or (entry.decoy_net is None) != (
                    func.value not in ("INV", "BUF")):
                continue
            entries = dict(job.key.entries)
            entries[gid] = KeyEntry(func, entry.decoy_net)
            yield CamoKey(entries)


def test_injected_wrong_key_is_a_failed_job():
    jobs = workloads.build_jobs("attack", 1, 9)
    job = min(jobs, key=lambda j: (j.flavor.value != "CMOS3A",
                                   len(j.net.inputs)))
    assert workloads.run_attack_job(job).ok
    bad = None
    for key in _wrong_key(job):
        candidate = workloads.AttackJob(job.net, job.locked, key, job.flavor)
        result = workloads.run_attack_job(candidate)
        if not result.ok:
            bad = candidate
            break
    assert bad is not None, "no reprogramming changed the locked netlist"

    def run_one(j, tracer):
        return workloads.run_attack_job(j)
    passed = run._run_pass(run_one, [job, bad], [0, 1])
    assert [i for i, _ in passed["failures"]] == [1]
    assert "not equivalent" in passed["failures"][0][1]


def test_job_that_raises_is_a_failed_job():
    def run_one(job, tracer):
        raise ValueError("boom")
    passed = run._run_pass(run_one, [None], [0])
    assert passed["failures"] == [[0, "ValueError: boom"]]
    assert passed["digests"] == ["failed 0"]


def test_lock_job_checks_pass_on_small_net(tmp_path):
    job = workloads.build_jobs("lock", 3, 1)[0]
    result = workloads.run_lock_job(job, str(tmp_path))
    assert result.ok, result.problem
    assert result.counts["camouflage.selected_gates"] == len(result.digest_items[0])
