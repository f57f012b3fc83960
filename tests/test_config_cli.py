"""Run configuration parsing and the command line front end."""

import ast
import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vtcamo
from conftest import bench_text, random_netlist
from reference_parser import assert_parses_like_reference
from vtcamo.camouflage import (SECONDS_PER_YEAR, apply_camouflage,
                               eligible_gates)
from vtcamo.cell import CellFlavor
from vtcamo.cli import _COMMON, _STRATEGIES, COMMANDS, build_parser, main
from vtcamo.config import FLAVOR_NAMES, RunConfig, load_config, parse_config
from vtcamo.errors import ConfigFileError
from vtcamo.netlist import CamoKey, parse_bench, serialize_bench

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ESTIMATE_ARGV = ["estimate", "--inputs", "4", "--gates", "2",
                 "--no-timestamp"]


def _child_env() -> dict:
    """Environment for a child interpreter that imports this ``vtcamo``.

    Prepends the absolute directory that holds the imported package
    (``src`` in a checkout) to ``PYTHONPATH``, rather than relying on a
    relative entry the parent may have inherited.
    """
    root = str(Path(vtcamo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


GOOD_CONFIG = """\
# device overrides
device.vdd = 0.9
device.kvt = 0.0015

cost.camo8.area = 5
seed = 7
"""


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.device.vdd == 1.0
        assert cfg.seed == 0

    def test_overrides_apply(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.device.vdd == 0.9
        assert cfg.device.kvt == 0.0015
        assert cfg.cost.for_flavor(CellFlavor.CAMO8).area == 5.0
        assert cfg.cost.for_flavor(CellFlavor.CAMO8).power == 4.0
        assert cfg.cost.for_flavor(CellFlavor.CMOS3A).area == 2.0
        assert cfg.seed == 7

    def test_resolved_dict_is_flat_and_complete(self):
        flat = parse_config(GOOD_CONFIG).resolved_dict()
        assert flat["device.vdd"] == 0.9
        assert flat["cost.camo8.area"] == 5.0
        assert flat["cost.cmos3b.delay"] == 1.5
        assert flat["seed"] == 7
        defaults = RunConfig().resolved_dict()
        assert set(flat) == set(defaults)

    @pytest.mark.parametrize("text,fragment", [
        ("device.vdd = 0.9\nwhatever = 3\n", "line 2"),
        ("seed = 1\nseed = 2\n", "duplicate"),
        ("device.vdd = fast\n", "float"),
        ("jobs = 0\n", "jobs"),
        ("report_format = yaml\n", "report_format"),
        ("device.gamma = 1\n", "unknown device"),
        ("cost.camo8.speed = 2\n", "cost"),
        ("cost.camo8.area = 0.5\n", ">= 1"),
        ("just a line\n", "key = value"),
        ("device.vdd =\n", "empty"),
        ("device.vdd = -0.5\n", "vdd"),
    ])
    def test_bad_input_is_rejected_with_context(self, text, fragment):
        with pytest.raises(ConfigFileError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("text,message", [
        ("just a line\n", "line 1: expected key = value, got 'just a line'"),
        (" = 3\n", "line 1: empty key or value"),
        ("seed = 1\ndevice.vdd =\n", "line 2: empty key or value"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed'"),
        ("device.vdd = 0.9\nwhatever = 3\n", "line 2: unknown key 'whatever'"),
        ("device.gamma = 1\n", "line 1: unknown device parameter 'gamma'"),
        ("device. = 1\n", "line 1: unknown device parameter ''"),
        ("cost.camo8 = 2\n", "line 1: cost keys look like "
         "cost.<camo8|cmos3a|cmos3b>.<area|power|delay>, got 'cost.camo8'"),
        ("cost.CAMO8.area = 2\n", "line 1: cost keys look like "
         "cost.<camo8|cmos3a|cmos3b>.<area|power|delay>, "
         "got 'cost.CAMO8.area'"),
        ("cost.camo8.speed = 2\n", "line 1: cost keys look like "
         "cost.<camo8|cmos3a|cmos3b>.<area|power|delay>, "
         "got 'cost.camo8.speed'"),
        ("device.vdd = fast\n", "device.vdd: expected a float, got 'fast'"),
        ("seed = 1.5\n", "seed: expected a int, got '1.5'"),
        ("device.vdd = -0.5\n", "vdd must be positive, got -0.5"),
        ("cost.camo8.area = 0.5\n",
         "CAMO8 area multiple must be >= 1, got 0.5"),
        # range errors come after every line is read: device, then cost in
        # flavor order
        ("cost.camo8.area = 0.5\ndevice.kvt = -1\n",
         "kvt must be non-negative, got -1.0"),
        ("cost.cmos3b.delay = 0.5\ncost.camo8.power = 0.9\n",
         "CAMO8 power multiple must be >= 1, got 0.9"),
    ])
    def test_each_refusal_text_is_pinned(self, text, message):
        with pytest.raises(ConfigFileError) as info:
            parse_config(text)
        assert str(info.value) == message

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_written_keys_read_back_over_the_defaults(self, data):
        """Any subset of ``resolved_dict`` keys, written as ``key =
        repr(value)`` lines in any order among comments and blank lines,
        parses to the defaults updated by those values, byte for byte.
        Float values are their default times a factor in [1, 2]; the
        seed's default is 0, so it is drawn as an int."""
        defaults = RunConfig().resolved_dict()
        keys = data.draw(st.lists(st.sampled_from(list(defaults)),
                                  unique=True))
        values = {key: data.draw(st.integers(0, 2 ** 63))
                  if isinstance(defaults[key], int)
                  else defaults[key] * data.draw(st.floats(1, 2))
                  for key in keys}
        lines = [f"{key} = {value!r}" + data.draw(st.sampled_from(
                     ("", "  # note", "#"))) for key, value in values.items()]
        for filler in data.draw(st.lists(st.sampled_from(
                ("", "   ", "# a comment", "  # seed = 3")), max_size=4)):
            lines.insert(data.draw(st.integers(0, len(lines))), filler)
        parsed = parse_config("\n".join(lines)).resolved_dict()
        assert json.dumps(parsed) == json.dumps({**defaults, **values})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        assert load_config(str(path)) == parse_config(GOOD_CONFIG)


@pytest.fixture
def c17_file(tmp_path):
    path = tmp_path / "c17.bench"
    path.write_text(bench_text("c17.bench"))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    """``json.loads``, refusing the Infinity and NaN that ``json.dumps``
    writes for a non-finite float: no strict JSON reader accepts them."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _lock_c17(tmp_path, c17_file, seed="0"):
    locked = str(tmp_path / "locked.bench")
    keyfile = str(tmp_path / "locked.key")
    report = str(tmp_path / "lock.json")
    code = main(["lock", c17_file, "--flavor", "camo8",
                 "--strategy", "random", "--budget", "0.4",
                 "--seed", seed, "--no-timestamp",
                 "--out-bench", locked, "--out-key", keyfile,
                 "--out", report])
    assert code == 0
    return locked, keyfile, report


class TestCliCommands:
    def test_parse_summarizes_the_netlist(self, capsys, c17_file):
        code, out, err = _run(capsys, ["parse", c17_file, "--no-timestamp"])
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["command"] == "parse"
        assert doc["netlist"]["gate_count"] == 6
        assert doc["netlist"]["depth"] == 3
        assert doc["netlist"]["inputs"] == ["1", "2", "3", "6", "7"]
        assert "generated_at" not in doc

    def test_timestamp_present_by_default(self, capsys, c17_file):
        code, out, _ = _run(capsys, ["parse", c17_file])
        assert code == 0
        assert "generated_at" in json.loads(out)

    def test_lock_then_simulate_and_verify(self, capsys, tmp_path,
                                           c17_file):
        locked, keyfile, report = _lock_c17(tmp_path, c17_file)
        doc = json.loads(open(report).read())
        assert doc["selected_gates"]
        assert doc["overhead"]["area_pct"] > 0

        code, out, _ = _run(capsys, ["sim", locked, "--key", keyfile,
                                     "--inputs", "00000",
                                     "--inputs", "11111",
                                     "--no-timestamp"])
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 2
        assert all(set(r["outputs"]) <= {"0", "1"} for r in results)

        code, out, _ = _run(capsys, ["equiv", c17_file, locked,
                                     "--key-b", keyfile, "--no-timestamp"])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["equivalent"] is True
        assert verdict["vectors_checked"] == 32

    def test_reruns_are_byte_identical(self, capsys, tmp_path, c17_file):
        locked, keyfile, report = _lock_c17(tmp_path, c17_file)
        first = {p: open(p, "rb").read() for p in (locked, keyfile, report)}
        _lock_c17(tmp_path, c17_file)
        for path, blob in first.items():
            assert open(path, "rb").read() == blob
        capsys.readouterr()

    def test_no_temp_files_left_behind(self, tmp_path, c17_file):
        _lock_c17(tmp_path, c17_file)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_seed_changes_the_selection(self, tmp_path, c17_file):
        _, _, report_a = _lock_c17(tmp_path, c17_file, seed="0")
        picks = {json.loads(open(report_a).read())["selected_gates"][0]
                 for _ in [0]}
        for seed in range(1, 6):
            _, _, report_b = _lock_c17(tmp_path, c17_file, seed=str(seed))
            picks.add(tuple(json.loads(open(report_b).read())
                            ["selected_gates"]))
        assert len(picks) > 1

    def test_attack_subcommand_recovers_the_key(self, capsys, tmp_path,
                                                c17_file):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        code, out, _ = _run(capsys, ["attack", locked, "--key", keyfile,
                                     "--method", "sensitization",
                                     "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["true_key_survives"] is True
        assert doc["query_count"] > 0
        assert doc["status"] in ("unique", "equivalent_class")

        code, out, _ = _run(capsys, ["attack", locked, "--key", keyfile,
                                     "--method", "brute", "--no-timestamp"])
        assert code == 0
        brute = json.loads(out)
        assert brute["query_count"] == 32
        assert brute["true_key_survives"] is True

    @pytest.mark.parametrize("argv", [
        ["--method", "brute", "--no-flavor-knowledge"],
        ["--method", "sensitization", "--pattern-source", "random"],
        ["--pattern-source", "random", "--budget", "4"],
        ["--method", "sensitization", "--pattern-source", "exhaustive"],
    ], ids=["brute-no-flavor-knowledge", "sensitization-random",
            "default-method-random", "sensitization-exhaustive"])
    def test_attack_refuses_an_option_its_method_ignores(
            self, capsys, tmp_path, c17_file, argv):
        # each used to run and report as if the option were not given; the
        # brute default spelled out is refused too
        locked, keyfile = (str(tmp_path / n) for n in ("l.bench", "l.key"))
        assert main(["lock", c17_file, "--flavor", "cmos3a", "--budget",
                     "0.4", "--seed", "1", "--out-bench", locked,
                     "--out-key", keyfile, "--out", os.devnull]) == 0
        capsys.readouterr()
        never = mock.Mock(side_effect=AssertionError("oracle built"))
        with mock.patch("vtcamo.cli.CountingOracle", never):
            code, out, err = _run(capsys, ["attack", locked, "--key",
                                           keyfile, *argv])
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidParameterError"

    @pytest.mark.parametrize("strategy, delay_budget", [
        ("random", "0.2"), ("xor-seq", "0.2"), ("off-critical", "0.2"),
        ("random", "0"),
    ], ids=["random", "xor-seq", "off-critical", "random-zero"])
    def test_lock_refuses_a_delay_budget_its_strategy_ignores(
            self, capsys, tmp_path, strategy, delay_budget):
        # it used to write the same netlist and key for any value; refused
        # before the bench is read, a zero budget too
        code, out, err = _run(capsys, [
            "lock", str(tmp_path / "ghost.bench"), "--strategy", strategy,
            "--delay-budget", delay_budget,
            "--out-bench", str(tmp_path / "x.bench"),
            "--out-key", str(tmp_path / "x.key")])
        assert (code, out) == (1, "")
        assert err == json.dumps({
            "error": "InvalidParameterError",
            "message": "--delay-budget applies to --strategy greedy-effort "
                       "only"}, sort_keys=True) + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bench_out, key_out, out", [
        ("l.bench", "l.key", "l.bench"), ("x", "x", None),
        ("l.bench", "d/../l.key", "l.key"),
    ], ids=["bench-and-report", "bench-and-key", "key-and-report"])
    def test_lock_refuses_two_outputs_in_one_file(
            self, capsys, tmp_path, c17_file, bench_out, key_out, out):
        # the later write used to replace the earlier one, with exit 0;
        # refused before the bench is read and before anything is written
        (tmp_path / "d").mkdir()
        argv = ["lock", str(tmp_path / "ghost.bench"),
                "--out-bench", str(tmp_path / bench_out),
                "--out-key", str(tmp_path / key_out)]
        argv += ["--out", str(tmp_path / out)] if out else []
        code, stdout, err = _run(capsys, argv)
        assert (code, stdout) == (1, "")
        assert err == json.dumps({
            "error": "InvalidParameterError",
            "message": "each output option needs its own file"},
            sort_keys=True) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c17.bench", "d"]
        argv[1] = c17_file  # a readable bench is refused the same way
        assert _run(capsys, argv) == (code, stdout, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c17.bench", "d"]

    def test_greedy_effort_delay_budget_defaults_to_five_percent(
            self, capsys, tmp_path):
        bench = tmp_path / "synth_wide.bench"
        bench.write_text(bench_text("synth_wide.bench"))
        written = {}
        for budget in ([], ["--delay-budget", "0.05"],
                       ["--delay-budget", "0"]):
            stem = str(tmp_path / "_".join(["x", *budget]))
            code, out, _ = _run(capsys, [
                "lock", str(bench), "--strategy", "greedy-effort",
                "--budget", "1", *budget, "--out-bench", f"{stem}.bench",
                "--out-key", f"{stem}.key", "--no-timestamp"])
            assert code == 0
            written[tuple(budget)] = (
                json.loads(out)["overhead"]["delay_pct"],
                Path(f"{stem}.bench").read_text(),
                Path(f"{stem}.key").read_text())
        assert written[()] == written[("--delay-budget", "0.05")]
        assert written[()][0] == 5.0
        assert written[("--delay-budget", "0")][0] == 0.0

    def test_equiv_refuses_vectors_in_exhaustive_mode(self, capsys, tmp_path,
                                                      c17_file):
        # it used to check all 32 vectors and exit 0; refused before the
        # netlists are read, a zero sample size too
        ghost = str(tmp_path / "ghost.bench")
        for argv in ([c17_file, c17_file, "--vectors", "5"],
                     [ghost, ghost, "--mode", "exhaustive", "--vectors", "5"],
                     [c17_file, c17_file, "--vectors", "0"]):
            code, out, err = _run(capsys, ["equiv", *argv])
            assert (code, out) == (1, "")
            lines = err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "InvalidParameterError"
        # random mode keeps its default, and still refuses zero
        code, out, _ = _run(capsys, ["equiv", c17_file, c17_file, "--mode",
                                     "random", "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["vectors_checked"] == 10000
        code, _, err = _run(capsys, ["equiv", c17_file, c17_file, "--mode",
                                     "random", "--vectors", "0"])
        assert code == 1
        assert "got 0" in json.loads(err)["message"]

    def test_sim_keys_once_after_the_first_vector(self, capsys, tmp_path,
                                                  c17_file):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        # c17 has no camouflaged gates, so the locked key is a bad key
        for inputs, error in ((["1010"], "VtcamoError"),
                              (["00000", "1010"], "KeyScopeError"),
                              (["00000", "1"], "KeyScopeError")):
            code, out, err = _run(capsys, [
                "sim", c17_file, "--key", keyfile,
                *(f"--inputs={v}" for v in inputs)])
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == error, inputs
        with mock.patch("vtcamo.cli.CountingOracle",
                        wraps=vtcamo.cli.CountingOracle) as keyed:
            code, out, _ = _run(capsys, [
                "sim", locked, "--key", keyfile, "--no-timestamp",
                *(f"--inputs={v:05b}" for v in range(3))])
        assert code == 0 and keyed.call_count == 1
        assert [r["inputs"] for r in json.loads(out)["results"]] == [
            "00000", "00001", "00010"]

    def test_sidechannel_subcommand_classifies(self, capsys, tmp_path,
                                               c17_file):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        code, out, _ = _run(capsys, ["sidechannel", locked,
                                     "--key", keyfile, "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["accuracy"] == 1.0
        assert all(c["correct"] for c in doc["classification"].values())

        code, out, _ = _run(capsys, ["sidechannel", locked,
                                     "--key", keyfile,
                                     "--mode", "aggregate-only",
                                     "--balance", "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert "balance" in doc
        assert len(doc["aggregate"]) == 4 * 3

    def test_sidechannel_without_camouflaged_cells(self, capsys, tmp_path,
                                                   c17_file):
        keyfile = tmp_path / "empty.key"
        keyfile.write_text("")
        code, out, _ = _run(capsys, ["sidechannel", c17_file, "--key",
                                     str(keyfile), "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == {}
        assert doc["accuracy"] is None

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--hvt", "0.1:0.2", "--lvt", "0.1:0.2",
                     "--step", "0.05", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("delta_hvt,delta_lvt,")
        assert len(lines) == 1 + 3 * 3
        capsys.readouterr()

    def test_bias_opt_reports_a_gain(self, capsys):
        code, out, _ = _run(capsys, ["bias-opt", "--window", "0.15",
                                     "--step", "0.05", "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["delay_gain"] > 0.0
        assert doc["delay_opt_s"] < doc["delay_default_s"]

    def test_sweep_takes_t_from_the_configured_t_ref(self, capsys,
                                                     tmp_path):
        cfg = tmp_path / "warm.cfg"
        cfg.write_text("device.t_ref = 320\n")
        csvs = {}
        for t in (None, "320", "300"):
            out_csv = tmp_path / f"sweep-{t}.csv"
            argv = ["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4",
                    "--step", "0.05", "--config", str(cfg),
                    "--out", str(out_csv)]
            assert main(argv + (["--t", t] if t else [])) == 0
            csvs[t] = out_csv.read_text()
        capsys.readouterr()
        assert csvs[None] == csvs["320"]
        assert csvs[None] != csvs["300"]

    def test_estimate_emits_exact_counts_as_strings(self, capsys):
        code, out, _ = _run(capsys, ["estimate", "--inputs", "50",
                                     "--gates", "10", "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc["pattern_count"], str)
        assert int(doc["pattern_count"]) == 2 ** 50
        assert int(doc["candidate_count"]) == 8 ** 10
        assert doc["years_retest"] > doc["years_raw"]

    def test_estimate_with_one_function_skips_the_digit_bound(self, capsys):
        # 1 ** k has one digit for any k, so no gate count is too long
        code, out, _ = _run(capsys, ["estimate", "--inputs", "4", "--gates",
                                     "100000", "--functions", "1",
                                     "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["candidate_count"] == "1"

    def test_sim_refuses_a_vector_with_a_non_bit(self, capsys, c17_file):
        code, out, err = _run(capsys, ["sim", c17_file, "--inputs", "01a01"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "VtcamoError"

    def test_report_combines_summary_and_effort(self, capsys, tmp_path,
                                                c17_file):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        code, out, _ = _run(capsys, ["report", locked, "--key", keyfile,
                                     "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["netlist"]["camo_count"] > 0
        assert doc["overhead"]["camo_count"] == doc["netlist"]["camo_count"]
        assert int(doc["effort"]["pattern_count"]) == 2 ** 5

    def test_report_counts_each_cells_own_function_set(self, capsys,
                                                       tmp_path):
        # it used to count 8 ** 2 once one cell was CAMO8; the attacks
        # start from 8 x 3
        bench, key = tmp_path / "m.bench", tmp_path / "m.key"
        bench.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
                         "y = CAMO8(a, b)\nz = CMOS3A(a, b)\n")
        key.write_text("y=NAND\nz=NOR\n")
        code, out, _ = _run(capsys, ["report", str(bench), "--key", str(key),
                                     "--no-timestamp"])
        assert code == 0
        effort = json.loads(out)["effort"]
        assert effort["candidate_count"] == "24"
        assert effort["years_retest"] == pytest.approx(
            4 * 24 / 1e9 / SECONDS_PER_YEAR)
        for method in ("brute", "sensitization"):
            code, out, _ = _run(capsys, ["attack", str(bench), "--key",
                                         str(key), "--method", method,
                                         "--no-timestamp"])
            assert code == 0
            log2 = json.loads(out)["candidate_space_log2_initial"]
            assert round(2 ** log2) == 24

    def test_effort_past_a_float_is_null(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["estimate", "--inputs", "1100",
                                     "--gates", "1", "--no-timestamp"])
        assert code == 0
        doc = _strict_json(out)
        assert int(doc["pattern_count"]) == 2 ** 1100
        assert [doc[k] for k in ("seconds_raw", "seconds_retest", "years_raw",
                                 "years_retest")] == [None] * 4
        bench = tmp_path / "wide.bench"
        bench.write_text(
            "".join(f"INPUT(i{k})\n" for k in range(32))
            + "".join(f"OUTPUT(g{k})\ng{k} = NAND(i{k % 32}, i{(k + 1) % 32})\n"
                      for k in range(400)))
        locked, keyfile = (str(tmp_path / n) for n in ("l.bench", "l.key"))
        assert main(["lock", str(bench), "--budget", "1", "--out-bench",
                     locked, "--out-key", keyfile, "--out", os.devnull]) == 0
        capsys.readouterr()
        code, out, _ = _run(capsys, ["report", locked, "--no-timestamp"])
        assert code == 0
        effort = _strict_json(out)["effort"]
        assert int(effort["candidate_count"]) == 8 ** 400
        assert effort["years_raw"] == 2 ** 32 / 1e9 / SECONDS_PER_YEAR
        assert effort["years_retest"] is None

    def test_config_file_feeds_the_run(self, capsys, tmp_path, c17_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("device.vdd = 0.9\nseed = 3\n")
        locked = str(tmp_path / "l.bench")
        keyf = str(tmp_path / "l.key")
        code, out, _ = _run(capsys, ["lock", c17_file, "--config", str(cfg),
                                     "--budget", "0.4", "--no-timestamp",
                                     "--out-bench", locked,
                                     "--out-key", keyf])
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert doc["config"]["device.vdd"] == 0.9

        code, out, _ = _run(capsys, ["lock", c17_file, "--config", str(cfg),
                                     "--seed", "9", "--budget", "0.4",
                                     "--no-timestamp",
                                     "--out-bench", locked,
                                     "--out-key", keyf])
        assert code == 0
        assert json.loads(out)["seed"] == 9


class TestCliFailures:
    def test_domain_error_is_json_on_stderr(self, capsys, c17_file):
        code, out, err = _run(capsys, ["sim", c17_file,
                                       "--inputs", "1010"])
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "VtcamoError"
        assert "5 bits" in doc["message"]

    def test_missing_file_is_handled(self, capsys, tmp_path):
        code, out, err = _run(capsys,
                              ["parse", str(tmp_path / "ghost.bench")])
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_out_naming_a_directory_leaves_no_temporary(self, capsys,
                                                         tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        code, out, err = _run(capsys, [*ESTIMATE_ARGV, "--out", str(target)])
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "IsADirectoryError"
        assert doc["message"].endswith(f" -> {str(target)!r}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]
        assert list(target.iterdir()) == []

    def test_bad_config_is_handled(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("jobs = 0\n")
        code, _, err = _run(capsys, ["bias-opt", "--config", str(cfg)])
        assert code == 1
        assert json.loads(err)["error"] == "ConfigFileError"

    @pytest.mark.parametrize("argv", [
        ["parse", "{bench}"],
        ["sim", "{bench}", "--inputs", "00000"],
        ["estimate", "--inputs", "4", "--gates", "2"],
    ], ids=["parse", "sim", "estimate"])
    def test_missing_config_fails_commands_that_read_no_key_of_it(
            self, capsys, tmp_path, c17_file, argv):
        ghost = str(tmp_path / "ghost.cfg")
        argv = [a.format(bench=c17_file) for a in argv]
        code, out, err = _run(capsys, [*argv, "--config", ghost])
        assert (code, out) == (1, "")
        assert err == json.dumps({
            "error": "ConfigFileError",
            "message": f"cannot read config {ghost!r}: [Errno 2] "
                       f"No such file or directory: {ghost!r}"},
            sort_keys=True) + "\n"

    def test_usage_errors_exit_two(self, capsys, c17_file):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["lock", c17_file])  # missing required outputs
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["bias-opt", "--jobs", "2"])  # no such option
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, error", [
        (["sweep", "--hvt", "0.3", "--lvt", "0.3:0.4"],
         "InvalidParameterError"),
        (["sweep", "--hvt", "nan:nan", "--lvt", "0.3:0.4"],
         "InvalidParameterError"),
        (["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:inf"],
         "InvalidParameterError"),
        (["sweep", "--hvt", "a:b", "--lvt", "0.3:0.4"],
         "InvalidParameterError"),
        (["sidechannel", "{bench}", "--key", "{key}", "--temps", "250,abc"],
         "InvalidParameterError"),
        (["sidechannel", "{bench}", "--key", "{key}", "--temps", ","],
         "InvalidParameterError"),
        (["estimate", "--inputs", "20000", "--gates", "2"],
         "InvalidParameterError"),
        (["estimate", "--inputs", "4", "--gates", "5000"],
         "InvalidParameterError"),
        # rejected from the point count, before any grid is built
        (["sweep", "--hvt", "0:0.35", "--lvt", "0:0.35", "--step", "1e-300"],
         "InvalidParameterError"),
        (["bias-opt", "--window", "0.1", "--step", "1e-300"],
         "InvalidParameterError"),
        (["bias-opt", "--window", "-1"], "InvalidParameterError"),
        # the thermal voltage squared overflows: a drain current is not
        # finite (it used to come out as NaN in the JSON and the CSV)
        (["bias-opt", "--t", "1e200"], "InvalidParameterError"),
        (["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4", "--t", "1e200"],
         "InvalidParameterError"),
        # the mobility factor (t / t_ref) ** -1.5 overflows
        (["bias-opt", "--t", "1e-300", "--no-timestamp"],
         "InvalidParameterError"),
        (["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4", "--t", "1e-300"],
         "InvalidParameterError"),
        (["lock", "{bench}", "--strategy", "greedy-effort",
          "--delay-budget", "nan", "--out-bench", "{tmp}/x.bench",
          "--out-key", "{tmp}/x.key"], "InvalidPolicyError"),
        (["equiv", "{bench}", "{bench}", "--key-a", "{key}", "--key-b",
          "{key}", "--mode", "random", "--vectors", "-5"],
         "InvalidParameterError"),
        (["attack", "{bench}", "--key", "{key}", "--budget", "-3"],
         "InvalidParameterError"),
        (["attack", "{bench}", "--key", "{key}", "--method", "brute",
          "--budget", "-3"], "InvalidParameterError"),
    ], ids=["range-no-colon", "range-nan", "range-inf", "range-words",
            "temps-word", "temps-empty", "estimate-wide",
            "estimate-many-gates", "sweep-tiny-step", "bias-opt-tiny-step",
            "bias-opt-negative-window", "bias-opt-huge-t",
            "sweep-huge-t", "bias-opt-tiny-t", "sweep-tiny-t",
            "delay-budget-nan",
            "equiv-negative-vectors", "attack-negative-budget",
            "brute-negative-budget"])
    def test_malformed_number_is_one_json_line(self, capsys, tmp_path,
                                               c17_file, argv, error):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        argv = [a.format(bench=locked, key=keyfile, tmp=tmp_path)
                for a in argv]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
    @pytest.mark.parametrize("locked", [True, False],
                             ids=["locked", "no-cells"])
    def test_bad_noise_sigma_is_one_json_line(self, capsys, tmp_path,
                                              c17_file, sigma, locked):
        # a negative sigma used to be reported and ignored, and NaN came
        # out as a bare NaN in the JSON; with no cells nothing got noise
        if locked:
            bench, keyfile, _ = _lock_c17(tmp_path, c17_file)
        else:
            bench, keyfile = c17_file, tmp_path / "empty.key"
            keyfile.write_text("")
        with mock.patch("vtcamo.sidechannel.measure_signature") as measure:
            code, out, err = _run(capsys, [
                "sidechannel", bench, "--key", str(keyfile),
                f"--noise={sigma}", "--no-timestamp"])
        assert (code, out, measure.call_count) == (1, "", 0)
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "InvalidParameterError",
            "message": f"noise sigma must be finite and >= 0: {float(sigma)}"}]

    def test_overflowing_noise_is_one_json_line(self, capsys, tmp_path,
                                                c17_file):
        # the noise factor exp(N(0, 800)) overflows after measuring
        bench, keyfile, _ = _lock_c17(tmp_path, c17_file)
        code, out, err = _run(capsys, [
            "sidechannel", bench, "--key", keyfile, "--noise", "800",
            "--no-timestamp"])
        assert (code, out) == (1, "")
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "InvalidParameterError",
            "message": "noise sigma 800.0 is too large: a noise factor "
                       "overflows"}]

    @pytest.mark.parametrize("argv", [
        ["bias-opt", "--no-timestamp"],
        ["sweep", "--hvt", "0.3:0.3", "--lvt", "0.3:0.3"],
        ["sidechannel", "l.bench", "--key", "l.key", "--no-timestamp"],
        ["sidechannel", "l.bench", "--key", "l.key", "--mode",
         "aggregate-only", "--no-timestamp"],
    ], ids=["bias-opt", "sweep", "sidechannel", "sidechannel-aggregate"])
    def test_infinite_delay_is_one_json_line(self, capsys, tmp_path,
                                             monkeypatch, argv):
        # c_load * vdd / (2 * drive) overflows: the delay used to come
        # out as Infinity (and the gain as NaN) in the JSON, inf in the
        # CSV; per-gate side channels said "template features are not
        # finite", aggregate ones printed Infinity and exited 0
        monkeypatch.chdir(tmp_path)
        Path("heavy.cfg").write_text("device.c_load = 1e308\n")
        Path("mix.bench").write_text(bench_text("synth_mix.bench"))
        assert main(["lock", "mix.bench", "--budget", "0.2", "--seed", "5",
                     "--out-bench", "l.bench", "--out-key", "l.key",
                     "--out", os.devnull]) == 0
        capsys.readouterr()
        code, out, err = _run(capsys, [*argv, "--config", "heavy.cfg"])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert _strict_json(lines[0]) == {
            "error": "InvalidParameterError",
            "message": "cell delay overflows with c_load = 1e+308 F"}

    @pytest.mark.parametrize("key", ["area", "power", "delay"])
    def test_overflowing_overhead_is_refused(self, capsys, tmp_path,
                                             monkeypatch, key):
        # a finite cost multiple whose percentage overflows used to print
        # "Infinity" and exit 0, after lock had written both files
        monkeypatch.chdir(tmp_path)
        Path("cost.cfg").write_text(f"cost.camo8.{key} = 1e308\n")
        Path("c17.bench").write_text(bench_text("c17.bench"))
        lock = ["lock", "c17.bench", "--flavor", "camo8", "--budget", "1.0"]
        assert main([*lock, "--out-bench", "locked.bench", "--out-key",
                     "locked.key", "--out", os.devnull]) == 0
        capsys.readouterr()
        for argv in ([*lock, "--out-bench", "L", "--out-key", "K"],
                     ["report", "locked.bench"]):
            code, out, err = _run(capsys, [*argv, "--config", "cost.cfg"])
            assert (code, out) == (1, "")
            assert [json.loads(line) for line in err.splitlines()] == [{
                "error": "InvalidParameterError",
                "message": f"overhead {key}_pct overflows: a cost multiple "
                           f"is too large"}]
        assert sorted(os.listdir()) == ["c17.bench", "cost.cfg",
                                        "locked.bench", "locked.key"]

    def test_every_config_key_at_its_extremes(self, capsys, tmp_path,
                                              monkeypatch):
        # every key (so a new key is covered without an edit), then the
        # keys that meet in one formula, at every pair of extremes; each
        # run works and prints strict JSON (sweep's CSV aside), or exits 1
        # with one JSON line
        extremes = ("0", "-0.0", "5e-324", "1e-300", "1e-30", "1e30",
                    "1e300", "1e308", "-1", "inf", "nan")
        configs = [{key: x} for key in RunConfig().resolved_dict()
                   for x in extremes]
        configs += [{f"device.{a}": x, f"device.{b}": y}
                    for a, b in (("vdd", "vtn0"), ("vdd", "vtp0_mag"),
                                 ("c_load", "vdd"))
                    for x in extremes for y in extremes]
        monkeypatch.chdir(tmp_path)
        Path("mix.bench").write_text(bench_text("synth_mix.bench"))
        assert main(["lock", "mix.bench", "--budget", "0.2", "--seed", "5",
                     "--out-bench", "l.bench", "--out-key", "l.key",
                     "--out", os.devnull]) == 0
        side = ["sidechannel", "l.bench", "--key", "l.key"]
        commands = (["sweep", "--hvt", "0.3:0.4", "--lvt", "0.3:0.4"],
                    ["bias-opt"], ["report", "l.bench", "--key", "l.key"],
                    ["lock", "mix.bench", "--budget", "0.2", "--out-bench",
                     "x.bench", "--out-key", "x.key"],
                    side, [*side, "--mode", "aggregate-only"],
                    [*side, "--balance"])
        capsys.readouterr()
        wrong = []
        for config in configs:
            Path("run.cfg").write_text("".join(f"{k} = {v}\n"
                                               for k, v in config.items()))
            for argv in commands:
                code, out, err = _run(capsys, [*argv, "--config", "run.cfg",
                                               "--no-timestamp"])
                try:
                    if code == 0 and argv[0] != "sweep":
                        _strict_json(out)
                    elif code == 1:
                        assert out == "" and len(err.splitlines()) == 1
                        _strict_json(err)
                    else:
                        assert code == 0
                except (AssertionError, ValueError):
                    wrong.append((config, argv[0], code, out[:200], err))
        assert wrong == []

    def test_a_float_json_cannot_carry_is_refused(self, capsys, monkeypatch):
        # the last guard before stdout: no command prints Infinity or NaN
        monkeypatch.setitem(COMMANDS, "estimate", (
            lambda args, cfg: {"x": math.nan}, *COMMANDS["estimate"][1:]))
        code, out, err = _run(capsys, ESTIMATE_ARGV)
        assert (code, out) == (1, "")
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "InvalidParameterError",
            "message": "the report holds a figure that is not finite"}]

    def test_lock_budget_above_one_is_rejected(self, capsys, tmp_path,
                                               c17_file):
        code, out, err = _run(capsys, [
            "lock", c17_file, "--budget", "2",
            "--out-bench", str(tmp_path / "x.bench"),
            "--out-key", str(tmp_path / "x.key")])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "InvalidPolicyError",
            "message": "budget must be in (0, 1], got 2.0"}

    def test_a_comma_in_a_net_name_is_rejected_at_parse(self, capsys,
                                                        tmp_path):
        # fanins are comma-separated: a locked netlist that read such a net
        # would give y = CAMO8(a,b, c), which no parse could read back
        bench = tmp_path / "x.bench"
        bench.write_text("INPUT(a,b)\nINPUT(c)\nOUTPUT(y)\ny = NOT(c)\n")
        code, out, err = _run(capsys, [
            "lock", str(bench), "--budget", "1.0", "--seed", "1",
            "--out-bench", str(tmp_path / "l.bench"),
            "--out-key", str(tmp_path / "l.key")])
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "BenchSyntaxError",
            "message": "unparseable line 'INPUT(a,b)' (line 1, col 1)"}
        assert not (tmp_path / "l.bench").exists()
        for line, col in (("OUTPUT(y,z)", 1), (" y,z = NOT(a)", 2)):
            bench.write_text(f"INPUT(a)\n{line}\n")
            code, out, err = _run(capsys, ["parse", str(bench)])
            assert (code, out) == (1, "")
            assert json.loads(err)["message"] == (
                f"unparseable line {line.strip()!r} (line 2, col {col})")

    def test_locking_a_camouflaged_netlist_is_refused(self, capsys,
                                                      tmp_path, c17_file):
        # a second key would cover only the new cells, so nothing is written
        locked, _, _ = _lock_c17(tmp_path, c17_file)
        again = tmp_path / "again.bench"
        again_key = tmp_path / "again.key"
        code, out, err = _run(capsys, [
            "lock", locked, "--budget", "1.0", "--out-bench", str(again),
            "--out-key", str(again_key)])
        assert (code, out) == (1, "")
        with open(locked, encoding="utf-8") as fh:
            camo = [g.gate_id for g in parse_bench(fh.read()).camo_gates()]
        assert camo
        assert json.loads(err) == {
            "error": "FlavorMismatchError",
            "message": f"gates {camo!r} are already camouflaged"}
        assert not again.exists() and not again_key.exists()

    @pytest.mark.parametrize("bench, options, message", [
        ("c17", [], "--flavor camo8, --strategy random and --budget 0.05 "
         "select no gate to camouflage"),
        ("c17", ["--flavor", "cmos3b", "--budget", "1"],
         "--flavor cmos3b, --strategy random and --budget 1.0 select no "
         "gate to camouflage"),
        ("chain", ["--strategy", "greedy-effort", "--budget", "1",
                   "--delay-budget", "0"],
         "--flavor camo8, --strategy greedy-effort and --budget 1.0 select "
         "no gate to camouflage"),
    ], ids=["default-budget", "no-eligible-gate", "no-cell-fits-the-delay"])
    def test_lock_that_selects_no_gate_is_refused(self, capsys, tmp_path,
                                                  c17_file, bench, options,
                                                  message):
        # it used to exit 0 and write a key that hides nothing: floor(0.05 *
        # 6) is 0 on c17, CMOS3B has no 2-input NAND to stand in for, and
        # every cell of a two-gate chain lengthens its critical path
        chain = tmp_path / "chain.bench"
        chain.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
                         "g1 = NAND(a, b)\nz = NAND(g1, a)\n")
        path = c17_file if bench == "c17" else str(chain)
        code, out, err = _run(capsys, [
            "lock", path, *options, "--out-bench", str(tmp_path / "l.bench"),
            "--out-key", str(tmp_path / "l.key")])
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": "InvalidPolicyError",
                                  "message": message}, sort_keys=True) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c17.bench", "chain.bench"]

    @pytest.mark.parametrize("method", ["brute", "sensitization"])
    def test_attack_on_a_net_with_no_cell_reports_float_spaces(
            self, capsys, tmp_path, c17_file, method):
        # the initial log2 was the int 0 and the final one the float 0.0
        key = tmp_path / "empty.key"
        key.write_text("")
        code, out, _ = _run(capsys, ["attack", c17_file, "--key", str(key),
                                     "--method", method, "--no-timestamp"])
        assert code == 0
        assert '"candidate_space_log2_initial": 0.0,' in out
        assert '"candidate_space_log2_final": 0.0,' in out
        assert json.loads(out)["status"] == "unique"

    def test_attack_with_an_out_of_scope_key(self, capsys, tmp_path,
                                             c17_file):
        locked, keyfile, _ = _lock_c17(tmp_path, c17_file)
        wrong = tmp_path / "wrong.key"
        wrong.write_text(Path(keyfile).read_text() + "zz=NAND\n")
        code, out, err = _run(capsys, ["attack", locked, "--key", str(wrong)])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "KeyScopeError",
            "message": "key names non-camouflaged gates ['zz']"}

    def test_oversized_attack_is_a_domain_error(self, capsys, tmp_path):
        text = ["INPUT(a)", "INPUT(b)", "OUTPUT(z)"]
        prev_a, prev_b = "a", "b"
        for i in range(9):
            text.append(f"g{i} = CAMO8({prev_a}, {prev_b})")
            prev_a, prev_b = prev_b, f"g{i}"
        text.append("z = AND(g8, a)")
        bench = tmp_path / "big.bench"
        bench.write_text("\n".join(text) + "\n")
        key = tmp_path / "big.key"
        key.write_text("".join(f"g{i}=NAND\n" for i in range(9)))
        code, _, err = _run(capsys, ["attack", str(bench),
                                     "--key", str(key),
                                     "--method", "brute"])
        assert code == 1
        assert json.loads(err)["error"] == "AttackTooLargeError"


class TestEntryPoint:
    """The ``vtcamo`` command, run in a separate interpreter.

    Every child gets ``_child_env()``, so it imports the package under
    test whatever its working directory and whether or not the package
    is installed.
    """

    def test_installed_script_runs(self, tmp_path):
        # What pip's generated ``vtcamo`` wrapper does, minus the install:
        # resolve the ``[project.scripts]`` target and exit with its result.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            pyproject = tomllib.load(fh)
        # the version is stated once, in vtcamo/__init__.py
        assert pyproject["project"]["dynamic"] == ["version"]
        assert "version" not in pyproject["project"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "vtcamo.__version__"}
        scripts = pyproject["project"]["scripts"]
        assert scripts["vtcamo"] == "vtcamo.cli:main"
        module, attr = scripts["vtcamo"].split(":")
        assert getattr(importlib.import_module(module), attr) is main
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.exit({attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *ESTIMATE_ARGV],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=_child_env())
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["pattern_count"] == "16"

    @pytest.mark.skipif(shutil.which("vtcamo") is None,
                        reason="no vtcamo console script on PATH")
    def test_console_script_on_path_runs(self):
        proc = subprocess.run(
            ["vtcamo", "estimate", "--inputs", "4", "--gates", "2",
             "--no-timestamp"],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["pattern_count"] == "16"

    def test_python_m_runs(self, tmp_path, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "vtcamo", *ESTIMATE_ARGV],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=_child_env())
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["pattern_count"] == "16"
        assert main(ESTIMATE_ARGV) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # what the console script and ``python -m vtcamo`` call
        monkeypatch.setattr(sys, "argv", ["vtcamo", *ESTIMATE_ARGV])
        assert main() == 0
        out = capsys.readouterr().out
        assert main(ESTIMATE_ARGV) == 0
        assert out == capsys.readouterr().out
        assert json.loads(out)["pattern_count"] == "16"

    def test_python_m_error_is_one_json_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vtcamo", "parse", "missing.bench"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=_child_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "FileNotFoundError"

    @staticmethod
    def _vtcamo_modules(tmp_path, code, *argv) -> set[str]:
        """The ``vtcamo`` modules a child ``python -c code *argv`` holds
        at exit, which it prints as the last line of stderr."""
        probe = ("import atexit, sys\n"
                 "atexit.register(lambda: print(sorted(m for m in sys.modules"
                 " if m.split('.')[0] == 'vtcamo'), file=sys.stderr))\n"
                 + code)
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=_child_env())
        assert proc.returncode == 0, proc.stderr
        return set(ast.literal_eval(proc.stderr.splitlines()[-1]))

    def test_import_loads_no_layer(self, tmp_path):
        assert self._vtcamo_modules(tmp_path, "import vtcamo") == {"vtcamo"}
        assert self._vtcamo_modules(
            tmp_path, "import vtcamo\nvtcamo.errors") == {
            "vtcamo", "vtcamo.errors"}
        # CountingOracle is defined in netlist: only it and its imports load
        assert self._vtcamo_modules(
            tmp_path, "from vtcamo import CountingOracle") == {
            "vtcamo", "vtcamo.cell", "vtcamo.errors", "vtcamo.netlist"}

    def test_parse_loads_neither_attack_nor_sidechannel(self, tmp_path,
                                                        c17_file):
        # what ``python -m vtcamo parse c17.bench`` runs
        loaded = self._vtcamo_modules(
            tmp_path, "import runpy\n"
            "runpy.run_module('vtcamo', run_name='__main__', alter_sys=True)",
            "parse", c17_file, "--no-timestamp")
        assert "vtcamo.cli" in loaded
        assert not loaded & {"vtcamo.attack", "vtcamo.sidechannel"}


class TestPublicNames:
    """``vtcamo``'s names, each bound on first lookup from its module."""

    #: the package's public names, in the order it has always listed them
    PUBLIC_NAMES = [
        "CAMOUFLAGEABLE", "CamoConfig", "CellFlavor", "GateFunction", "VT",
        "behavior_table", "config_for", "decode", "distinguishing_set",
        "evaluate", "truth_table",
        "BiasPoint", "DeviceParams", "cell_worst_delay", "default_bias",
        "drain_current", "gate_leakage", "optimize_bias",
        "sweep_to_csv", "sweep_vt_window", "switch_ratio",
        "CamoKey", "Gate", "KeyEntry", "Netlist", "check_equivalence",
        "critical_path", "parse_bench", "serialize_bench", "simulate",
        "validate_key",
        "CostTable", "SelectionPolicy", "apply_camouflage", "effort_estimate",
        "overhead_report", "select_gates",
        "AttackReport", "CountingOracle", "brute_force_attack",
        "find_sensitizing_vector", "sensitization_attack",
        "Signature", "add_measurement_noise", "balance_flavors",
        "classify_function", "measure_signature", "template_signatures",
        "thermal_compensated_bias",
        "errors",
        "__version__",
    ]
    LAYERS = ("cell", "device", "netlist", "camouflage", "attack",
              "sidechannel")

    def test_all_lists_the_public_names(self):
        assert vtcamo.__all__ == self.PUBLIC_NAMES

    def test_each_name_is_the_object_its_layers_bind(self):
        layers = [importlib.import_module(f"vtcamo.{m}") for m in self.LAYERS]
        for name in vtcamo.__all__[:-2]:
            value = getattr(vtcamo, name)
            assert name in vars(vtcamo)  # the next lookup is a plain read
            holders = [m for m in layers if hasattr(m, name)]
            assert holders, name
            assert all(getattr(m, name) is value for m in holders), name

    def test_dir_lists_every_public_name(self):
        assert set(vtcamo.__all__) <= set(dir(vtcamo))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            vtcamo.no_such_name
        assert not hasattr(vtcamo, "no_such_name")

    def test_errors_is_the_errors_module(self):
        errors = importlib.import_module("vtcamo.errors")
        assert vtcamo.errors is errors
        # what a lookup finds before any layer has imported errors
        assert vtcamo.__getattr__("errors") is errors

    def test_every_error_class_is_raised(self):
        """Each error class is raised somewhere in the package, or is the
        base of one that is (as ``BenchParseError`` is)."""
        raised = set()
        for path in Path(vtcamo.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(
                        node.exc, ast.Call) else node.exc
                    raised.add(exc.attr if isinstance(exc, ast.Attribute)
                               else getattr(exc, "id", None))
        errors = importlib.import_module("vtcamo.errors")
        classes = [c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.VtcamoError)]
        raised = [c for c in classes if c.__name__ in raised]
        assert [c.__name__ for c in classes
                if not any(issubclass(r, c) for r in raised)] == []


def _locked_c17_texts() -> tuple[str, str]:
    """.bench and key text of c17 with two CAMO8 cells and one CMOS3A."""
    net = parse_bench(bench_text("c17.bench"))
    net, key_a = apply_camouflage(net, ["10", "16"], CellFlavor.CAMO8)
    net, key_b = apply_camouflage(net, ["22"], CellFlavor.CMOS3A)
    key = CamoKey({**key_a.entries, **key_b.entries})
    return serialize_bench(net), key.serialize()


LOCKED_C17, LOCKED_C17_KEY = _locked_c17_texts()
_FUZZ_CHARS = "()=,#:.-\n 019eIAONDTUPCMF"


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after up to three character or whole-line edits."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["drop", "insert", "replace", "line"]))
        if edit == "drop":
            text = text[:i] + text[i + 1:]
        elif edit == "insert":
            text = text[:i] + draw(st.sampled_from(_FUZZ_CHARS)) + text[i:]
        elif edit == "replace":
            text = (text[:i] + draw(st.sampled_from(_FUZZ_CHARS))
                    + text[i + 1:])
        else:  # repeat or drop one line
            lines = text.splitlines(keepends=True) or [""]
            j = draw(st.integers(0, len(lines) - 1))
            lines[j:j + 1] = [lines[j]] * draw(st.integers(0, 2))
            text = "".join(lines)
    return text


_FUZZ_TEXTS = {"bench": LOCKED_C17, "key": LOCKED_C17_KEY, "cfg": GOOD_CONFIG}


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([LOCKED_C17, bench_text("synth_mix.bench")]).flatmap(
    mutated))
def test_mutated_bench_parses_as_the_reference_does(text):
    """A fuzzed .bench file gives the netlist, or the error class, message,
    line and column, that the parser's earlier line loop gives."""
    assert_parses_like_reference(text)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([*sorted(_FUZZ_TEXTS), "plain"]), st.data())
def test_fuzzed_files_exit_cleanly(which, data):
    """One of the four files is mutated; every command exits cleanly, and
    a netlist and key that ``lock`` writes can be parsed and reported."""
    texts = dict(_FUZZ_TEXTS, plain=bench_text("c17.bench"))
    texts[which] = data.draw(mutated(texts[which]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in texts}
        for name, text in texts.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        b, k, c = paths["bench"], paths["key"], paths["cfg"]
        again_b = os.path.join(tmp, "again.bench")
        again_k = os.path.join(tmp, "again.key")
        out = ["--no-timestamp", "--out", os.path.join(tmp, "report.json")]

        def run(argv) -> int:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv + out)
            assert stdout.getvalue() == "", argv
            if code != 0:
                assert code == 1, argv
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1, argv
                assert set(json.loads(lines[0])) == {"error", "message"}
            return code

        for argv in (
                ["parse", b],
                ["sim", b, "--key", k, "--inputs", "00000",
                 "--inputs", "10110"],
                ["attack", b, "--key", k, "--method", "brute",
                 "--config", c],
                ["attack", b, "--key", k, "--budget", "4", "--config", c],
                ["equiv", b, paths["plain"], "--key-a", k, "--config", c],
                ["report", b, "--key", k, "--config", c]):
            run(argv)
        for bench in (b, paths["plain"]):  # locked, then plain
            if run(["lock", bench, "--budget", "0.5", "--config", c,
                    "--out-bench", again_b, "--out-key", again_k]) == 0:
                assert run(["parse", again_b]) == 0
                assert run(["report", again_b, "--key", again_k]) == 0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 6), st.integers(2, 16), st.integers(0, 2 ** 16),
       st.integers(0, 2), st.sampled_from(sorted(FLAVOR_NAMES)),
       st.sampled_from(sorted(_STRATEGIES)), st.floats(0.05, 1.0),
       st.integers(0, 9))
def test_what_lock_writes_reports_and_is_equivalent(
        n_inputs, n_gates, seed, prelocked, flavor, strategy, budget,
        lock_seed):
    """For every netlist ``lock`` accepts, ``report OUT --key KEY`` exits
    0 and ``equiv IN OUT --key-b KEY`` finds the two equivalent; input
    that already has camouflaged cells is refused with nothing written."""
    net = random_netlist(n_inputs, n_gates, seed)
    two_input = [gid for gid in eligible_gates(net, CellFlavor.CAMO8)
                 if len(net.gate(gid).fanins) == 2]
    net, _ = apply_camouflage(net, two_input[:prelocked], CellFlavor.CAMO8)
    with tempfile.TemporaryDirectory() as tmp:
        bench, out_b, out_k = (os.path.join(tmp, name) for name in
                               ("in.bench", "out.bench", "out.key"))
        with open(bench, "w", encoding="utf-8") as fh:
            fh.write(serialize_bench(net))

        def run(argv) -> tuple[int, str, str]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv + ["--no-timestamp"])
            return code, stdout.getvalue(), stderr.getvalue()

        code, _, err = run(["lock", bench, "--flavor", flavor,
                            "--strategy", strategy, "--budget", str(budget),
                            "--seed", str(lock_seed),
                            "--out-bench", out_b, "--out-key", out_k])
        if net.camo_gates():
            assert json.loads(err)["error"] == "FlavorMismatchError"
        if code != 0:
            assert code == 1 and len(err.splitlines()) == 1
            assert not os.path.exists(out_b) and not os.path.exists(out_k)
            return
        assert run(["report", out_b, "--key", out_k])[0] == 0
        code, out, _ = run(["equiv", bench, out_b, "--key-b", out_k])
        assert code == 0 and json.loads(out)["equivalent"] is True


#: Tokens no subcommand accepts in that place, or that stop the parse.
_JUNK = ("--jobs", "x", "-h", "--help", "--", "2")
_VALUES = {int: ("3", "-1", "x"), float: ("0.5", "inf", "x"),
           None: ("a.bench", "0.3:0.4")}


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand name, then some of its options with drawn values,
    and a little junk at drawn places."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    tokens = []
    for flags, kwargs in (*COMMANDS[name][2], *_COMMON):
        if not draw(st.integers(0, 3)):
            continue  # leave it out, required or not
        values = kwargs.get("choices") or _VALUES[kwargs.get("type")]
        if flags[0].startswith("-"):
            tokens.append(draw(st.sampled_from(flags)))
        if kwargs.get("action") != "store_true":
            tokens.append(draw(st.sampled_from(values)))
    for junk in draw(st.lists(st.sampled_from(_JUNK), max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    return [name, *tokens]


def _parse_outcome(parser_argv: list[str], argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = build_parser(parser_argv).parse_args(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command_lines())
def test_one_subcommand_parser_agrees_with_the_full_one(argv):
    """The parser built for argv[0] alone reads argv as the full one does:
    an equal Namespace, or the same exit code, help and error text."""
    assert _parse_outcome(argv, argv) == _parse_outcome([], argv)
