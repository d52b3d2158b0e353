"""CLI and package surface: subcommand behavior, record shapes, exit codes,
the public names."""

import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unifwatch
from unifwatch import SeededRng, derive_full_params, derive_interval_params
from unifwatch.cli import build_parser, main

from reference import read_records_jsonl


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def write_lines(path, values):
    path.write_text("".join(f"{int(v)}\n" for v in values))


def test_missing_required_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["test", "--n", "100"])
    assert code == 2


def test_config_error_exits_2(tmp_path, capsys):
    samples = tmp_path / "s.txt"
    write_lines(samples, [1] * 10)
    code, _, err = run_cli(capsys, ["test", "--n", "1", "--m", "2",
                                    "--delta", "0.1", "--samples", str(samples)])
    assert code == 2
    assert "error:" in err
    # full-tester overrides that leave no operating point
    for flag, value in [("--tau", "0"), ("--r", "0"), ("--r", "-3"),
                        ("--x-max", "-1")]:
        code, _, err = run_cli(capsys, ["full-test", "--n", "16", "--mu", "2",
                                        "--delta", "0.2", "--freq", str(samples),
                                        flag, value])
        assert code == 2
        assert "r must be >= 1, x_max >= 0 and tau > 0" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, ["test", "--n", "100", "--m", "2",
                                    "--delta", "0.1",
                                    "--samples", "/nonexistent/path.txt"])
    assert code == 3
    assert "error:" in err


def test_uniformity_subcommand_collision_regime(tmp_path, capsys):
    samples = tmp_path / "point.txt"
    write_lines(samples, [7] * (145 * 2))
    code, out, _ = run_cli(capsys, ["test", "--n", "10000", "--m", "2",
                                    "--delta", "0.1", "--samples", str(samples)])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "reject"
    assert record["branch"] == "collision"
    assert record["samples_consumed"] == 290
    assert record["witness"]["kind"] == "CollisionWitness"
    assert record["witness"]["collided"] == 145


def test_uniformity_subcommand_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("7\n" * 290))
    code, out, _ = run_cli(capsys, ["test", "--n", "10000", "--m", "2",
                                    "--delta", "0.1"])
    assert code == 0
    assert last_json(out)["verdict"] == "reject"


def test_baseline_subcommand(tmp_path, capsys):
    samples = tmp_path / "point.txt"
    write_lines(samples, [3] * 10)
    code, out, _ = run_cli(capsys, ["test", "--n", "1000", "--m", "10",
                                    "--delta", "0.1", "--samples", str(samples),
                                    "--baseline", "collision-count"])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "reject"
    assert record["witness"]["collided"] == 45


def test_track_subcommand_stage_lines(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    write_lines(stream, [5] * 503)
    code, out, _ = run_cli(capsys, ["track", "--n", "100", "--delta", "0.2",
                                    "--stream", str(stream)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("stage=0 m=1 branch=collision outcome=accept "
                               "samples=145")
    assert lines[1].startswith("stage=1 m=2 branch=collision outcome=reject "
                               "samples=358")
    summary = json.loads(lines[-1])
    assert summary["status"] == "reject"
    assert summary["stages_resolved"] == 2
    assert summary["samples_consumed"] == 503
    assert summary["stream_exhausted"] is False


def test_track_subcommand_reports_exhaustion(tmp_path, capsys):
    stream = tmp_path / "short.txt"
    write_lines(stream, [5] * 100)
    code, out, _ = run_cli(capsys, ["track", "--n", "100", "--delta", "0.2",
                                    "--stream", str(stream)])
    assert code == 0
    summary = last_json(out)
    assert summary["stream_exhausted"] is True
    assert summary["status"] == "plausible"
    assert summary["stages_resolved"] == 0


class BoundedLines:
    """Endless stdin of one line that fails the test past `limit` reads."""

    def __init__(self, line: str, limit: int):
        self.line, self.limit, self.read = line, limit, 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        self.read += 1
        assert self.read <= self.limit, f"read line {self.read} of {self.limit}"
        return self.line


def test_track_and_test_read_only_what_they_take(capsys, monkeypatch):
    """A point mass at n = 64 rejects at stage 1 after 503 symbols; track
    reads no line past them from an endless stdin, and test reads exactly
    the samples it requests."""
    stdin = BoundedLines("7\n", 503)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, ["track", "--n", "64", "--delta", "0.2"])
    assert code == 0
    summary = last_json(out)
    assert summary["status"] == "reject"
    assert summary["stages_resolved"] == 2
    assert summary["samples_consumed"] == stdin.read == 503

    requested = 2 * 145  # g = 145 groups at delta = 0.1, m = 2
    stdin = BoundedLines("7\n", requested)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, ["test", "--n", "64", "--m", "2",
                                    "--delta", "0.1"])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "reject"
    assert record["samples_requested"] == stdin.read == requested


def test_track_malformed_line_before_and_after_the_stop(capsys, monkeypatch):
    """A malformed line past the reject is never read; one inside stage 1
    stops the run after stage 0 prints."""
    good = ["7\n"] * 503
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(good) + "oops\n"))
    code, out, err = run_cli(capsys, ["track", "--n", "64", "--delta", "0.2"])
    assert (code, err) == (0, "")
    assert last_json(out)["status"] == "reject"
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(good[:200]) + "oops\n"))
    code, out, err = run_cli(capsys, ["track", "--n", "64", "--delta", "0.2"])
    assert code == 2
    assert "oops" in err
    assert out.startswith("stage=0 m=1 branch=collision outcome=accept samples=145")
    assert len(out.splitlines()) == 1


def test_interval_test_with_too_few_counts_exits_2(tmp_path, capsys):
    samples = tmp_path / "counts.txt"
    write_lines(samples, [1] * 100)
    code, out, err = run_cli(capsys, ["interval-test", "--mu", "1", "--eps", "2",
                                      "--delta", "0.5", "--samples", str(samples)])
    assert (code, out) == (2, "")
    assert err == "error: stream exhausted after 100 of 1700 symbols\n"


def test_interval_test_subcommand_truncates_and_echoes_params(tmp_path, capsys):
    params = derive_interval_params(1.0, 2.0, 0.5)
    draws = SeededRng(81).generator.poisson(1.0, size=params.m + 50)
    samples = tmp_path / "counts.txt"
    write_lines(samples, draws)
    code, out, _ = run_cli(capsys, ["interval-test", "--mu", "1", "--eps", "2",
                                    "--delta", "0.5",
                                    "--samples", str(samples)])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "accept"
    assert record["params"]["m"] == params.m == 1700
    assert record["params"]["x_max"] == params.x_max
    assert record["intervals_evaluated"] == \
        (params.x_max + 1) * (params.x_max + 2) // 2


def test_full_test_subcommand(tmp_path, capsys):
    params = derive_full_params(16, 2.0, 0.2, r=48)
    gen = SeededRng(82).generator
    null_freq = tmp_path / "null.txt"
    write_lines(null_freq, gen.poisson(params.s * 2.0, size=16))
    code, out, _ = run_cli(capsys, ["full-test", "--n", "16", "--mu", "2",
                                    "--delta", "0.2", "--r", "48",
                                    "--freq", str(null_freq)])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "accept"
    assert record["params"]["s"] == params.s

    lumpy = np.r_[gen.poisson(params.s * 3.9, size=8),
                  gen.poisson(params.s * 0.1, size=8)]
    lumpy_freq = tmp_path / "lumpy.txt"
    write_lines(lumpy_freq, lumpy)
    code, out, _ = run_cli(capsys, ["full-test", "--n", "16", "--mu", "2",
                                    "--delta", "0.2", "--r", "48",
                                    "--freq", str(lumpy_freq)])
    assert code == 0
    record = last_json(out)
    assert record["verdict"] == "reject"
    assert record["witness"]["kind"] == "IntervalWitness"


def test_oracle_subcommand_all_verbs(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "hellinger", "--mu", "10",
                                    "--rates", "5,15"])
    assert code == 0
    assert last_json(out)["hellinger_sq"] == pytest.approx(0.29409112421617684)

    code, out, _ = run_cli(capsys, ["oracle", "tv", "--mu", "10",
                                    "--rates", "5,15"])
    assert code == 0
    assert last_json(out)["tv"] == pytest.approx(0.43859405985416555)

    code, out, _ = run_cli(capsys, ["oracle", "best-interval", "--mu", "10",
                                    "--rates", "5,15", "--x-max", "40"])
    assert code == 0
    best = last_json(out)["best_interval"]
    assert (best["a"], best["b"]) == (6, 14)

    code, out, _ = run_cli(capsys, ["oracle", "threshold-set", "--mu", "10",
                                    "--rates", "5,15", "--r", "1.0",
                                    "--x-max", "40"])
    assert code == 0
    structure = last_json(out)["structure"]
    assert structure["kind"] == "complement_interval"
    assert (structure["a"], structure["b"]) == (7, 14)

    code, out, _ = run_cli(capsys, ["oracle", "opt-proxy", "--mu", "10",
                                    "--rates", "5,15"])
    assert code == 0
    assert last_json(out)["opt_samples_proxy"] == 4


def test_oracle_zero_distance_exits_2(capsys):
    code, _, err = run_cli(capsys, ["oracle", "opt-proxy", "--mu", "10",
                                    "--rates", "10"])
    assert code == 2
    assert "error:" in err


SIM_CONFIG = {
    "tester": "baseline",
    "family": {"family": "uniform", "n": 100},
    "trials": 8,
    "seed": 99,
    "params": {"m": 50},
}


def test_simulate_subcommand_jsonl(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out_path = tmp_path / "records.jsonl"
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(config),
                                    "--out", str(out_path)])
    assert code == 0
    summary = last_json(out)
    assert summary["trials"] == 8
    assert summary["tester"] == "baseline"
    records = read_records_jsonl(out_path)
    assert [r.trial for r in records] == list(range(8))

    # reruns agree, wall time aside
    rerun_path = tmp_path / "rerun.jsonl"
    run_cli(capsys, ["simulate", "--config", str(config), "--out",
                     str(rerun_path)])
    rerun = read_records_jsonl(rerun_path)
    strip = lambda rs: [(r.trial, r.seed, r.verdict, r.branch,
                         r.samples_consumed, r.witness) for r in rs]
    assert strip(records) == strip(rerun)


def test_simulate_overrides_and_csv(tmp_path, capsys):
    """--trials and --seed override the config; records are JSONL only, so
    the retired --format csv is a usage error."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out_path = tmp_path / "records.jsonl"
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(config),
                                    "--trials", "4", "--seed", "123",
                                    "--out", str(out_path)])
    assert code == 0
    summary = last_json(out)
    assert summary["trials"] == 4
    assert summary["seed"] == 123
    records = read_records_jsonl(out_path)
    assert len(records) == 4
    assert all(r.seed == 123 for r in records)

    csv_path = tmp_path / "records.csv"
    code, out, err = run_cli(capsys, ["simulate", "--config", str(config),
                                      "--out", str(csv_path), "--format", "csv"])
    assert code == 2
    assert out == "" and "--format" in err
    assert not csv_path.exists()


TRACK_CONFIG = {"tester": "tracker", "family": {"family": "uniform", "n": 64},
                "trials": 1, "seed": 3, "params": {"delta": 0.2, "max_stage": 1}}


def test_simulate_rejects_malformed_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    # "params" is the one key for the tester params; another top-level key,
    # such as "overrides", is refused rather than read or ignored, and so is
    # valid JSON that is not an object.  A value of the wrong JSON type is
    # refused by the name of its key, as is a key no object of the config has.
    cases = [
        ("{not json", "error:"),
        (json.dumps({**SIM_CONFIG, "overrides": {"m": 10}}), "overrides"),
        ("[1, 2]", "error:"),
        ("5", "error:"),
        (json.dumps({**TRACK_CONFIG, "params": {"delta": 0.2, "max_stage": "3"}}),
         "config.params.max_stage"),
        (json.dumps({**TRACK_CONFIG, "family": {"family": "heavy_element",
                                                "n": 64, "beta": "0.5"}}),
         "config.family.beta"),
        (json.dumps({**TRACK_CONFIG, "params": {"delta": None, "max_stage": 1}}),
         "config.params.delta"),
        (json.dumps({**TRACK_CONFIG, "params": {"delta": 0.2, "max_stage": 1,
                                                "overrides": {"q": 8}}}),
         "config.params.overrides: q"),
        (json.dumps({**SIM_CONFIG, "family": {"family": "explicit", "n": 16,
                                              "probs": [0.5, 0.5]}}),
         "explicit family needs 16 probs"),
    ]
    for text, named in cases:
        config.write_text(text)
        code, out, err = run_cli(capsys, ["simulate", "--config", str(config)])
        assert code == 2, text
        assert out == ""
        assert "error:" in err and named in err, err


SMOKE_ARGS = ["oracle", "opt-proxy", "--mu", "10", "--rates", "5,15"]
REPO_ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = REPO_ROOT / "pyproject.toml"
README = REPO_ROOT / "README.md"


def assert_smoke_result(result):
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["opt_samples_proxy"] == 4


def test_console_script_smoke():
    # A fresh interpreter runs the whole entry point: argument parsing, main,
    # sys.exit and the JSON on stdout.  The child imports the same unifwatch
    # as this process, whatever the working directory or installed copies.
    package_root = str(Path(unifwatch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "unifwatch", *SMOKE_ARGS],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert_smoke_result(result)


def test_console_script_target_is_entrypoint():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["unifwatch"]
    module_name, attr = target.split(":")
    resolved = getattr(importlib.import_module(module_name), attr)
    assert resolved is unifwatch.cli.entrypoint


# Names the package no longer ships: the ones tests check claims with moved
# to tests/reference.py; the others, the CSV record format among them, are
# deleted.
RETIRED_NAMES = (
    "tv_distance", "kl_divergence", "pmf_ratio", "poisson_pmf",
    "poisson_interval_mass", "IntervalMass", "eliminate_large_witness",
    "EliminateWitness", "literal_full_tester", "mc_tv_lower_bound",
    "sample_poisson", "depoissonize", "read_records_jsonl", "record_from_dict",
    "write_summary", "write_records_csv", "read_records_csv", "RECORD_COLUMNS")


def test_public_names():
    names = unifwatch.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(unifwatch, name), name
    modules = [getattr(unifwatch, module) for module in
               ("distances", "oracle", "poisson", "harness", "cli")]
    for name in RETIRED_NAMES:
        assert name not in names
        assert not any(hasattr(module, name) for module in [unifwatch, *modules]), name


@pytest.mark.skipif(shutil.which("unifwatch") is None,
                    reason="unifwatch console script not installed")
def test_installed_console_script():
    result = subprocess.run(["unifwatch", *SMOKE_ARGS],
                            capture_output=True, text=True, timeout=120)
    assert_smoke_result(result)


def test_readme_cli_commands_parse():
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            line = line.split(">", 1)[0].strip()
            if line and not line.startswith("#"):
                words = shlex.split(line)
                commands.append(words[words.index("unifwatch") + 1:])
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"README command does not parse: {argv} ({exc.code})")
