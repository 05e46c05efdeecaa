import csv
import json
import os

import pytest

from sdnsim import cli
from sdnsim.cli import main
from sdnsim.scenario import ScenarioError


def test_run_with_output_directory(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["run", "scenarios/industrial_ring_e1.scn",
                 "--variants", "woRM,RM", "--seeds", "1",
                 "--sweep", "events=1..2", "--out", str(out)])
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "events.jsonl", "llde_cycles.csv", "manifest.json",
        "restoration_ms.csv", "success_rate.csv", "success_rate_strong.csv",
        "summary.json", "throughput_mbps.csv", "warnings.csv"]


def test_eq1_raw_mode_flag_doubles_logged_link_delays(tmp_path, capsys):
    args = ["run", "scenarios/linear_chain.scn", "--variants", "RM",
            "--seeds", "1"]
    assert main(args + ["--out", str(tmp_path / "halved")]) == 0
    assert main(args + ["--eq1-raw-mode", "--out", str(tmp_path / "raw")]) == 0
    halved, raw = (json.loads((tmp_path / d / "manifest.json").read_text())
                   for d in ("halved", "raw"))
    assert halved["eq1_raw_mode"] is False and raw["eq1_raw_mode"] is True
    assert {**raw, "eq1_raw_mode": False} == halved
    with open(tmp_path / "halved" / "llde_cycles.csv") as handle:
        halved_rows = list(csv.DictReader(handle))
    with open(tmp_path / "raw" / "llde_cycles.csv") as handle:
        raw_rows = list(csv.DictReader(handle))
    assert len(raw_rows) == len(halved_rows) > 0
    for h, r in zip(halved_rows, raw_rows):
        assert (r["cycle"], r["src"], r["dst"]) == \
            (h["cycle"], h["src"], h["dst"])
        assert int(r["link_delay_ns"]) == 2 * int(h["link_delay_ns"]) > 0


def test_run_prints_table_without_out(capsys):
    code = main(["run", "scenarios/linear_chain.scn", "--variants", "RM"])
    assert code == 0
    captured = capsys.readouterr()
    assert "SDN-RM" in captured.out


def test_missing_scenario_is_validation_error(capsys):
    code = main(["run", "scenarios/nope.scn"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_scenario_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[topology]\nswitches S1\nlink S1 S9 capacity=1Gbps\n")
    code = main(["run", str(bad)])
    assert code == 2
    assert "error: line 3: link S1-S9" in capsys.readouterr().err


def test_duplicate_contract_is_validation_error(tmp_path, capsys):
    contract = "contract C1 S1 S10 strong=10ms"
    with open("scenarios/linear_chain.scn", encoding="utf-8") as handle:
        text = handle.read().replace(contract, f"{contract}\n{contract}")
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--variants", "RM", "--seeds", "1"]) == 2
    assert "duplicate contract pair 'C1'" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["flows=0..1", "flows=1..99"])
def test_sweep_outside_the_scenario_is_validation_error(sweep, capsys):
    code = main(["run", "scenarios/linear_chain.scn", "--variants", "RM",
                 "--seeds", "1", "--sweep", sweep])
    assert code == 2
    assert "error: flow count" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, error", [
    ("scenarios/nope.scn", ScenarioError),
    ("scenarios/linear_chain.scn", ValueError),
])
def test_debug_reraises_instead_of_one_line_message(scenario, error, capsys,
                                                     monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("run failed")

    monkeypatch.setattr(cli, "run_experiment", fail)
    args = ["run", scenario, "--variants", "RM", "--seeds", "1"]
    assert main(args) in (1, 2)
    assert "error:" in capsys.readouterr().err
    with pytest.raises(error):
        main(args + ["--debug"])
    assert capsys.readouterr().err == ""


def test_unknown_variant_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["run", "scenarios/linear_chain.scn", "--variants", "XXX"])


@pytest.mark.parametrize("option, value, message", [
    ("--seeds", "0", "at least one seed is needed"),
    ("--seeds", "-2", "at least one seed is needed"),
    ("--variants", ",", "no variant given"),
])
def test_empty_run_rejected_by_parser(option, value, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", "scenarios/linear_chain.scn", option, value])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


def test_variant_named_twice_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", "scenarios/linear_chain.scn", "--variants",
              "woRM,SDN-woRM", "--seeds", "1"])
    assert exited.value.code == 2
    assert "variant SDN-woRM named twice" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_fails_before_the_run(under, tmp_path, capsys,
                                           monkeypatch):
    """--out naming a file, or a path under one, is an error before any
    run, and re-raised under --debug."""
    def fail(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", fail)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "reports" if under else taken
    args = ["run", "scenarios/linear_chain.scn", "--variants", "RM",
            "--seeds", "1", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(NotADirectoryError if under else FileExistsError):
        main(args + ["--debug"])


def test_report_write_failure_is_a_run_error(tmp_path, capsys):
    """A report file that cannot be written exits 1 with one line, and is
    re-raised under --debug."""
    (tmp_path / "summary.json").mkdir()
    args = ["run", "scenarios/linear_chain.scn", "--variants", "RM",
            "--seeds", "1", "--out", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(IsADirectoryError):
        main(args + ["--debug"])
