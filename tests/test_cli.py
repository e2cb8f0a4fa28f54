import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from csicalib import (
    CalibrationConstants,
    SimConfig,
    calibrate,
    circular_stats,
    differential_series,
    encode_binary_trace,
    estimate_losses,
    parse_text_trace,
    run_sweep,
    simulate_capture,
    sweep_outputs,
    variation_stats,
    write_text_trace,
)
from csicalib import cli, quality
from csicalib.cli import main
from csicalib.errors import CsiCalibError, SchemaError

from conftest import REALISTIC_DISTORTION, make_record, random_record


def _capture_text(n=20, attenuation=(33.0, 30.0, 36.0), seed=0):
    config = SimConfig(attenuation_db=attenuation, n_packets=n, seed=seed)
    return write_text_trace(simulate_capture(config, REALISTIC_DISTORTION))


def _write_config(tmp_path, extra=None):
    obj = {
        "sim": {"attenuation_db": [33, 30, 36], "n_packets": 20, "seed": 0},
        "distortion": {
            "cfo_rate_deg": 17.3,
            "sfo_slope_deg": 0.11,
            "pdd_jitter_deg": 4.0,
            "delta_deg": [0.0, 40.0, -70.0],
        },
    }
    if extra:
        obj.update(extra)
    path = tmp_path / "config.json"
    # A lone surrogate in extra writes the byte it escapes, as a file name's does.
    path.write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8", "surrogateescape"))
    return str(path)


def test_parse_roundtrip(tmp_path):
    rng = np.random.default_rng(51)
    records = [random_record(rng) for _ in range(10)]
    binary = tmp_path / "trace.bin"
    binary.write_bytes(encode_binary_trace(records))
    text = tmp_path / "trace.txt"
    assert main(["parse", "--in", str(binary), "--format", "binary",
                 "--out", str(text)]) == 0
    back = tmp_path / "back.bin"
    assert main(["parse", "--in", str(text), "--format", "text",
                 "--out", str(back)]) == 0
    assert back.read_bytes() == binary.read_bytes()


def test_parse_empty_file(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "out.txt"
    assert main(["parse", "--in", str(empty), "--format", "binary",
                 "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_parse_corrupt_input_exit_code(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\xff\xbb\x01")
    assert main(["parse", "--in", str(bad), "--format", "binary",
                 "--out", str(tmp_path / "out.txt")]) == 2


def test_parse_missing_input_exit_code(tmp_path):
    assert main(["parse", "--in", str(tmp_path / "nope.bin"),
                 "--format", "binary", "--out", str(tmp_path / "o.txt")]) == 2


def test_calibrate_outputs(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text())
    out = tmp_path / "cal"
    assert main(["calibrate", "--in", str(trace), "--out", str(out)]) == 0
    amplitudes = (out / "amplitudes.csv").read_text()
    assert amplitudes.startswith("#")
    assert "port_power_dbm" in amplitudes
    assert (out / "phases.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "calibrate"
    assert manifest["in_path"] == str(trace)


def test_analyze_verdict(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text())
    out = tmp_path / "ana"
    assert main(["analyze", "--in", str(trace), "--out", str(out),
                 "--tx-power", "-3"]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["class"] == "Reliable"
    assert (out / "stats.csv").exists()


@pytest.mark.parametrize("weak_db, spread", [(50.0, 20.0), (60.0, 30.0)])
def test_analyze_without_tx_power_checks_the_spread_of_the_port_powers(tmp_path, weak_db,
                                                                       spread):
    # A weak port 20 or 30 dB below the others: its pairs' phase STDs are
    # about 5.9 and 16 degrees, against 0.8 on the strong pair.  Without
    # --tx-power these read Reliable until the spread of the measured
    # powers was checked.
    config = SimConfig(attenuation_db=(30.0, 30.0, weak_db), n_packets=200, seed=1)
    trace = tmp_path / "weak.txt"
    trace.write_text(write_text_trace(simulate_capture(config, REALISTIC_DISTORTION)))
    assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "no_tx")]) == 0
    assert json.loads((tmp_path / "no_tx" / "verdict.json").read_text()) == {
        "class": "Degraded",
        "reasons": [{"check": "power_spread", "threshold": 10.0, "observed": spread}]}
    assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "tx"),
                 "--tx-power", "-3"]) == 0
    verdict = json.loads((tmp_path / "tx" / "verdict.json").read_text())
    assert verdict == {"class": "Degraded", "reasons": [
        {"check": "loss_spread", "threshold": 10.0, "observed": spread}]}


def test_analyze_manifest_records_every_argument_but_out(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text())
    manifests = {}
    for tx_power in ("-3", "40"):
        out = tmp_path / f"ana{tx_power}"
        assert main(["analyze", "--in", str(trace), "--out", str(out),
                     "--tx-power", tx_power]) == 0
        manifests[tx_power] = json.loads((out / "manifest.json").read_text())
    expected = {"command": "analyze", "in_path": str(trace), "tx_power": -3.0,
                "consts_c": CalibrationConstants.c_fixed,
                "agc_min": CalibrationConstants.agc_min,
                "agc_max": CalibrationConstants.agc_max,
                "seed": None, "tool_version": cli.__version__}
    assert manifests["-3"] == expected
    assert manifests["40"] == {**expected, "tx_power": 40.0}


def test_same_run_writes_the_same_manifest(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    first = (out / "manifest.json").read_bytes()
    assert main(argv) == 0
    assert (out / "manifest.json").read_bytes() == first


def test_analyze_warns_on_fewer_than_five_records(tmp_path, capsys):
    trace = tmp_path / "three.txt"
    trace.write_text(_capture_text(n=3))
    out = tmp_path / "ana"
    assert main(["analyze", "--in", str(trace), "--out", str(out)]) == 0
    assert "warning: fewer than 5 records" in capsys.readouterr().err
    for name in ("stats.csv", "verdict.json", "manifest.json"):
        assert (out / name).exists()


def test_analyze_single_record_exit_code(tmp_path):
    trace = tmp_path / "one.txt"
    trace.write_text(write_text_trace([make_record()]))
    assert main(["analyze", "--in", str(trace),
                 "--out", str(tmp_path / "ana")]) == 3


def test_analyze_mixed_rx_layout_exit_code(tmp_path, capsys):
    records = [make_record() for _ in range(3)]
    records.append(make_record(n_rx=2, rssi=(36, 39, 0)))
    records.append(make_record())
    trace = tmp_path / "mixed.txt"
    trace.write_text(write_text_trace(records))
    assert main(["analyze", "--in", str(trace),
                 "--out", str(tmp_path / "ana")]) == 3
    assert "record 3 has n_rx=2" in capsys.readouterr().err


def test_calibrate_and_analyze_reject_mixed_rx_layout_alike(tmp_path, capsys):
    # Record 0 has two ports, so a check of record 0 alone would pass.
    records = [make_record(n_rx=2, rssi=(36, 39, 0), antenna_perm=(0, 1, 0))]
    records += [make_record() for _ in range(2)]
    trace = tmp_path / "mixed.txt"
    trace.write_text(write_text_trace(records))
    errors = []
    for command in ("calibrate", "analyze"):
        out = tmp_path / command
        assert main([command, "--in", str(trace), "--out", str(out)]) == 3
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: record 1 has n_rx=3, record 0 has n_rx=2\n"


def test_calibrate_and_analyze_mask_an_absent_port_alike(tmp_path):
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=50, seed=0)
    records = list(simulate_capture(config, REALISTIC_DISTORTION))
    records[17] = replace(records[17], rssi=(*records[17].rssi[:2], 0))
    trace = tmp_path / "absent.txt"
    trace.write_text(write_text_trace(records))
    for command in ("calibrate", "analyze"):
        assert main([command, "--in", str(trace), "--out", str(tmp_path / command)]) == 0

    with open(tmp_path / "calibrate" / "phases.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    masked = {(r["packet"], r["pair"]) for r in rows if r["unmeasurable"] == "1"}
    assert masked == {("17", "3/2"), ("17", "1/3")}
    assert all(r["phase_deg"] == "" for r in rows if r["unmeasurable"] == "1")

    # Each pair's phase STD is taken over the records where both ports read
    # present, so a pair with port 3 skips record 17.
    with open(tmp_path / "analyze" / "stats.csv", newline="") as fh:
        (stats_row,) = csv.DictReader(fh)
    for pair, label in (((1, 0), "2/1"), ((2, 1), "3/2"), ((0, 2), "1/3")):
        usable = [r for t, r in enumerate(records) if t != 17 or 2 not in pair]
        phase = differential_series(usable, pair).phase_deg
        std = np.mean([circular_stats(phase[:, k])["std_deg"] for k in range(30)])
        assert stats_row[f"phase_std_{label}_deg"] == f"{std:.4f}"

    # An absent port has no amplitude: record 17's port-3 cells are empty,
    # and that port's amplitude STD is taken over the other 49 records.
    with open(tmp_path / "calibrate" / "amplitudes.csv", newline="") as fh:
        amp_rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    absent_rows = [row for row in amp_rows if row[:2] == ["17", "3"]]
    assert len(absent_rows) == 30
    assert all(row[-1] == "" for row in absent_rows)
    assert all(row[-1] != "" for row in amp_rows[1:] if row[:2] != ["17", "3"])
    frame = calibrate(records, CalibrationConstants())
    everyone = list(range(50))
    for p, used in ((0, everyone), (1, everyone), (2, everyone[:17] + everyone[18:])):
        amp = frame.amplitude_dbm[used, :, p, 0]
        std = np.mean(np.std(amp, axis=0))
        assert stats_row[f"amp_std_port{p + 1}_db"] == f"{std:.4f}"

    # Record 17's port 3 has non-zero CSI but no reading: it counts in the
    # zero fraction, which grows by one record's share.
    assert np.all(records[17].csi[:, 2, :] != 0)
    zero_csi = [np.mean([(r.csi[:, p, :] == 0).mean() for r in records]) for p in range(3)]
    stats = variation_stats(records, CalibrationConstants())
    assert stats.zero_fraction[:2].tolist() == zero_csi[:2]
    assert stats.zero_fraction[2] == pytest.approx(zero_csi[2] + 1 / 50, abs=1e-15)
    assert stats_row["zero_fraction_port3"] == f"{stats.zero_fraction[2]:.4f}"


def test_phase_series_are_made_once_per_capture(tmp_path, monkeypatch):
    # One differential_series call for all pairs of a capture, in calibrate,
    # in analyze and for each sweep point; never one call per pair.
    calls = []

    def counted(records, pairs):
        calls.append(pairs)
        return differential_series(records, pairs)

    monkeypatch.setattr(cli, "differential_series", counted)
    monkeypatch.setattr(quality, "differential_series", counted)
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text())
    for command in ("calibrate", "analyze"):
        assert main([command, "--in", str(trace), "--out", str(tmp_path / command)]) == 0
    assert calls == [((1, 0), (2, 1), (0, 2))] * 2
    config = _write_config(tmp_path, {"sweep": [[33, 30, 36], [40, 30, 36], [45, 30, 36]]})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 2 + 3


@pytest.mark.parametrize("no_reading", ["zero_csi", "absent_ports"])
def test_calibrate_and_analyze_pass_a_record_with_no_reading(tmp_path, no_reading):
    # Record 17 reads nothing: zero CSI on every port, or RSSI 0 on every
    # port.  It calibrates to NaN and neither command stops on it.
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=50, seed=0)
    records = list(simulate_capture(config, REALISTIC_DISTORTION))
    assert all(np.all(r.csi != 0) for r in records)
    if no_reading == "zero_csi":
        records[17] = replace(records[17], csi=np.zeros_like(records[17].csi))
    else:
        records[17] = replace(records[17], rssi=(0, 0, 0))
    trace = tmp_path / "trace.txt"
    trace.write_text(write_text_trace(records))
    for command in ("calibrate", "analyze"):
        assert main([command, "--in", str(trace), "--out", str(tmp_path / command)]) == 0

    with open(tmp_path / "calibrate" / "amplitudes.csv", newline="") as fh:
        amp_rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    assert len(amp_rows) == 1 + 50 * 90
    assert all((row[-1] == "") == (row[0] == "17") for row in amp_rows[1:])
    with open(tmp_path / "calibrate" / "phases.csv", newline="") as fh:
        masked = {(r["packet"], r["pair"]) for r in csv.DictReader(fh)
                  if r["unmeasurable"] == "1"}
    assert masked == {("17", "2/1"), ("17", "3/2"), ("17", "1/3")}

    # The record counts toward every port's zero fraction, one record's share.
    with open(tmp_path / "analyze" / "stats.csv", newline="") as fh:
        (stats_row,) = csv.DictReader(fh)
    for p in (1, 2, 3):
        assert stats_row[f"zero_fraction_port{p}"] == "0.0200"
        assert stats_row[f"amp_std_port{p}_db"] != ""
    assert json.loads((tmp_path / "analyze" / "verdict.json").read_text())["class"] == "Reliable"


def test_analyze_port_absent_in_every_record(tmp_path):
    # Port 3 reads RSSI 0 throughout but keeps its (non-zero) CSI.
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=30, seed=2)
    records = [replace(r, rssi=(*r.rssi[:2], 0))
               for r in simulate_capture(config, REALISTIC_DISTORTION)]
    assert all(np.all(r.csi[:, 2, :] != 0) for r in records)
    trace = tmp_path / "absent.txt"
    trace.write_text(write_text_trace(records))
    assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "ana"),
                 "--tx-power", str(config.tx_power_dbm)]) == 0

    with open(tmp_path / "ana" / "stats.csv", newline="") as fh:
        (stats_row,) = csv.DictReader(fh)
    assert stats_row["amp_std_port3_db"] == ""
    assert stats_row["amp_std_port1_db"] != "" and stats_row["amp_std_port2_db"] != ""
    assert stats_row["phase_std_2/1_deg"] != ""
    assert stats_row["phase_std_3/2_deg"] == stats_row["phase_std_1/3_deg"] == ""

    stats = variation_stats(records, CalibrationConstants())
    assert np.all(np.isnan(stats.amp_mean_dbm[2])) and np.all(np.isnan(stats.amp_std_db[2]))
    losses = estimate_losses(stats.port_power_mean_dbm, config.tx_power_dbm)
    assert math.isfinite(losses[0]) and math.isfinite(losses[1])
    assert losses[2] == math.inf
    verdict = json.loads((tmp_path / "ana" / "verdict.json").read_text())
    assert verdict["class"] == "PhaseUnmeasurable"
    assert {"check": "loss_spread", "threshold": 30.0, "observed": "inf"} in verdict["reasons"]

    # Without loss estimates, the absent port still shows: it has no
    # reading in any record, so its zero fraction is 1.
    assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "no_tx")]) == 0
    verdict = json.loads((tmp_path / "no_tx" / "verdict.json").read_text())
    assert verdict == {"class": "PhaseUnmeasurable", "reasons": [
        {"check": "zero_fraction", "threshold": 0.5, "observed": 1.0}]}
    with open(tmp_path / "no_tx" / "stats.csv", newline="") as fh:
        (stats_row,) = csv.DictReader(fh)
    assert stats_row["zero_fraction_port3"] == "1.0000"


def test_simulate_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "trace.txt").read_text() == (out2 / "trace.txt").read_text()
    records = parse_text_trace((out1 / "trace.txt").read_text())
    assert len(records) == 20


def test_simulate_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, {"sim": {"attenuation_db": [33, 30, 36],
                                           "n_packets": 20, "seed": 11}})
    base = tmp_path / "base"
    flagged = tmp_path / "flag"
    enved = tmp_path / "env"
    assert main(["simulate", "--config", cfg, "--out", str(base)]) == 0
    monkeypatch.setenv("CSI_CALIB_SEED", "7")
    assert main(["simulate", "--config", cfg, "--out", str(enved)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7",
                 "--out", str(flagged)]) == 0
    assert (enved / "trace.txt").read_text() == (flagged / "trace.txt").read_text()
    assert (base / "trace.txt").read_text() != (enved / "trace.txt").read_text()
    seeds = [json.loads((out / "manifest.json").read_text())["seed"]
             for out in (base, enved, flagged)]
    assert seeds == [11, 7, 7]


def test_simulate_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"sim": {"n_packets": 0}}')
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 4
    cfg.write_text("not json")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 4


def test_simulate_unquantized_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"sim": {"attenuation_db": [33, 30, 36],
                                           "n_packets": 20, "quantize": False}})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()
    assert "quantize must be true" in capsys.readouterr().err


def test_sweep_outputs(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": [[33, 30, 36], [66, 66, 66]]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("Reliable")
    assert lines[2].endswith("Unstable")
    assert "phase_std_2/1_deg,phase_std_3/2_deg,phase_std_1/3_deg" in lines[0]
    assert "pair 3/2" in (out / "phase_std.svg").read_text()
    for name in ("amp_std.svg", "phase_std.svg", "rssi_deviation.svg"):
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_sweep_writes_the_sweep_outputs_of_its_chains(tmp_path):
    rows = [(33.0, 30.0, 36.0), (66.0, 66.0, 66.0)]
    cfg = _write_config(tmp_path, {"sweep": rows})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    base = SimConfig(attenuation_db=rows[0], n_packets=20, seed=5)
    results = run_sweep([replace(base, attenuation_db=row) for row in rows], REALISTIC_DISTORTION)
    outputs = sweep_outputs(results)
    assert list(outputs) == ["report.csv", "amp_std.svg", "phase_std.svg", "rssi_deviation.svg"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
    for name, text in outputs.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_sweep_report_leaves_every_missing_value_empty(tmp_path):
    # Ports 2 and 3 at 90 dB read no CSI at all and RSSI 0.
    cfg = tmp_path / "config.json"
    cfg.write_text('{"sim": {"n_packets": 30}, "sweep": [[30, 90, 90]]}')
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    row = (out / "report.csv").read_text().splitlines()[1]
    assert row == "0,30,90,90,0.0000,,,,,,0.0000,,,,PhaseUnmeasurable"


def test_sweep_requires_rows(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 4


def test_control_trajectory(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"sim": {"attenuation_db": [23, 50, 50], "n_packets": 20, "seed": 0}},
    )
    out = tmp_path / "ctl"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
    steps = [json.loads(line) for line in lines]
    assert steps[-1]["verdict"] == "Reliable"
    assert len(steps) <= 3


def test_control_zero_iterations_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"control": {"max_iters": 0}})
    assert main(["control", "--config", cfg, "--out", str(tmp_path / "ctl")]) == 4


def test_control_chain_fields_are_config_error(tmp_path, capsys):
    # The loop takes the chain from the sim section, so a control-section
    # copy would be silently ignored.
    cfg = _write_config(tmp_path, {"control": {"tx_power_dbm": 0.0}})
    assert main(["control", "--config", cfg, "--out", str(tmp_path / "ctl")]) == 4
    assert "tx_power_dbm" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["spread_ok_db", "max_loss_db"])
def test_control_threshold_fields_are_config_error(tmp_path, capsys, key):
    # The loop takes the ceiling and spread from the thresholds section.
    cfg = _write_config(tmp_path, {"control": {key: 10.0}})
    assert main(["control", "--config", cfg, "--out", str(tmp_path / "ctl")]) == 4
    assert key in capsys.readouterr().err


def test_control_reads_ceiling_from_thresholds(tmp_path):
    cfg = _write_config(tmp_path, {
        "sim": {"attenuation_db": [20, 40, 55], "n_packets": 20, "seed": 0},
        "thresholds": {"max_loss_db": 50},
    })
    out = tmp_path / "ctl"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    (line,) = (out / "trajectory.jsonl").read_text().splitlines()
    action = json.loads(line)["action"]
    assert not action["feasible"]
    assert action["added_attenuation_db"] == [0.0, 0.0, 0.0]


_DEEP = "[" * 5000 + "]" * 5000


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    trace = tmp_path / "deep.txt"
    trace.write_text(_DEEP + "\n")
    assert main(["parse", "--in", str(trace), "--format", "text",
                 "--out", str(tmp_path / "out.bin")]) == 2
    assert "line 1: JSON nested too deeply" in capsys.readouterr().err


_VALID_OBJ = json.loads(write_text_trace([make_record()]))
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=20,
)
# Any JSON value, and a valid record with one field replaced by any JSON value.
_json_line = st.one_of(
    _json.map(json.dumps),
    st.tuples(st.sampled_from(sorted(_VALID_OBJ)), _json).map(
        lambda edit: json.dumps({**_VALID_OBJ, edit[0]: edit[1]})),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_json_line)
@example(_DEEP)
@example(json.dumps(_VALID_OBJ))
@example(json.dumps({**_VALID_OBJ, "csi": [[10**400, 0]] + _VALID_OBJ["csi"][1:]}))
def test_cli_json_line_exit_code_property(tmp_path, line):
    trace = tmp_path / "line.txt"
    trace.write_text(line + "\n")
    for command in ("calibrate", "analyze"):
        out = tmp_path / command
        assert main([command, "--in", str(trace), "--out", str(out)]) in (0, 2, 3)


@pytest.mark.parametrize("command", ["parse", "calibrate", "analyze"])
def test_non_utf8_trace_is_input_error(tmp_path, capsys, command):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(_capture_text(n=3).encode() + b"\xff\xfe{}\n")
    args = [command, "--in", str(trace), "--out", str(tmp_path / "out")]
    if command == "parse":
        args += ["--format", "text"]
    assert main(args) == 2
    assert "line 4: not UTF-8 text" in capsys.readouterr().err


def test_analyze_writes_the_same_utf8_bytes_in_any_locale(tmp_path):
    # stats.csv and manifest.json hold the trace's file name, which an ASCII
    # locale decodes to surrogates and writes in its own encoding.
    name = "trace\u2192x.txt"
    (tmp_path / name).write_text(_capture_text(n=20))
    src = str(Path(cli.__file__).resolve().parents[1])
    stats, manifests = [], []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                   {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}):
        out = f"ana{len(stats)}"
        run = subprocess.run([sys.executable, "-m", "csicalib.cli", "analyze", "--in", name,
                              "--out", out], cwd=tmp_path, capture_output=True, timeout=120,
                             env={**os.environ, **locale, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        stats.append((tmp_path / out / "stats.csv").read_bytes())
        manifests.append((tmp_path / out / "manifest.json").read_bytes())
    assert stats[0] == stats[1]
    assert b"\ntrace\xe2\x86\x92x.txt," in stats[0]
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["in_path"] == name


def test_non_utf8_line_counts_only_line_breaks(tmp_path, capsys):
    # U+2028 and \f are no line breaks of the format: the bad byte is on line 3.
    note = json.dumps({**_VALID_OBJ, "note": "a\u2028b"}, ensure_ascii=False)
    trace = tmp_path / "trace.txt"
    trace.write_bytes((note + "\n\f\n").encode() + b"\xff\n")
    assert main(["parse", "--in", str(trace), "--format", "text",
                 "--out", str(tmp_path / "out.bin")]) == 2
    assert "line 3: not UTF-8 text" in capsys.readouterr().err


#: The exit code of every error class: 2 for a faulty trace, 4 for a bad
#: config, 3 for the rest.
_EXIT_CODES = {
    "CsiCalibError": 3,
    "TruncatedRecord": 2,
    "LengthMismatch": 2,
    "InvariantViolation": 2,
    "SchemaError": 2,
    "AbsentPort": 3,
    "InsufficientData": 3,
    "MixedLayout": 3,
    "ConfigError": 4,
    "InsufficientPorts": 3,
}


def _error_classes(cls=CsiCalibError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_exits_with_its_code(monkeypatch, capsys):
    classes = list(_error_classes())
    assert sorted(c.__name__ for c in classes) == sorted(_EXIT_CODES)
    for cls in classes:
        exc = cls(7, "boom") if cls is SchemaError else cls("boom")

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "parse", fail)
        code = main(["parse", "--in", "x", "--format", "text", "--out", "y"])
        assert code == _EXIT_CODES[cls.__name__], cls.__name__
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_integer_beyond_int_conversion_is_input_error(tmp_path, capsys):
    # json.loads raises a plain ValueError past 4300 digits.
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text(n=2) + json.dumps(
        {**_VALID_OBJ, "agc": "AGC"}).replace('"AGC"', "9" * 5000) + "\n")
    assert main(["calibrate", "--in", str(trace), "--out", str(tmp_path / "out")]) == 2
    assert "line 3: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", {"sim": {"n_packets": "5"}}, 'sim.n_packets must be a JSON integer, got "5"'),
    ("simulate", {"sim": {"n_packets": True}}, "sim.n_packets must be a JSON integer"),
    ("simulate", {"sim": {"seed": 1.5}}, "sim.seed must be a JSON integer, got 1.5"),
    ("simulate", {"sim": {"attenuation_db": 5}}, "sim.attenuation_db must be a list, got 5"),
    ("simulate", {"sim": {"attenuation_db": [float("nan"), 30, 30]}},
     "sim.attenuation_db[0] must be a finite number, got NaN"),
    ("simulate", {"sim": {"tx_power_dbm": True}}, "sim.tx_power_dbm must be a finite number"),
    ("simulate", {"sim": {"quantize": 1}}, "sim.quantize must be a JSON boolean, got 1"),
    ("simulate", {"sim": {"multipath": [{"gain": "x"}]}},
     'sim.multipath[0].gain must be a finite number, got "x"'),
    ("simulate", {"sim": {"multipath": [{"delay": 1.0}]}}, "unknown keys delay"),
    ("simulate", {"sim": [30, 30, 30]}, "sim must be a JSON object"),
    ("simulate", {"distortion": {"delta_deg": [0.0, 40.0]}},
     "distortion.delta_deg needs 3 entries"),
    ("control", {"control": {"max_iters": "x"}},
     'control.max_iters must be a JSON integer, got "x"'),
    ("control", {"control": {"max_iters": 8.0}}, "control.max_iters must be a JSON integer"),
    ("control", {"sim": {"attenuation_db": [70, 70, 70], "n_packets": 20},
                 "thresholds": {"max_loss_db": float("nan")}},
     "thresholds.max_loss_db must be a finite number, got NaN"),
    ("sweep", {"sweep": [["a", 1, 2]]}, 'sweep[0][0] must be a finite number, got "a"'),
    ("sweep", {"sweep": [5]}, "sweep[0] must be a list, got 5"),
    ("sweep", {"sweep": [[30, 30]]}, "sweep[0] needs 3 entries"),
    ("sweep", {"sweep": [[30, 30, 30]], "thresholds": {"max_loss_db": "x"}},
     'thresholds.max_loss_db must be a finite number, got "x"'),
    ("control", {"note": "\udcff"}, "is not UTF-8 text: invalid start byte at byte 196"),
    ("simulate", [], "config root must be a JSON object"),
    ("sweep", None, "cannot read config"),
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, extra, message):
    cfg = tmp_path / "config.json"
    if extra is None:  # a directory in the config's place
        cfg.mkdir()
    elif extra == []:  # a config root that is not an object
        cfg.write_text("[]")
    else:
        _write_config(tmp_path, extra)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_CHAIN_RANGE = "chain values put a linear power or the count scale beyond the float range"


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", {"sim": {"seed": -1}}, "seed must be >= 0"),
    ("simulate", {"sim": {"tx_power_dbm": 1e300}}, _CHAIN_RANGE),
    ("sweep", {"sim": {"adc_target_dbm": 1e300}, "sweep": [[30, 30, 30]]}, _CHAIN_RANGE),
    ("control", {"sim": {"adc_ref_amplitude": 1e306}}, _CHAIN_RANGE),
    ("simulate", {"sim": {"attenuation_db": [30, 30, 4000], "noise_floor_dbm": None}},
     "the simulated chain leaves the float range"),
    ("sweep", {"sim": {"adc_ref_amplitude": 1e200, "quantize": False},
               "sweep": [[30, 30, 30]]}, "the simulated chain leaves the float range"),
    ("simulate", {"sim": {"agc_min_db": -10}}, "need 0 <= agc_min_db < agc_max_db <= 255"),
    ("simulate", {"sim": {"agc_max_db": 10**400}}, "need 0 <= agc_min_db < agc_max_db <= 255"),
    ("sweep", {"sim": {"c_fixed_db": 1e5}, "sweep": [[30, 30, 30]]},
     "c_fixed=100000.0 dB puts calibrated port powers beyond the float range"),
    ("simulate", {"sim": {"multipath": [{"gain": 1e200}]}},
     "the simulated chain leaves the float range"),
    ("control", {"distortion": {"sfo_slope_deg": 1e308}},
     "the simulated chain leaves the float range"),
    ("sweep", {"distortion": {"cfo_rate_deg": -1e308}, "sweep": [[30, 30, 30]]},
     "the simulated chain leaves the float range"),
    ("simulate", {"distortion": {"pdd_jitter_deg": 1e308}},
     "the simulated chain leaves the float range"),
    ("simulate", {"sim": {"multipath": [{"delay_slope_deg": 1e308}]}},
     "the simulated chain leaves the float range"),
    ("sweep", {"sweep": [[30, 30, 30]], "thresholds": {"spread_reliable_db": 40}},
     "spread_reliable_db must not exceed spread_unmeasurable_db"),
    ("control", {"thresholds": {"spread_unmeasurable_db": 5}},
     "spread_reliable_db must not exceed spread_unmeasurable_db"),
    ("control", {"control": {"max_iters": 0}}, "max_iters must be >= 1"),
    ("sweep", {"sim": {"multipath": [{"gain": 0}]}, "sweep": [[30, 30, 30]]},
     "multipath taps cancel to a zero channel"),
    ("control", {"thresholds": {"zero_fraction_max": 1.5}},
     "zero_fraction_max must lie in [0, 1]"),
    ("control", {"thresholds": {"zero_fraction_max": -0.1}},
     "zero_fraction_max must lie in [0, 1]"),
    ("control", {"control": {"balance_target_db": -5}}, "balance_target_db must be >= 0, got -5"),
    # Past the address space, so numpy refuses the draw at once.
    ("simulate", {"sim": {"n_packets": 10**12}},
     "the simulated capture needs more memory than is available (Unable to allocate "),
    ("sweep", {"sim": {"n_packets": 10**12}, "sweep": [[30, 30, 30]]},
     "the simulated capture needs more memory than is available"),
    ("control", {"sim": {"n_packets": 10**12}},
     "the simulated capture needs more memory than is available"),
])
def test_config_value_out_of_range_is_config_error(tmp_path, capsys, command, extra, message):
    cfg = _write_config(tmp_path, extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1e5", "-1e5", "1e400", "nan"])
def test_chain_offset_out_of_range_is_config_error(tmp_path, capsys, value):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text(n=3))
    for command in ("calibrate", "analyze"):
        out = tmp_path / command
        assert main([command, "--in", str(trace), "--out", str(out), f"--consts-c={value}"]) == 4
        assert "puts calibrated port powers beyond the float range" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_analyze_non_finite_tx_power_is_config_error(tmp_path, capsys, value):
    # NaN would pass every loss check and infinity read as an infinite loss.
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text(n=20))
    out = tmp_path / "ana"
    assert main(["analyze", "--in", str(trace), "--out", str(out),
                 f"--tx-power={value}"]) == 4
    assert "--tx-power must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_only_analyze_reads_the_agc_clamps(tmp_path, capsys):
    # calibrate uses C alone; the AGC clamps only decide analyze's pinning.
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text(n=5))
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--in", str(trace), "--out", str(tmp_path / "cal"),
              "--agc-min", "20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --agc-min 20" in capsys.readouterr().err
    (agc,) = {r.agc for r in parse_text_trace(trace.read_text())}
    assert main(["analyze", "--in", str(trace), "--out", str(tmp_path / "ana"),
                 "--agc-min", str(agc), "--agc-max", "63"]) == 0
    verdict = json.loads((tmp_path / "ana" / "verdict.json").read_text())
    assert verdict["class"] == "AgcSaturatedLow"


@pytest.mark.parametrize("flags", [["--agc-min", "-1"], ["--agc-max", "300"],
                                   ["--agc-min", "63", "--agc-max", "63"]])
def test_analyze_agc_clamps_outside_the_readout_range_exit_4(tmp_path, capsys, flags):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text(n=5))
    out = tmp_path / "ana"
    assert main(["analyze", "--in", str(trace), "--out", str(out), *flags]) == 4
    assert "need 0 <= agc_min < agc_max <= 255" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env, flag, message", [
    ("abc", [], "CSI_CALIB_SEED must be an integer, got 'abc'"),
    ("-1", [], "seed must be >= 0"),
    (None, ["--seed", "-1"], "seed must be >= 0"),
])
def test_seed_out_of_range_is_config_error(tmp_path, capsys, monkeypatch, env, flag, message):
    if env is not None:
        monkeypatch.setenv("CSI_CALIB_SEED", env)
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")] + flag) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config_seed, code", [(-1, 0), ("x", 4)])
@pytest.mark.parametrize("env, flag", [(None, ["--seed", "5"]), ("5", [])])
def test_seed_override_replaces_a_config_seed_of_the_right_type(
        tmp_path, capsys, monkeypatch, config_seed, code, env, flag):
    # The override replaces the config's seed after its type is checked and
    # before its range is: a seed out of range is overridden, a string is not.
    if env is not None:
        monkeypatch.setenv("CSI_CALIB_SEED", env)
    cfg = _write_config(tmp_path, {"sim": {"n_packets": 5, "seed": config_seed}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)] + flag) == code
    if code:
        assert 'sim.seed must be a JSON integer, got "x"' in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5


def test_sweep_past_the_readout_range_is_unmeasurable(tmp_path):
    # With a -120 dBm noise floor, 120 dB of loss still leaves CSI but the
    # RSSI readout clips to 0 on every port: no record has a reading.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": {"n_packets": 30, "noise_floor_dbm": -120},
                               "sweep": [[30, 30, 30], [60, 60, 60], [120, 120, 120]]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 4
    assert rows[3] == "2,120,120,120,,,,,,,,,,,PhaseUnmeasurable"
    assert all(svg.read_text().rstrip().endswith("</svg>") for svg in out.glob("*.svg"))


def test_control_past_the_readout_range_stops_infeasible(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": {"attenuation_db": [120, 120, 120], "n_packets": 30,
                                       "noise_floor_dbm": -120}}))
    out = tmp_path / "ctl"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 0
    (line,) = (out / "trajectory.jsonl").read_text().splitlines()
    step = json.loads(line)
    assert step["estimated_loss_db"] == [None, None, None]
    assert step["verdict"] == "PhaseUnmeasurable"
    assert step["action"] == {"added_attenuation_db": [0.0, 0.0, 0.0], "feasible": False,
                              "predicted_class": "PhaseUnmeasurable"}


def test_config_takes_ints_for_floats_and_null_noise_floor(tmp_path):
    cfg = _write_config(tmp_path, {
        "sim": {"attenuation_db": [33, 30, 36], "tx_power_dbm": -3, "n_packets": 5,
                "noise_floor_dbm": None, "multipath": [{"gain": 1, "phase_deg": 10}]},
        "sweep": [[30, 30, 30]],
        "thresholds": {"max_loss_db": 60},
    })
    for command in ("simulate", "sweep", "control"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0


# A working config with up to two values replaced by any finite float, any
# integer (also beyond the float range) or any JSON value.  Sweep rows and
# delta_deg have one entry per port.  n_packets stays at most 20, max_iters
# at most 8 and a sweep at most 3 rows, so that no example allocates much.
_extreme = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(),
                     st.sampled_from([10**400, -(10**400)]), _json)
_BOUNDED = {"n_packets": 20, "max_iters": 8}


def _leaves(obj, path=()):
    if type(obj) in (dict, list):
        for key, value in (obj.items() if type(obj) is dict else enumerate(obj)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


@st.composite
def _configs(draw):
    def num(lo, hi):
        return st.floats(lo, hi) | st.integers(lo, hi)

    def section(optional, required=()):
        return draw(st.fixed_dictionaries(dict(required), optional=optional))

    n_rx = draw(st.integers(1, 3))
    ports = st.lists(num(0, 100), min_size=n_rx, max_size=n_rx)
    config = {
        "sim": section({
            "tx_power_dbm": num(-30, 30),
            "multipath": st.lists(st.fixed_dictionaries({}, optional={
                "gain": num(-2, 2), "phase_deg": num(-360, 360),
                "delay_slope_deg": num(-20, 20)}), min_size=1, max_size=2),
            "noise_floor_dbm": num(-120, -60) | st.none(),
            "adc_target_dbm": num(-30, 10),
            "adc_ref_amplitude": num(1, 100),
            "agc_min_db": st.integers(0, 60),
            "agc_max_db": st.integers(0, 255),
            "seed": st.integers(0, 2**32),
            "quantize": st.booleans(),
            "c_fixed_db": num(0, 80),
        }, required={"attenuation_db": ports, "n_packets": st.integers(1, 20)}),
        "distortion": section({
            "cfo_rate_deg": num(-360, 360),
            "sfo_slope_deg": num(-10, 10),
            "pdd_jitter_deg": num(0, 30),
            "delta_deg": st.lists(num(-360, 360), min_size=n_rx, max_size=n_rx),
        }),
        "sweep": draw(st.lists(ports, min_size=1, max_size=3)),
        "control": section({"balance_target_db": num(0, 20), "max_iters": st.integers(1, 8)}),
        "thresholds": section({
            "max_loss_db": num(0, 100),
            "spread_reliable_db": num(0, 60),
            "spread_unmeasurable_db": num(0, 60),
            "zero_fraction_max": num(0, 1),
        }),
    }
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(list(_leaves(config))))
        target = config
        for parent in parents:
            target = target[parent]
        if key in _BOUNDED:
            value = st.integers(max_value=_BOUNDED[key]) | _json.filter(
                lambda v: type(v) is not int)
        else:
            value = _extreme
        target[key] = draw(value)
    return config


# Integers beyond int64 in float fields that the simulator multiplies by an
# integer array or turns into an array.
_SMALL = {"sim": {"attenuation_db": [30, 30], "n_packets": 5}, "sweep": [[30, 30]]}
_BEYOND_INT64 = (
    {**_SMALL, "sim": {**_SMALL["sim"], "multipath": [{"delay_slope_deg": 10**23}]}},
    {**_SMALL, "distortion": {"sfo_slope_deg": 10**23}},
    {**_SMALL, "distortion": {"delta_deg": [10**23, 0]}},
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["simulate", "sweep", "control"]), _configs())
# A one-point sweep at 2**53 dB: adding 1 dB to the chart's x range rounds back.
@example("sweep", {"sim": {"attenuation_db": [0.0], "n_packets": 2, "tx_power_dbm": 0.0},
                   "distortion": {"cfo_rate_deg": 0.0}, "sweep": [[2.0**53]],
                   "control": {}, "thresholds": {}})
# Each command on each config of _BEYOND_INT64.
@example("simulate", _BEYOND_INT64[0])
@example("sweep", _BEYOND_INT64[0])
@example("control", _BEYOND_INT64[0])
@example("simulate", _BEYOND_INT64[1])
@example("sweep", _BEYOND_INT64[1])
@example("control", _BEYOND_INT64[1])
@example("simulate", _BEYOND_INT64[2])
@example("sweep", _BEYOND_INT64[2])
@example("control", _BEYOND_INT64[2])
def test_config_exit_code_property(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out)]) in (0, 3, 4)
