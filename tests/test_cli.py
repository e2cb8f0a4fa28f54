import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from csicalib import (
    SimConfig,
    encode_binary_trace,
    parse_text_trace,
    simulate_capture,
    write_text_trace,
)
from csicalib.cli import main

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
    path.write_text(json.dumps(obj))
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
    assert manifest["inputs"] == [str(trace)]


def test_analyze_verdict(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(_capture_text())
    out = tmp_path / "ana"
    assert main(["analyze", "--in", str(trace), "--out", str(out),
                 "--tx-power", "-3"]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["class"] == "Reliable"
    assert (out / "stats.csv").exists()


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


def test_simulate_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "trace.txt").read_text() == (out2 / "trace.txt").read_text()
    records = parse_text_trace((out1 / "trace.txt").read_text())
    assert len(records) == 20


def test_simulate_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
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
    assert json.loads((enved / "manifest.json").read_text())["seed"] == 7


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
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, extra, message):
    cfg = _write_config(tmp_path, extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_takes_ints_for_floats_and_null_noise_floor(tmp_path):
    cfg = _write_config(tmp_path, {
        "sim": {"attenuation_db": [33, 30, 36], "tx_power_dbm": -3, "n_packets": 5,
                "noise_floor_dbm": None, "multipath": [{"gain": 1, "phase_deg": 10}]},
        "sweep": [[30, 30, 30]],
        "thresholds": {"max_loss_db": 60},
    })
    for command in ("simulate", "sweep", "control"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
