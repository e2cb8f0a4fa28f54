"""Golden sha256 digests of the CLI's output files.

Each run is seeded, so its outputs are fixed bytes: calibrate and analyze
on a simulated 200-packet 3x1 capture, calibrate on a 100-packet capture
with unmeasurable entries, a 3-row sweep and one control run.
A change that moves any of these files must be deliberate, and must
update its digest here.  manifest.json is left out: it holds the run's paths.
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from csicalib import SimConfig, simulate_capture, write_text_trace
from csicalib.cli import main

from conftest import REALISTIC_DISTORTION

DISTORTION = asdict(REALISTIC_DISTORTION)

GOLDEN = {
    "calibrate/amplitudes.csv":
        "20140b59eec70d5730892b240218cfc4a046991accaeb1b8bf80acafb59bd62d",
    "calibrate/phases.csv":
        "3fe5d57bc3f8d5d6c3343878763c88bdc274075fe8d0587ed982baf170b4f09e",
    "calibrate_unmeasurable/amplitudes.csv":
        "7fd2dd0ae14fbae01559f11515e34e9b3559a30f809183d973640a1561347014",
    "calibrate_unmeasurable/phases.csv":
        "fa5694a159ab9a46285b8dd6026dd4cadaf5b163e0938d5e053961fddcd08413",
    "analyze/stats.csv":
        "2cb234ab347c53e1205d0b24163d0e65c414c0793c6143195db232b981faeb6c",
    "analyze/verdict.json":
        "68ebf330a45f3b4ee73881c14c47768b59813c72a53ee775449d1695070dcc68",
    "sweep/report.csv":
        "7e229f331b0b80defdf909495478b664fafee3de08bb986f476663447e15aecf",
    "sweep/amp_std.svg":
        "ef1d24e935fd5af85017d6a5f6b114edd4791c96675b0168c2d57b4d43ff0638",
    "sweep/phase_std.svg":
        "70ceb078e9e97292ce515826473cf32d55d41a411cb160500f010608c48602b0",
    "sweep/rssi_deviation.svg":
        "a5c2e578deb24eacb095d6bec20ccff8bded189335e5ee845ae181e5b6ce33ad",
    "control/trajectory.jsonl":
        "49b8b19087d044d69813f212aa53d900000cdc28782bba8d3c4d88fd320212e9",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digests")
    config = SimConfig(attenuation_db=(33.0, 30.0, 36.0), n_packets=200, seed=5)
    trace = tmp / "trace.txt"
    trace.write_text(write_text_trace(simulate_capture(config, REALISTIC_DISTORTION)))
    # Port 3 at a 42 dB spread reads zero CSI in about a quarter of its
    # entries, and whole rows of it in some records; records 7 and 23 read
    # port 1 absent and record 40 port 2: empty cells and unmeasurable rows.
    config = SimConfig(attenuation_db=(20.0, 30.0, 62.0), n_packets=100, seed=5)
    records = list(simulate_capture(config, REALISTIC_DISTORTION))
    for t, port in ((7, 0), (23, 0), (40, 1)):
        rssi = list(records[t].rssi)
        rssi[port] = 0
        records[t] = replace(records[t], rssi=tuple(rssi))
    unmeasurable = tmp / "unmeasurable.txt"
    unmeasurable.write_text(write_text_trace(records))
    sweep = {"sim": {"attenuation_db": [30, 30, 30], "n_packets": 100, "seed": 3},
             "distortion": DISTORTION,
             "sweep": [[33, 30, 36], [45, 30, 50], [62, 58, 60]]}
    control = {"sim": {"attenuation_db": [20, 40, 55], "n_packets": 100, "seed": 9},
               "distortion": DISTORTION}
    for name, obj in (("sweep", sweep), ("control", control)):
        (tmp / f"{name}.json").write_text(json.dumps(obj))

    for out, argv in (("calibrate", ["calibrate", "--in", str(trace)]),
                      ("calibrate_unmeasurable", ["calibrate", "--in", str(unmeasurable)]),
                      ("analyze", ["analyze", "--in", str(trace), "--tx-power", "-3"]),
                      ("sweep", ["sweep", "--config", str(tmp / "sweep.json")]),
                      ("control", ["control", "--config", str(tmp / "control.json")])):
        assert main([*argv, "--out", str(tmp / out)]) == 0
    return tmp


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == GOLDEN[name]
