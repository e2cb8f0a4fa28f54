"""Seeded inputs, command sequences and output checks of the four workloads.

Each workload writes its inputs into a work directory during ``setup``;
csicalib sees only those files.  ``commands`` is one iteration: a list of
``csicalib`` CLI argument vectors run in order.  ``check`` inspects the
outputs of the iteration that just ran and returns the problems it found.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from csicalib import (
    PhaseDistortion,
    RawCsiRecord,
    SimConfig,
    encode_binary_trace,
    simulate_capture,
    write_text_trace,
)

N_SUBCARRIERS = 30

# Oscillator drift of an unsynchronized link, as in the acceptance tests.
REALISTIC_DISTORTION = {
    "cfo_rate_deg": 17.3,
    "sfo_slope_deg": 0.11,
    "pdd_jitter_deg": 4.0,
    "delta_deg": [0.0, 40.0, -70.0],
}

SWEEP_GRID = [[p1, 30, p3] for p1 in (20, 30, 40, 50, 55, 62) for p3 in (30, 45, 58)]
CONTROL_STARTS = [[20, 40, 55], [25, 25, 50], [30, 45, 58]]


def _random_record(rng: np.random.Generator) -> RawCsiRecord:
    """Any valid record: n_rx and n_tx in 1..3, random permutation and AGC."""
    n_rx = int(rng.integers(1, 4))
    n_tx = int(rng.integers(1, 4))
    rssi = [int(v) for v in rng.integers(1, 256, n_rx)] + [0] * (3 - n_rx)
    perm = [int(p) for p in rng.permutation(n_rx)] + \
        [int(v) for v in rng.integers(0, 4, 3 - n_rx)]
    shape = (N_SUBCARRIERS, n_rx, n_tx)
    csi = rng.integers(-128, 128, shape) + 1j * rng.integers(-128, 128, shape)
    return RawCsiRecord(
        timestamp_low=int(rng.integers(0, 2**32)),
        bfee_count=int(rng.integers(0, 2**16)),
        n_rx=n_rx,
        n_tx=n_tx,
        rssi=tuple(rssi),
        noise=int(rng.integers(-128, 128)),
        agc=int(rng.integers(0, 256)),
        antenna_perm=tuple(perm),
        rate_flags=int(rng.integers(0, 2**16)),
        csi=csi.astype(np.complex128),
    )


def _interleave_non_csi(trace: bytes, rng: np.random.Generator,
                        every: int = 8) -> tuple[bytes, int]:
    """Insert a random non-CSI frame before about one frame in ``every``."""
    out = bytearray()
    off = inserted = 0
    while off < len(trace):
        if rng.random() < 1.0 / every:
            code = int(rng.integers(0, 255))
            code += code >= 0xBB  # any code but the CSI record code
            body = rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8)
            out += (1 + body.size).to_bytes(2, "big") + bytes([code]) + body.tobytes()
            inserted += 1
        end = off + 2 + int.from_bytes(trace[off:off + 2], "big")
        out += trace[off:end]
        off = end
    return bytes(out), inserted


def _data_rows(path: Path) -> int:
    """CSV rows after the header, not counting '#' comment lines."""
    lines = path.read_bytes().splitlines()
    return sum(1 for line in lines if not line.startswith(b"#")) - 1


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# Spans of calibrate + analyze, the layers below the CLI.
ANALYSIS_SPANS = ("ingest.parse_text", "powercalib.calibrate", "powercalib.frames_to_csv",
                  "phase.differential_series", "phase.circular_stats",
                  "phase.series_to_csv", "quality.variation_stats", "quality.classify",
                  "quality.stats_to_csv")


class Workload:
    """Subclasses set ``sizes`` and ``nominal_packets``, the packets one
    iteration stands for, and define ``setup``, ``commands`` and ``check``.
    ``spans`` names the spans a traced run of the workload must record."""

    name = ""
    in_process = True
    spans: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def rng(self) -> np.random.Generator:
        """A fresh generator, so that repeated set-ups make the same inputs."""
        return np.random.default_rng(self.seed)

    def path(self, name: str) -> str:
        return str(self.work / name)


class CodecMixed(Workload):
    """Binary -> text -> binary over mixed layouts with non-CSI frames."""

    name = "codec_mixed"
    spans = ("cli.parse", "ingest.parse_binary", "ingest.write_text",
             "ingest.parse_text", "ingest.encode_binary")

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.sizes = {"records": 40 if tiny else 2000, "non_csi_every": 8}
        self.nominal_packets = self.sizes["records"]

    def setup(self):
        rng = self.rng()
        records = [_random_record(rng) for _ in range(self.sizes["records"])]
        self.expected = encode_binary_trace(records)
        data, self.sizes["non_csi_frames"] = _interleave_non_csi(
            self.expected, rng, self.sizes["non_csi_every"])
        (self.work / "input.bin").write_bytes(data)

    def commands(self):
        return [
            ["parse", "--in", self.path("input.bin"), "--format", "binary",
             "--out", self.path("trace.txt")],
            ["parse", "--in", self.path("trace.txt"), "--format", "text",
             "--out", self.path("roundtrip.bin")],
        ]

    def check(self):
        if (self.work / "roundtrip.bin").read_bytes() != self.expected:
            return ["binary -> text -> binary differs from the CSI records' encoding"]
        return []


class CaptureAnalysis(Workload):
    """calibrate + analyze on one simulated 3x1 capture."""

    name = "capture_analysis"
    spans = ("cli.calibrate", "cli.analyze", *ANALYSIS_SPANS)

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.sizes = {"packets": 60 if tiny else 2000,
                      "attenuation_db": [33.0, 30.0, 36.0]}
        self.nominal_packets = self.sizes["packets"]
        self.digest = None

    def setup(self):
        config = SimConfig(attenuation_db=tuple(self.sizes["attenuation_db"]),
                           n_packets=self.sizes["packets"],
                           seed=int(self.rng().integers(0, 2**31)))
        distortion = PhaseDistortion(**{**REALISTIC_DISTORTION,
                                        "delta_deg": tuple(REALISTIC_DISTORTION["delta_deg"])})
        records = simulate_capture(config, distortion)
        (self.work / "capture.txt").write_text(write_text_trace(records))

    def commands(self):
        return [
            ["calibrate", "--in", self.path("capture.txt"), "--out", self.path("cal")],
            ["analyze", "--in", self.path("capture.txt"), "--out", self.path("ana"),
             "--tx-power", "-3"],
        ]

    def check(self):
        problems = []
        expected_rows = self.sizes["packets"] * N_SUBCARRIERS * 3
        outputs = [self.work / "cal" / "amplitudes.csv", self.work / "cal" / "phases.csv",
                   self.work / "ana" / "stats.csv", self.work / "ana" / "verdict.json"]
        verdict = json.loads(outputs[3].read_text())["class"]
        if verdict != "Reliable":
            problems.append(f"verdict {verdict}, expected Reliable")
        for path in outputs[:2]:
            rows = _data_rows(path)
            if rows != expected_rows:
                problems.append(f"{path.name} has {rows} rows, expected {expected_rows}")
        digest = _digest(*outputs)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("outputs differ from the first iteration's")
        return problems


class SimControl(Workload):
    """sweep over an 18-point grid, then control from three starts."""

    name = "sim_control"
    spans = ("cli.sweep", "cli.control", "chipsim.run_sweep", "chipsim.simulate_capture",
             "powercalib.calibrate", "powercalib.ratio_check", "phase.differential_series",
             "phase.circular_stats", "quality.variation_stats", "quality.classify",
             "autocontrol.closed_loop", "autocontrol.recommend", "svgchart.line_chart")

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.sizes = {"sweep_points": len(SWEEP_GRID),
                      "sweep_packets": 40 if tiny else 300,
                      "control_starts": len(CONTROL_STARTS),
                      "control_packets": 40 if tiny else 300}
        self.nominal_packets = (len(SWEEP_GRID) * self.sizes["sweep_packets"]
                                + len(CONTROL_STARTS) * self.sizes["control_packets"])

    def setup(self):
        self.seeds = [int(v) for v in self.rng().integers(0, 2**31, 1 + len(CONTROL_STARTS))]
        sweep = {"sim": {"attenuation_db": [30, 30, 30],
                         "n_packets": self.sizes["sweep_packets"]},
                 "distortion": REALISTIC_DISTORTION, "sweep": SWEEP_GRID}
        (self.work / "sweep.json").write_text(json.dumps(sweep))
        for i, start in enumerate(CONTROL_STARTS):
            control = {"sim": {"attenuation_db": start,
                               "n_packets": self.sizes["control_packets"]},
                       "distortion": REALISTIC_DISTORTION, "control": {"max_iters": 8}}
            (self.work / f"control{i}.json").write_text(json.dumps(control))

    def commands(self):
        cmds = [["sweep", "--config", self.path("sweep.json"), "--out", self.path("sweep"),
                 "--seed", str(self.seeds[0])]]
        for i in range(len(CONTROL_STARTS)):
            cmds.append(["control", "--config", self.path(f"control{i}.json"),
                         "--out", self.path(f"ctl{i}"), "--seed", str(self.seeds[1 + i])])
        return cmds

    def check(self):
        problems = []
        rows = _data_rows(self.work / "sweep" / "report.csv")
        if rows != len(SWEEP_GRID):
            problems.append(f"report.csv has {rows} rows, expected {len(SWEEP_GRID)}")
        for i in range(len(CONTROL_STARTS)):
            lines = (self.work / f"ctl{i}" / "trajectory.jsonl").read_text().splitlines()
            final = json.loads(lines[-1])["verdict"]
            if final != "Reliable":
                problems.append(f"control run {i} ended {final}")
        return problems


class CliCold(Workload):
    """simulate, calibrate, analyze, each in a fresh interpreter."""

    name = "cli_cold"
    in_process = False
    spans = ("proc.simulate", "proc.calibrate", "proc.analyze", "cli.simulate",
             "cli.calibrate", "cli.analyze", "chipsim.simulate_capture",
             "ingest.write_text", *ANALYSIS_SPANS)

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.sizes = {"packets": 30 if tiny else 100}
        self.nominal_packets = self.sizes["packets"]

    def setup(self):
        self.sim_seed = int(self.rng().integers(0, 2**31))
        config = {"sim": {"attenuation_db": [33, 30, 36], "n_packets": self.sizes["packets"]},
                  "distortion": REALISTIC_DISTORTION}
        (self.work / "config.json").write_text(json.dumps(config))

    def commands(self):
        trace = self.path("sim/trace.txt")
        return [
            ["simulate", "--config", self.path("config.json"), "--out", self.path("sim"),
             "--seed", str(self.sim_seed)],
            ["calibrate", "--in", trace, "--out", self.path("cal")],
            ["analyze", "--in", trace, "--out", self.path("ana")],
        ]

    def check(self):
        lines = (self.work / "sim" / "trace.txt").read_text().splitlines()
        if len(lines) != self.sizes["packets"]:
            return [f"trace has {len(lines)} records, expected {self.sizes['packets']}"]
        return []


WORKLOADS = {w.name: w for w in (CodecMixed, CaptureAnalysis, SimControl, CliCold)}
