"""Command-line front end for the calibration and simulation pipeline.

Exit codes: 0 success, 2 input/parse error, 3 domain error, 4 config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .autocontrol import ControlSettings, closed_loop, trajectory_to_jsonl
from .chipsim import (
    MultipathTap,
    PhaseDistortion,
    SimConfig,
    run_sweep,
    simulate_capture,
    with_attenuation,
)
from .errors import (
    AbsentAgc,
    AbsentPort,
    AllZeroCsi,
    BadPermutation,
    ConfigError,
    CsiCalibError,
    EmptyInput,
    InsufficientData,
    InsufficientPorts,
    InvariantViolation,
    LengthMismatch,
    MixedLayout,
    SchemaError,
    TruncatedRecord,
    ZeroChannel,
    ZeroEntry,
)
from .ingest import (
    CalibrationConstants,
    common_n_rx,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    write_text_trace,
)
from .phase import differential_series, series_to_csv
from .powercalib import calibrate, canonical_pairs, frames_to_csv, pair_label
from .quality import QualityThresholds, classify, stats_to_csv, variation_stats
from .svgchart import line_chart

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_CONFIG = 4

_INPUT_ERRORS = (SchemaError, TruncatedRecord, LengthMismatch, BadPermutation,
                 InvariantViolation)
_DOMAIN_ERRORS = (AbsentPort, AbsentAgc, AllZeroCsi, EmptyInput, ZeroChannel,
                  ZeroEntry, InsufficientData, InsufficientPorts, MixedLayout)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csicalib",
        description="WiFi RSSI/CSI calibration, variation analysis, and "
                    "receiver-chain simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_consts(p):
        p.add_argument("--consts-c", type=float, default=44.0,
                       help="fixed chain offset C in dB (default 44)")
        p.add_argument("--agc-min", type=int, default=26)
        p.add_argument("--agc-max", type=int, default=63)

    p = sub.add_parser("parse", help="convert between binary and text traces")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", choices=["binary", "text"], required=True,
                   help="format of the input file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("calibrate", help="amplitude/phase CSV from a text trace")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    add_consts(p)

    p = sub.add_parser("analyze", help="variation stats and quality verdict")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tx-power", type=float, default=None,
                   help="known transmit power (dBm) for loss estimation")
    add_consts(p)

    for name in ("simulate", "sweep", "control"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (falls back to CSI_CALIB_SEED, "
                            "then the config value)")
    return parser


def _consts_from_args(args) -> CalibrationConstants:
    return CalibrationConstants(
        c_fixed=args.consts_c, agc_min=args.agc_min, agc_max=args.agc_max
    )


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _dataclass_from(cls, obj: dict, what: str):
    try:
        return cls(**obj)
    except TypeError as exc:
        raise ConfigError(f"bad {what} section: {exc}") from exc


def _sim_config(obj: dict, seed_override: int | None) -> SimConfig:
    sim = dict(obj.get("sim", {}))
    if "attenuation_db" in sim:
        sim["attenuation_db"] = tuple(sim["attenuation_db"])
    if "multipath" in sim:
        sim["multipath"] = tuple(
            _dataclass_from(MultipathTap, tap, "multipath tap")
            for tap in sim["multipath"]
        )
    config = _dataclass_from(SimConfig, sim, "sim")
    if seed_override is not None:
        config = SimConfig(**{**asdict(config), "seed": seed_override,
                              "multipath": config.multipath,
                              "attenuation_db": config.attenuation_db})
    config.validate()
    return config


def _distortion(obj: dict) -> PhaseDistortion:
    section = dict(obj.get("distortion", {}))
    if "delta_deg" in section:
        section["delta_deg"] = tuple(section["delta_deg"])
    return _dataclass_from(PhaseDistortion, section, "distortion")


def _thresholds(obj: dict) -> QualityThresholds:
    return _dataclass_from(QualityThresholds, obj.get("thresholds", {}), "thresholds")


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CSI_CALIB_SEED")
    return int(env) if env else None


def _write_manifest(out_dir: Path, args, seed=None, inputs=()) -> None:
    manifest = {
        "command": args.command,
        "inputs": [str(p) for p in inputs],
        "config": getattr(args, "config", None),
        "seed": seed,
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _read_trace(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(0, f"cannot read {path}: {exc}") from exc
    return parse_text_trace(text)


# --- commands ----------------------------------------------------------------

def _cmd_parse(args) -> int:
    in_path, out_path = Path(args.in_path), Path(args.out)
    if args.format == "binary":
        records = parse_binary_trace(in_path.read_bytes())
        out_path.write_text(write_text_trace(records))
    else:
        records = parse_text_trace(in_path.read_text(encoding="utf-8"))
        out_path.write_bytes(encode_binary_trace(records))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    records = _read_trace(args.in_path)
    n_rx = common_n_rx(records) if records else 0
    consts = _consts_from_args(args)
    frames = [calibrate(r, consts) for r in records]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "amplitudes.csv").write_text(frames_to_csv(frames))
    if n_rx >= 2:
        series = [differential_series(records, pair) for pair in canonical_pairs(n_rx)]
        (out_dir / "phases.csv").write_text(series_to_csv(series))
    _write_manifest(out_dir, args, inputs=[args.in_path])
    return EXIT_OK


def _cmd_analyze(args) -> int:
    records = _read_trace(args.in_path)
    consts = _consts_from_args(args)
    stats = variation_stats(records, consts)
    losses = None
    if args.tx_power is not None:
        losses = [
            args.tx_power - stats.port_power_mean_dbm[p]
            if p in stats.port_power_mean_dbm
            else math.inf
            for p in range(records[0].n_rx)
        ]
    verdict = classify(stats, losses, QualityThresholds(), consts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stats.csv").write_text(stats_to_csv([(Path(args.in_path).name, stats)]))
    (out_dir / "verdict.json").write_text(verdict.to_json() + "\n")
    if stats.n_records < 5:
        print("warning: fewer than 5 records; variance estimates are wide",
              file=sys.stderr)
    _write_manifest(out_dir, args, inputs=[args.in_path])
    return EXIT_OK


def _cmd_simulate(args) -> int:
    obj = _load_json(args.config)
    seed = _resolve_seed(args)
    config = _sim_config(obj, seed)
    if not config.quantize:
        raise ConfigError("simulate writes a trace, whose CSI must be integer-valued: "
                          "quantize must be true")
    records = simulate_capture(config, _distortion(obj))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.txt").write_text(write_text_trace(records))
    _write_manifest(out_dir, args, seed=config.seed)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    obj = _load_json(args.config)
    seed = _resolve_seed(args)
    base = _sim_config(obj, seed)
    rows = obj.get("sweep")
    if not rows:
        raise ConfigError("sweep config needs a non-empty 'sweep' list of "
                          "attenuation triples")
    configs = [with_attenuation(base, row) for row in rows]
    results = run_sweep(configs, _distortion(obj), thresholds=_thresholds(obj))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    writer = csv.writer(buf)
    n_rx = len(base.attenuation_db)
    writer.writerow(
        ["index"]
        + [f"attenuation_port{p + 1}_db" for p in range(n_rx)]
        + [f"amp_std_port{p + 1}_db" for p in range(n_rx)]
        + [f"phase_std_{pair_label(pair)}_deg" for pair in canonical_pairs(n_rx)]
        + [f"rssi_deviation_port{p + 1}_db" for p in range(n_rx)]
        + ["max_ratio_discrepancy_db", "verdict"]
    )
    for idx, res in enumerate(results):
        amp_std = res.stats.port_amp_std_db()
        phase_std = res.stats.pair_phase_std_deg()
        max_disc = max(res.ratio_max_abs_db.values(), default=math.nan)
        writer.writerow(
            [idx]
            + [f"{a:g}" for a in res.config.attenuation_db]
            + [f"{v:.4f}" for v in amp_std]
            + [f"{v:.4f}" if not np.isnan(v) else "" for v in phase_std]
            + [f"{res.rssi_deviation_db.get(p, math.nan):.4f}" for p in range(n_rx)]
            + [f"{max_disc:.4f}" if not math.isnan(max_disc) else "",
               res.verdict.cls]
        )
    (out_dir / "report.csv").write_text(buf.getvalue())

    xs = [max(res.config.attenuation_db) for res in results]
    amp_series = [
        (f"port {p + 1}",
         xs,
         [float(res.stats.port_amp_std_db()[p]) for res in results])
        for p in range(n_rx)
    ]
    (out_dir / "amp_std.svg").write_text(
        line_chart(amp_series, title="Amplitude STD vs attenuation",
                   x_label="max attenuation (dB)", y_label="amplitude STD (dB)")
    )
    phase_series = [
        (f"pair {pair_label(pair)}",
         xs,
         [float(res.stats.pair_phase_std_deg()[i]) for res in results])
        for i, pair in enumerate(results[0].stats.pairs)
    ]
    (out_dir / "phase_std.svg").write_text(
        line_chart(phase_series, title="Phase STD vs attenuation",
                   x_label="max attenuation (dB)", y_label="phase STD (deg)")
    )
    dev_series = [
        (f"port {p + 1}",
         xs,
         [float(res.rssi_deviation_db.get(p, math.nan)) for res in results])
        for p in range(n_rx)
    ]
    (out_dir / "rssi_deviation.svg").write_text(
        line_chart(dev_series, title="RSSI deviation vs attenuation",
                   x_label="max attenuation (dB)", y_label="deviation (dB)")
    )
    _write_manifest(out_dir, args, seed=base.seed)
    return EXIT_OK


def _cmd_control(args) -> int:
    obj = _load_json(args.config)
    seed = _resolve_seed(args)
    config = _sim_config(obj, seed)
    control = dict(obj.get("control", {}))
    max_iters = int(control.pop("max_iters", 8))
    # closed_loop takes the chain from the sim section; a second copy here
    # would be ignored, so refuse it.
    chain = [k for k in ("tx_power_dbm", "adc_target_dbm", "agc_min_db", "agc_max_db")
             if k in control]
    if chain:
        raise ConfigError(f"control section cannot set {', '.join(chain)}; "
                          "set them in the sim section")
    settings = _dataclass_from(ControlSettings, control, "control")
    steps = closed_loop(
        config,
        _distortion(obj),
        settings=settings,
        thresholds=_thresholds(obj),
        max_iters=max_iters,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.jsonl").write_text(trajectory_to_jsonl(steps))
    _write_manifest(out_dir, args, seed=config.seed)
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "calibrate": _cmd_calibrate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "control": _cmd_control,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CsiCalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
