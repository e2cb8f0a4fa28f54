"""Command-line front end for the calibration and simulation pipeline.

Exit codes: 0 success, 2 input/parse error, 3 domain error, 4 config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from . import __version__
from .autocontrol import ControlSettings, closed_loop, estimate_losses, trajectory_to_jsonl
from .chipsim import PhaseDistortion, SimConfig, run_sweep, simulate_capture, sweep_outputs
from .errors import ConfigError, CsiCalibError, SchemaError
from .ingest import (
    CalibrationConstants,
    common_n_rx,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    split_lines,
    write_text_trace,
)
from .phase import differential_series, series_to_csv
from .powercalib import calibrate, canonical_pairs, frames_to_csv
from .quality import QualityThresholds, classify, stats_to_csv, variation_stats

EXIT_OK = 0
EXIT_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csicalib",
        description="WiFi RSSI/CSI calibration, variation analysis, and "
                    "receiver-chain simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_consts_c(p):
        p.add_argument("--consts-c", type=float, default=CalibrationConstants.c_fixed,
                       help="fixed chain offset C in dB (default %(default)g)")

    p = sub.add_parser("parse", help="convert between binary and text traces")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", choices=["binary", "text"], required=True,
                   help="format of the input file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("calibrate", help="amplitude/phase CSV from a text trace")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    add_consts_c(p)

    p = sub.add_parser("analyze", help="variation stats and quality verdict")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tx-power", type=float, default=None,
                   help="known transmit power (dBm) for loss estimation")
    add_consts_c(p)
    p.add_argument("--agc-min", type=int, default=CalibrationConstants.agc_min,
                   help="AGC readout that counts as pinned low (default %(default)d)")
    p.add_argument("--agc-max", type=int, default=CalibrationConstants.agc_max,
                   help="AGC readout that counts as pinned high (default %(default)d)")

    for name in ("simulate", "sweep", "control"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (falls back to CSI_CALIB_SEED, "
                            "then the config value)")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise ConfigError(f"config {path} is not UTF-8 text: {where}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _dataclass_from(cls, obj, what: str, **overrides):
    """An instance of cls from a config object, each value checked by _typed.

    The overrides replace config values once those are type-checked, before
    cls is built, and so before it checks its values.
    """
    if type(obj) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {json.dumps(obj)}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"bad {what} section: unknown keys {', '.join(unknown)}")
    return cls(**{name: _typed(value, hints[name], f"{what}.{name}")
                  for name, value in obj.items()} | overrides)


def _typed(value, annotation, what: str):
    """value if it is a JSON value of the annotated type, else ConfigError.

    float takes a finite number, an int too but never a bool; int and bool
    take only their own type; X | None also takes null; tuple[X, ...]
    takes a list, returned as a tuple; a dataclass takes an object.
    Numbers are returned as given.
    """
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (annotation,) = [a for a in args if a is not type(None)]
        return _typed(value, annotation, what)
    if origin is tuple:
        if type(value) is not list:
            raise ConfigError(f"{what} must be a list, got {json.dumps(value)}")
        return tuple(_typed(v, args[0], f"{what}[{i}]") for i, v in enumerate(value))
    if is_dataclass(annotation):
        return _dataclass_from(annotation, value, what)
    if annotation is float:
        try:
            ok = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            ok = False
        kind = "a finite number"
    else:
        ok = type(value) is annotation
        kind = f"a JSON {'boolean' if annotation is bool else 'integer'}"
    if not ok:
        raise ConfigError(f"{what} must be {kind}, got {json.dumps(value)}")
    return value


def _sim_config(args) -> tuple[dict, SimConfig]:
    """The config file of a simulation command, and its chain.

    The seed is --seed, then the CSI_CALIB_SEED environment variable, then
    the config's sim.seed.
    """
    obj = _load_json(args.config)
    seed, env = {}, os.environ.get("CSI_CALIB_SEED")
    if args.seed is not None:
        seed = {"seed": args.seed}
    elif env:
        try:
            seed = {"seed": int(env)}
        except ValueError:
            raise ConfigError(f"CSI_CALIB_SEED must be an integer, got {env!r}") from None
    return obj, _dataclass_from(SimConfig, obj.get("sim", {}), "sim", **seed)


def _distortion(obj: dict, n_rx: int) -> PhaseDistortion:
    section = obj.get("distortion", {})
    distortion = _dataclass_from(PhaseDistortion, section, "distortion")
    if "delta_deg" in section and len(distortion.delta_deg) != n_rx:
        raise ConfigError(f"distortion.delta_deg needs {n_rx} entries, one per port "
                          f"of sim.attenuation_db, got {len(distortion.delta_deg)}")
    return distortion


def _thresholds(obj: dict) -> QualityThresholds:
    return _dataclass_from(QualityThresholds, obj.get("thresholds", {}), "thresholds")


def _read_trace(path: str):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first undecodable byte, counted as the parser counts.
        line = len(split_lines(exc.object[: exc.start].decode("utf-8")))
        raise SchemaError(line, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_text_trace(text)


# --- commands ----------------------------------------------------------------
# Each but parse writes its files into --out through write(name, text), and
# returns the seed its run used, None if it draws no random numbers.

def _cmd_parse(args) -> None:
    in_path, out_path = Path(args.in_path), Path(args.out)
    if args.format == "binary":
        out_path.write_text(write_text_trace(parse_binary_trace(in_path.read_bytes())),
                            encoding="utf-8")
    else:
        out_path.write_bytes(encode_binary_trace(_read_trace(args.in_path)))


def _cmd_calibrate(args, write) -> None:
    """amplitudes.csv, and phases.csv for a capture of two or more ports.

    Each stage drops what it no longer needs before the next one writes:
    the frames once amplitudes.csv is written, the records once the phase
    series exist.  The peak memory of the command is reached twice while
    amplitudes.csv is made, as frames_to_csv joins its blocks and as the
    text is encoded to the file: either holds the capture, its frames and
    two copies of the text.  Those releases keep the phases.csv stage,
    which holds neither the frames nor, while it writes, the capture,
    below that peak.
    """
    records = _read_trace(args.in_path)
    n_rx = common_n_rx(records) if records else 0
    consts = CalibrationConstants(c_fixed=args.consts_c)
    frames = [calibrate(run, consts) for _, run in records.runs()]
    write("amplitudes.csv", frames_to_csv(frames))
    del frames
    series = differential_series(records, canonical_pairs(n_rx))
    del records
    if series:
        write("phases.csv", series_to_csv(series))


def _cmd_analyze(args, write) -> None:
    records = _read_trace(args.in_path)
    consts = CalibrationConstants(args.consts_c, args.agc_min, args.agc_max)
    _typed(args.tx_power, float | None, "--tx-power")
    stats = variation_stats(records, consts)
    losses = None
    if args.tx_power is not None:
        losses = estimate_losses(stats.port_power_mean_dbm, args.tx_power)
    verdict = classify(stats, losses, QualityThresholds(), consts)
    # The file name's bytes as UTF-8, however the locale decoded them.
    name = os.fsencode(Path(args.in_path).name).decode("utf-8", "replace")
    write("stats.csv", stats_to_csv([(name, stats)]))
    write("verdict.json", verdict.to_json() + "\n")
    if stats.n_records < 5:
        print("warning: fewer than 5 records; variance estimates are wide",
              file=sys.stderr)


def _cmd_simulate(args, write) -> int:
    obj, config = _sim_config(args)
    if not config.quantize:
        raise ConfigError("simulate writes a trace, whose CSI must be integer-valued: "
                          "quantize must be true")
    records = simulate_capture(config, _distortion(obj, len(config.attenuation_db)))
    write("trace.txt", write_text_trace(records))
    return config.seed


def _cmd_sweep(args, write) -> int:
    obj, base = _sim_config(args)
    n_rx = len(base.attenuation_db)
    rows = _typed(obj.get("sweep", []), tuple[tuple[float, ...], ...], "sweep")
    if not rows:
        raise ConfigError("sweep config needs a non-empty 'sweep' list of "
                          "attenuation triples")
    for i, row in enumerate(rows):
        if len(row) != n_rx:
            raise ConfigError(f"sweep[{i}] needs {n_rx} entries, one per port "
                              f"of sim.attenuation_db, got {len(row)}")
    configs = [replace(base, attenuation_db=row) for row in rows]
    results = run_sweep(configs, _distortion(obj, n_rx), thresholds=_thresholds(obj))
    for name, text in sweep_outputs(results).items():
        write(name, text)
    return base.seed


def _cmd_control(args, write) -> int:
    obj, config = _sim_config(args)
    steps = closed_loop(
        config,
        _distortion(obj, len(config.attenuation_db)),
        settings=_dataclass_from(ControlSettings, obj.get("control", {}), "control"),
        thresholds=_thresholds(obj),
    )
    write("trajectory.jsonl", trajectory_to_jsonl(steps))
    return config.seed


_COMMANDS = {
    "parse": _cmd_parse,
    "calibrate": _cmd_calibrate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "control": _cmd_control,
}


def main(argv=None) -> int:
    """Run one command.  Every command but parse, whose --out is a file, writes
    into the directory --out, and once it succeeds writes manifest.json there:
    every argument but --out, the seed used and the version."""
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)

    def write(name: str, text: str) -> None:
        """Write the file name into --out, which the first call makes, as UTF-8."""
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text, encoding="utf-8")

    try:
        if args.command == "parse":
            _COMMANDS["parse"](args)
        else:
            seed = _COMMANDS[args.command](args, write)
            # Each string argument's bytes as UTF-8, however the locale decoded them.
            manifest = {name: os.fsencode(v).decode("utf-8", "replace") if isinstance(v, str) else v
                        for name, v in vars(args).items() if name != "out"}
            manifest |= {"seed": seed, "tool_version": __version__}
            write("manifest.json", json.dumps(manifest, indent=2) + "\n")
    except CsiCalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if argv is None:
            # Run as the program, the process exits next.  Freezing what the
            # run allocated spares the collector's passes over it at exit.
            gc.freeze()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
