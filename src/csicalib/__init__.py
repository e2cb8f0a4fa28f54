"""Calibration and variation-analysis toolkit for commodity-WiFi CSI/RSSI.

Converts nominal RSSI/CSI readouts into absolute amplitude (dBm) and
stable differential phase, checks the RSSI/CSI power-ratio identities,
classifies measurement reliability, and ships a deterministic
receiver-chain simulator with a closed-loop attenuation balancer.
"""

__version__ = "0.1.0"

from .ingest import (
    CalibrationConstants,
    RawCsiRecord,
    csi_payload_len,
    encode_binary_trace,
    parse_binary_trace,
    parse_text_trace,
    write_text_trace,
)
from .powercalib import (
    CalibratedFrame,
    calibrate,
    check_ratio_consistency,
    csi_power_ratio_db,
    rssi_to_dbm,
    total_power,
)
from .phase import (
    DifferentialPhaseSeries,
    circular_stats,
    differential_series,
    wrap_deg,
)
from .quality import (
    QualityThresholds,
    QualityVerdict,
    VariationStats,
    classify,
    classify_losses,
    stats_to_csv,
    variation_stats,
)
from .chipsim import (
    MultipathTap,
    PhaseDistortion,
    SimConfig,
    SweepResult,
    run_sweep,
    simulate_capture,
)
from .autocontrol import (
    ControlAction,
    ControlSettings,
    LoopStep,
    closed_loop,
    estimate_losses,
    recommend,
    trajectory_to_jsonl,
)

__all__ = [
    "CalibrationConstants",
    "RawCsiRecord",
    "csi_payload_len",
    "parse_binary_trace",
    "encode_binary_trace",
    "parse_text_trace",
    "write_text_trace",
    "CalibratedFrame",
    "rssi_to_dbm",
    "total_power",
    "csi_power_ratio_db",
    "check_ratio_consistency",
    "calibrate",
    "wrap_deg",
    "differential_series",
    "DifferentialPhaseSeries",
    "circular_stats",
    "VariationStats",
    "QualityVerdict",
    "QualityThresholds",
    "variation_stats",
    "classify",
    "classify_losses",
    "stats_to_csv",
    "SimConfig",
    "MultipathTap",
    "PhaseDistortion",
    "SweepResult",
    "simulate_capture",
    "run_sweep",
    "ControlSettings",
    "ControlAction",
    "LoopStep",
    "recommend",
    "estimate_losses",
    "closed_loop",
    "trajectory_to_jsonl",
]
