"""Capture-level variation statistics and reliability classification.

Classification thresholds default to the measured chip limits: channel
loss beyond 60 dB destabilizes both amplitude and phase, an inter-port
spread beyond 30 dB zeroes out the weak port's CSI entirely, and spreads
between 10 and 30 dB degrade the statistics without killing them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData
from .ingest import N_SUBCARRIERS, CalibrationConstants, RawCsiRecord, common_n_rx
from .phase import circular_stats, differential_series
from .powercalib import calibrate, canonical_pairs, pair_label

VERDICT_CLASSES = (
    "Reliable",
    "Degraded",
    "AgcSaturatedLow",
    "AgcSaturatedHigh",
    "Unstable",
    "PhaseUnmeasurable",
)

#: Precedence, most severe first.
_PRECEDENCE = (
    "PhaseUnmeasurable",
    "Unstable",
    "AgcSaturatedLow",
    "AgcSaturatedHigh",
    "Degraded",
    "Reliable",
)


@dataclass(frozen=True)
class QualityThresholds:
    max_loss_db: float = 60.0
    spread_reliable_db: float = 10.0
    spread_unmeasurable_db: float = 30.0
    zero_fraction_max: float = 0.5


@dataclass
class VariationStats:
    """Per-capture amplitude/phase variation, shaped like the chip readouts.

    Amplitude arrays are (n_rx, 30) over the first transmit stream; phase
    arrays are (n_pairs, 30).  agc_readouts keeps the raw per-packet AGC
    values so saturation can be detected from readout pinning.
    """

    amp_mean_dbm: np.ndarray = field(repr=False)
    amp_std_db: np.ndarray = field(repr=False)
    phase_mean_deg: np.ndarray = field(repr=False)
    phase_std_deg: np.ndarray = field(repr=False)
    zero_fraction: np.ndarray = field(repr=False)
    pairs: tuple[tuple[int, int], ...]
    agc_readouts: tuple[int, ...]
    port_power_mean_dbm: dict[int, float]
    n_records: int

    def port_amp_std_db(self) -> np.ndarray:
        """Mean over subcarriers of per-subcarrier amplitude STD, per port."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.amp_std_db, axis=1)

    def pair_phase_std_deg(self) -> np.ndarray:
        """Mean over subcarriers of per-subcarrier phase STD, per pair."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.phase_std_deg, axis=1)


@dataclass
class QualityVerdict:
    """Classification of a capture; the class follows from the reasons."""

    cls: str
    reasons: list[dict]

    def to_json(self) -> str:
        return json.dumps({"class": self.cls, "reasons": self.reasons}, indent=2)


def variation_stats(
    records: list[RawCsiRecord],
    consts: CalibrationConstants,
    pairs: tuple[tuple[int, int], ...] | None = None,
) -> VariationStats:
    """Amplitude/phase variation over a capture of a static channel."""
    if len(records) < 2:
        raise InsufficientData("need at least two records")
    n_rx = common_n_rx(records)
    if pairs is None:
        pairs = canonical_pairs(n_rx)

    frames = [calibrate(r, consts) for r in records]
    amp = np.array([f.amplitude_dbm[:, :, 0] for f in frames])  # (T, 30, n_rx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        amp_mean = np.nanmean(amp, axis=0).T  # (n_rx, 30)
        amp_std = np.nanstd(amp, axis=0).T

    n_sc = amp.shape[1]
    phase_mean = np.full((len(pairs), n_sc), np.nan)
    phase_std = np.full((len(pairs), n_sc), np.nan)
    for pi, pair in enumerate(pairs):
        # Records where either port reads absent contribute no phase.
        usable = [
            r for r in records
            if r.rssi[pair[0]] != 0 and r.rssi[pair[1]] != 0
        ]
        if len(usable) < 2:
            continue
        series = differential_series(usable, pair)
        for k in range(n_sc):
            col = series.phase_deg[:, k]
            col = col[~np.isnan(col)]
            if col.size >= 2:
                stats = circular_stats(col)
                phase_mean[pi, k] = stats["mean_deg"]
                phase_std[pi, k] = stats["std_deg"]

    # Per port, the mean over records of each record's fraction of zero
    # entries.  Records may differ in n_tx, so their csi are joined along
    # the tx axis and each record's columns summed back with reduceat.
    n_tx = np.array([r.n_tx for r in records])
    zeros = (np.concatenate([r.csi for r in records], axis=2) == 0).sum(axis=0)
    per_record = np.add.reduceat(zeros, np.cumsum(n_tx) - n_tx, axis=1)
    zero_fraction = (per_record / (N_SUBCARRIERS * n_tx)).mean(axis=1)  # (n_rx,)

    port_power = {}
    for p in range(n_rx):
        vals = [f.port_power_dbm[p] for f in frames if p in f.port_power_dbm]
        if vals:
            port_power[p] = float(np.mean(vals))

    return VariationStats(
        amp_mean_dbm=amp_mean,
        amp_std_db=amp_std,
        phase_mean_deg=phase_mean,
        phase_std_deg=phase_std,
        zero_fraction=zero_fraction,
        pairs=tuple(pairs),
        agc_readouts=tuple(int(r.agc) for r in records),
        port_power_mean_dbm=port_power,
        n_records=len(records),
    )


def classify_losses(
    est_port_loss_db, thresholds: QualityThresholds = QualityThresholds()
) -> str:
    """Loss-only reliability class (no capture statistics involved)."""
    losses = [math.inf if l is None else float(l) for l in est_port_loss_db]
    spread = _loss_spread(losses)
    if spread > thresholds.spread_unmeasurable_db:
        return "PhaseUnmeasurable"
    if max(losses) > thresholds.max_loss_db:
        return "Unstable"
    if spread > thresholds.spread_reliable_db:
        return "Degraded"
    return "Reliable"


def _loss_spread(losses) -> float:
    if len(losses) < 2:
        return 0.0
    if any(math.isinf(l) for l in losses):
        return math.inf
    return max(losses) - min(losses)


def classify(
    stats: VariationStats,
    est_port_loss_db=None,
    thresholds: QualityThresholds = QualityThresholds(),
    consts: CalibrationConstants = CalibrationConstants(),
) -> QualityVerdict:
    """Classify a capture against the loss / spread / saturation criteria.

    est_port_loss_db may be None when no loss estimate is available; the
    loss-based checks are then skipped and only zero-CSI and AGC pinning
    can demote the verdict.
    """
    reasons: list[dict] = []
    triggered: set[str] = set()

    losses = None
    if est_port_loss_db is not None:
        losses = [math.inf if l is None else float(l) for l in est_port_loss_db]

    zmax = float(stats.zero_fraction.max()) if stats.zero_fraction.size else 0.0
    if zmax > thresholds.zero_fraction_max:
        triggered.add("PhaseUnmeasurable")
        reasons.append(
            {"check": "zero_fraction", "threshold": thresholds.zero_fraction_max,
             "observed": zmax}
        )

    if losses is not None:
        spread = _loss_spread(losses)
        if spread > thresholds.spread_unmeasurable_db:
            triggered.add("PhaseUnmeasurable")
            reasons.append(
                {"check": "loss_spread", "threshold": thresholds.spread_unmeasurable_db,
                 "observed": _json_num(spread)}
            )
        elif spread > thresholds.spread_reliable_db:
            triggered.add("Degraded")
            reasons.append(
                {"check": "loss_spread", "threshold": thresholds.spread_reliable_db,
                 "observed": _json_num(spread)}
            )
        max_loss = max(losses)
        if max_loss > thresholds.max_loss_db:
            triggered.add("Unstable")
            reasons.append(
                {"check": "max_loss", "threshold": thresholds.max_loss_db,
                 "observed": _json_num(max_loss)}
            )

    if stats.agc_readouts:
        readouts = set(stats.agc_readouts)
        if readouts == {consts.agc_min}:
            triggered.add("AgcSaturatedLow")
            reasons.append(
                {"check": "agc_pinned_low", "threshold": consts.agc_min,
                 "observed": consts.agc_min}
            )
        elif readouts == {consts.agc_max}:
            triggered.add("AgcSaturatedHigh")
            reasons.append(
                {"check": "agc_pinned_high", "threshold": consts.agc_max,
                 "observed": consts.agc_max}
            )

    for cls in _PRECEDENCE:
        if cls in triggered:
            return QualityVerdict(cls=cls, reasons=reasons)
    return QualityVerdict(cls="Reliable", reasons=reasons)


def _json_num(x: float):
    return "inf" if math.isinf(x) else x


def stats_to_csv(rows: list[tuple[str, VariationStats]]) -> str:
    """Per-capture STD table: one row per capture, Table-style columns."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["label"]
    if rows:
        _, first = rows[0]
        header += [f"amp_std_port{p + 1}_db" for p in range(first.amp_std_db.shape[0])]
        header += [f"phase_std_{pair_label(pr)}_deg" for pr in first.pairs]
        header += [f"zero_fraction_port{p + 1}" for p in range(first.amp_std_db.shape[0])]
    writer.writerow(header)
    for label, stats in rows:
        row = [label]
        row += [f"{v:.4f}" for v in stats.port_amp_std_db()]
        row += [f"{v:.4f}" if not np.isnan(v) else "" for v in stats.pair_phase_std_deg()]
        row += [f"{v:.4f}" for v in stats.zero_fraction]
        writer.writerow(row)
    return buf.getvalue()
