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

from .errors import ConfigError, InsufficientData
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

    def validate(self) -> None:
        if not self.spread_reliable_db <= self.spread_unmeasurable_db:
            raise ConfigError("spread_reliable_db must not exceed spread_unmeasurable_db")
        if not 0.0 <= self.zero_fraction_max <= 1.0:
            raise ConfigError("zero_fraction_max must lie in [0, 1]")


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
    records: list[RawCsiRecord], consts: CalibrationConstants
) -> VariationStats:
    """Amplitude/phase variation over a capture of a static channel."""
    if len(records) < 2:
        raise InsufficientData("need at least two records")
    n_rx = common_n_rx(records)
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
        series = differential_series(records, pair)
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
        pairs=pairs,
        agc_readouts=tuple(int(r.agc) for r in records),
        port_power_mean_dbm=port_power,
        n_records=len(records),
    )


def classify_losses(
    est_port_loss_db, thresholds: QualityThresholds = QualityThresholds()
) -> str:
    """Loss-only reliability class (no capture statistics involved)."""
    return _most_severe(_loss_checks(_as_losses(est_port_loss_db), thresholds))


def _as_losses(est_port_loss_db) -> list[float]:
    """Loss per port as floats; None (unmeasured) becomes infinity."""
    return [math.inf if l is None else float(l) for l in est_port_loss_db]


def _loss_checks(losses: list[float], thresholds: QualityThresholds):
    """(class, reason) of each loss and spread check that triggers."""
    checks = []
    spread = _loss_spread(losses)
    if spread > thresholds.spread_unmeasurable_db:
        checks.append(("PhaseUnmeasurable", _reason(
            "loss_spread", thresholds.spread_unmeasurable_db, spread)))
    elif spread > thresholds.spread_reliable_db:
        checks.append(("Degraded", _reason(
            "loss_spread", thresholds.spread_reliable_db, spread)))
    max_loss = max(losses)
    if max_loss > thresholds.max_loss_db:
        checks.append(("Unstable", _reason("max_loss", thresholds.max_loss_db, max_loss)))
    return checks


def _loss_spread(losses) -> float:
    if len(losses) < 2:
        return 0.0
    if any(math.isinf(l) for l in losses):
        return math.inf
    return max(losses) - min(losses)


def _reason(check: str, threshold, observed) -> dict:
    """One triggered check; an infinite observation is written as "inf"."""
    return {"check": check, "threshold": threshold,
            "observed": "inf" if math.isinf(observed) else observed}


def _most_severe(checks) -> str:
    """The most severe class among the (class, reason) checks; Reliable if none."""
    triggered = {cls for cls, _ in checks}
    return next((cls for cls in _PRECEDENCE if cls in triggered), "Reliable")


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
    checks = []
    zmax = float(stats.zero_fraction.max()) if stats.zero_fraction.size else 0.0
    if zmax > thresholds.zero_fraction_max:
        checks.append(("PhaseUnmeasurable", _reason(
            "zero_fraction", thresholds.zero_fraction_max, zmax)))

    if est_port_loss_db is not None:
        checks += _loss_checks(_as_losses(est_port_loss_db), thresholds)

    readouts = set(stats.agc_readouts)
    if readouts == {consts.agc_min}:
        checks.append(("AgcSaturatedLow", _reason(
            "agc_pinned_low", consts.agc_min, consts.agc_min)))
    elif readouts == {consts.agc_max}:
        checks.append(("AgcSaturatedHigh", _reason(
            "agc_pinned_high", consts.agc_max, consts.agc_max)))

    return QualityVerdict(cls=_most_severe(checks),
                          reasons=[reason for _, reason in checks])


def csv_cell(value: float) -> str:
    """A CSV value with four decimals; NaN, a value that does not exist, is empty."""
    return "" if math.isnan(value) else f"{value:.4f}"


def stats_to_csv(rows: list[tuple[str, VariationStats]]) -> str:
    """Per-capture STD table: one row per capture (docs/FORMATS.md)."""
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
        values = [*stats.port_amp_std_db(), *stats.pair_phase_std_deg(),
                  *stats.zero_fraction]
        writer.writerow([label] + [csv_cell(v) for v in values])
    return buf.getvalue()
