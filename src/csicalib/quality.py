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
from .ingest import (N_SUBCARRIERS, CalibrationConstants, Capture, RawCsiRecord, as_capture,
                     common_n_rx)
from .phase import circular_stats, differential_series
from .powercalib import calibrate, canonical_pairs, pair_label

#: The verdict classes, most severe first.
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
    port_power_mean_dbm is (n_rx,): each port's mean calibrated power over
    the records where it reads present, NaN if it never does.
    zero_fraction is (n_rx,): each port's share of entries with no reading
    (zero CSI or an absent port), averaged over the records.
    """

    amp_mean_dbm: np.ndarray = field(repr=False)
    amp_std_db: np.ndarray = field(repr=False)
    phase_mean_deg: np.ndarray = field(repr=False)
    phase_std_deg: np.ndarray = field(repr=False)
    zero_fraction: np.ndarray = field(repr=False)
    pairs: tuple[tuple[int, int], ...]
    agc_readouts: tuple[int, ...]
    port_power_mean_dbm: np.ndarray
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
    records: Capture | list[RawCsiRecord], consts: CalibrationConstants
) -> VariationStats:
    """Amplitude/phase variation over a capture of a static channel.

    Calibrates the capture one layout run at a time.
    """
    if len(records) < 2:
        raise InsufficientData("need at least two records")
    capture = as_capture(records)
    n_rx = common_n_rx(capture)
    pairs = canonical_pairs(n_rx)
    # The phase statistics come first, so that the capture's series are
    # gone before its amplitudes are held.
    phase = [circular_stats(s.phase_deg) for s in differential_series(capture, pairs)]

    # Per record: the first stream's amplitudes, the port powers, and each
    # port's share of entries with no reading (zero CSI or an absent port,
    # the NaN of calibrate).
    amp = np.empty((len(capture), N_SUBCARRIERS, n_rx))
    power = np.empty((len(capture), n_rx))
    no_reading = np.empty((n_rx, len(capture)))
    for rows, run in capture.runs():
        frame = calibrate(run, consts)
        amp[rows] = frame.amplitude_dbm[..., 0]
        power[rows] = frame.port_power_dbm
        no_reading[:, rows] = np.isnan(frame.amplitude_dbm).mean(axis=(1, 3)).T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        amp_mean = np.nanmean(amp, axis=0).T  # (n_rx, 30)
        amp_std = np.nanstd(amp, axis=0).T

    # One contiguous row per port, here and in no_reading, so that each mean
    # sums in np.mean's pairwise order whichever records read the port absent.
    port_power = np.full(n_rx, np.nan)
    for p, row in enumerate(power.T):
        row = row[~np.isnan(row)]
        if row.size:
            port_power[p] = row.mean()

    return VariationStats(
        amp_mean_dbm=amp_mean,
        amp_std_db=amp_std,
        phase_mean_deg=np.array([s["mean_deg"] for s in phase]).reshape(-1, N_SUBCARRIERS),
        phase_std_deg=np.array([s["std_deg"] for s in phase]).reshape(-1, N_SUBCARRIERS),
        zero_fraction=no_reading.mean(axis=1),
        pairs=pairs,
        agc_readouts=tuple(capture.agc.astype(np.int64).tolist()),
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
