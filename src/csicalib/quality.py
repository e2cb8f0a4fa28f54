"""Capture-level variation statistics and reliability classification.

Classification thresholds default to the measured chip limits: channel
loss beyond 60 dB destabilizes both amplitude and phase, and spreads
between ports beyond 10 dB degrade the statistics.  A spread beyond 30 dB
classifies as unmeasurable, yet the simulated chain does not zero the
weak port's CSI there.  Over a 30 dB base loss, with the acceptance
tests' oscillator distortion, 200 packets and seeds 1-3, the weak port's
zero fraction is 0 at a 30 dB spread, about 0.07 at 33 dB, 0.58 at 35,
0.96 at 36 and 1 at 38: zero CSI starts where the weak port falls below
about half a count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from operator import eq, gt, lt
from types import SimpleNamespace

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


def _reject_nan(settings, *names: str, finite: bool = False) -> None:
    """Raise ConfigError naming the first of the fields names that holds a NaN,
    or with finite an infinity.

    Each field of settings is a number, a sequence of numbers, or None,
    which passes.  Every comparison with NaN is false, so a NaN would pass
    the check of a range.
    """
    for name in names:
        values = np.ravel(getattr(settings, name))
        # NaN is the one value that is not equal to itself.
        if any(value != value for value in values):
            raise ConfigError(f"{name} must be a number, got NaN")
        if finite and any(value in (math.inf, -math.inf) for value in values):
            raise ConfigError(f"{name} must be finite, got an infinity")


@dataclass(frozen=True)
class QualityThresholds:
    """The limits a capture is classified against.

    The defaults of max_loss_db and spread_reliable_db are the paper's two
    reliability criteria: a channel loss under 60 dB and a spread between
    ports under 10 dB.  A spread past spread_unmeasurable_db, and a port
    with more than zero_fraction_max of its entries without a reading,
    are unmeasurable.  The thresholds are checked when built,
    dataclasses.replace included: a NaN loss or spread, since every
    comparison with NaN is false, spread_reliable_db above
    spread_unmeasurable_db, or a zero_fraction_max outside [0, 1], raises
    ConfigError.
    """

    max_loss_db: float = 60.0
    spread_reliable_db: float = 10.0
    spread_unmeasurable_db: float = 30.0
    zero_fraction_max: float = 0.5

    def __post_init__(self):
        _reject_nan(self, "max_loss_db", "spread_reliable_db", "spread_unmeasurable_db")
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


def classify_losses(est_port_loss_db, thresholds: QualityThresholds = QualityThresholds()) -> str:
    """Loss-only reliability class (no capture statistics involved)."""
    return _most_severe(_checks(thresholds, losses=_as_losses(est_port_loss_db)))


def _as_losses(est_port_loss_db) -> list[float]:
    """Loss per port as floats; None or NaN (unmeasured) becomes infinity."""
    return [math.inf if l is None or math.isnan(l) else float(l) for l in est_port_loss_db]


def _spread(values) -> float:
    """The largest minus the smallest value: infinite where one is, 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    if any(math.isinf(v) for v in values):
        return math.inf
    return max(values) - min(values)


def _pinned_agc(given) -> float:
    """The AGC readout of every record of the stats when all read one value; else NaN."""
    readouts = given.stats.agc_readouts
    return readouts[0] if readouts and readouts.count(readouts[0]) == len(readouts) else math.nan


_SPREAD = (("PhaseUnmeasurable", "spread_unmeasurable_db"), ("Degraded", "spread_reliable_db"))

#: Every check of a verdict, in the order of its reasons (docs/FORMATS.md).
#: A row holds the check's name, the input it needs (the capture's stats,
#: the port losses, the stats' port powers when no losses are given, or
#: the chain), how its observed value is read from the inputs, the
#: comparison of that value with a threshold that triggers the check, and
#: a ladder of (class, threshold field): the first pair that triggers gives
#: the class.  A threshold field is one of QualityThresholds, one of
#: CalibrationConstants, or the chain's AGC floor.  A row whose input is
#: not given does not apply; classify gives no chain, so the AGC floor is
#: recommend's alone.
_CHECKS = (
    ("zero_fraction", "stats", lambda g: float(g.stats.zero_fraction.max(initial=0.0)), gt,
     (("PhaseUnmeasurable", "zero_fraction_max"),)),
    ("loss_spread", "losses", lambda g: _spread(g.losses), gt, _SPREAD),
    ("power_spread", "powers", lambda g: _spread([p for p in g.powers if not math.isnan(p)]), gt,
     _SPREAD),
    ("max_loss", "losses", lambda g: max(g.losses), gt, (("Unstable", "max_loss_db"),)),
    ("agc_pinned_low", "stats", _pinned_agc, eq, (("AgcSaturatedLow", "agc_min"),)),
    ("agc_pinned_high", "stats", _pinned_agc, eq, (("AgcSaturatedHigh", "agc_max"),)),
    ("agc_floor", "chain", lambda g: min(g.losses), lt,
     (("AgcSaturatedLow", "agc_floor_loss_db"),)),
)


def _checks(thresholds: QualityThresholds, consts: CalibrationConstants = CalibrationConstants(),
            stats: VariationStats | None = None, losses: list[float] | None = None, chain=None):
    """(class, reason) of each row of _CHECKS that applies and triggers, in order.

    chain, a chipsim.SimConfig, gives the AGC floor; with it, losses must be given.
    """
    # Without losses, the spread of the measured port powers is theirs: tx cancels.
    powers = None if stats is None or losses is not None else stats.port_power_mean_dbm.tolist()
    given = SimpleNamespace(stats=stats, losses=losses, powers=powers, chain=chain)
    limits = {**vars(thresholds), **vars(consts),
              "agc_floor_loss_db": None if chain is None else chain.agc_floor_loss_db()}
    checks = []
    for name, needs, observe, triggers, ladder in _CHECKS:
        if getattr(given, needs) is None:
            continue
        observed = observe(given)
        for cls, field in ladder:
            if triggers(observed, limits[field]):
                checks.append((cls, _reason(name, limits[field], observed)))
                break
    return checks


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
    loss checks are then skipped, and the spread of the measured port
    powers, over the ports that have one, is checked in their place,
    since the transmit power cancels from it.  Zero CSI, AGC pinning and
    that spread can then demote the verdict.
    """
    losses = None if est_port_loss_db is None else _as_losses(est_port_loss_db)
    checks = _checks(thresholds, consts, stats, losses)
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
